import os

import pytest

import bellquench.sweep as sweep_mod


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of the test process behind, running
    or unreaped (forked CSV writers must all be reaped by write_csv)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"(pid {pid}, now reaped)" if pid else "still running"))


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork, with two worker CPUs whatever the host and
    sweep.CURVE_WORK at 1, so that even a tiny curve of two or more
    points takes two workers where the BLAS can be pinned."""
    count = []
    fork = os.fork
    monkeypatch.setattr(sweep_mod, "writer_cpus", lambda: 2)
    monkeypatch.setattr(sweep_mod, "CURVE_WORK", 1)
    monkeypatch.setattr(os, "fork", lambda: count.append(1) or fork())
    return count
