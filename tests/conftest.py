import os

import pytest


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
