"""output.write_csv: forked row-range writers give the bytes of the plain
loop whatever the part count, and leave no child behind."""

import os
import subprocess
import sys

import numpy as np
import pytest

import bellquench
import bellquench.cli as cli
from bellquench import output
from bellquench.errors import BellquenchError

HEADER = ["i", "x", "y"]
LINE = ",".join(["%.17g"] * len(HEADER)) + "\n"
STEP = output.CSV_BLOCK_CELLS // len(HEADER)  # rows write_csv formats per block


def plain_text(rows):
    return ",".join(HEADER) + "\n" + "".join(LINE % tuple(row) for row in rows)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """A list with one entry per os.fork, with PART_CELLS at 1 so that
    even one row may take several parts."""
    count = []
    fork = os.fork
    monkeypatch.setattr(output, "PART_CELLS", 1)
    monkeypatch.setattr(os, "fork", lambda: count.append(1) or fork())
    return count


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@pytest.mark.parametrize("count", [1, STEP - 1, STEP, STEP + 1, 12001])
@pytest.mark.parametrize("kind", ["ndarray", "list"])
def test_bytes_do_not_depend_on_part_count(tmp_path, monkeypatch, forks, cpus,
                                           count, kind):
    monkeypatch.setattr(output, "writer_cpus", lambda: cpus)
    rng = np.random.default_rng(count)
    rows = np.column_stack([np.arange(count), rng.standard_normal((count, 2))
                            * 10.0 ** rng.integers(-300, 300, (count, 2))])
    rows[-1, 1:] = np.nan, -np.inf
    if kind == "list":  # ints and floats, as a threshold curve's rows
        rows = [[int(i), x, y] for i, x, y in rows.tolist()]
    path = tmp_path / "f.csv"
    output.write_csv(path, HEADER, rows)
    got, want = path.read_text().splitlines(True), plain_text(rows).splitlines(True)
    assert len(got) == len(want)
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []
    assert len(forks) == min(cpus, count * len(HEADER)) - 1


@pytest.mark.parametrize("bad_row, error", [(0, TypeError), (15, BellquenchError),
                                            (29, BellquenchError)],
                         ids=["parent", "middle", "last"])
def test_failed_part_raises_and_reaps(tmp_path, monkeypatch, forks, bad_row, error):
    # a value that %-format rejects, in the parent's part or a child's
    monkeypatch.setattr(output, "writer_cpus", lambda: 3)
    rows = [[i, 0.5, 1.5] for i in range(30)]
    rows[bad_row][1] = "x"
    with pytest.raises(error):
        output.write_csv(tmp_path / "f.csv", HEADER, rows)
    assert len(forks) == 2 and no_child_left()


def test_failed_writer_exits_nonzero(tmp_path, monkeypatch, forks, capsys):
    monkeypatch.setattr(output, "writer_cpus", lambda: 2)
    rows = [[i, 0.5, 1.5] for i in range(30)]
    rows[-1][2] = "x"
    monkeypatch.setattr(cli, "cmd_evolve", lambda config: (
        {}, {"f.csv": (output.write_csv, HEADER, rows)}))
    out = tmp_path / "o"
    assert cli.main(["evolve", "--out", str(out)]) == 1
    assert "writer process" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert forks and no_child_left()


def test_blas_after_fork_keeps_bits(tmp_path, monkeypatch, forks):
    # an evolve whose CSV forks, then a 3-quantifier sweep (threaded
    # GEMMs on a BLAS pool the fork shut down) in the same process: the
    # sweep's files equal those of a fresh process that never forked
    monkeypatch.setattr(output, "writer_cpus", lambda: 2)
    assert cli.main(["evolve", "--gamma", "1", "--alpha", "10", "--q-initial", "0.5",
                     "--q-final", "2.5", "--n", "128", "--t-max", "50",
                     "--out", str(tmp_path / "e")]) == 0
    assert forks
    sweep = ["sweep", "--gamma", "0.8", "--alpha", "3.5", "--n", "256",
             "--step", "0.05", "--quantifiers", "bell,entanglement,czz"]
    assert cli.main([*sweep, "--out", str(tmp_path / "here")]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(bellquench.__file__)))
    subprocess.run([sys.executable, "-m", "bellquench.cli", *sweep,
                    "--out", str(tmp_path / "fresh")],
                   env=dict(os.environ, PYTHONPATH=src), check=True,
                   capture_output=True)
    names = sorted(os.listdir(tmp_path / "fresh"))
    assert len(names) == 7 and names == sorted(os.listdir(tmp_path / "here"))
    for name in names:
        if name != "manifest.json":
            assert ((tmp_path / "here" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name
