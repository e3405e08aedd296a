"""output.forked joins its ranges in order and leaves no child behind;
write_csv's forked row-range writers give the bytes of the plain loop
whatever the part count; the numpy kernel of float arrays
(_format_cells) gives the bytes of "%.17g"."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

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


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
@pytest.mark.parametrize("count", [0, 1, 5, 12001])
def test_forked_joins_ranges_in_order(forks, count, parts):
    # parts > count leaves some ranges empty; each still takes a child
    def produce(lo, hi):
        return [b"%d," % i for i in range(lo, hi)]

    with output.forked(count, parts, produce, "a part") as chunks:
        assert b"".join(chunks) == b"".join(produce(0, count))
    assert len(forks) == parts - 1 and no_child_left()


@pytest.mark.parametrize("bad, error", [(0, KeyError), (2, BellquenchError),
                                        (4, BellquenchError)],
                         ids=["parent", "middle", "last"])
def test_forked_failed_range_raises_and_reaps(forks, bad, error):
    # ranges [0, 1), [1, 3) and [3, 5): the parent's, a middle and the last
    def produce(lo, hi):
        for i in range(lo, hi):
            if i == bad:
                raise KeyError(i)
            yield b"%d," % i

    with pytest.raises(error), output.forked(5, 3, produce, "a part") as chunks:
        b"".join(chunks)
    assert len(forks) == 2 and no_child_left()


def fail_on_row(monkeypatch, bad_row):
    """_format_cells raising TypeError on the block that holds row
    bad_row (its first cell), in the parent's part or a child's."""
    format_cells = output._format_cells

    def failing(block):
        if bad_row in block[:, 0]:
            raise TypeError(f"row {bad_row}")
        return format_cells(block)

    monkeypatch.setattr(output, "_format_cells", failing)


@pytest.mark.parametrize("bad_row, error", [(0, TypeError), (15, BellquenchError),
                                            (29, BellquenchError)],
                         ids=["parent", "middle", "last"])
def test_failed_part_raises_and_reaps(tmp_path, monkeypatch, forks, bad_row, error):
    # a block that fails to format, in the parent's part or a child's
    monkeypatch.setattr(output, "writer_cpus", lambda: 3)
    rows = [[i, 0.5, 1.5] for i in range(30)]
    fail_on_row(monkeypatch, bad_row)
    with pytest.raises(error):
        output.write_csv(tmp_path / "f.csv", HEADER, rows)
    assert len(forks) == 2 and no_child_left()


def test_failed_writer_exits_nonzero(tmp_path, monkeypatch, forks, capsys):
    monkeypatch.setattr(output, "writer_cpus", lambda: 2)
    rows = [[i, 0.5, 1.5] for i in range(30)]
    fail_on_row(monkeypatch, 29)
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


def percent_bytes(cells):
    line = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in cells.tolist()).encode()


def assert_kernel_bytes(cells):
    assert output._format_cells(cells) == percent_bytes(cells)


@pytest.mark.filterwarnings("error")
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_kernel_bytes_are_percent_format(cells):
    assert_kernel_bytes(cells)


def edge_values():
    """Powers of ten and both neighbours, exact ties of the 17th digit
    (M + j / 2^(17 - X) for X = floor(log10 M), j odd, which round half
    to even), the domain bounds, subnormals and non-finite values."""
    powers = 10.0 ** np.arange(-8, 19)
    ties = [10.0 ** x + j / 2.0 ** (17 - x) for x in range(6, 16) for j in (1, 3, 5)]
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), ties,
        [1e9 + 1 / 256, 0.5, 2.5, 0.1, 1 / 3, 2.0 ** -1074, 2.0 ** -1022,
         np.nextafter(2.0 ** -1022, 0), np.finfo(float).max, 2.0 ** 53 + 2,
         0.0, np.nan, np.inf, 9.9999999999999995e-7, 99999999999999984.0]])
    return np.concatenate([values, -values])


@pytest.mark.filterwarnings("error")
def test_kernel_edge_values():
    values = edge_values()
    assert_kernel_bytes(values[:, None])
    assert_kernel_bytes(np.resize(values, (values.size // 3, 3)))
    # a tie takes the even 17th digit, down and up
    assert output._format_cells(np.array([[1e15 + 0.25, 1e15 + 0.75]])) == (
        b"1000000000000000.2,1000000000000000.8\n")


@pytest.mark.filterwarnings("error")
def test_kernel_random_bit_patterns():
    # 2^20 doubles: half of every exponent, half of the kernel's domain
    # (binary exponents -20 to 56, outside which every cell falls back)
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    exponent = rng.integers(1023 - 20, 1023 + 57, 2 ** 19, dtype=np.uint64)
    bits[::2] = bits[::2] & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    assert_kernel_bytes(bits.view(np.float64).reshape(-1, 8))


@pytest.mark.filterwarnings("error")
def test_fallback_alone_gives_the_same_bytes(monkeypatch):
    # a zero scale puts every cell outside the exact range, so each
    # takes the %-format of the fallback
    scale, *rest = output._digit_tables()
    monkeypatch.setattr(output, "_digit_tables", lambda: (0 * scale, *rest))
    rng = np.random.default_rng(7)
    cells = rng.standard_normal((500, 9)) * 10.0 ** rng.integers(-7, 5, (500, 9))
    assert_kernel_bytes(cells)
    monkeypatch.undo()
    assert_kernel_bytes(cells)
