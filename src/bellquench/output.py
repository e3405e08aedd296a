"""Deterministic CSV/JSON serialization and checksums, and the forked
worker processes of large CSVs and threshold curves.

All floating-point values are written with 17 significant digits so a
double round-trips exactly; JSON objects are emitted with
lexicographically sorted keys, and a NaN or infinite float as null,
so every JSON file parses.  Identical inputs therefore produce
byte-identical artifacts, however many forked writers format a large
CSV (write_csv).

Every CSV cell, as a float64, gets the bytes of "%.17g" from array
operations (_format_cells), exactly: for 1e-6 <= |x| < 1e17, s =
10^(16 - X), X = floor(log10|x|), is an exact double, Dekker's
TwoProduct gives p + e = |x| s and p + rint(e) (p is even) rounds it
half to even.  Other cells, and any whose p + e is not in [10^16,
10^17 - 1/2), take "%.17g".

forked is the one fork, pipe, reap and kill frame, and the one place
that splits a range into parts and runs the first in this process:
write_csv formats its row ranges through it, sweep.threshold_curve its
ranges of points.

What a process may use: writer_cpus is how many processes either may
fork; openblas finds numpy's scipy-openblas for the manifest's runtime
record (cli) and for one_blas_thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os

import numpy as np

from .errors import BellquenchError


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _json_value(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_json_value(v)}"
                         for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_value(obj) + "\n")


# Cells formatted (and held) at a time: 8192 writes no faster, with twice the memory.
CSV_BLOCK_CELLS = 4096
# Fewest cells per forked writer: two finish evolve's 108,009 cells ~1 ms before one.
PART_CELLS = 32768
SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter of a double into two halves


def writer_cpus() -> int:
    """CPUs write_csv and threshold_curve may use: 1 without
    os.sched_getaffinity (or fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def openblas():
    """numpy's scipy-openblas library through ctypes, with its corename,
    get_num_threads and set_num_threads declared, looked up once per
    process; None where numpy links another BLAS, which this package
    can neither pin nor name."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        lib = ctypes.CDLL(os.path.join(libs, name)) if "scipy_openblas" in name else None
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_get_corename64_.argtypes = []
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block's BLAS products on one OpenBLAS thread, the thread
    count restored after it, and give the block that count, 1; where
    openblas() finds no library to pin, they run on the BLAS's own
    threads and the block gets None.  One thread gives the
    OPENBLAS_NUM_THREADS=1 bits, which can differ in the last digit
    from those of two."""
    lib = openblas()
    if lib is None:
        yield None
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield 1
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


@functools.cache
def _digit_tables():
    """_format_cells' tables per X = xi - 7, leading digit d0, 4-digit group
    and (sign, X, significant digits m), built once a process."""
    digits = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)  # "d.d.d.d."
    zeros = np.zeros((10, 10, 10, 10), np.intp)  # trailing zeros, 4 for 0000
    for k in range(4):
        digits[..., 2 * k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
        zeros[(...,) + (0,) * (k + 1)] = k + 1
    # 10^(16 - X) and its halves; 0 for X = -7 and 17, a log10 one off
    scale = [float(10 ** (16 - x)) if -7 < x < 17 else 0.0 for x in range(-7, 18)]
    high = [s * SPLIT - (s * SPLIT - s) for s in scale]
    # a cell's bytes: sign "0.000" d0 "." d1 "." ... d16 "." e-XX separator
    sign, x, m, col = np.ix_([0, 1], np.arange(-7.0, 18), np.arange(18.0), np.arange(48.0))
    fixed, i = (x >= -4) & (x < 17), col // 2 - 3  # digit i at column 6 + 2 i
    keep = ((col == 0) & (sign == 1) | (col > 0) & (col < 2 - x) & (x < 0) & fixed
            | (col >= 6) & (col < 40) & np.where(col % 2 == 0, i < np.where(
                fixed, np.maximum(m, x + 1), m), (i == np.where(fixed, x, 0)) & (i < m - 1))
            | (col >= 40) & (col < 44) & ~fixed | (col == 44))
    words = [b"-0.000%d." % d for d in range(10)]
    words += [b"e%+03d%c\0\0\0" % (x, c) for c in b",\n" for x in range(-7, 18)]
    return (np.array([scale, high, np.subtract(scale, high)]), digits.view(np.uint64), zeros,
            np.frombuffer(b"".join(words), np.uint64), np.frombuffer(keep.tobytes().replace(
                b"\1", b"\xff"), np.uint64).reshape(-1, 6))  # np.take flattens digits, zeros


def _format_cells(block):
    """The "%.17g" bytes of a 2-D float64 block's cells, "," and "\n" joined."""
    scale, digits, zeros, words, masks = _digit_tables()
    x = block.ravel()
    ok = (np.abs(x) >= 1e-6) & (np.abs(x) < 1e17)  # else (0, NaN, ...) the fallback's
    a = np.where(ok, np.abs(x), 1.0)
    xi = (np.floor(np.log10(a)) + 7).astype(np.intp)
    s, s_hi, s_lo = np.take(scale, xi, axis=1)
    p, hi = a * s, a * SPLIT - (a * SPLIT - a)
    e = ((hi * s_hi - p) + hi * s_lo + (a - hi) * s_hi) + (a - hi) * s_lo  # p + e = a s
    # 10^16 <= p + e < 10^17 - 1/2: log10 was not one off; no domain double rounds up
    ok &= ((p - 1e16) + e >= 0) & ((p - 1e17) + e < -0.5)
    g = p.astype(np.int64) + np.rint(e).astype(np.int64)  # d0 and 4-digit groups
    del a, s, s_hi, s_lo, p, hi, e  # only a block's bytes are held
    g = g // np.array([[10 ** 16], [10 ** 12], [10 ** 8], [10 ** 4], [1]])
    g[1:] -= g[:-1] * 10 ** 4
    t = np.take(zeros, g[1:])  # m: significant digits
    m = 17 - t[3] - (t[3] == 4) * (t[2] + (t[2] == 4) * (t[1] + (t[1] == 4) * t[0]))
    text = np.empty((x.size, 6), np.uint64)
    text[:, 0], text[:, 1:5] = np.take(words, g[0]), np.take(digits, g[1:]).T
    text[:, 5] = np.take(words, xi.reshape(block.shape) + (
        [10] * (block.shape[1] - 1) + [35])).ravel()  # "e-XX" and separator
    text &= np.take(masks, np.where(x < 0, 450, 0) + 18 * xi + m, axis=0)
    bad = np.flatnonzero(~ok)  # "%.17g" itself, padded with NUL bytes
    text.view(np.uint8)[bad, :44] = np.array(["%.17g" % v for v in x[bad].tolist()],
                                             "S44").view(np.uint8).reshape(bad.size, 44)
    return text.tobytes().translate(None, b"\0")


def _blocks(rows, step):
    for start in range(0, len(rows), step):
        yield _format_cells(rows[start:start + step])


def _child(produce, lo, hi, out, reads):
    """Send produce(lo, hi), formed whole first so a full pipe cannot
    stall it, then leave by os._exit only, so no inherited buffer is
    flushed twice, and with status 0 only once all of it is sent."""
    code = 1
    try:
        for fd in reads:
            os.close(fd)
        out.writelines(list(produce(lo, hi)))
        out.close()
        code = 0
    finally:
        os._exit(code)


def _collect(first, children, what):
    yield from first
    for child in children:
        while chunk := os.read(child[1], 1 << 16):
            yield chunk
        status, child[0] = os.waitpid(child[0], 0)[1], 0
        if status:
            raise BellquenchError(f"{what} failed")


@contextlib.contextmanager
def forked(count, parts, produce, what):
    """Produce range(count) in `parts` contiguous ranges while the with
    block runs.

    produce(lo, hi) returns an iterable of bytes for range(lo, hi).
    This process produces the first range, as the block reads it, while
    a forked child per other range produces that one whole and sends it
    down a pipe.  The block receives one iterator over all the bytes in
    range order, a child's 64 KiB at a time: once a child's output
    ends, it is reaped, and a child that failed raises BellquenchError
    ("<what> failed").  The child holds the BLAS state of the parent at
    the fork (OpenBLAS stops its thread pool at a fork and restarts it
    on demand).  Leaving the block kills (SIGKILL) and reaps every
    child not yet reaped, so no child outlives it.
    """
    bounds = [count * i // parts for i in range(parts + 1)]
    children = []  # [pid, pipe read end] per child; pid 0 once reaped
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            read, write = os.pipe()
            children.append([0, read])
            with open(write, "wb") as out:
                pid = children[-1][0] = os.fork()
                if pid == 0:
                    _child(produce, lo, hi, out, [r for _, r in children])
        yield _collect(produce(0, bounds[1]), children, what)
    finally:
        for pid, read in children:
            os.close(read)
            if pid:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


def write_csv(path, header, rows) -> None:
    """Header plus rows of numbers, one value per header column.

    rows, converted once to a 2-D float64 array, are formatted by
    _format_cells, the text of fmt_float, in blocks of about
    CSV_BLOCK_CELLS values.  They are split into contiguous ranges, one
    per writer CPU but none under PART_CELLS cells: this process formats
    the first into the file while forked children (forked) format the
    others, whose bytes it then copies in row order.  So the bytes do
    not depend on the part count.  A failed child raises
    BellquenchError; no child outlives it.
    """
    rows = np.asarray(rows, dtype=np.float64)
    step = max(1, CSV_BLOCK_CELLS // len(header))
    parts = max(1, min(writer_cpus(), len(rows) * len(header) // PART_CELLS))
    with open(path, "wb") as fh:
        fh.write((",".join(str(h) for h in header) + "\n").encode())
        with forked(len(rows), parts, lambda lo, hi: _blocks(rows[lo:hi], step),
                    f"a writer process of {path}") as chunks:
            fh.writelines(chunks)


def write_matrix_csv(path, matrix, axis, corner="q_i\\q_f") -> None:
    """Matrix with the grid values as row/column labels."""
    header = [corner] + [fmt_float(q) for q in axis]
    write_csv(path, header, np.column_stack([np.asarray(axis, dtype=float),
                                             np.asarray(matrix, dtype=float)]))


def sha256_file(path) -> str:
    # one 64 KiB buffer: a new 1 MiB bytes object a read added 1 MB to the
    # peak RSS of a run that writes a large CSV
    digest, buffer = hashlib.sha256(), bytearray(1 << 16)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(memoryview(buffer)[:size])
    return digest.hexdigest()
