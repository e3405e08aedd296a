"""Deterministic CSV/JSON serialization and checksums, and the forked
worker processes of large CSVs and threshold curves.

All floating-point values are written with 17 significant digits so a
double round-trips exactly; JSON objects are emitted with
lexicographically sorted keys, and a NaN or infinite float as null,
so every JSON file parses.  Identical inputs therefore produce
byte-identical artifacts, however many forked writers format a large
CSV (write_csv).

forked is the one fork, pipe, reap and kill frame: write_csv sends its
row ranges through it, sweep.threshold_curve its ranges of points.

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


# Cells formatted per write: the text and the Python floats of one
# block of rows are all that is held at a time.
CSV_BLOCK_CELLS = 4096
# Fewest cells per forked writer: a part's fork costs about a tenth of
# its formatting.
PART_CELLS = 32768


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


def _blocks(rows, line, step):
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        if isinstance(block, np.ndarray):
            block = block.tolist()
        yield "".join([line % tuple(row) for row in block])


def _child(task, out, reads):
    """Run task(out), then leave by os._exit only, so no inherited buffer
    is flushed twice, and with status 0 only once task has returned and
    its output is sent."""
    code = 1
    try:
        for fd in reads:
            os.close(fd)
        task(out)
        out.close()
        code = 0
    finally:
        os._exit(code)


def _collect(children, what):
    for child in children:
        while chunk := os.read(child[1], 1 << 16):
            yield chunk
        status, child[0] = os.waitpid(child[0], 0)[1], 0
        if status:
            raise BellquenchError(f"{what} failed")


@contextlib.contextmanager
def forked(tasks, what):
    """Run each task in a forked child while the with block runs.

    A task is a function of one argument, the binary write end of a
    pipe, down which it sends its whole result.  The block receives an
    iterator over the children's output, 64 KiB at a time, each child's
    in task order: once a child's output ends, it is reaped, and a
    child that failed raises BellquenchError ("<what> failed").  The
    child holds the BLAS state of the parent at the fork (OpenBLAS
    stops its thread pool at a fork and restarts it on demand).
    Leaving the block kills (SIGKILL) and reaps every child not yet
    reaped, so no child outlives it.
    """
    children = []  # [pid, pipe read end] per child; pid 0 once reaped
    try:
        for task in tasks:
            read, write = os.pipe()
            children.append([0, read])
            with open(write, "wb") as out:
                pid = children[-1][0] = os.fork()
                if pid == 0:
                    _child(task, out, [r for _, r in children])
        yield _collect(children, what)
    finally:
        for pid, read in children:
            os.close(read)
            if pid:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


def _send_rows(rows, line, step, out):
    """Format rows whole, then send them, so a full pipe cannot stall the
    formatting."""
    out.writelines([block.encode() for block in _blocks(rows, line, step)])


def write_csv(path, header, rows) -> None:
    """Header plus rows of numbers, one value per header column.

    rows is a 2-D array or a sequence of rows of floats and ints.  Each
    row is formatted by one %-format of 17-digit fields (the same text
    as fmt_float), in blocks of about CSV_BLOCK_CELLS values.  The rows
    are split into contiguous ranges, one per writer CPU but none under
    PART_CELLS cells: this process formats the first into the file while
    forked children (forked) format the others, whose text it then
    copies in row order.  So the bytes do not depend on the part count.
    A failed child raises BellquenchError; no child outlives the call.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, CSV_BLOCK_CELLS // len(header))
    parts = max(1, min(writer_cpus(), len(rows) * len(header) // PART_CELLS))
    bounds = [len(rows) * i // parts for i in range(parts + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        with forked([functools.partial(_send_rows, rows[lo:hi], line, step)
                     for lo, hi in zip(bounds[1:], bounds[2:])],
                    f"a writer process of {path}") as text:
            fh.writelines(_blocks(rows[:bounds[1]], line, step))
            fh.flush()
            for chunk in text:
                fh.buffer.write(chunk)


def write_matrix_csv(path, matrix, axis, corner="q_i\\q_f") -> None:
    """Matrix with the grid values as row/column labels."""
    header = [corner] + [fmt_float(q) for q in axis]
    write_csv(path, header, np.column_stack([np.asarray(axis, dtype=float),
                                             np.asarray(matrix, dtype=float)]))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
