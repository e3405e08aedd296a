"""Deterministic CSV/JSON serialization and checksums.

All floating-point values are written with 17 significant digits so a
double round-trips exactly; JSON objects are emitted with
lexicographically sorted keys, and a NaN or infinite float as null,
so every JSON file parses.  Identical inputs therefore produce
byte-identical artifacts, however many forked writers format a large
CSV (write_csv).
"""

from __future__ import annotations

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
# Fewest cells per forked writer.  Forking and reaping a 36 MB evolve
# process took 3 ms, and formatting a cell 0.86 us (2-vCPU x86 guest,
# py3.11), so a part's fork costs a tenth of its formatting.  evolve's
# 108k cells take 2 parts on 2 CPUs; a curve (24 cells at most) takes 1.
PART_CELLS = 32768


def writer_cpus() -> int:
    """CPUs write_csv may use: 1 without os.sched_getaffinity (or fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _blocks(rows, line, step):
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        if isinstance(block, np.ndarray):
            block = block.tolist()
        yield "".join([line % tuple(row) for row in block])


def _child(out, reads, rows, line, step):
    """Format rows whole, then send them, so a full pipe cannot stall the
    formatting.  No BLAS call (OpenBLAS stops its threads at a fork);
    exit by os._exit only, so no inherited buffer is flushed twice, and
    with status 0 only once every row is sent."""
    code = 1
    try:
        for fd in reads:
            os.close(fd)
        out.writelines(list(_blocks(rows, line, step)))
        out.close()
        code = 0
    finally:
        os._exit(code)


def write_csv(path, header, rows) -> None:
    """Header plus rows of numbers, one value per header column.

    rows is a 2-D array or a sequence of rows of floats and ints.  Each
    row is formatted by one %-format of 17-digit fields (the same text
    as fmt_float), in blocks of about CSV_BLOCK_CELLS values.  The rows
    are split into contiguous ranges, one per writer CPU but none under
    PART_CELLS cells: this process formats the first into the file while
    forked children format the others, whose text it then copies in row
    order.  So the bytes do not depend on the part count.  A failed
    child raises BellquenchError; no child outlives the call.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, CSV_BLOCK_CELLS // len(header))
    parts = max(1, min(writer_cpus(), len(rows) * len(header) // PART_CELLS))
    bounds = [len(rows) * i // parts for i in range(parts + 1)]
    children = []  # [pid, pipe read end] per forked part; pid 0 once reaped
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(str(h) for h in header) + "\n")
            for lo, hi in zip(bounds[1:], bounds[2:]):
                read, write = os.pipe()
                children.append([0, read])
                with open(write, "w", encoding="utf-8", newline="\n") as out:
                    pid = children[-1][0] = os.fork()
                    if pid == 0:
                        _child(out, [r for _, r in children], rows[lo:hi], line, step)
            fh.writelines(_blocks(rows[:bounds[1]], line, step))
            fh.flush()
            for child in children:
                while chunk := os.read(child[1], 1 << 16):
                    fh.buffer.write(chunk)
                status, child[0] = os.waitpid(child[0], 0)[1], 0
                if status:
                    raise BellquenchError(f"a writer process of {path} failed")
    finally:
        for pid, read in children:
            os.close(read)
            if pid:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


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
