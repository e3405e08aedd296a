"""Deterministic CSV/JSON serialization and checksums.

All floating-point values are written with 17 significant digits so a
double round-trips exactly; JSON objects are emitted with
lexicographically sorted keys, and a NaN or infinite float as null,
so every JSON file parses.  Identical inputs therefore produce
byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


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


def write_csv(path, header, rows) -> None:
    """Header plus rows of numbers, one value per header column.

    rows is a 2-D array or a sequence of rows of floats and ints.  Each
    row is formatted by one %-format of 17-digit fields (the same text
    as fmt_float); blocks of about CSV_BLOCK_CELLS values are formatted
    and written in turn, in one pass over the rows.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, CSV_BLOCK_CELLS // len(header))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write("".join([line % tuple(row) for row in block]))


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
