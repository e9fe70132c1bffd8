"""JSON and text serialization of quaternions and matrices: the matrix files
that decompose and transform read, and the slice axis that --m takes.

Floats round-trip bit-exactly: json and repr both emit the shortest decimal
that parses back to the same double (17 significant digits suffice).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .operators import QMatrix
from .quaternion import Quaternion


def quaternion_to_list(q: Quaternion) -> list[float]:
    return [q.w, q.x, q.y, q.z]


def quaternion_from_list(data) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise InputFormatError(f"quaternion must be a 4-array, got {data!r}")
    try:
        q = Quaternion(*(float(v) for v in data))
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"non-numeric quaternion component in {data!r}") from exc
    if not all(np.isfinite(c) for c in (q.w, q.x, q.y, q.z)):
        raise InputFormatError(f"non-finite quaternion component in {data!r}")
    return q


def quaternion_from_text(text: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputFormatError(f"expected 'w,x,y,z', got {text!r}")
    try:
        return Quaternion(*(float(p) for p in parts))
    except ValueError as exc:
        raise InputFormatError(f"non-numeric component in {text!r}") from exc


def matrix_to_json(a: QMatrix) -> dict:
    return {"n": a.shape[0], "entries": a.a.tolist()}


def matrix_from_json(data) -> QMatrix:
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise InputFormatError('matrix JSON needs keys "n" and "entries"')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or n < 1:
        raise InputFormatError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n:
        raise InputFormatError(f"expected {n} rows of entries")
    try:
        out = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        out = None
    # anything but a finite (n, n, 4) grid is walked entry by entry, so that
    # the error names the first bad one
    if out is None or out.shape != (n, n, 4) or not np.all(np.isfinite(out)):
        grid = []
        for row in entries:
            if not isinstance(row, list) or len(row) != n:
                raise InputFormatError(f"expected {n} entries per row")
            grid.append([quaternion_to_list(quaternion_from_list(e)) for e in row])
        out = np.asarray(grid, dtype=np.float64)
    return QMatrix(out)


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON in {path}: {exc}") from exc


def save_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
