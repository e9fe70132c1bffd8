"""JSON and text serialization for quaternions, vectors, matrices, measure
spaces and symbols.

Floats round-trip bit-exactly: json and repr both emit the shortest decimal
that parses back to the same double (17 significant digits suffice).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .measure import AtomicMeasureSpace, Symbol
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame
from .transform import UnboundedSim


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


def quaternion_to_text(q: Quaternion) -> str:
    return ",".join(repr(c) for c in (q.w, q.x, q.y, q.z))


def quaternion_from_text(text: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputFormatError(f"expected 'w,x,y,z', got {text!r}")
    try:
        return Quaternion(*(float(p) for p in parts))
    except ValueError as exc:
        raise InputFormatError(f"non-numeric component in {text!r}") from exc


def vector_to_json(x: np.ndarray) -> list[list[float]]:
    return np.asarray(x, dtype=np.float64).tolist()


def _finite_array(data, shape: tuple[int, ...]) -> np.ndarray | None:
    """data as a finite float64 array of the given shape, or None when it is
    not one; callers then walk the entries to name the first bad one."""
    try:
        out = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if out.shape != shape or not np.all(np.isfinite(out)):
        return None
    return out


def _quaternion_rows(rows) -> list[list[float]]:
    return [quaternion_to_list(quaternion_from_list(e)) for e in rows]


def vector_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise InputFormatError("vector must be a non-empty JSON array")
    out = _finite_array(data, (len(data), 4))
    if out is None:
        out = np.asarray(_quaternion_rows(data), dtype=np.float64)
    return out


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
    out = _finite_array(entries, (n, n, 4))
    if out is None:
        grid = []
        for row in entries:
            if not isinstance(row, list) or len(row) != n:
                raise InputFormatError(f"expected {n} entries per row")
            grid.append(_quaternion_rows(row))
        out = np.asarray(grid, dtype=np.float64)
    return QMatrix(out)


def space_to_json(space: AtomicMeasureSpace) -> dict:
    return {
        "atoms": space.atoms.tolist(),
        "weights": space.weights.tolist(),
    }


def space_from_json(data) -> AtomicMeasureSpace:
    if not isinstance(data, dict) or "atoms" not in data or "weights" not in data:
        raise InputFormatError('measure-space JSON needs keys "atoms" and "weights"')
    atoms = vector_from_json(data["atoms"])
    try:
        weights = np.asarray([float(w) for w in data["weights"]], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputFormatError("weights must be numeric") from exc
    if not np.all(np.isfinite(weights)):
        raise InputFormatError("weights must be finite")
    try:
        return AtomicMeasureSpace(atoms, weights)
    except Exception as exc:
        raise InputFormatError(str(exc)) from exc


def symbol_to_json(sym: Symbol) -> dict:
    out = space_to_json(sym.space)
    out["values"] = sym.values.tolist()
    return out


def _symbol_from_json(data, key: str, frame: SliceFrame) -> Symbol:
    space = space_from_json(data)
    if key not in data:
        raise InputFormatError(f'symbol JSON needs array "{key}" parallel to "atoms"')
    values = vector_from_json(data[key])
    try:
        return Symbol(space, values, frame)
    except Exception as exc:
        raise InputFormatError(str(exc)) from exc


def symbol_from_json(data, frame: SliceFrame) -> Symbol:
    return _symbol_from_json(data, "values", frame)


def unbounded_sim_from_json(data, frame: SliceFrame) -> UnboundedSim:
    return UnboundedSim.from_symbol(_symbol_from_json(data, "psi", frame))


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
