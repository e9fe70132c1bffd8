"""Versioned machine-readable verification reports.

Reports with identical inputs and seed serialize byte-identically except for
the timing field, which is explicitly outside the determinism contract.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import ReportSchemaError

SCHEMA = "qspectra-report-v1"


def _number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# Field -> test; a report may carry extra fields (phi, zNorm, ...), a check not.
_REPORT_FIELDS = {
    "schema": lambda x: isinstance(x, str) and x == SCHEMA,
    "scenario": lambda x: isinstance(x, str),
    "status": lambda x: isinstance(x, str) and x in ("pass", "fail"),
    "checks": lambda x: isinstance(x, list),
    "seed": lambda x: x is None or (_number(x) and isinstance(x, int))
    or (isinstance(x, float) and x.is_integer()),
    "timing": _number,
}
_CHECK_FIELDS = {
    "name": lambda x: isinstance(x, str),
    "residual": _number,
    "tol": _number,
    "pass": lambda x: isinstance(x, bool),
}


def _validate(obj, fields: dict, path: str, closed: bool) -> None:
    if not isinstance(obj, dict):
        raise ReportSchemaError(f"{path or 'report'}: expected an object, got {obj!r}")
    for key, test in fields.items():
        where = f"{path}.{key}" if path else key
        if key not in obj:
            raise ReportSchemaError(f"{where}: missing")
        if not test(obj[key]):
            raise ReportSchemaError(f"{where}: invalid value {obj[key]!r}")
    extra = obj.keys() - fields.keys() if closed else set()
    if extra:
        raise ReportSchemaError(f"{path}: unexpected fields {sorted(map(str, extra))}")


def validate_payload(payload: dict) -> None:
    """Raise ReportSchemaError, naming the offending key path, unless the
    payload is a report. Types are JSON Schema's as jsonschema reads Python
    values: bool is no integer or number, an integral float is an integer,
    and any other numbers.Number (np.float64, np.int64) is a number."""
    _validate(payload, _REPORT_FIELDS, "", closed=False)
    for i, check in enumerate(payload["checks"]):
        _validate(check, _CHECK_FIELDS, f"checks[{i}]", closed=True)


@dataclass
class Check:
    name: str
    residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


def check_from(name: str, residual: float, tol: float) -> Check:
    """residual <= tol; a bound that overflowed to inf or NaN bounds nothing."""
    return Check(name, float(residual), float(tol), bool(residual <= tol < math.inf))


def require(check: Check, error: type[Exception]) -> Check:
    """The check, or error naming its residual and bound, each to the last
    digit (||Z|| and its bound 1 + 1e-12 differ past the 12th), if it failed."""
    if not check.passed:
        raise error(f"{check.name}: residual {check.residual!r} not within {check.tol!r}")
    return check


def flag_check(name: str, passed: bool) -> Check:
    """Boolean check carried as residual 0/1 against tolerance 0."""
    return Check(name, 0.0 if passed else 1.0, 0.0, passed)


@dataclass
class VerificationReport:
    scenario: str
    checks: list[Check]
    seed: int | None = None
    timing: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "status": "pass" if self.passed else "fail",
            "checks": [c.to_dict() for c in self.checks],
            "seed": self.seed,
            "timing": float(self.timing),
        }
        out.update(self.extra)
        validate_payload(out)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
