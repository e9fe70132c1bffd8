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
TINY = 1e-300  # floor of a scale that may be 0, so that a bound on it stays positive
# Coefficient c of each named check's bound c * max(scale, TINY), for the scale
# its routine passes (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 2-3); qarray.normality reads its c alone, as it rescales.
BOUNDS = {
    "normal.commutator": 1e-10,  # ||A||_F^2
    "decompose.eigen_residual": 1e-9,  # ||A||_F
    "decompose.unitary": 1e-10,  # sqrt n
    "decompose.reconstruction": 1e-9,  # ||A||_F
    "decompose.norm_identity": 1e-9,  # ||A||
    "decompose.slice_spectrum_plus": 1e-8,  # ||A||
    "slices.J_unitary": 1e-10,  # n
    "slices.J_commutes": 1e-9,  # ||V D V*||_F
    "slices.restrict_commutes": 1e-9,  # ||A||_F
    "slices.extend_commutes": 1e-9,  # ||V2 U V1*||_F
    "slices.extend_norm": 1e-9,  # ||V2 U V1*||
    "spectral.conjugate_residual": 1e-9,  # ||V D V*||_F
    "transform.contraction": 1.0 + 1e-12,  # 1; rounding hides ||Z|| < 1 from ||A|| ~ 1e8 on
    "transform.defining_residual": 1e-9,  # ||A||_F
    "transform.star_compatible": 1e-10,  # ||A||_F: Z carries the SVD's error, ~eps ||A||
    "transform.round_trip": 1e-8,  # 1 + ||A||^2, the reconstruction's conditioning
    "transform.inverse_round_trip": 1e-8,  # 1 + ||T||^2
    "transform.xi_round_trip": 1e-10,  # 1 + max |psi|
    "vectors.expand_reconstruction": 1e-10,  # 1 + ||x||
}


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


def scaled_check(name: str, residual: float, scale: float) -> Check:
    """The named check against its bound BOUNDS[name] * max(scale, TINY)."""
    return check_from(name, residual, BOUNDS[name] * max(scale, TINY))


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
