"""Versioned machine-readable verification reports.

Reports with identical inputs and seed serialize byte-identically except for
the timing field, which is explicitly outside the determinism contract.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import jsonschema

SCHEMA = "qspectra-report-v1"

SCHEMA_SPEC = {
    "type": "object",
    "required": ["schema", "scenario", "status", "checks", "seed", "timing"],
    "properties": {
        "schema": {"const": SCHEMA},
        "scenario": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "residual", "tol", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "residual": {"type": "number"},
                    "tol": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "seed": {"type": ["integer", "null"]},
        "timing": {"type": "number"},
    },
}


@functools.cache
def _validator():
    """The report schema's validator, checked against its metaschema once."""
    cls = jsonschema.validators.validator_for(SCHEMA_SPEC)
    cls.check_schema(SCHEMA_SPEC)
    return cls(SCHEMA_SPEC)


def validate_payload(payload: dict) -> None:
    """Raise jsonschema.ValidationError if the payload is not a report."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(payload))
    if error is not None:
        raise error


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
    return Check(name, float(residual), float(tol), bool(residual <= tol))


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
