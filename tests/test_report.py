import decimal
import json
import math
import re

import numpy as np
import pytest

from qspectra import STANDARD_FRAME, bridge, slices, spectral, transform, vectors
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.errors import (
    CrossCheckError,
    EigenResidualError,
    IncompleteBasisError,
    NotNormalError,
    ReportSchemaError,
    SliceCommutationError,
    SliceMembershipError,
    TransformDomainError,
)
from qspectra.report import (
    SCHEMA,
    Check,
    VerificationReport,
    check_from,
    flag_check,
    require,
    validate_payload,
)


class TestChecks:
    def test_check_from_compares_residual(self):
        assert check_from("x", 1e-12, 1e-10).passed
        assert not check_from("x", 1e-8, 1e-10).passed

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_check_from_fails_on_non_finite_bound(self, tol):
        # a bound that overflowed bounds nothing, whatever the residual
        assert not check_from("x", 0.0, tol).passed
        assert not check_from("x", np.inf, tol).passed

    def test_flag_check(self):
        assert flag_check("x", True).passed
        assert not flag_check("x", False).passed

    def test_require_returns_a_passed_check(self):
        check = check_from("x", 1e-12, 1e-10)
        assert require(check, ValueError) is check

    @pytest.mark.parametrize(
        "residual, tol, shown",
        [(2e-8, 1e-10, "2e-08 not within 1e-10"), (np.nan, 1.0, "nan not within 1.0")],
    )
    def test_require_names_check_residual_and_bound(self, residual, tol, shown):
        # NaN fails as check_from decides it, not as a `residual > tol` test would
        with pytest.raises(ValueError, match=f"^{re.escape(f'x.y: residual {shown}')}$"):
            require(check_from("x.y", residual, tol), ValueError)


def _decompose(a):
    return bridge.spectral_decompose(a, STANDARD_FRAME)


def _form(a):
    return spectral.multiplication_form(a, STANDARD_FRAME)


def _build_J(a):
    return slices.build_J(_decompose(a))


def _restrict(a):
    return slices.restrict_pair(a, _build_J(a))


def _extend_between(a):
    s = _build_J(a)
    return slices.extend_between(slices.restrict_plus(a, s), s, s)


def _conjugate(a):
    return spectral.conjugate_equivalence(_form(a))


def _unbounded(a):
    sim = transform.UnboundedSim.from_symbol(_form(a).phi)
    return transform.unbounded_multiplication_form(sim, STANDARD_FRAME)


def _expand(a):
    return vectors.expand(a.a[:, 0], vectors.gram_schmidt(list(a.a.transpose(1, 0, 2))))


# module that builds the check, its name, the error raised from it, the routine
CONTRACTS = [
    (qa, "normal.commutator", NotNormalError, _decompose),
    (bridge, "decompose.eigen_residual", EigenResidualError, _decompose),
    (bridge, "decompose.unitary", EigenResidualError, _decompose),
    (spectral, "decompose.reconstruction", CrossCheckError, _form),
    (spectral, "decompose.norm_identity", CrossCheckError, _form),
    (transform, "transform.contraction", TransformDomainError, transform.bounded_transform),
    (bridge, "slices.off_slice", SliceMembershipError, _restrict),
    (slices, "slices.J_anti_self_adjoint", SliceCommutationError, _build_J),
    (slices, "slices.J_unitary", SliceCommutationError, _build_J),
    (slices, "slices.J_commutes", SliceCommutationError, _build_J),
    (slices, "slices.restrict_commutes", SliceCommutationError, _restrict),
    (slices, "slices.extend_commutes", SliceCommutationError, _extend_between),
    (slices, "slices.extend_norm", SliceCommutationError, _extend_between),
    (spectral, "spectral.conjugate_unitary", CrossCheckError, _conjugate),
    (spectral, "spectral.conjugate_residual", CrossCheckError, _conjugate),
    (transform, "transform.J_commutes", TransformDomainError, transform.commuting_J_unbounded),
    (transform, "transform.xi_round_trip", TransformDomainError, _unbounded),
    (vectors, "vectors.expand_reconstruction", IncompleteBasisError, _expand),
]


@pytest.mark.parametrize("forced", ["over", "nan"])
@pytest.mark.parametrize("module, name, error, routine", CONTRACTS, ids=[c[1] for c in CONTRACTS])
def test_forced_contract_failure_names_its_check(monkeypatch, module, name, error, routine, forced):
    # the named residual is forced past its bound, or to NaN; the routine
    # raises from the check it built, naming the check, residual and bound
    built = []

    def forcing(check_name, residual, tol):
        if check_name == name:
            residual = 2.0 * tol if forced == "over" else math.nan
        built.append(check_from(check_name, residual, tol))
        return built[-1]

    monkeypatch.setattr(module, "check_from", forcing)
    a = gen.random_normal(np.random.default_rng(4), 4, STANDARD_FRAME)
    with pytest.raises(error) as err:
        routine(a)
    check = next(c for c in built if c.name == name)
    assert not check.passed
    assert str(err.value) == f"{name}: residual {check.residual!r} not within {check.tol!r}"


class TestReport:
    def test_status_follows_checks(self):
        good = VerificationReport("s", [check_from("a", 0.0, 1.0)])
        assert good.passed and good.to_dict()["status"] == "pass"
        bad = VerificationReport("s", [check_from("a", 2.0, 1.0)])
        assert not bad.passed and bad.to_dict()["status"] == "fail"

    def test_payload_validates_against_schema(self):
        rep = VerificationReport("s", [check_from("a", 0.0, 1.0)], seed=3)
        validate_payload(rep.to_dict())

    def test_schema_rejects_missing_fields(self):
        rep = VerificationReport("s", [check_from("a", 0.0, 1.0)])
        payload = rep.to_dict()
        payload.pop("checks")
        with pytest.raises(ReportSchemaError):
            validate_payload(payload)

    def test_schema_rejects_wrong_version(self):
        payload = VerificationReport("s", []).to_dict()
        payload["schema"] = "qspectra-report-v0"
        with pytest.raises(ReportSchemaError):
            validate_payload(payload)

    def test_json_roundtrip_stable(self):
        rep = VerificationReport("s", [Check("a", 1.0 / 3.0, 1e-10, False)], seed=1)
        assert json.loads(rep.to_json()) == rep.to_dict()

    def test_error_names_key_path(self):
        payload = VerificationReport("s", [check_from("a", 0.0, 1.0)]).to_dict()
        payload["checks"][0]["residual"] = True
        with pytest.raises(ReportSchemaError, match=r"checks\[0\]\.residual"):
            validate_payload(payload)


# The JSON Schema the structural validator replaces; kept as the reference
# for the cross-check below.
OLD_SCHEMA_SPEC = {
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

_NUMBERS = [
    0.0, -1.5, 3, 3.0, True, False, None, "1", float("nan"), float("inf"),
    np.float64(2.5), np.float32(2.5), np.int64(3), np.bool_(True), 1 + 2j,
    decimal.Decimal("1.5"), [1.0],
]
_SEEDS = [
    3, 3.0, 3.5, -2, 10**30, 1e300, True, False, None, "3", float("inf"),
    float("nan"), np.int64(3), np.float64(3.0), np.float64(3.5), np.float32(3.0),
]
_STRINGS = [None, 1, "", "x", np.str_("x"), ["x"]]


def _base_payload() -> dict:
    payload = VerificationReport(
        "decompose",
        [check_from("a", 1e-12, 1e-9), flag_check("b", False)],
        seed=7,
        extra={"phi": [[1.0, 0.0, 0.0, 0.0]], "zNorm": 0.5, "normCheck": {"gap": 0.0}},
    ).to_dict()
    return json.loads(json.dumps(payload))


def _mutated_payloads():
    """(label, payload) pairs: the base report and one change each."""
    def top(key, value):
        p = _base_payload()
        p[key] = value
        return p

    def check(key, value):
        p = _base_payload()
        p["checks"][0][key] = value
        return p

    def drop(key, in_check=False):
        p = _base_payload()
        (p["checks"][0] if in_check else p).pop(key)
        return p

    yield "base", _base_payload()
    for key in ("schema", "scenario", "status", "checks", "seed", "timing"):
        yield f"missing {key}", drop(key)
    for key in ("name", "residual", "tol", "pass"):
        yield f"missing checks.{key}", drop(key, in_check=True)
    for value in ["qspectra-report-v0", np.str_(SCHEMA), 1, None]:
        yield f"schema={value!r}", top("schema", value)
    for value in _STRINGS:
        yield f"scenario={value!r}", top("scenario", value)
        yield f"checks.name={value!r}", check("name", value)
    for value in ["pass", "fail", "PASS", "ok", np.str_("fail"), 1, True, None]:
        yield f"status={value!r}", top("status", value)
    for value in _NUMBERS:
        yield f"timing={value!r}", top("timing", value)
        yield f"checks.residual={value!r}", check("residual", value)
        yield f"checks.tol={value!r}", check("tol", value)
    for value in _SEEDS:
        yield f"seed={value!r}", top("seed", value)
    for value in [True, False, 1, 0, np.bool_(True), None, "true"]:
        yield f"checks.pass={value!r}", check("pass", value)
    for value in [[], (), {}, None, "checks", [1], [None], [[]], ["x"]]:
        yield f"checks={value!r}", top("checks", value)
    yield "checks extra key", check("margin", 0.5)
    yield "checks non-string extra key", check(1, 0.5)
    yield "top-level extras", top("orbits", [[1.0, 2.0]])
    for value in [None, [], "report", 1]:
        yield f"payload={value!r}", value


def test_validator_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(OLD_SCHEMA_SPEC)
    reference.check_schema(OLD_SCHEMA_SPEC)
    accepted = {True: 0, False: 0}
    for label, payload in _mutated_payloads():
        try:
            validate_payload(payload)
            ours = True
        except ReportSchemaError:
            ours = False
        assert ours == reference.is_valid(payload), label
        accepted[ours] += 1
    assert accepted[True] >= 20 and accepted[False] >= 60
