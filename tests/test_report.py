import ast
import decimal
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qspectra import STANDARD_FRAME, QMatrix, Quaternion, bridge, report, slices, spectral, transform, vectors
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.bridge import CMatrix
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
    BOUNDS,
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
    return slices.extend_between(slices.restrict_pair(a, s)[0], s, s)


def _conjugate(a):
    return spectral.conjugate_equivalence(_form(a))


def _unbounded(a):
    sim = transform.UnboundedSim.from_symbol(_form(a).phi)
    return transform.unbounded_multiplication_form(sim, STANDARD_FRAME)


def _expand(a):
    return vectors.expand(a.a[:, 0], vectors.gram_schmidt(list(a.a.transpose(1, 0, 2))))


# module whose check_from builds the check (report's, through scaled_check,
# for a check with a bound in BOUNDS), its name, the error raised from it, the routine
CONTRACTS = [
    (qa, "normal.commutator", NotNormalError, _decompose),
    (report, "decompose.eigen_residual", EigenResidualError, _decompose),
    (report, "decompose.unitary", EigenResidualError, _decompose),
    (report, "decompose.reconstruction", CrossCheckError, _form),
    (report, "decompose.norm_identity", CrossCheckError, _form),
    (report, "transform.contraction", TransformDomainError, transform.bounded_transform),
    (bridge, "slices.off_slice", SliceMembershipError, _restrict),
    (report, "slices.J_unitary", SliceCommutationError, _build_J),
    (report, "slices.J_commutes", SliceCommutationError, _build_J),
    (report, "slices.restrict_commutes", SliceCommutationError, _restrict),
    (report, "slices.extend_commutes", SliceCommutationError, _extend_between),
    (report, "slices.extend_norm", SliceCommutationError, _extend_between),
    (report, "spectral.conjugate_residual", CrossCheckError, _conjugate),
    (report, "transform.xi_round_trip", TransformDomainError, _unbounded),
    (report, "vectors.expand_reconstruction", IncompleteBasisError, _expand),
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


# Witnesses: for each check in CONTRACTS, an input, or an intermediate
# patched where it is made, that fails the check while every check built
# before it on its route passes. A check no input can fail on its own, while
# the checks before it pass, is implied by them and is no evidence.


def _normal(seed, n=4):
    return gen.random_normal(np.random.default_rng(seed), n, STANDARD_FRAME)


def _jordan(n, eps):
    """n copies of the eigenvalue 1 and eps at (0, 1): [A, A*] is eps^2,
    while the eigenvectors miss A by eps and ||A|| = 1 + eps / 2."""
    a = np.zeros((n, n, 4))
    a[np.arange(n), np.arange(n), 0] = 1.0
    a[0, 1, 0] = eps
    return QMatrix(a)


def _first_one(n, kind, scale=1.0):
    """The eigenvalue 1 and n - 1 seeded values of the class, all with real
    part below 1, so 1 comes first in the decomposition's order."""
    rng = np.random.default_rng(n)
    d = [Quaternion(1.0), *gen.random_standard_values(rng, n - 1, STANDARD_FRAME, kind, scale)]
    v = gen.random_unitary(rng, n)
    return v @ QMatrix.diag(d) @ v.H


def _dominant(n):
    """The eigenvalue 1 and n - 1 of modulus below 1.5e-3: ||A||_F is about 1."""
    return _first_one(n, "normal", 1e-3)


def _edit_partners(monkeypatch, edit):
    """Apply edit(cols, partners) to partners = J cols, the half of
    W = chi(V) = [cols, J cols] that spectral_decompose forms last, so that
    every decompose check measures the edited W. bridge._j also pairs the
    lines that the QR then orthonormalizes, which undoes the edit there."""
    pair = bridge._j

    def edited(x):
        out = pair(x)
        if out.ndim == 2 and 2 * out.shape[1] == out.shape[0]:
            edit(x, out)
        return out

    monkeypatch.setattr(bridge, "_j", edited)


def _scale_partner(monkeypatch, n, delta=None):
    """The first column's partner times 1 + delta: E = W*W - I is 2 delta at
    (n, n), and decompose.unitary reads sqrt(2) delta, by default 0.99 of its
    bound. The partner stays an eigenvector, so the residual stays at rounding."""
    if delta is None:
        delta = 0.99e-10 * max(1.0, math.sqrt(n)) / math.sqrt(2.0)

    def edit(cols, out):
        out[:, 0] *= 1.0 + delta

    _edit_partners(monkeypatch, edit)


def _couple_partner(monkeypatch, n):
    """g times the first column added to its partner: E is g at (0, n) and
    (n, 0), and decompose.unitary reads g, 0.99 of its bound. For a real first
    eigenvalue the partner stays an eigenvector."""
    g = 0.99e-10 * math.sqrt(n)

    def edit(cols, out):
        out[:, 0] += g * cols[:, 0]

    _edit_partners(monkeypatch, edit)


def _unit_at_first(n):
    """The slice operator with 1 at (0, 0) and 0 elsewhere."""
    u = np.zeros((n, n), dtype=complex)
    u[0, 0] = 1.0
    return CMatrix.from_complex(u, STANDARD_FRAME)


def _witness_commutator(monkeypatch):
    _decompose(_jordan(2, 1e-3))


def _witness_eigen_residual(monkeypatch):
    _decompose(_jordan(2, 1e-6))


def _witness_unitary(monkeypatch):
    _scale_partner(monkeypatch, 4, delta=1e-8)
    _decompose(_normal(4))


def _witness_reconstruction(monkeypatch):
    # Z - V D V* gains 2 delta lambda_1 at the dominant partner: 0.099 sqrt(n)
    # of 1e-9 ||A||_F, so 1.12 at n = 128
    _scale_partner(monkeypatch, 128)
    _form(_dominant(128))


def _witness_norm_identity(monkeypatch):
    # the residual reads eps of 1e-9 ||A||_F = 4e-9, ||A|| - max |phi| eps / 2
    _form(_jordan(16, 3e-9))


def _witness_contraction(monkeypatch):
    contract = transform._contract

    def doubled(x):
        z, s, vh = contract(x)
        return 2.0 * z, s, vh

    monkeypatch.setattr(transform, "_contract", doubled)
    transform.bounded_transform(_normal(4))


def _witness_off_slice(monkeypatch):
    # V (1 + n) / sqrt 2 is orthonormal but leaves J's plus subspace;
    # restrict_commutes reads J alone, off_slice reads the basis
    a = _normal(4)
    s = _build_J(a)
    w1, w2 = np.split(s.w, 2, axis=1)
    turned = np.concatenate([w1 + w2, w2 - w1], axis=1) / math.sqrt(2.0)
    slices.restrict_pair(a, slices.SliceStructure(s.cj, s.frame, turned))


def _witness_J_unitary(monkeypatch):
    # J^2 + I reads 2 of decompose.unitary's residual: 1.98 of 1e-10 n at n = 1
    _scale_partner(monkeypatch, 1)
    _build_J(_normal(4, 1))


def _witness_J_commutes(monkeypatch):
    # [J, V D V*] reads 2 g lambda_1 at two entries: 0.198 sqrt(n) of its bound
    _couple_partner(monkeypatch, 64)
    _build_J(_dominant(64))


def _witness_restrict_commutes(monkeypatch):
    slices.restrict_pair(_normal(4), _build_J(_normal(5)))


def _witness_extend_commutes(monkeypatch):
    # unit moduli keep J_commutes at 0.198 sqrt(n) / ||A||_F; lifting the
    # coupled column reads 0.198 sqrt(n) of the bound at scale 1
    _couple_partner(monkeypatch, 64)
    s = _build_J(_first_one(64, "unitary"))
    slices.extend_between(_unit_at_first(64), s, s)


def _witness_extend_norm(monkeypatch):
    # the lifted operator's norm is (1 + delta)^2: 0.14 sqrt(n) of the bound
    _scale_partner(monkeypatch, 64)
    s = _build_J(_first_one(64, "unitary"))
    slices.extend_between(_unit_at_first(64), s, s)


def _witness_conjugate_residual(monkeypatch):
    # reads 4 delta lambda_1 at one entry: 0.198 sqrt(n) of 1e-9 ||A||_F
    _scale_partner(monkeypatch, 64)
    _conjugate(_dominant(64))


def _witness_xi_round_trip(monkeypatch):
    # 1 - |xi_inv(p)|^2 = 1e-10 at |p| = 1e5 keeps 6 digits in a double
    rng = np.random.default_rng(5)
    d = [Quaternion(1e5), *gen.random_standard_values(rng, 3, STANDARD_FRAME)]
    v = gen.random_unitary(rng, 4)
    _unbounded(v @ QMatrix.diag(d) @ v.H)


def _witness_expand_reconstruction(monkeypatch):
    a = _normal(4)
    basis = vectors.gram_schmidt(list(a.a.transpose(1, 0, 2)))
    vectors.expand(a.a[:, 0], basis[1:])


WITNESSES = {
    "normal.commutator": _witness_commutator,
    "decompose.eigen_residual": _witness_eigen_residual,
    "decompose.unitary": _witness_unitary,
    "decompose.reconstruction": _witness_reconstruction,
    "decompose.norm_identity": _witness_norm_identity,
    "transform.contraction": _witness_contraction,
    "slices.off_slice": _witness_off_slice,
    "slices.J_unitary": _witness_J_unitary,
    "slices.J_commutes": _witness_J_commutes,
    "slices.restrict_commutes": _witness_restrict_commutes,
    "slices.extend_commutes": _witness_extend_commutes,
    "slices.extend_norm": _witness_extend_norm,
    "spectral.conjugate_residual": _witness_conjugate_residual,
    "transform.xi_round_trip": _witness_xi_round_trip,
    "vectors.expand_reconstruction": _witness_expand_reconstruction,
}


def test_witness_table_names_every_contract():
    assert sorted(WITNESSES) == sorted(c[1] for c in CONTRACTS)


def _required_names(source: str) -> set[str]:
    """Names of the checks passed to require: check_from("name", ...) or
    scaled_check("name", ...) given directly or bound to a variable in the
    same function, and qa.normality."""
    names = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {
            node.targets[0].id: node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require":
                check = node.args[0]
                check = bound.get(getattr(check, "id", None), check)
                if getattr(check.func, "attr", None) == "normality":
                    names.add("normal.commutator")
                else:
                    names.add(check.args[0].value)
    return names


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qspectra"


def test_contracts_name_every_required_check():
    required = set().union(*(_required_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert required == {c[1] for c in CONTRACTS}


def test_bounds_name_exactly_the_scaled_checks():
    # every check built through scaled_check has its coefficient in the
    # table, and the table holds no other name but normality's coefficient
    scaled, read = [], set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "scaled_check":
                scaled.append(node.args[0].value)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "BOUNDS":
                read.add(getattr(node.slice, "value", None))  # None: scaled_check's own
    assert len(scaled) == len(set(scaled))
    assert read == {"normal.commutator", None}
    assert sorted(BOUNDS) == sorted([*scaled, "normal.commutator"])


@pytest.mark.parametrize("module, name, error, routine", CONTRACTS, ids=[c[1] for c in CONTRACTS])
def test_witness_fails_the_check_alone(monkeypatch, module, name, error, routine):
    built = []

    def recording(check_name, residual, tol):
        built.append(check_from(check_name, residual, tol))
        return built[-1]

    for source in (qa, bridge, report, transform):
        monkeypatch.setattr(source, "check_from", recording)
    with pytest.raises(error, match=f"^{re.escape(name)}: residual "):
        WITNESSES[name](monkeypatch)
    # spectral_decompose builds both of its checks before it requires either
    first = [c.name for c in built].index(name)
    assert not built[first].passed
    assert all(c.passed for c in built[:first]), built[:first]


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
