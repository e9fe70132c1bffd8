"""The verification of decompose and transform, and the corollaries and
extensions, run on complex adjoints (chi images); the quaternion-product
formulas they replaced are kept here as references. On a seeded corpus,
every residual agrees with its reference to rounding and every raise or
pass verdict is the same."""

import json

import numpy as np
import pytest

from qspectra import STANDARD_FRAME, Quaternion, QMatrix, report, slices, spectral, transform
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.bridge import CMatrix, spectral_decompose
from qspectra.cli import main
from qspectra.errors import (
    CrossCheckError,
    NotNormalError,
    QSpectraError,
    SymbolZeroError,
)
from qspectra.report import BOUNDS, check_from
from qspectra.serialize import matrix_to_json, save_json
from qspectra.slices import (
    build_J,
    extend,
    extend_between,
    restrict_pair,
)
from qspectra.spectral import (
    classify,
    conjugate_equivalence,
    multiplication_form,
    sphere_spectrum,
)
from qspectra.transform import (
    INVERSE_GUARD,
    bounded_transform,
    z_extension_check,
)

EPS = np.finfo(np.float64).eps
SIZES = (1, 2, 5, 16)


def _corpus(frame):
    """(label, matrix): the four classes at every size, at scale 1, 1e-12
    and 1e12 and with two eigenvalues 1e-9 apart, and two non-normal
    perturbations, one far past the normality bound and one well inside."""
    rng = np.random.default_rng(20261018)
    for kind in gen.MATRIX_CLASSES:
        for n in SIZES:
            for scale in (1.0, 1e-12, 1e12):
                yield f"{kind}-{n}-{scale:.0e}", gen.random_normal(rng, n, frame, kind, scale)
            d = gen.random_standard_values(rng, n, frame, kind)
            d[-1] = d[0] + Quaternion(1e-9)
            v = gen.random_unitary(rng, n)
            yield f"{kind}-{n}-gap", v @ QMatrix.diag(d) @ v.H
    a = gen.random_normal(rng, 5, frame)
    for size in (1e-3, 1e-14):
        yield f"perturbed-{size:.0e}", a + QMatrix(size * rng.normal(size=(5, 5, 4)))


def _commutator(a):
    h = a.H
    return ((h @ a) - (a @ h)).frobenius()


def _slice_coords(t, frame):
    """In-slice coordinates and off-slice mass of quaternion entries."""
    c0, c1, c2, c3 = qa.frame_coords(t.a, frame)
    return c0 + 1j * c1, max(np.max(np.abs(c2)), np.max(np.abs(c3)))


def _old_decompose(a, dec, form, s):
    """The quaternion-product values of spectral_decompose,
    multiplication_form, build_J and the restrictions."""
    n, frame, v = a.n, dec.frame, dec.V
    ident = QMatrix.identity(n)
    j = v @ QMatrix.diag([frame.m] * n) @ v.H
    rec = v @ QMatrix.diag(dec.d) @ v.H
    minus = QMatrix.from_columns([qa.qscale_right(v.a[:, k], frame.n) for k in range(n)])
    t_plus, off_plus = _slice_coords(v.H @ a @ v, frame)
    t_minus, off_minus = _slice_coords(minus.H @ a @ minus, frame)
    return {
        "residual": ((a @ v) - (v @ QMatrix.diag(dec.d))).frobenius(),
        "unitarity": ((v.H @ v) - ident).frobenius(),
        "cli_unitary": ((form.U.H @ form.U) - ident).frobenius(),
        "reconstruction": (a - form.reconstruct()).frobenius(),
        "J": j,
        "j_square": ((j @ j) + ident).frobenius(),
        "j_commute": ((j @ rec) - (rec @ j)).frobenius(),
        "rec_fro": rec.frobenius(),
        "a_commute": ((a @ s.J) - (s.J @ a)).frobenius(),
        "t_plus": t_plus,
        "t_minus": t_minus,
        "off": max(off_plus, off_minus),
    }


def _old_bounded(a):
    """bounded_transform as quaternion products: Z, ||Z|| and the residual."""
    u, s, vh = np.linalg.svd(a.to_complex_adjoint())
    root = np.hypot(1.0, s)
    z = QMatrix.from_complex_adjoint((u * (s / root)) @ vh)
    half = QMatrix.from_complex_adjoint((np.conj(vh.T) * root) @ vh)
    return z, z.op_norm(), ((z @ half) - a).frobenius()


def _old_inverse(z):
    u, s, vh = np.linalg.svd(z.to_complex_adjoint())
    if s[0] >= 1.0 - INVERSE_GUARD:
        return None
    return QMatrix.from_complex_adjoint((u * (s / np.sqrt((1.0 - s) * (1.0 + s)))) @ vh)


def _old_transform_checks(a):
    """(name, residual, tol) of `qspectra transform` as quaternion products."""
    z, z_norm, residual = _old_bounded(a)
    fro = a.frobenius()
    checks = [
        ("transform.contraction", None, None),
        ("transform.defining_residual", residual, 1e-9 * max(fro, 1e-300)),
        ("transform.star_compatible", (_old_bounded(a.H)[0] - z.H).frobenius(), 1e-10 * max(fro, 1e-300)),
    ]
    if z_norm < 1.0 - INVERSE_GUARD:
        back = _old_inverse(z)
        checks.append(("transform.round_trip", (back - a).frobenius(), 1e-8 * (1.0 + a.op_norm() ** 2)))
    if _commutator(a) <= 1e-10 * max(fro**2, 1e-300):
        # the commutator's rounding plus 2 (1 + ||Z||) times Z's own error
        tol = 1e-10 * max(z.frobenius() ** 2, 1e-300) + 2 * (1 + z_norm) * 1e-10 * max(fro, 1e-300)
        checks.append(("transform.normal_preserved", _commutator(z), tol))
    return z, checks


def _old_inverse_checks(z):
    """Exit code, (name, residual, tol) and zNorm of `transform --inverse`."""
    source = _old_inverse(z)
    if source is None:
        return 2, [], None
    back = _old_bounded(source)[0]
    bound = 1e-8 * (1.0 + source.op_norm() ** 2)
    return None, [("transform.inverse_round_trip", (back - z).frobenius(), bound)], z.op_norm()


def _assert_close(old, new, n, scale, what):
    slack = 16 * n * EPS * max(scale, 1e-300)
    assert abs(old - new) <= slack, f"{what}: {old:.3e} vs {new:.3e} (slack {slack:.1e})"


def _run(argv, tmp_path):
    out = tmp_path / "rep.json"
    out.unlink(missing_ok=True)
    code = main(argv + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def _check_decompose(a, frame):
    n, fro = a.n, a.frobenius()
    normal = _commutator(a) <= BOUNDS["normal.commutator"] * max(fro**2, 1e-300)
    assert a.is_normal() == normal
    if not normal:
        with pytest.raises(NotNormalError):
            spectral_decompose(a, frame)
        return
    form = multiplication_form(a, frame)
    dec = form.decomposition
    s = build_J(dec)
    old = _old_decompose(a, dec, form, s)
    # each raise-or-pass verdict of the old formulas; all pass on this corpus
    assert old["residual"] <= BOUNDS["decompose.eigen_residual"] * fro
    assert old["unitarity"] <= BOUNDS["decompose.unitary"] * np.sqrt(n)
    assert old["reconstruction"] <= BOUNDS["decompose.reconstruction"] * fro
    assert old["j_square"] <= BOUNDS["slices.J_unitary"] * n
    assert old["j_commute"] <= BOUNDS["slices.J_commutes"] * max(old["rec_fro"], 1e-300)
    assert max(old["a_commute"], old["off"]) <= BOUNDS["slices.restrict_commutes"] * max(fro, 1e-300)

    eigen, unitary = dec.checks
    _assert_close(old["residual"], eigen.residual, n, fro, "residual")
    _assert_close(old["unitarity"], unitary.residual, n, 1.0, "unitarity")
    _assert_close(old["cli_unitary"], unitary.residual, n, 1.0, "U*U - I")
    _assert_close(old["reconstruction"], form.checks[0].residual, n, fro, "reconstruction")
    _assert_close(a.op_norm(), form.op_norm, n, form.op_norm, "||A||")
    _assert_close(a.op_norm(), sphere_spectrum(form).op_norm, n, form.op_norm, "spectrum ||A||")
    _assert_close(old["J"].frobenius(), s.J.frobenius(), n, 1.0, "||J||")
    _assert_close((old["J"] - s.J).frobenius(), 0.0, n, 1.0, "J")
    t_plus, t_minus = restrict_pair(a, s)  # the commutation check passes too
    _assert_close(np.linalg.norm(old["t_plus"] - t_plus.z), 0.0, n, fro, "T+")
    _assert_close(np.linalg.norm(old["t_minus"] - t_minus.z), 0.0, n, fro, "T-")


def _check_transform(a, tmp_path):
    n = a.n
    path = tmp_path / "a.json"
    save_json(matrix_to_json(a), path)
    z, old = _old_transform_checks(a)
    code, report = _run(["transform", str(path)], tmp_path)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == [name for name, _, _ in old]
    assert report["zNorm"] == pytest.approx(z.op_norm(), abs=100 * n * EPS)
    for got, (name, residual, tol) in zip(report["checks"], old):
        if residual is not None:
            assert got["pass"] == (residual <= tol)
            assert got["tol"] == pytest.approx(tol, rel=100 * n * EPS)
            # Z is a contraction; A's round trip loses (1 + ||A||^2) = tol / 1e-8
            scale = {"transform.defining_residual": a.frobenius(), "transform.round_trip": tol / 1e-8}
            _assert_close(residual, got["residual"], n, scale.get(name, 1.0), name)

    save_json(matrix_to_json(z), path)
    old_code, old, z_norm = _old_inverse_checks(z)
    code, report = _run(["transform", str(path), "--inverse"], tmp_path)
    if old_code is not None:
        assert code == old_code
        return
    assert report["zNorm"] == pytest.approx(z_norm, abs=100 * n * EPS)
    for got, (name, residual, tol) in zip(report["checks"], old):
        assert got["name"] == name and got["pass"] == (residual <= tol)
        # both round trips lose (1 - ||Z||^2)^(-1/2) of accuracy
        _assert_close(residual, got["residual"], n, tol / 1e-8, name)
    assert code == (0 if all(c["pass"] for c in report["checks"]) else 1)


def test_parity_with_quaternion_products(frame, tmp_path):
    for label, a in _corpus(frame):
        try:
            _check_decompose(a, frame)
            _check_transform(a, tmp_path)
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc


def _recording(monkeypatch):
    """The checks built through report.check_from from now on, by name."""
    built = {}

    def recorded(name, residual, tol):
        built[name] = check_from(name, residual, tol)
        return built[name]

    monkeypatch.setattr(report, "check_from", recorded)
    return built


def _verdict(routine, *args):
    """The routine's result, or the type of the error it raised."""
    try:
        return routine(*args)
    except QSpectraError as exc:
        return type(exc)


def _old_classify(form, tol):
    pos = form.space.positive()
    anti_sym = bool(np.all(np.abs(form.phi.values[pos][:, 0]) <= tol))
    unit_sym = bool(np.all(np.abs(form.phi.moduli()[pos] - 1.0) <= tol))
    rec = form.U.H @ QMatrix.diag(form.phi.values) @ form.U
    slack = 1e-12 * (1.0 + rec.op_norm())
    anti_op = (rec + rec.H).op_norm() <= 2.0 * tol + slack
    unit_op = ((rec.H @ rec) - QMatrix.identity(rec.n)).op_norm() <= 3.0 * tol + slack
    if anti_sym != anti_op or unit_sym != unit_op:
        return CrossCheckError
    return {"anti_self_adjoint": anti_sym, "unitary": unit_sym}


def _old_conjugate(form):
    """W = U* M_rho U and the residual of its check, or the error."""
    moduli = form.phi.moduli()
    if np.any(form.space.positive() & (moduli <= 1e-12 * max(np.max(moduli), 1e-300))):
        return SymbolZeroError, None
    rho = [(form.phi.value(i) / moduli[i]) * form.frame.n for i in range(len(moduli))]
    w = form.U.H @ QMatrix.diag(rho) @ form.U
    rec = form.U.H @ QMatrix.diag(form.phi.values) @ form.U
    return w, (rec - (w.H @ rec.H @ w)).frobenius()


def _old_extend_between(u, v1, j1, v2, j2):
    """V2 U V1* and the residuals of extend_between's two checks."""
    m = QMatrix(u.data)
    lifted = v2 @ m @ v1.H
    return lifted, {
        "slices.extend_commutes": ((j2 @ lifted) - (lifted @ j1)).frobenius(),
        "slices.extend_norm": abs(lifted.op_norm() - m.op_norm()),
    }


def _old_z_extension(t, v):
    z_plus = QMatrix(CMatrix(bounded_transform(QMatrix(t.data)).Z.a, t.frame).data)
    ext = v @ QMatrix(t.data) @ v.H
    return (bounded_transform(ext).Z - (v @ z_plus @ v.H)).frobenius()


def _check_lifts(a, frame, previous, rng, built):
    """Every routine that lifts through chi(XY) = chi(X) chi(Y) against its
    quaternion-product reference: the same result or error, each result and
    each check residual within _assert_close's slack, each verdict the same."""
    n, fro = a.n, a.frobenius()
    form = multiplication_form(a, frame)
    s, v = build_J(form.decomposition), form.U.H
    old_rec = v @ QMatrix.diag(form.phi.values) @ v.H
    _assert_close((old_rec - form.reconstruct()).frobenius(), 0.0, n, fro, "reconstruct")
    for tol in (1e-8, 1e-3):
        assert _verdict(classify, form, tol) == _old_classify(form, tol)

    old_w, old_res = _old_conjugate(form)
    built.clear()
    w = _verdict(conjugate_equivalence, form)
    if old_res is None:
        assert w is old_w
    else:
        _assert_close((old_w - w).frobenius(), 0.0, n, 1.0, "conjugate W")
        check = built["spectral.conjugate_residual"]
        _assert_close(old_res, check.residual, n, fro, check.name)
        assert check.passed == (old_res <= check.tol)

    built.clear()
    t = restrict_pair(a, s)[0]
    # J is read off A's own decomposition: every normal input passes
    check = built["slices.restrict_commutes"]
    old_defect = ((s.J @ a) - (a @ s.J)).frobenius()
    _assert_close(old_defect, check.residual, n, fro, check.name)
    assert check.passed and old_defect <= check.tol
    _assert_close((v @ QMatrix(t.data) @ v.H - extend(t, s)).frobenius(), 0.0, n, fro, "extend")
    _assert_close(_old_z_extension(t, v), z_extension_check(t, s), n, 1.0, "z extension")

    # between this structure and the previous matrix's, of another size
    s1, v1 = previous
    u = CMatrix.from_complex(rng.normal(size=(n, s1.n)) + 1j * rng.normal(size=(n, s1.n)), frame)
    old_lifted, old_res = _old_extend_between(u, v1, s1.J, v, s.J)
    built.clear()
    lifted = extend_between(u, s1, s)
    scale = np.linalg.norm(u.z)
    _assert_close((old_lifted - lifted).frobenius(), 0.0, n, scale, "extend_between")
    for name in old_res:
        _assert_close(old_res[name], built[name].residual, n, scale, name)
        assert built[name].passed == (old_res[name] <= built[name].tol)
    return s, v


def test_lift_parity_with_quaternion_products(frame, monkeypatch):
    built = _recording(monkeypatch)
    rng = np.random.default_rng(20261019)
    previous = None
    for label, a in _corpus(frame):
        if not a.is_normal():
            continue
        if previous is None:
            dec = spectral_decompose(a, frame)
            previous = build_J(dec), dec.V
            continue
        try:
            previous = _check_lifts(a, frame, previous, rng, built)
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc


def test_lifts_make_no_quaternion_product(monkeypatch):
    # the corollaries and extensions take their products on chi images, and
    # build as many Quaternion objects at n = 16 as at n = 4
    counts = []
    for n in (4, 16):
        rng = np.random.default_rng(n)
        a = gen.random_normal(rng, n, STANDARD_FRAME)
        form = multiplication_form(a, STANDARD_FRAME)
        s = build_J(form.decomposition)
        t = restrict_pair(a, s)[0]
        calls = [0, 0]
        qmatmul, init = qa.qmatmul, Quaternion.__init__

        def counted_qmatmul(*args):
            calls[0] += 1
            return qmatmul(*args)

        def counted_init(self, *args):
            calls[1] += 1
            init(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(qa, "qmatmul", counted_qmatmul)
            patch.setattr(Quaternion, "__init__", counted_init)
            form.reconstruct()
            classify(form, 1e-8)
            conjugate_equivalence(form)
            extend(t, s)
            extend_between(t, s, s)
            z_extension_check(t, s)
            restrict_pair(a, build_J(spectral_decompose(a, STANDARD_FRAME)))
        assert calls[0] == 0
        counts.append(calls[1])
    assert counts[0] == counts[1]
