import math
import time

import numpy as np
import pytest

from qspectra import I, J, K, ONE, QMatrix, Quaternion, SliceFrame, STANDARD_FRAME
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra import report, slices
from qspectra.bridge import CMatrix, spectral_decompose
from qspectra.cli import main
from qspectra.errors import (
    DuplicateSymbolError,
    NotNormalError,
    PreconditionError,
    ShapeError,
    TransformDomainError,
)
from qspectra.measure import (
    MERGE_TOL,
    AtomicMeasureSpace,
    L2Element,
    Symbol,
    ess_ran,
    m_phi,
    pushforward,
)
from qspectra.report import BOUNDS, check_from, require
from qspectra.serialize import matrix_to_json, save_json
from qspectra.slices import build_J, extend, restrict_pair
from qspectra.spectral import multiplication_form
from qspectra.transform import (
    INVERSE_GUARD,
    UnboundedSim,
    _radial_factor,
    bounded_transform,
    inverse_checks,
    inverse_transform,
    transform_checks,
    unbounded_multiplication_form,
    xi,
    xi_inv,
    xi_inv_values,
    xi_values,
    z_extension_check,
)

from conftest import assert_qclose, random_complex_normal


class TestBoundedTransform:
    def test_scalar_three(self):
        bt = bounded_transform(3.0 * QMatrix.identity(2))
        assert_qclose(bt.Z.entry(0, 0), Quaternion(3.0 / math.sqrt(10.0)), 1e-14)
        assert bt.Z.op_norm() == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_left_j(self):
        bt = bounded_transform(QMatrix.from_rows([[J]]))
        assert_qclose(bt.Z.entry(0, 0), J * (1.0 / math.sqrt(2.0)), 1e-14)

    def test_zero(self):
        bt = bounded_transform(QMatrix.zeros(3))
        assert bt.Z.frobenius() == 0.0

    def test_contraction_and_star(self, frame, rng):
        for scale in (0.5, 3.0, 50.0):
            a = gen.random_normal(rng, 5, frame, scale=scale)
            bt = bounded_transform(a)
            assert bt.Z.op_norm() <= 1.0
            star_gap = (bounded_transform(a.H).Z - bt.Z.H).frobenius()
            assert star_gap <= 1e-10

    def test_normal_preserved(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        z = bounded_transform(a).Z
        assert z.is_normal()
        normal = require(qa.normality(z.to_complex_adjoint(), np.sqrt(2.0)), NotNormalError)
        assert normal.residual <= 1e-12 * z.frobenius() ** 2

    def test_contraction_at_large_scale(self, frame, rng):
        # the Gram matrix's smallest eigenvalues are swamped by eps * ||A||^2
        for scale in (1e7, 1e8, 1e9, 1e10, 1e11, 1e12):
            for kind in gen.MATRIX_CLASSES:
                a = gen.random_normal(rng, 16, frame, kind=kind, scale=scale)
                bt = bounded_transform(a)
                assert bt.Z.op_norm() <= 1.0 + 1e-12
                assert bt.residual.residual <= 1e-10 * a.frobenius()
        # a seeded input whose ||Z|| came out 1 + 1.5e-12 from eigh(I + A*A)
        seeded = np.random.default_rng(0)
        seeded_frame = gen.random_frame(seeded)
        a = gen.random_normal(seeded, 16, seeded_frame, kind="antiSelfAdjoint", scale=1e12)
        bt = bounded_transform(a)
        assert bt.Z.op_norm() <= 1.0 + 1e-12
        assert bt.residual.residual <= 1e-10 * a.frobenius()

    def test_non_finite_rejected(self):
        arr = np.zeros((2, 2, 4))
        arr[0, 0, 0] = np.nan
        # named by its entry, as every other routine names it
        with pytest.raises(PreconditionError, match=r"\(0, 0\)"):
            bounded_transform(QMatrix(arr))
        with pytest.raises(PreconditionError, match=r"\(0, 0\)"):
            inverse_transform(QMatrix(arr))

    def test_defining_residual(self, frame, rng):
        a = gen.random_normal(rng, 5, frame, scale=2.0)
        bt = bounded_transform(a)
        assert bt.residual.residual <= 1e-10 * max(1.0, a.frobenius())

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_defining_residual_bound_is_scale_free(self, kind):
        # tol = 1e-9 ||A||_F with no floor at scale 1: scaling by 2^k is
        # exact, so it scales tol exactly, and at 1e-12 tol is not 1e-9
        rng = np.random.default_rng([4, gen.MATRIX_CLASSES.index(kind)])
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind)
        scales = (2.0**-40, 2.0**-20, 1.0, 2.0**20, 2.0**40, 1e-12)
        checks = {c: bounded_transform(QMatrix(a.a * c)).residual for c in scales}
        assert all(check.passed for check in checks.values())
        for k in (-40, -20, 20, 40):
            assert checks[2.0**k].tol == np.ldexp(checks[1.0].tol, k)
        assert checks[1e-12].tol == pytest.approx(1e-12 * checks[1.0].tol, rel=1e-12)


def _graded(n: int, top: float) -> QMatrix:
    """One eigenvalue of modulus top, the rest in the unit square."""
    rng = np.random.default_rng([n, 0])
    d = [Quaternion(top), *gen.random_standard_values(rng, n - 1, STANDARD_FRAME)]
    v = gen.random_unitary(rng, n)
    return v @ QMatrix.diag(d) @ v.H


def _star_route_inputs():
    """Seeded inputs of every class at scales 2^-40, 1, 2^40 and 1e+-12, a
    seeded non-normal one at each, and the graded input at 1e8."""
    for j, scale in enumerate((2.0**-40, 1.0, 2.0**40, 1e-12, 1e12)):
        for i, kind in enumerate(gen.MATRIX_CLASSES):
            rng = np.random.default_rng([i, j])
            yield f"{kind}-{scale:g}", gen.random_normal(rng, 8, gen.random_frame(rng), kind, scale)
        nonnormal = np.random.default_rng([9, j]).standard_normal((8, 8, 4))
        yield f"nonnormal-{scale:g}", QMatrix(nonnormal * scale)
    for n in (8, 32):
        yield f"graded-{n}", _graded(n, 1e8)


_STAR_ROUTE_INPUTS = dict(_star_route_inputs())
star_route_inputs = pytest.mark.parametrize(
    "a", _STAR_ROUTE_INPUTS.values(), ids=_STAR_ROUTE_INPUTS.keys()
)


class TestAdjointTransformRoute:
    """transform_checks reads Z_{A*} off one SVD of A's complex adjoint x
    read as x*, without bounded_transform(A*)'s contraction gate: the same
    bits as bounded_transform(A*), and no rejection lost."""

    @star_route_inputs
    def test_conjugate_transpose_is_the_adjoints_adjoint(self, a):
        # bit for bit, signed zeros too: as_pair keeps the -0.0 that qconj
        # makes of a zero component (on the diagonal of a self- or
        # anti-self-adjoint input), as x* does
        lhs = np.ascontiguousarray(np.conj(a.to_complex_adjoint().T)).view(np.uint64)
        rhs = a.H.to_complex_adjoint().view(np.uint64)
        assert np.array_equal(lhs, rhs)

    @star_route_inputs
    def test_star_residual_matches_the_full_transform_of_the_adjoint(self, a):
        z = bounded_transform(a).adjoint
        want = qa.chi_fro(bounded_transform(a.H).adjoint - np.conj(z.T))
        star = next(c for c in transform_checks(a) if c.name == "transform.star_compatible")
        assert star.residual == want

    @star_route_inputs
    def test_normal_preserved_reported_for_normal_input_alone(self, a):
        names = [c.name for c in transform_checks(a)]
        assert ("transform.normal_preserved" in names) == a.is_normal()

    @star_route_inputs
    def test_inverse_check_matches_the_full_transform_of_t(self, a):
        # Z_T and ||T|| off one SVD of T are bounded_transform(T)'s bits
        z = bounded_transform(a).Z
        if z.op_norm() >= 1.0 - INVERSE_GUARD:
            return
        bt = bounded_transform(inverse_transform(z))
        (check,), _ = inverse_checks(z)
        assert check.residual == qa.chi_fro(bt.adjoint - z.to_complex_adjoint())
        assert check.tol == BOUNDS["transform.round_trip"] * (1.0 + bt.a_norm**2)

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_adjoint_contraction_passes_wherever_checks_return(self, kind):
        rng = np.random.default_rng(33)
        base = gen.random_normal(rng, 8, gen.random_frame(rng), kind)
        for e in range(-150, 151, 10):
            a = base * 10.0**e
            transform_checks(a)
            assert bounded_transform(a.H).contraction.passed, e


class TestInverseTransform:
    def test_scalar_roundtrip(self):
        z = (3.0 / math.sqrt(10.0)) * QMatrix.identity(2)
        back = inverse_transform(z)
        assert_qclose(back.entry(0, 0), Quaternion(3.0), 1e-12)

    def test_left_j_roundtrip(self):
        z = QMatrix.from_rows([[J * (1.0 / math.sqrt(2.0))]])
        assert_qclose(inverse_transform(z).entry(0, 0), J, 1e-12)

    def test_norm_one_rejected(self):
        with pytest.raises(TransformDomainError):
            inverse_transform(QMatrix.identity(2))

    def test_near_boundary_rejected(self):
        z = (1.0 - 1e-9) * QMatrix.identity(2)
        with pytest.raises(TransformDomainError):
            inverse_transform(z)

    def test_round_trip_across_scales(self, frame, rng):
        for scale in (1.0, 30.0, 1000.0):
            a = gen.random_normal(rng, 5, frame, scale=scale)
            z = bounded_transform(a).Z
            back = inverse_transform(z)
            assert (back - a).frobenius() <= 1e-8 * (1.0 + a.op_norm() ** 2)


    def test_unitary_round_trip(self, frame, rng):
        # the Gram matrix I + A*A is 2I: one eigenvalue of multiplicity 2n
        a = gen.random_normal(rng, 32, frame, kind="unitary")
        z = bounded_transform(a).Z
        back = inverse_transform(z)
        assert (back - a).frobenius() <= 1e-8 * (1.0 + a.op_norm() ** 2)


class TestGuardBand:
    """Inputs whose ||Z|| lies at the inverse guard 1 - 1e-8: one reading of
    ||Z|| decides whether the round trip runs and is the one it inverts."""

    A0 = gen.random_normal(np.random.default_rng(0), 8, STANDARD_FRAME)

    def test_transform_checks_across_the_band(self):
        # ||Z|| = 1 - 1 / (2 ||A||^2) + ... reaches 1 - 1e-8 at ||A|| = 7071.07;
        # across this band two SVDs of one Z can disagree in the last bits
        c0 = 7071.067811865475 / self.A0.op_norm()
        for k in range(-200, 200):
            checks = transform_checks(self.A0 * (c0 * (1.0 + 2e-13 * k)))
            assert all(c.passed for c in checks), k

    def test_cli_at_the_guard(self, tmp_path):
        path = tmp_path / "a.json"
        save_json(matrix_to_json(self.A0 * 6387.0043403822565), path)
        assert main(["transform", str(path), "--out", str(tmp_path / "rep.json")]) == 0


def _commuting_J(a: QMatrix, frame: SliceFrame = STANDARD_FRAME):
    """J read off A's own decomposition, checked to commute with A."""
    s = build_J(spectral_decompose(a, frame))
    restrict_pair(a, s)
    return s


class TestCommutingJ:
    def test_left_j_structure(self):
        s = _commuting_J(QMatrix.from_rows([[J]]))
        assert_qclose(s.J.entry(0, 0), J, 1e-12)

    def test_real_diagonal_gives_slice_axis(self):
        a = QMatrix.diag([Quaternion(2), Quaternion(3)])
        s = _commuting_J(a)
        assert_qclose(s.J.entry(0, 0), I, 1e-12)
        assert_qclose(s.J.entry(1, 1), I, 1e-12)
        assert abs(s.J.entry(0, 1)) <= 1e-12

    def test_commutator_bound(self, frame, rng):
        for n in (3, 6):
            a = gen.random_normal(rng, n, frame, scale=4.0)
            s = _commuting_J(a, frame)
            defect = ((s.J @ a) - (a @ s.J)).frobenius()
            assert defect <= 1e-9 * max(a.frobenius(), 1.0)

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_bound_is_scale_free(self, monkeypatch, kind):
        # tol = 1e-9 ||A||_F with no floor at scale 1: scaling by 2^k is
        # exact, so it scales tol exactly, and at 1e-12 tol is not 1e-9
        built = []

        def recording(name, residual, tol):
            built.append(check_from(name, residual, tol))
            return built[-1]

        monkeypatch.setattr(report, "check_from", recording)
        rng = np.random.default_rng([3, gen.MATRIX_CLASSES.index(kind)])
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind)
        tols = {}
        for c in (2.0**-40, 2.0**-20, 1.0, 2.0**20, 2.0**40, 1e-12):
            built.clear()
            _commuting_J(QMatrix(a.a * c))
            tols[c] = built[-1].tol
            assert built[-1].name == "slices.restrict_commutes" and built[-1].passed
        for k in (-40, -20, 20, 40):
            assert tols[2.0**k] == np.ldexp(tols[1.0], k)
        assert tols[1e-12] == pytest.approx(1e-12 * tols[1.0], rel=1e-12)


class TestZExtension:
    def test_scalar_slice_value(self, frame, rng):
        a = gen.random_normal(rng, 1, frame)
        s = build_J(spectral_decompose(a, frame))
        t_plus = CMatrix.from_complex(np.array([[1j]]), frame)
        assert z_extension_check(t_plus, s) <= 1e-12

    def test_zero(self, frame, rng):
        a = gen.random_normal(rng, 3, frame)
        s = build_J(spectral_decompose(a, frame))
        t_plus = CMatrix.from_complex(np.zeros((3, 3)), frame)
        assert z_extension_check(t_plus, s) == 0.0

    def test_random_slice_normal(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = build_J(spectral_decompose(a, frame))
        z = random_complex_normal(rng, 4)
        assert z_extension_check(CMatrix.from_complex(z, frame), s) <= 1e-9

    def test_same_bits_as_the_full_transforms(self, frame, rng):
        # both Zs off one SVD each are bounded_transform's Zs, bit for bit
        a = gen.random_normal(rng, 6, frame)
        s = build_J(spectral_decompose(a, frame))
        t_plus = CMatrix.from_complex(random_complex_normal(rng, 6, scale=3.0), frame)
        z_plus = CMatrix(bounded_transform(QMatrix(t_plus.data)).Z.a, frame)
        full = (bounded_transform(extend(t_plus, s)).Z - extend(z_plus, s)).frobenius()
        assert z_extension_check(t_plus, s) == full


class TestRadialMaps:
    def test_known_values(self):
        assert_qclose(xi(0.6 * I), 0.75 * I, 1e-15)
        assert_qclose(xi_inv(I), I * (1.0 / math.sqrt(2.0)), 1e-15)

    def test_xi_rejects_unit_ball_boundary(self):
        with pytest.raises(TransformDomainError):
            xi(ONE)

    def test_ball_to_ball_roundtrip_tight(self, rng):
        # xi_inv(xi(q)) = q to 1e-12 relative across the whole usable range,
        # including |xi(q)| up to 1e6
        for scale in (1e-3, 1.0, 1e2, 1e4, 1e6):
            for _ in range(10):
                p = Quaternion.from_array(rng.normal(size=4)) * scale
                q = xi_inv(p)
                back = xi_inv(xi(q))
                assert abs(back - q) <= 1e-12 * (1.0 + abs(q))

    def test_forward_roundtrip_conditioning_bound(self, rng):
        # xi(xi_inv(p)) = p only up to the representation conditioning of the
        # contracted value: storing xi_inv(p) in doubles loses eps * |p|^2.
        eps = np.finfo(np.float64).eps
        for scale in (1.0, 1e2, 1e4, 1e6):
            for _ in range(5):
                p = Quaternion.from_array(rng.normal(size=4)) * scale
                err = abs(xi(xi_inv(p)) - p)
                assert err <= 32.0 * eps * (1.0 + abs(p) ** 2) * (1.0 + abs(p))

    def test_forward_roundtrip_tight_at_moderate_scale(self, rng):
        for _ in range(20):
            p = Quaternion.from_array(rng.normal(size=4)) * 5.0
            assert abs(xi(xi_inv(p)) - p) <= 1e-12 * (1.0 + abs(p))


def _reference_sample(rng) -> np.ndarray:
    """Rows at |p| = 1 +- a few ulp, across the unit ball, at |p| from
    1e-300 to 1e300 (also with components of mixed magnitude), subnormal
    and near-overflow components, and symbols up to 1e2."""
    eps = np.finfo(np.float64).eps
    d = rng.normal(size=(6000, 4))
    d[:1000, 1:] = 0.0  # one component
    d[1000:2500, 2:] = 0.0  # two components
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = 1.0 + rng.integers(-8, 9, 6000) * (eps / 2)
    r[:600] = 1.0 - 10.0 ** -rng.uniform(1.0, 15.5, 600)
    near = d * r[:, None]
    ball = rng.normal(size=(2000, 4)) * rng.uniform(0.0, 0.5, (2000, 1))
    wide = rng.normal(size=(2000, 4)) * 10.0 ** rng.uniform(-300, 300, (2000, 1))
    mixed = rng.normal(size=(1000, 4)) * 10.0 ** rng.uniform(-200, 200, (1000, 4))
    symbols = rng.normal(size=(2000, 4)) * 10.0 ** rng.uniform(-3, 2, (2000, 1))
    extreme = np.array([
        [5e-324, 0.0, 0.0, 0.0],
        [1e-310, -3e-320, 0.0, 5e-324],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [1.7e308, 0.0, 0.0, 0.0],
        [1e308, -1e308, 1e308, 1e308],
        [1.0, 1e-200, 0.0, 0.0],
    ])
    return np.concatenate([near, ball, wide, mixed, symbols, extreme])


class TestRadialFactorReference:
    """The double-double factor against a 40-digit mpmath one."""

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["xi", "xi_inv"])
    def test_within_one_ulp_of_mpmath(self, sign):
        mpmath = pytest.importorskip("mpmath")
        values = _reference_sample(np.random.default_rng(20050101))
        ref = np.full(len(values), np.nan)
        with mpmath.workdps(40):
            for t, row in enumerate(values):
                c = 1 + sign * mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in row)
                if c > 0:
                    ref[t] = float(1 / mpmath.sqrt(c))
        inside = ~np.isnan(ref)
        assert np.count_nonzero(inside) >= 7000
        got = _radial_factor(values[inside], sign)
        assert np.all(np.abs(got - ref[inside]) <= np.spacing(ref[inside]))
        assert np.mean(got == ref[inside]) >= 0.999
        for row in values[~inside]:
            with pytest.raises(TransformDomainError):
                xi_values(row[None, :])

    def test_maps_scale_rows_by_the_factor(self, rng):
        values = rng.normal(size=(50, 4)) * 0.2
        np.testing.assert_array_equal(xi_values(values), values * _radial_factor(values, -1.0)[:, None])
        np.testing.assert_array_equal(xi_inv_values(values), values * _radial_factor(values, 1.0)[:, None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        values = np.array([[0.1, 0.2, 0.0, 0.0], [0.3, bad, 0.0, 0.1]])
        for radial_map in (xi_values, xi_inv_values):
            with pytest.raises(PreconditionError, match="non-finite"):
                radial_map(values)

    def test_empty_input(self):
        assert xi_values(np.zeros((0, 4))).shape == (0, 4)
        assert xi_inv_values(np.zeros((0, 4))).shape == (0, 4)


class TestUnboundedForm:
    def test_two_point_symbol(self):
        sp = AtomicMeasureSpace.from_labels([Quaternion(1), Quaternion(2)], [1.0, 1.0])
        psi = Symbol.from_values(sp, [I, 2 * I], STANDARD_FRAME)
        sim = UnboundedSim.from_symbol(psi)
        v, new_space, eta = unbounded_multiplication_form(sim, STANDARD_FRAME)
        contracted = xi_inv_values(psi.values)
        assert_qclose(
            Quaternion.from_array(contracted[0]), I * (1.0 / math.sqrt(2.0)), 1e-14
        )
        assert_qclose(
            Quaternion.from_array(contracted[1]), (2.0 / math.sqrt(5.0)) * I, 1e-14
        )
        assert_qclose(new_space.label(0), I, 1e-12)
        assert_qclose(new_space.label(1), 2 * I, 1e-12)
        assert (v - QMatrix.identity(2)).frobenius() == 0.0
        np.testing.assert_allclose(eta.values, new_space.atoms, atol=0)

    def test_zero_symbol_single_atom(self):
        sp = AtomicMeasureSpace.from_labels([Quaternion(1)], [1.0])
        psi = Symbol.from_values(sp, [Quaternion()], STANDARD_FRAME)
        _, new_space, eta = unbounded_multiplication_form(
            UnboundedSim.from_symbol(psi), STANDARD_FRAME
        )
        assert abs(eta.value(0)) == 0.0

    def test_duplicate_values_rejected(self):
        sp = AtomicMeasureSpace.from_labels([Quaternion(1), Quaternion(2)], [1.0, 1.0])
        psi = Symbol.from_values(sp, [I, I], STANDARD_FRAME)
        with pytest.raises(DuplicateSymbolError):
            unbounded_multiplication_form(UnboundedSim.from_symbol(psi), STANDARD_FRAME)

    def test_zero_weights_rejected(self):
        sp = AtomicMeasureSpace.from_labels([Quaternion(1), Quaternion(2)], [1.0, 0.0])
        psi = Symbol.from_values(sp, [I, 2 * I], STANDARD_FRAME)
        with pytest.raises(DuplicateSymbolError):
            unbounded_multiplication_form(UnboundedSim.from_symbol(psi), STANDARD_FRAME)

    def test_frame_mismatch_rejected(self, random_frames):
        sp = AtomicMeasureSpace.from_labels([Quaternion(1)], [1.0])
        psi = Symbol.from_values(sp, [Quaternion(0.5)], STANDARD_FRAME)
        with pytest.raises(ShapeError):
            unbounded_multiplication_form(UnboundedSim.from_symbol(psi), random_frames[0])

    def test_represents_multiplication(self, frame, rng):
        n = 7
        sp = AtomicMeasureSpace.from_labels(
            [Quaternion(t) for t in range(n)], np.abs(rng.normal(size=n)) + 0.1
        )
        values = [Quaternion(rng.uniform(-3, 3)) + frame.m * rng.uniform(0.1, 9) for _ in range(n)]
        psi = Symbol.from_values(sp, values, frame)
        v, new_space, eta = unbounded_multiplication_form(UnboundedSim.from_symbol(psi), frame)
        g = L2Element(sp, gen.random_qvector(rng, n))
        lhs = m_phi(psi, g).values
        rhs = v.H.apply(m_phi(eta, L2Element(new_space, v.apply(g.values))).values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1.0 + np.max(np.abs(lhs))))

    def test_composes_with_matrix_decomposition(self, frame, rng):
        # decompose a matrix, feed the standard eigenvalues in as an unbounded
        # symbol, and reconstruct the matrix through the relabeled space
        a = gen.random_normal(rng, 6, frame, scale=3.0)
        form = multiplication_form(a, frame)
        psi = Symbol(form.space, form.phi.values, frame)
        v2, new_space, eta = unbounded_multiplication_form(UnboundedSim.from_symbol(psi), frame)
        v_total = v2 @ form.U
        eta_values = [Quaternion.from_array(row) for row in eta.values]
        rec = v_total.H @ QMatrix.diag(eta_values) @ v_total
        assert (a - rec).frobenius() <= 1e-9 * a.frobenius()

    def test_truncation_stability(self, rng):
        frame = STANDARD_FRAME
        residuals = []
        for n_atoms in (8, 64, 512):
            grid = np.linspace(0.0, 10.0, n_atoms)
            sp = AtomicMeasureSpace.from_labels(
                [Quaternion(t) for t in grid], np.full(n_atoms, 10.0 / n_atoms)
            )
            psi = Symbol.from_values(sp, [frame.m * t for t in grid], frame)
            v, new_space, eta = unbounded_multiplication_form(
                UnboundedSim.from_symbol(psi), frame
            )
            g = L2Element(sp, gen.random_qvector(rng, n_atoms))
            lhs = m_phi(psi, g).values
            rhs = v.H.apply(m_phi(eta, L2Element(new_space, v.apply(g.values))).values)
            scale = 1.0 + float(np.max(np.abs(lhs)))
            residuals.append(float(np.max(np.abs(lhs - rhs))) / scale)
        assert all(r <= 1e-10 for r in residuals)

    def test_collision_matches_pairwise_loop(self):
        # one to three rows per symbol at 0, MERGE_TOL and one ulp either
        # side of earlier rows, at moduli where the xi round trip is exact and
        # where it is not: the form raises exactly when the old pairwise
        # check did, naming the same pair
        rng = np.random.default_rng(5)
        frame = SliceFrame.from_m((I + 2 * J - K) / abs(I + 2 * J - K))
        one, m = np.array([1.0, 0.0, 0.0, 0.0]), frame.m.to_array()
        factors = [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
        outcomes = set()
        for scale in (1e-3, 1.0, 30.0):
            for _ in range(40):
                c = scale * rng.standard_normal((8, 2))
                values = c[:, :1] * one + c[:, 1:] * m
                for _ in range(int(rng.integers(1, 4))):
                    k, j = rng.choice(8, 2, replace=False)
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    step = MERGE_TOL * (math.cos(angle) * one + math.sin(angle) * m)
                    values[k] = values[j] + rng.choice(factors) * step
                space = AtomicMeasureSpace(values, np.ones(8))
                sim = UnboundedSim.from_symbol(Symbol(space, values, frame))
                want = _collision_loop(xi_values(xi_inv_values(values)))
                outcomes.add(want is None)
                if want is None:
                    unbounded_multiplication_form(sim, frame)
                else:
                    with pytest.raises(DuplicateSymbolError) as err:
                        unbounded_multiplication_form(sim, frame)
                    assert str(err.value) == want
        assert outcomes == {True, False}


def _collision_loop(eta_points):
    """The pairwise check the unbounded form made before the first-seen
    merge: the message it raised, or None."""
    for i in range(len(eta_points)):
        for t in range(i):
            if np.linalg.norm(eta_points[i] - eta_points[t]) <= MERGE_TOL:
                return (
                    f"symbol values at atoms {t} and {i} collide; the "
                    "pushforward would collapse the space"
                )
    return None


def _layout(name: str, n: int) -> tuple[np.ndarray, SliceFrame]:
    """n distinct slice values in the frame m = (i - j)/sqrt(2): on a line
    of constant real part, or on a square grid."""
    m = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    if name == "line":
        re, im = np.full(n, 0.5), np.linspace(-3.0, 3.0, n)
    else:
        side = math.isqrt(n)
        re, im = (g.ravel() for g in np.meshgrid(*[np.linspace(-2.0, 2.0, side)] * 2))
    return np.column_stack([re, np.outer(im, m[1:])]), SliceFrame.from_m(Quaternion(*m))


class TestAtomsAtScale:
    @pytest.mark.parametrize("layout", ["line", "grid"])
    def test_distinct_atoms(self, layout, monkeypatch):
        # the pairwise loops took N^2 / 2 norms, about 40 s per call at
        # N = 4096; the first-seen merge takes one per candidate pair, and
        # here only q and -q, whose squares agree, make candidates
        n = 4096
        values, frame = _layout(layout, n)
        norms = 0
        norm = np.linalg.norm

        def counted(*args, **kwargs):
            nonlocal norms
            norms += 1
            assert norms <= n, "more per-pair norms than atoms"
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        start = time.perf_counter()
        space = AtomicMeasureSpace(values, np.ones(n))
        psi = Symbol(space, values, frame)
        _, new_space, _ = unbounded_multiplication_form(UnboundedSim.from_symbol(psi), frame)
        assert new_space.n_atoms == n
        assert len(ess_ran(psi)) == n
        image = pushforward(space, lambda q: q * q)
        assert image.n_atoms == (n if layout == "line" else n // 2)
        assert image.total_mass() == n
        # about 0.1 s on a 2-vCPU Xeon VM; the bound leaves room for slower hosts
        assert time.perf_counter() - start < 3.0
