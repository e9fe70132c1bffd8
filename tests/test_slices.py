import numpy as np
import pytest

from qspectra import I, J, K, ONE, QMatrix, STANDARD_FRAME, SliceFrame, inner
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.bridge import CMatrix, chi, iota_inv, spectral_decompose
from qspectra.errors import PreconditionError, ShapeError, SliceCommutationError
from qspectra.operators import delta
from qspectra.slices import (
    SliceStructure,
    build_J,
    extend,
    extend_between,
    project_minus,
    project_plus,
    quaternionify,
    restrict_pair,
)
from qspectra.spectral import multiplication_form, slice_spectrum_check, sphere_spectrum
from qspectra.vectors import scale_right

from conftest import assert_qclose, minus_product


def structure_for(a: QMatrix, frame) -> SliceStructure:
    return build_J(spectral_decompose(a, frame))


def random_slice_matrix(rng, n, frame) -> CMatrix:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return CMatrix.from_complex(z, frame)


class TestBuildJ:
    def test_left_j_operator(self):
        s = structure_for(QMatrix.from_rows([[J]]), STANDARD_FRAME)
        assert_qclose(s.J.entry(0, 0), J, 1e-13)

    def test_already_slice_diagonal(self):
        s = structure_for(QMatrix.diag([I, I]), STANDARD_FRAME)
        assert_qclose(s.J.entry(0, 0), I, 1e-13)
        assert_qclose(s.J.entry(1, 1), I, 1e-13)
        assert abs(s.J.entry(0, 1)) <= 1e-13

    def test_anti_self_adjoint_unitary(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        s = structure_for(a, frame)
        n = s.n
        assert (s.J.H + s.J).frobenius() <= 1e-12 * n
        assert ((s.J @ s.J) + QMatrix.identity(n)).frobenius() <= 1e-12 * n
        assert ((s.J.H @ s.J) - QMatrix.identity(n)).frobenius() <= 1e-12 * n

    def test_plus_basis_eigenproperty(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        plus_basis = iota_inv(s.w[:, : s.n], frame)
        for k in range(s.n):
            z = plus_basis[:, k]
            np.testing.assert_allclose(
                s.J.apply(z), scale_right(z, frame.m), atol=1e-12
            )


class TestProjections:
    def test_scalar_slice_projection(self):
        s = SliceStructure(np.diag([1j, -1j]), STANDARD_FRAME, np.eye(2))
        one = ONE.to_array()[None, :]
        jv = J.to_array()[None, :]
        np.testing.assert_allclose(project_plus(one, s), one, atol=1e-15)
        np.testing.assert_allclose(project_plus(jv, s), 0 * jv, atol=1e-15)

    def test_partition_and_idempotence(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        s = structure_for(a, frame)
        for _ in range(10):
            x = gen.random_qvector(rng, 6)
            plus, minus = project_plus(x, s), project_minus(x, s)
            np.testing.assert_allclose(plus + minus, x, atol=1e-13)
            np.testing.assert_allclose(project_plus(plus, s), plus, atol=1e-12)
            np.testing.assert_allclose(
                s.J.apply(plus), scale_right(plus, frame.m), atol=1e-12
            )

    def test_orthogonality_identity(self, frame, rng):
        # <x+|x-> + <x-|x+> = 0 across the two subspaces
        a = gen.random_normal(rng, 7, frame)
        s = structure_for(a, frame)
        for _ in range(20):
            xp = project_plus(gen.random_qvector(rng, 7), s)
            xm = project_minus(gen.random_qvector(rng, 7), s)
            assert abs(inner(xp, xm) + inner(xm, xp)) <= 1e-10

    def test_right_n_multiple_lands_in_minus(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        x = project_plus(gen.random_qvector(rng, 5), s)
        moved = scale_right(x, frame.n)
        np.testing.assert_allclose(project_minus(moved, s), moved, atol=1e-12)


class TestRestrict:
    def test_left_j_restricts_to_i(self):
        a = QMatrix.from_rows([[J]])
        s = structure_for(a, STANDARD_FRAME)
        np.testing.assert_allclose(
            restrict_pair(a, s)[0].z, np.array([[1j]]), atol=1e-13
        )

    def test_identity_restricts_to_identity(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = structure_for(a, frame)
        np.testing.assert_allclose(
            restrict_pair(QMatrix.identity(4), s)[0].z, np.eye(4), atol=1e-13
        )

    def test_non_commuting_rejected(self):
        s = SliceStructure(np.diag([1j, -1j]), STANDARD_FRAME, np.eye(2))
        with pytest.raises(SliceCommutationError):
            restrict_pair(QMatrix.from_rows([[K]]), s)

    def test_minus_restriction_is_conjugate(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        plus, minus = (t.z for t in restrict_pair(a, s))
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-12)

    def test_minus_restriction_is_conj_plus_bit_for_bit(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        plus, minus = restrict_pair(a, structure_for(a, frame))
        assert minus.frame == frame
        assert minus.z.tobytes() == np.conj(plus.z).tobytes()

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 128])
    def test_minus_product_is_conj_plus_to_rounding(self, n, kind):
        # chi(V) = [W1, W2] with W2 = Jc conj(W1), Jc = [[0, -I], [I, 0]], and
        # Jc^-1 chi(A) Jc = conj chi(A): the product on the minus basis is
        # conj(T+) in exact arithmetic, so the two differ by rounding alone
        eps = np.finfo(float).eps
        for seed in range(3):
            a = gen.random_normal(np.random.default_rng([n, seed]), n, STANDARD_FRAME, kind)
            s = structure_for(a, STANDARD_FRAME)
            gap = qa.fro(minus_product(a, s) - np.conj(restrict_pair(a, s)[0].z))
            assert gap <= 64 * (2 * n) * eps * qa.fro(chi(a, STANDARD_FRAME)), (seed, gap)


class TestSliceChecksAtScale:
    """A and B are the first two n = 8 draws of default_rng(3), scaled by
    c; the J of one and the spectrum of the other do not fit A at any c,
    and the bounds, relative to ||A||, say so below scale 1 too."""

    @staticmethod
    def pair(c):
        rng = np.random.default_rng(3)
        a, b = (QMatrix(gen.random_normal(rng, 8, STANDARD_FRAME).a * c) for _ in range(2))
        return a, b

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e12])
    def test_spectrum_of_another_matrix_fails(self, c):
        a, b = self.pair(c)
        s = structure_for(a, STANDARD_FRAME)
        assert slice_spectrum_check(a, s).passed
        other = sphere_spectrum(multiplication_form(b, STANDARD_FRAME))
        assert not slice_spectrum_check(a, s, spectrum=other).passed

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e12])
    def test_j_of_another_matrix_rejected(self, c):
        a, b = self.pair(c)
        restrict_pair(a, structure_for(a, STANDARD_FRAME))
        with pytest.raises(SliceCommutationError, match="slices.restrict_commutes"):
            restrict_pair(a, structure_for(b, STANDARD_FRAME))


class TestExtend:
    def test_scalar_example(self):
        s = SliceStructure(np.diag([1j, -1j]), STANDARD_FRAME, np.eye(2))
        t_plus = CMatrix.from_complex(np.array([[1j]]), STANDARD_FRAME)
        ext = extend(t_plus, s)
        assert_qclose(ext.entry(0, 0), I, 0.0)
        # action on j: i * j = k
        np.testing.assert_allclose(
            ext.apply(J.to_array()[None, :]), K.to_array()[None, :], atol=1e-15
        )

    def test_identity_extends_to_identity(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = structure_for(a, frame)
        ext = extend(CMatrix.from_complex(np.eye(4), frame), s)
        assert (ext - QMatrix.identity(4)).frobenius() <= 1e-12

    def test_restrict_extend_roundtrip(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        t_plus = random_slice_matrix(rng, 5, frame)
        back = restrict_pair(extend(t_plus, s), s)[0]
        np.testing.assert_allclose(back.z, t_plus.z, atol=1e-12)

    def test_defining_formula_pointwise(self, frame, rng):
        # extension acts as T(x1) - T(x2 * n) * n on the split x = x1 + x2
        a = gen.random_normal(rng, 6, frame)
        s = structure_for(a, frame)
        t_plus = random_slice_matrix(rng, 6, frame)
        ext = extend(t_plus, s)

        plus_basis = QMatrix(iota_inv(s.w[:, :6], frame))

        def apply_plus(h):
            coords = plus_basis.H.apply(h)
            return plus_basis.apply(QMatrix(t_plus.data).apply(coords))

        for _ in range(10):
            x = gen.random_qvector(rng, 6)
            x1, x2 = project_plus(x, s), project_minus(x, s)
            direct = apply_plus(x1) - scale_right(
                apply_plus(scale_right(x2, frame.n)), frame.n
            )
            np.testing.assert_allclose(ext.apply(x), direct, atol=1e-11)

    def test_norm_equality(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        s = structure_for(a, frame)
        t_plus = random_slice_matrix(rng, 6, frame)
        ext = extend(t_plus, s)
        assert ext.op_norm() == pytest.approx(
            QMatrix(t_plus.data).op_norm(), abs=1e-9
        )

    def test_star_homomorphism(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        t_plus = random_slice_matrix(rng, 5, frame)
        star_then_extend = extend(CMatrix(QMatrix(t_plus.data).H.a, frame), s)
        assert (star_then_extend - extend(t_plus, s).H).frobenius() <= 1e-10

    def test_multiplicative(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        t1, t2 = random_slice_matrix(rng, 5, frame), random_slice_matrix(rng, 5, frame)
        prod = CMatrix((QMatrix(t1.data) @ QMatrix(t2.data)).a, frame)
        assert (extend(prod, s) - (extend(t1, s) @ extend(t2, s))).frobenius() <= 1e-10

    def test_inverse_carries_over(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = structure_for(a, frame)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
        t_plus = CMatrix.from_complex(z, frame)
        t_inv = CMatrix.from_complex(np.linalg.inv(z), frame)
        prod = extend(t_plus, s) @ extend(t_inv, s)
        assert (prod - QMatrix.identity(4)).frobenius() <= 1e-10

    def test_delta_compatibility(self, frame, rng):
        a = gen.random_normal(rng, 5, frame)
        s = structure_for(a, frame)
        t_plus = random_slice_matrix(rng, 5, frame)
        tq = QMatrix(t_plus.data)
        q = gen.random_quaternion(rng)
        delta_plus = (tq @ tq) - (2.0 * q.re) * tq + q.norm_sq() * QMatrix.identity(5)
        lhs = delta(extend(t_plus, s), q)
        rhs = extend(CMatrix(delta_plus.a, frame), s)
        assert (lhs - rhs).frobenius() <= 1e-10

    def test_shape_guard(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = structure_for(a, frame)
        with pytest.raises(ShapeError):
            extend(random_slice_matrix(rng, 3, frame), s)


class TestExtendBetween:
    def test_square_agrees_with_extend(self, frame, rng):
        a = gen.random_normal(rng, 4, frame)
        s = structure_for(a, frame)
        u = random_slice_matrix(rng, 4, frame)
        assert (extend_between(u, s, s) - extend(u, s)).frobenius() <= 1e-12

    def test_unitary_lifts_to_unitary(self, frame, rng):
        s1 = structure_for(gen.random_normal(rng, 4, frame), frame)
        s2 = structure_for(gen.random_normal(rng, 4, frame), frame)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        lifted = extend_between(CMatrix.from_complex(q, frame), s1, s2)
        assert ((lifted.H @ lifted) - QMatrix.identity(4)).frobenius() <= 1e-12

    def test_rectangular_between_different_dims(self, frame, rng):
        s1 = structure_for(gen.random_normal(rng, 3, frame), frame)
        s2 = structure_for(gen.random_normal(rng, 5, frame), frame)
        u = CMatrix.from_complex(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)), frame)
        lifted = extend_between(u, s1, s2)
        assert lifted.shape == (5, 3)
        # the commutation J2 U = U J1 was verified inside; spot-check the norm
        assert lifted.op_norm() == pytest.approx(QMatrix(u.data).op_norm(), abs=1e-9)

    def test_zero_extends_to_zero(self, frame, rng):
        s1 = structure_for(gen.random_normal(rng, 3, frame), frame)
        s2 = structure_for(gen.random_normal(rng, 4, frame), frame)
        lifted = extend_between(CMatrix.from_complex(np.zeros((4, 3)), frame), s1, s2)
        assert lifted.frobenius() == 0.0

    def test_dimension_mismatch(self, frame, rng):
        s1 = structure_for(gen.random_normal(rng, 3, frame), frame)
        s2 = structure_for(gen.random_normal(rng, 4, frame), frame)
        with pytest.raises(ShapeError):
            extend_between(random_slice_matrix(rng, 3, frame), s1, s2)

    def test_frame_mismatch(self, rng):
        # the lift multiplies chi images, which only one frame relates
        other = SliceFrame.from_m(J)
        s = structure_for(gen.random_normal(rng, 3, STANDARD_FRAME), STANDARD_FRAME)
        s_other = structure_for(gen.random_normal(rng, 3, other), other)
        for u, s1, s2 in [
            (random_slice_matrix(rng, 3, other), s, s),
            (random_slice_matrix(rng, 3, STANDARD_FRAME), s, s_other),
        ]:
            with pytest.raises(ShapeError, match="not in one frame"):
                extend_between(u, s1, s2)
        with pytest.raises(ShapeError, match="not in one frame"):
            extend(random_slice_matrix(rng, 3, other), s)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "routine",
    [
        lambda a, t, s: restrict_pair(a, s),
        lambda a, t, s: slice_spectrum_check(a, s),
        lambda a, t, s: extend(t, s),
        lambda a, t, s: extend_between(t, s, s),
    ],
    ids=["restrict_pair", "slice_spectrum_check", "extend", "extend_between"],
)
def test_non_finite_entry_is_named(routine, value):
    # the matrix (for the restrictions) or the slice operator (for the
    # extensions) has one bad entry; it is named before any product
    a = gen.random_normal(np.random.default_rng(3), 4, STANDARD_FRAME)
    s = structure_for(a, STANDARD_FRAME)
    t = restrict_pair(a, s)[0]
    a.a[1, 2, 3] = t.z[1, 2] = value
    with pytest.raises(PreconditionError, match=r"^matrix entry \(1, 2\) is not finite$") as err:
        routine(a, t, s)
    assert type(err.value) is PreconditionError


@pytest.mark.parametrize(
    "routine",
    [restrict_pair, slice_spectrum_check],
    ids=["restrict_pair", "slice_spectrum_check"],
)
def test_size_mismatch_is_named(routine):
    # a 4x4 matrix against the structure of a 3x3 one is named, with both
    # sizes, before any product, as extend and extend_between name theirs
    b = gen.random_normal(np.random.default_rng(3), 3, STANDARD_FRAME)
    s = structure_for(b, STANDARD_FRAME)
    a = gen.random_normal(np.random.default_rng(4), 4, STANDARD_FRAME)
    with pytest.raises(ShapeError, match=r"^matrix of dim 4 does not fit space of dim 3$"):
        routine(a, s)


class TestQuaternionify:
    def test_action_matches_hamilton_product(self):
        space = quaternionify(1, STANDARD_FRAME)
        u = space.element([0.0], [1.0])  # stands for j
        out = space.scale(u, K)
        np.testing.assert_allclose(out[0], [1j], atol=1e-15)  # j * k = i
        np.testing.assert_allclose(out[1], [0.0], atol=1e-15)

    def test_unconjugated_action_gets_jk_wrong(self):
        space = quaternionify(1, STANDARD_FRAME)
        u = space.element([0.0], [1.0])
        out = space.scale_unconjugated(u, K)
        np.testing.assert_allclose(out[0], [-1j], atol=1e-15)

    def test_cross_inner_product(self):
        space = quaternionify(1, STANDARD_FRAME)
        got = space.inner(space.element([1.0], [0.0]), space.element([0.0], [1.0]))
        assert_qclose(got, J, 0.0)

    def test_unit_scalar(self, rng):
        space = quaternionify(3, STANDARD_FRAME)
        u = space.element(rng.normal(size=3) + 1j * rng.normal(size=3),
                          rng.normal(size=3) + 1j * rng.normal(size=3))
        out = space.scale(u, ONE)
        np.testing.assert_allclose(out[0], u[0], atol=1e-15)
        np.testing.assert_allclose(out[1], u[1], atol=1e-15)

    def test_embedding_intertwines_action(self, frame, rng):
        space = quaternionify(4, frame)
        for _ in range(20):
            u = space.element(
                rng.normal(size=4) + 1j * rng.normal(size=4),
                rng.normal(size=4) + 1j * rng.normal(size=4),
            )
            q = gen.random_quaternion(rng)
            lhs = space.embed(space.scale(u, q))
            rhs = scale_right(space.embed(u), q)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associativity_corrected_vs_unconjugated(self, frame, rng):
        space = quaternionify(2, frame)
        failures = 0
        for _ in range(50):
            u = space.element(
                rng.normal(size=2) + 1j * rng.normal(size=2),
                rng.normal(size=2) + 1j * rng.normal(size=2),
            )
            p, q = gen.random_quaternion(rng), gen.random_quaternion(rng)
            lhs = space.scale(space.scale(u, p), q)
            rhs = space.scale(u, p * q)
            assert np.linalg.norm(lhs[0] - rhs[0]) + np.linalg.norm(lhs[1] - rhs[1]) <= 1e-12
            bad_lhs = space.scale_unconjugated(space.scale_unconjugated(u, p), q)
            bad_rhs = space.scale_unconjugated(u, p * q)
            gap = np.linalg.norm(bad_lhs[0] - bad_rhs[0]) + np.linalg.norm(bad_lhs[1] - bad_rhs[1])
            failures += gap > 1e-6
        assert failures > 40  # the unconjugated action is not a module action

    def test_inner_matches_embedding(self, frame, rng):
        space = quaternionify(3, frame)
        u = space.element(rng.normal(size=3) + 1j * rng.normal(size=3),
                          rng.normal(size=3) + 1j * rng.normal(size=3))
        v = space.element(rng.normal(size=3) + 1j * rng.normal(size=3),
                          rng.normal(size=3) + 1j * rng.normal(size=3))
        assert_qclose(space.inner(u, v), inner(space.embed(u), space.embed(v)), 1e-12)

    def test_norm_is_pythagorean(self, rng):
        space = quaternionify(2, STANDARD_FRAME)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = space.element(x, y)
        expect = np.sqrt(np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2)
        assert space.norm(u) == pytest.approx(expect, rel=1e-14)

    def test_projection_recovers_first_slot(self, frame, rng):
        space = quaternionify(3, frame)
        u = space.element(rng.normal(size=3) + 1j * rng.normal(size=3),
                          rng.normal(size=3) + 1j * rng.normal(size=3))
        plus = space.project_plus(u)
        np.testing.assert_allclose(plus[0], u[0], atol=1e-13)
        np.testing.assert_allclose(plus[1], 0 * u[1], atol=1e-13)

    def test_j_map_squares_to_minus_one(self, frame, rng):
        space = quaternionify(2, frame)
        u = space.element(rng.normal(size=2) + 1j * rng.normal(size=2),
                          rng.normal(size=2) + 1j * rng.normal(size=2))
        twice = space.j_map(space.j_map(u))
        np.testing.assert_allclose(twice[0], -u[0], atol=1e-15)
        np.testing.assert_allclose(twice[1], -u[1], atol=1e-15)
