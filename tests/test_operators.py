import numpy as np
import pytest

from qspectra import I, J, QMatrix, Quaternion, delta, inner, norm
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.errors import NotNormalError, PreconditionError, ShapeError
from qspectra.report import require
from qspectra.vectors import scale_right

from conftest import assert_qclose


def rand_matrix(rng, n):
    return QMatrix(gen.random_qvector(rng, n * n).reshape(n, n, 4))


def required_normality(a):
    """A's passed normal.commutator check; NotNormalError if it failed."""
    return require(qa.normality(a.to_complex_adjoint(), np.sqrt(2.0)), NotNormalError)


class TestAdjoint:
    def test_one_by_one(self):
        assert_qclose(QMatrix.from_rows([[J]]).H.entry(0, 0), -J, 0.0)

    def test_conjugate_transpose(self):
        a = QMatrix.from_rows([[Quaternion(), I], [Quaternion(), Quaternion()]])
        h = a.H
        assert_qclose(h.entry(0, 0), Quaternion(), 0.0)
        assert_qclose(h.entry(1, 0), -I, 0.0)
        assert_qclose(h.entry(0, 1), Quaternion(), 0.0)

    def test_involution(self, rng):
        a = rand_matrix(rng, 5)
        assert (a.H.H - a).frobenius() == 0.0

    def test_moves_across_inner_product(self, rng):
        a = rand_matrix(rng, 6)
        for _ in range(10):
            x, y = gen.random_qvector(rng, 6), gen.random_qvector(rng, 6)
            assert_qclose(inner(x, a.apply(y)), inner(a.H.apply(x), y), 1e-12)

    def test_antihomomorphism(self, rng):
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        assert ((a @ b).H - (b.H @ a.H)).frobenius() <= 1e-12


class TestNormality:
    def test_left_multiplication_is_normal(self):
        a = QMatrix.from_rows([[J]])
        assert a.is_normal()
        assert required_normality(a).residual <= 1e-12 * a.frobenius() ** 2

    def test_nilpotent_shift_is_not(self):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 0] = 1.0
        assert not QMatrix(arr).is_normal()

    def test_anti_self_adjoint_is_normal(self, rng):
        b = rand_matrix(rng, 5)
        a = b - b.H
        assert a.is_normal()
        assert required_normality(a).residual <= 1e-12 * a.frobenius() ** 2

    def test_overflow_is_no_verdict(self):
        # normal, but the commutator and the bound overflow: is_normal says
        # no, and the required check names the overflow instead of a defect
        a = 1e160 * QMatrix.from_rows([[J]])
        assert not a.is_normal()
        with pytest.raises(PreconditionError, match="normality check overflows") as err:
            required_normality(a)
        assert not isinstance(err.value, NotNormalError)

    @pytest.mark.parametrize("scale", [1e-100, 1e-200])
    def test_non_normal_where_commutator_underflows(self, scale):
        # unscaled, the commutator's squares underflow from about 1e-77 and
        # its products from about 1e-154, and the check read 0
        a = QMatrix(np.random.default_rng(7).standard_normal((4, 4, 4)) * scale)
        assert not a.is_normal()
        with pytest.raises(NotNormalError, match="normal.commutator"):
            required_normality(a)

    @pytest.mark.parametrize("k", [1, 40, 200, 300])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        # where nothing underflows, the check on 2^-k A is the check on A
        # with residual and tol times 4^-k, bit for bit; at k = 300 it is
        # decided on the matrix scaled back up
        b = rand_matrix(rng, 5)
        for a in (b, b - b.H):
            z = a.to_complex_adjoint()
            want = qa.normality(z, np.sqrt(2.0))
            got = qa.normality(z * 2.0**-k, np.sqrt(2.0))
            assert got.residual == np.ldexp(want.residual, -2 * k)
            assert got.tol == np.ldexp(want.tol, -2 * k)
            assert got.passed == want.passed

    def test_required_normality_raises(self):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 0] = 1.0
        with pytest.raises(NotNormalError):
            required_normality(QMatrix(arr))


class TestDelta:
    def test_kernel_at_spectrum_point(self):
        # j^2 - 0 + |i|^2 = 0: the orbit of j meets i
        out = delta(QMatrix.from_rows([[J]]), I)
        assert out.frobenius() <= 1e-15

    def test_off_spectrum_point(self):
        out = delta(QMatrix.from_rows([[J]]), 2 * I)
        assert_qclose(out.entry(0, 0), Quaternion(3), 1e-15)

    def test_zero_probe_gives_square(self, rng):
        a = rand_matrix(rng, 4)
        assert (delta(a, Quaternion()) - (a @ a)).frobenius() <= 1e-13

    def test_depends_only_on_orbit(self, rng):
        a = rand_matrix(rng, 4)
        q = gen.random_quaternion(rng)
        assert (delta(a, q) - delta(a, q.conjugate())).frobenius() <= 1e-12
        s = gen.random_quaternion(rng)
        assert (delta(a, q) - delta(a, s.inverse() * q * s)).frobenius() <= 1e-11


class TestOperatorNorm:
    def test_identity(self):
        a = QMatrix.identity(3)
        assert a.op_norm() == pytest.approx(1.0, abs=1e-14)
        assert a.singular_values()[-1] == pytest.approx(1.0, abs=1e-14)

    def test_unit_left_multiplication(self):
        a = QMatrix.from_rows([[J]])
        assert a.op_norm() == pytest.approx(1.0, abs=1e-14)
        assert a.singular_values()[-1] == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_moduli(self):
        a = QMatrix.diag([I, 2 * J])
        assert a.op_norm() == pytest.approx(2.0, abs=1e-14)
        assert a.singular_values()[-1] == pytest.approx(1.0, abs=1e-14)

    def test_bounds_vector_action(self, rng):
        a = rand_matrix(rng, 6)
        bound = a.op_norm()
        for _ in range(20):
            x = gen.random_qvector(rng, 6)
            assert norm(a.apply(x)) <= bound * norm(x) * (1.0 + 1e-12)

    def test_power_iteration_attains_norm(self, rng):
        f = gen.random_frame(rng)
        d = gen.random_standard_values(rng, 6, f, scale=0.7)
        d[0] = Quaternion(2.0) + f.m * 1.0
        v = gen.random_unitary(rng, 6)
        a = v @ QMatrix.diag(d) @ v.H
        x = gen.random_qvector(rng, 6)
        x /= norm(x)
        for _ in range(150):
            x = a.H.apply(a.apply(x))
            x /= norm(x)
        assert norm(a.apply(x)) >= a.op_norm() - 1e-6

    def test_norm_equals_sup_over_action(self, rng):
        # cross-check the doubled-matrix SVD against direct maximization
        a = rand_matrix(rng, 3)
        best = 0.0
        for _ in range(2000):
            x = gen.random_qvector(rng, 3)
            best = max(best, norm(a.apply(x)) / norm(x))
        assert best <= a.op_norm() * (1.0 + 1e-10)
        assert best >= a.op_norm() * 0.9


class TestShapes:
    def test_rectangular_allowed_square_guarded(self):
        rect = QMatrix.zeros(2, 3)
        assert rect.shape == (2, 3)
        with pytest.raises(ShapeError):
            rect.n

    def test_matmul_shape_check(self):
        with pytest.raises(ShapeError):
            QMatrix.identity(2) @ QMatrix.identity(3)

    def test_apply_shape_check(self):
        with pytest.raises(ShapeError):
            QMatrix.identity(2).apply(np.zeros((3, 4)))

    def test_right_linearity_of_action(self, rng):
        a = rand_matrix(rng, 4)
        x, y = gen.random_qvector(rng, 4), gen.random_qvector(rng, 4)
        q = gen.random_quaternion(rng)
        lhs = a.apply(scale_right(x, q) + y)
        rhs = scale_right(a.apply(x), q) + a.apply(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
