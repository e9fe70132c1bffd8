import numpy as np
import pytest

from qspectra import I, J, K, ONE, QMatrix, Quaternion, STANDARD_FRAME, inner, norm
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.bridge import (
    DECOMP_RESIDUAL_TOL,
    CMatrix,
    chi,
    eigvals_normal,
    iota,
    iota_inv,
    spectral_decompose,
)
from qspectra.errors import (
    EigenResidualError,
    NotNormalError,
    PreconditionError,
    ShapeError,
    SliceMembershipError,
)
from qspectra.quaternion import cm_to_complex
from qspectra.spectral import _multiset_deviation
from qspectra.vectors import scale_right

from conftest import assert_qclose, count_calls, random_complex_normal


def rand_matrix(rng, n):
    return QMatrix(gen.random_qvector(rng, n * n).reshape(n, n, 4))


class TestChi:
    def test_pure_j_entry(self):
        z = chi(QMatrix.from_rows([[J]]), STANDARD_FRAME)
        np.testing.assert_allclose(z, np.array([[0, -1], [1, 0]], dtype=complex), atol=0)

    def test_pure_i_entry(self):
        z = chi(QMatrix.from_rows([[I]]), STANDARD_FRAME)
        np.testing.assert_allclose(z, np.diag([1j, -1j]), atol=0)

    def test_identity(self, frame):
        # frame products carry ~1e-16 rounding for non-axis frames
        z = chi(QMatrix.identity(3), frame)
        np.testing.assert_allclose(z, np.eye(6), atol=1e-15)

    def test_intertwines_action(self, frame, rng):
        for _ in range(10):
            a = rand_matrix(rng, 4)
            x = gen.random_qvector(rng, 4)
            z = chi(a, frame)
            np.testing.assert_allclose(
                iota(a.apply(x), frame), z @ iota(x, frame), atol=1e-12
            )

    def test_intertwines_slice_scalars(self, frame, rng):
        lam = Quaternion(0.3) + frame.m * (-1.7)
        x = gen.random_qvector(rng, 5)
        np.testing.assert_allclose(
            iota(scale_right(x, lam), frame),
            iota(x, frame) * cm_to_complex(lam, frame),
            atol=1e-13,
        )

    def test_iota_inverse(self, frame, rng):
        x = gen.random_qvector(rng, 6)
        np.testing.assert_allclose(iota_inv(iota(x, frame), frame), x, atol=1e-14)

    def test_multiplicative_and_star(self, frame, rng):
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        za = chi(a, frame)
        zb = chi(b, frame)
        np.testing.assert_allclose(
            chi(a @ b, frame), za @ zb, atol=1e-12
        )
        np.testing.assert_allclose(
            chi(a.H, frame), np.conj(za.T), atol=1e-14
        )

    def test_isometry(self, frame, rng):
        a = rand_matrix(rng, 5)
        z = chi(a, frame)
        assert np.linalg.norm(z, 2) == pytest.approx(a.op_norm(), rel=1e-12)


    @pytest.mark.filterwarnings("error")
    def test_fro_where_squares_underflow_or_overflow(self, rng):
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        ref = float(np.linalg.norm(z))
        assert qa.fro(z) == ref
        for e in (-1070, -700, -480, 480, 700, 1000):
            # 2^e z is exact, so its norm is 2^e ||z||_F to rounding
            assert qa.fro(z * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)) == pytest.approx(
                ref * 2.0 ** (e // 2) * 2.0 ** (e - e // 2), rel=1e-14
            )
        assert qa.fro(np.zeros((2, 2))) == 0.0


class TestCMatrix:
    def test_rejects_off_slice_entries(self):
        with pytest.raises(SliceMembershipError):
            CMatrix(QMatrix.from_rows([[J]]).a, STANDARD_FRAME)

    def test_complex_roundtrip(self, frame, rng):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = CMatrix.from_complex(z, frame).z
        np.testing.assert_allclose(back, z, atol=1e-15)


class TestEigNormalComplex:
    """Eigen-contracts on normal complex matrices: the eigenvalues through
    eigvals_normal, the eigenvectors through spectral_decompose, whose one
    eig and one QR of chi(A) lift them."""

    def test_diagonal_imaginary_pair(self):
        vals = eigvals_normal(np.diag([1j, -1j]))
        assert abs(vals[0] - 1j) <= 1e-14
        assert abs(vals[1] + 1j) <= 1e-14

    def test_rotation_block(self):
        vals = eigvals_normal(np.array([[0, -1], [1, 0]], dtype=complex))
        got = sorted(vals, key=lambda z: z.imag)
        assert got == pytest.approx([-1j, 1j])

    def test_textbook_hermitian(self):
        vals = eigvals_normal(np.array([[2, 1], [1, 2]], dtype=complex))
        assert abs(vals[0] - 3) <= 1e-12
        assert abs(vals[1] - 1) <= 1e-12
        # both eigenvalues lie on the real axis of every slice, so the
        # eigenlines come from J-pair deflation
        a = QMatrix.from_rows([[2 * ONE, ONE], [ONE, 2 * ONE]])
        dec = spectral_decompose(a, STANDARD_FRAME)
        assert [q.re for q in dec.d] == pytest.approx([3.0, 1.0], abs=1e-12)
        sym = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]) / np.sqrt(2)
        anti = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]) / np.sqrt(2)
        assert abs(inner(sym, dec.V.a[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(anti, dec.V.a[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_descending_lexicographic_order(self, rng):
        vals_in = rng.permutation([3.0, 1.0, 1.0, -2.0]) + 0j
        vals = eigvals_normal(np.diag(vals_in))
        res = list(vals.real)
        assert res == sorted(res, reverse=True)

    def test_non_normal_rejected(self):
        z = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotNormalError):
            eigvals_normal(z)

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_overflowing_normality_check_is_named(self, scale):
        # the commutator's norm overflows at 1e150 and ||z||_F at 1e300;
        # neither is a defect of a normal input
        z = scale * random_complex_normal(np.random.default_rng(0), 4)
        with pytest.raises(PreconditionError, match="normality check overflows") as err:
            eigvals_normal(z)
        assert not isinstance(err.value, NotNormalError)

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            eigvals_normal(np.zeros((2, 3), dtype=complex))

    def test_residual_contract_on_random_normal(self, frame, rng):
        for n in (3, 8, 16):
            a = gen.random_normal(rng, n, frame)
            dec = spectral_decompose(a, frame)
            eigen, unitary = dec.checks
            assert eigen.residual <= 1e-10 * np.linalg.norm(dec.z)
            assert unitary.residual <= 1e-12 * n

    def test_degenerate_clusters(self, rng):
        # chi(A) has the cluster 2, 2, 2, -i, -i, i, i, 0.5 + 0.5i of a complex
        # normal matrix twice over, with its conjugate
        f = gen.random_frame(rng)
        vals_in = [2.0, 2.0, 2.0, -1j, -1j, 1j, 1j, 0.5 + 0.5j]
        v = gen.random_unitary(rng, 8)
        a = v @ QMatrix.diag([Quaternion(z.real) + f.m * z.imag for z in vals_in]) @ v.H
        dec = spectral_decompose(a, f)
        assert dec.checks[0].residual <= 1e-10 * np.linalg.norm(dec.z)
        got = np.sort_complex(np.array([complex(q.re, q.im_norm()) for q in dec.d]))
        want = np.sort_complex(np.array([complex(z.real, abs(z.imag)) for z in vals_in]))
        assert np.max(np.abs(got - want)) <= 1e-12


class TestSpectralDecompose:
    def test_left_j_matrix(self):
        a = QMatrix.from_rows([[J]])
        dec = spectral_decompose(a, STANDARD_FRAME)
        assert len(dec.d) == 1
        assert_qclose(dec.d[0], I, 1e-13)
        v = dec.V.a[:, 0]
        assert norm(v) == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(
            a.apply(v), scale_right(v, dec.d[0]), atol=1e-12
        )
        # the eigenline is spanned by (1 + k)/sqrt(2)
        ref = np.array([(ONE + K).to_array()]) / abs(ONE + K)
        assert abs(inner(ref, v)) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_axes_share_an_orbit(self):
        a = QMatrix.diag([I, J])
        dec = spectral_decompose(a, STANDARD_FRAME)
        for d in dec.d:
            assert_qclose(d, I, 1e-12)

    def test_real_scalar_matrix(self):
        a = 2.5 * QMatrix.identity(3)
        dec = spectral_decompose(a, STANDARD_FRAME)
        for d in dec.d:
            assert_qclose(d, Quaternion(2.5), 1e-12)
        assert ((dec.V.H @ dec.V) - QMatrix.identity(3)).frobenius() <= 1e-12

    def test_rejects_non_normal(self):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 0] = 1.0
        with pytest.raises(NotNormalError):
            spectral_decompose(QMatrix(arr), STANDARD_FRAME)

    def test_orbit_recovery(self, frame, rng):
        for n in (2, 5, 9):
            d = gen.random_standard_values(rng, n, frame)
            v = gen.random_unitary(rng, n)
            a = v @ QMatrix.diag(d) @ v.H
            dec = spectral_decompose(a, frame)
            want = sorted((q.re, q.im_norm()) for q in d)
            got = sorted((q.re, q.im_norm()) for q in dec.d)
            for w, g in zip(want, got):
                assert w == pytest.approx(g, abs=1e-8)

    def test_upper_half_values(self, frame, rng):
        a = gen.random_normal(rng, 7, frame)
        dec = spectral_decompose(a, frame)
        for d in dec.d:
            assert cm_to_complex(d, frame).imag >= 0.0

    def test_degenerate_quaternionic_spectrum(self, rng):
        f = gen.random_frame(rng)
        lam = Quaternion(0.4) + f.m * 1.1
        d = [lam, lam, Quaternion(-0.7), Quaternion(-0.7), lam]
        v = gen.random_unitary(rng, 5)
        a = v @ QMatrix.diag(d) @ v.H
        dec = spectral_decompose(a, f)
        rec = dec.V @ QMatrix.diag(dec.d) @ dec.V.H
        assert (a - rec).frobenius() <= 1e-10 * a.frobenius()

    def test_frame_covariance_of_orbits(self, rng, random_frames):
        a = gen.random_normal(rng, 6, random_frames[0])
        reference = None
        for f in random_frames:
            dec = spectral_decompose(a, f)
            orbits = sorted((q.re, q.im_norm()) for q in dec.d)
            if reference is None:
                reference = orbits
            else:
                for r, o in zip(reference, orbits):
                    assert r == pytest.approx(o, abs=1e-9)

    def test_conjugate_pairing_of_chi_eigenvalues(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        vals = np.linalg.eigvals(chi(a, frame))
        for lam in vals[vals.imag > 1e-9]:
            assert np.min(np.abs(vals - np.conj(lam))) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-12, 1e-8])
    def test_tiny_scale(self, frame, rng, scale):
        a = scale * gen.random_normal(rng, 8, frame)
        dec = spectral_decompose(a, frame)
        rec = dec.V @ QMatrix.diag(dec.d) @ dec.V.H
        assert (a - rec).frobenius() <= 1e-9 * a.frobenius()
        assert ((dec.V.H @ dec.V) - QMatrix.identity(8)).frobenius() <= 1e-10 * np.sqrt(8)

    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_scale_where_squares_underflow(self, scale):
        # ||chi(A)||_F^2 underflows: the axis band and the shift, and the
        # residual that rejects a non-normal input, need the norm all the same
        rng = np.random.default_rng(1)
        for kind in gen.MATRIX_CLASSES:
            a = scale * gen.random_normal(rng, 6, STANDARD_FRAME, kind=kind)
            dec = spectral_decompose(a, STANDARD_FRAME)
            assert dec.checks[0].residual <= DECOMP_RESIDUAL_TOL * qa.chi_fro(dec.z)
        base = QMatrix(np.random.default_rng(7).standard_normal((4, 4, 4)))
        assert not base.is_normal()
        with pytest.raises(EigenResidualError):
            spectral_decompose(scale * base, STANDARD_FRAME)

    def test_repeated_real_eigenvalue_unitary(self, frame, rng):
        d = [Quaternion(0.3)] * 4 + [Quaternion(-1.2)] * 3 + [Quaternion(2.0)]
        v = gen.random_unitary(rng, 8)
        a = v @ QMatrix.diag(d) @ v.H
        dec = spectral_decompose(a, frame)
        assert ((dec.V.H @ dec.V) - QMatrix.identity(8)).frobenius() <= 1e-10 * np.sqrt(8)
        assert sorted(q.re for q in dec.d) == pytest.approx([-1.2] * 3 + [0.3] * 4 + [2.0])
        for q in dec.d:
            assert q.im_norm() == 0.0

    @pytest.mark.parametrize(
        "values", [(0.0, 1.0), (0.5j, 2.0 + 1j)], ids=["real-pair", "upper-pair"]
    )
    def test_exactly_degenerate_at_n64(self, values):
        # each value 32 times: chi(A) has 64-dimensional eigenspaces, and for
        # the real pair J-pair deflation must find 32 lines in each
        rng = np.random.default_rng(63)
        f = gen.random_frame(rng)
        d = [Quaternion(z.real) + f.m * z.imag for z in np.repeat(values, 32)]
        v = gen.random_unitary(rng, 64)
        a = v @ QMatrix.diag(d) @ v.H
        dec = spectral_decompose(a, f)
        residual = ((a @ dec.V) - (dec.V @ QMatrix.diag(dec.d))).frobenius()
        assert residual <= DECOMP_RESIDUAL_TOL * a.frobenius()
        assert ((dec.V.H @ dec.V) - QMatrix.identity(64)).frobenius() <= 1e-10 * np.sqrt(64)
        got = np.sort_complex(np.array([complex(q.re, q.im_norm()) for q in dec.d]))
        want = np.sort_complex(np.repeat(np.array(values, dtype=complex), 32))
        assert np.max(np.abs(got - want)) <= 1e-12


def _drawn(rng, vals):
    """V diag(vals) V* in a random frame, V random unitary, vals the slice
    coordinates of its eigenvalues."""
    f = gen.random_frame(rng)
    v = gen.random_unitary(rng, len(vals))
    return v @ QMatrix.diag([Quaternion(z.real) + f.m * z.imag for z in vals]) @ v.H, f


class TestWideAndNearRealSpectra:
    """Normal inputs that failed their own residual or unitarity bound while
    eigenvalues within 1e-9 ||A||_F of the real axis were paired as real:
    n = 16, 20 seeded inputs per cell."""

    @pytest.mark.parametrize("s", [1e4, 1e6, 1e8, 1e10, 1e12])
    def test_wide_moduli(self, s):
        # lambda = r e^{i theta}, r log-uniform in [1, s]
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = np.exp(rng.uniform(0.0, np.log(s), 16))
            self._check(rng, r * np.exp(1j * rng.choice([0.3, 1.1, 2.0], 16)))

    @pytest.mark.parametrize("tau", [0.0, 1e-10, 1e-9, 1e-8])
    def test_near_real_axis(self, tau):
        # four real parts in [-1, 1], four times each, lifted off the axis
        # by tau U[0, 1]
        rng = np.random.default_rng(2)
        for _ in range(20):
            re = np.repeat(rng.uniform(-1.0, 1.0, 4), 4)
            self._check(rng, re + 1j * tau * rng.uniform(0.0, 1.0, 16))

    @staticmethod
    def _check(rng, vals):
        a, f = _drawn(rng, vals)
        dec = spectral_decompose(a, f)
        got = np.array([complex(q.re, q.im_norm()) for q in dec.d])
        assert _multiset_deviation(got, vals) <= 1e-10 * a.frobenius()


class TestOnePass:
    def test_imaginary_parts_at_the_axis_band(self):
        # one eigenvalue lifted off the real axis by 0.94 to 1.06 times the
        # axis band 3 N eps ||chi(A)||_F: eig may put it above the band and
        # its conjugate within it, and deciding the pair at once keeps that
        # from being a pairing failure
        rng = np.random.default_rng(5)
        for _ in range(5):
            re = rng.uniform(-1.0, 1.0, 4)
            f = gen.random_frame(rng)
            v = gen.random_unitary(rng, 4)
            # ||chi(A)||_F = sqrt(2) ||A||_F
            band = 3.0 * 8 * np.finfo(float).eps * np.sqrt(2.0) * np.linalg.norm(re)
            for k in range(-20, 21):
                lifted = re + 0j
                lifted[0] += 1j * band * (1.0 + 3e-3 * k)
                a = v @ QMatrix.diag([Quaternion(z.real) + f.m * z.imag for z in lifted]) @ v.H
                dec = spectral_decompose(a, f)
                assert dec.checks[0].residual <= DECOMP_RESIDUAL_TOL * a.frobenius()

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_one_eig_and_one_qr(self, kind, rng, monkeypatch):
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind=kind)
        names = ("eig", "eigvals", "eigh", "qr", "svd")
        calls = [count_calls(monkeypatch, name) for name in names]
        spectral_decompose(a, STANDARD_FRAME)
        assert [c[0] for c in calls] == [1, 0, 0, 1, 0]
