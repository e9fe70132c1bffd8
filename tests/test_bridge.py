import numpy as np
import pytest

from qspectra import I, J, K, ONE, QMatrix, Quaternion, STANDARD_FRAME, inner, norm
from qspectra import generate as gen
from qspectra import qarray as qa
from qspectra.bridge import (
    _BETA,
    CMatrix,
    _j_clusters,
    chi,
    eig_normal,
    hermitian_eigvecs,
    iota,
    iota_inv,
    spectral_decompose,
)
from qspectra.errors import (
    NotNormalError,
    PreconditionError,
    ShapeError,
    SliceMembershipError,
)
from qspectra.quaternion import cm_to_complex
from qspectra.report import BOUNDS
from qspectra.slices import build_J, extend
from qspectra.spectral import _multiset_deviation, slice_spectrum_check
from qspectra.vectors import scale_right

from conftest import assert_qclose, count_calls

EIGEN_RESIDUAL = BOUNDS["decompose.eigen_residual"]


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
    eig_normal, the one solver of every spectrum, the eigenvectors through
    spectral_decompose, whose eig_normal of chi(A) and one QR lift them."""

    @staticmethod
    def _solve(z):
        x, vals = eig_normal(z)
        np.testing.assert_allclose(np.conj(x.T) @ x, np.eye(len(z)), atol=1e-14)
        np.testing.assert_allclose(z @ x, x * vals, atol=1e-14)
        return vals

    def test_diagonal_imaginary_pair(self):
        vals = self._solve(np.diag([1j, -1j]))
        assert sorted(vals, key=lambda z: z.imag) == pytest.approx([-1j, 1j], abs=1e-14)

    def test_rotation_block(self):
        vals = self._solve(np.array([[0, -1], [1, 0]], dtype=complex))
        got = sorted(vals, key=lambda z: z.imag)
        assert got == pytest.approx([-1j, 1j])

    def test_textbook_hermitian(self):
        vals = self._solve(np.array([[2, 1], [1, 2]], dtype=complex))
        assert sorted(vals.real) == pytest.approx([1.0, 3.0], abs=1e-12)
        assert np.all(np.abs(vals.imag) <= 1e-12)
        # both eigenvalues lie on the real axis of every slice, so the
        # eigenlines come from J-pair deflation
        a = QMatrix.from_rows([[2 * ONE, ONE], [ONE, 2 * ONE]])
        dec = spectral_decompose(a, STANDARD_FRAME)
        assert [q.re for q in dec.d] == pytest.approx([3.0, 1.0], abs=1e-12)
        sym = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]) / np.sqrt(2)
        anti = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]) / np.sqrt(2)
        assert abs(inner(sym, dec.V.a[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(anti, dec.V.a[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_non_normal_restriction_rejected(self):
        # A = extend(T) commutes with J, so the slice check restricts it, and
        # its plus restriction is the nilpotent shift T
        a = gen.random_normal(np.random.default_rng(0), 4, STANDARD_FRAME)
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        shift = CMatrix.from_complex(np.diag(np.ones(3), 1).astype(complex), STANDARD_FRAME)
        with pytest.raises(NotNormalError, match="normal.commutator"):
            slice_spectrum_check(extend(shift, s), s)

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_overflowing_normality_check_is_named(self, scale):
        # J comes from the unscaled matrix; the commutator of the restriction
        # overflows at 1e150 and its products at 1e300, and neither is a
        # defect of a normal input
        a = gen.random_normal(np.random.default_rng(0), 4, STANDARD_FRAME)
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        with pytest.raises(PreconditionError, match="normality check overflows") as err:
            slice_spectrum_check(QMatrix(a.a * scale), s)
        assert not isinstance(err.value, NotNormalError)

    def test_requires_square(self):
        # the normality check the slice check runs on each restriction
        with pytest.raises(ShapeError):
            qa.normality(np.zeros((2, 3), dtype=complex))

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
        # ||chi(A)||_F^2 underflows: the axis band and the shift need the
        # norm all the same, and the normality check, on z scaled up by a
        # power of two, still rejects a non-normal input
        rng = np.random.default_rng(1)
        for kind in gen.MATRIX_CLASSES:
            a = scale * gen.random_normal(rng, 6, STANDARD_FRAME, kind=kind)
            dec = spectral_decompose(a, STANDARD_FRAME)
            assert dec.checks[0].residual <= EIGEN_RESIDUAL * qa.chi_fro(dec.z)
        base = QMatrix(np.random.default_rng(7).standard_normal((4, 4, 4)))
        assert not base.is_normal()
        with pytest.raises(NotNormalError, match="normal.commutator"):
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
        assert residual <= EIGEN_RESIDUAL * a.frobenius()
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
                assert dec.checks[0].residual <= EIGEN_RESIDUAL * a.frobenius()

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_one_eigh_and_one_qr(self, kind, rng, monkeypatch):
        # no two eigenvalues collide in C = H + 0.7549 K, so no block needs eig
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind=kind)
        names = ("eig", "eigvals", "eigh", "qr", "svd")
        calls = [count_calls(monkeypatch, name) for name in names]
        spectral_decompose(a, STANDARD_FRAME)
        assert [c[0] for c in calls] == [0, 0, 1, 1, 0]


class TestBlockPass:
    """eigh of C = H + 0.7549 K mixes the eigenvectors of eigenvalues that
    share re + 0.7549 im; eig runs on each coupled block of Q*ZQ alone, none
    runs where nothing couples, and every check passes at its bound."""

    @staticmethod
    def _check(rng, vals, monkeypatch):
        a, f = _drawn(rng, vals)
        eig = count_calls(monkeypatch, "eig")
        dec = spectral_decompose(a, f)
        calls = eig[0]
        assert all(c.passed for c in dec.checks)
        assert slice_spectrum_check(a, build_J(dec)).passed
        got = np.array([complex(q.re, q.im_norm()) for q in dec.d])
        assert _multiset_deviation(got, vals) <= 1e-10 * a.frobenius()
        return calls

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_colliding_pairs_one_eig_per_block(self, n, monkeypatch):
        # x + i y and x + _BETA (y - y2) + i y2 collide in C, their
        # conjugates x - _BETA y and x + _BETA (y - 2 y2) do not
        rng = np.random.default_rng(n)
        x, y, y2 = rng.uniform(-1.0, 1.0, n // 2), *rng.uniform(0.1, 1.0, (2, n // 2))
        vals = np.concatenate([x + 1j * y, x + _BETA * (y - y2) + 1j * y2])
        assert self._check(rng, vals, monkeypatch) == n // 2

    @pytest.mark.parametrize("bands", [0.5, 1.0, 2.0, 4.0])
    def test_near_axis_pairs(self, bands, monkeypatch):
        # a quarter of the eigenvalues lifted off the real axis by the same
        # multiple of the axis band 3 N eps ||chi(A)||_F: their imaginary
        # parts straddle the band, and no pair is cut from its cluster
        n = 32
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1.0, 1.0, n) + 0j
        band = 3.0 * (2 * n) * np.finfo(float).eps * np.sqrt(2.0) * np.linalg.norm(vals)
        vals[: n // 4] += 1j * bands * band
        self._check(rng, vals, monkeypatch)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_real_class_makes_no_eig_call(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        assert self._check(rng, rng.uniform(-1.0, 1.0, n) + 0j, monkeypatch) == 0


class TestJClusters:
    """J-pair deflation runs on each connected component of X* J(X) over the
    on-axis columns X alone (_j_clusters); the components must cover X."""

    @pytest.mark.parametrize(
        "n, distinct, lift",
        [(1, 1, 0.0), (8, 8, 0.0), (8, 3, 0.0), (64, 64, 0.0), (64, 16, 0.0), (16, 16, 1e-15)],
    )
    def test_clusters_cover_on_axis_columns(self, n, distinct, lift):
        # real eigenvalues, `distinct` of them repeated over n, or lifted off
        # the axis by less than the axis band so that every one is on it
        rng = np.random.default_rng([n, distinct])
        vals = np.resize(rng.uniform(-1.0, 1.0, distinct), n) + 1j * lift
        a, f = _drawn(rng, vals)
        z = chi(a, f)
        x = hermitian_eigvecs(z, np.conj(z.T))
        clusters = _j_clusters(x)
        assert all(len(c) >= 2 and len(c) % 2 == 0 for c in clusters)
        assert np.array_equal(np.sort(np.concatenate(clusters)), np.arange(2 * n))
        dec = spectral_decompose(a, f)
        assert all(c.passed for c in dec.checks)
        got = np.array([complex(q.re, q.im_norm()) for q in dec.d])
        assert _multiset_deviation(got, vals) <= 1e-10 * a.frobenius()
