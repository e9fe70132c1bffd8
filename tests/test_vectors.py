import warnings

import numpy as np
import pytest

from qspectra import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    expand,
    gram_schmidt,
    inner,
    norm,
    reconstruct,
    scale_right,
)
from qspectra import generate as gen
from qspectra.errors import (
    IncompleteBasisError,
    PreconditionError,
    RankDeficiencyError,
    ShapeError,
)
from qspectra.vectors import RANK_TOL

from conftest import assert_qclose


def qvec(*qs):
    return np.stack([q.to_array() for q in qs], axis=0)


def basis_vector(n, k):
    """The k-th standard basis vector of H^n."""
    out = np.zeros((n, 4))
    out[k, 0] = 1.0
    return out


def orthonormality_defect(basis):
    """max |<z|z'> - delta| over all pairs."""
    return max(
        abs(inner(z, w) - Quaternion(float(i == j)))
        for i, z in enumerate(basis)
        for j, w in enumerate(basis)
    )


def mgs_reference(vectors):
    """The two-pass modified Gram-Schmidt loop that gram_schmidt replaces:
    v <- v - z * <z|v> over every earlier z, twice, then v / ||v||. Returns
    the basis and the residual norms."""
    done, residuals = [], []
    for idx, v in enumerate(vectors):
        u = np.array(v, dtype=np.float64)
        for _ in range(2):
            for z in done:
                u = u - scale_right(z, inner(z, u))
        r = norm(u)
        if r < RANK_TOL:
            raise RankDeficiencyError(idx, r)
        done.append(u / r)
        residuals.append(r)
    return done, residuals


def assert_matches_reference(vectors):
    """gram_schmidt raises at the reference's index, or agrees with it
    entrywise within 16 n eps max ||x|| / (smallest residual)."""
    try:
        want, residuals = mgs_reference(vectors)
    except RankDeficiencyError as err:
        with pytest.raises(RankDeficiencyError) as got:
            gram_schmidt(vectors)
        assert got.value.index == err.index
        return
    got = gram_schmidt(vectors)
    assert len(got) == len(want)
    if not want:
        return
    n = len(want[0])
    scale = max(norm(v) for v in vectors)
    bound = 16 * n * np.finfo(float).eps * max(scale, 1.0) / min(residuals)
    assert np.max(np.abs(np.stack(got) - np.stack(want))) <= bound


def near_dependent(rng, n, residual):
    """Three vectors of H^n, the third x_0 q + residual * w with w a unit
    vector orthogonal to the lines of x_0 and x_1."""
    x0, x1, w = (gen.random_qvector(rng, n) for _ in range(3))
    w = mgs_reference([x0, x1, w])[0][2]
    return [x0, x1, scale_right(x0, gen.random_quaternion(rng)) + residual * w]


class TestInnerProduct:
    def test_mixed_entries(self):
        # conj(1) * j + conj(i) * 1 = j - i
        assert_qclose(inner(qvec(ONE, I), qvec(J, ONE)), J - I, 0.0)

    def test_self_inner_is_squared_norm(self):
        assert_qclose(inner(qvec(ONE, J), qvec(ONE, J)), Quaternion(2), 0.0)

    def test_right_linearity(self, rng):
        for _ in range(25):
            x, y = gen.random_qvector(rng, 5), gen.random_qvector(rng, 5)
            q = gen.random_quaternion(rng)
            assert_qclose(inner(x, scale_right(y, q)), inner(x, y) * q, 1e-12)

    def test_conjugate_symmetry(self, rng):
        x, y = gen.random_qvector(rng, 6), gen.random_qvector(rng, 6)
        assert_qclose(inner(x, y), inner(y, x).conjugate(), 1e-13)

    def test_self_inner_real_nonnegative(self, rng):
        for _ in range(20):
            x = gen.random_qvector(rng, 4)
            g = inner(x, x)
            assert abs(g.im()) <= 1e-12 * max(1.0, g.re)
            assert g.re >= 0.0

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            x, y = gen.random_qvector(rng, 7), gen.random_qvector(rng, 7)
            assert abs(inner(x, y)) <= norm(x) * norm(y) * (1.0 + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            inner(qvec(ONE), qvec(ONE, ONE))


class TestScaleRight:
    def test_unit_products(self):
        out = scale_right(qvec(ONE, I), J)
        assert_qclose(Quaternion.from_array(out[0]), J, 0.0)
        assert_qclose(Quaternion.from_array(out[1]), K, 0.0)  # i * j = k

    def test_identity_scalar(self, rng):
        x = gen.random_qvector(rng, 5)
        np.testing.assert_array_equal(scale_right(x, ONE), x)

    def test_module_associativity(self, rng):
        for _ in range(25):
            x = gen.random_qvector(rng, 4)
            p, q = gen.random_quaternion(rng), gen.random_quaternion(rng)
            np.testing.assert_allclose(
                scale_right(scale_right(x, p), q), scale_right(x, p * q), atol=1e-12
            )

    def test_norm_multiplicative(self, rng):
        x, q = gen.random_qvector(rng, 5), gen.random_quaternion(rng)
        assert norm(scale_right(x, q)) == pytest.approx(norm(x) * abs(q), rel=1e-13)


class TestGramSchmidt:
    def test_two_vector_example(self):
        out = gram_schmidt([qvec(ONE, Quaternion()), qvec(I, ONE)])
        np.testing.assert_allclose(out[0], qvec(ONE, Quaternion()), atol=1e-15)
        np.testing.assert_allclose(out[1], qvec(Quaternion(), ONE), atol=1e-15)

    def test_orthonormal_input_unchanged(self, rng):
        basis = gram_schmidt([gen.random_qvector(rng, 4) for _ in range(4)])
        again = gram_schmidt(basis)
        for before, after in zip(basis, again):
            assert norm(before - after) <= 1e-14

    def test_rank_deficiency_reports_index(self):
        with pytest.raises(RankDeficiencyError) as err:
            gram_schmidt([qvec(ONE, Quaternion()), qvec(Quaternion(2), Quaternion())])
        assert err.value.index == 1

    def test_produces_orthonormal_family(self, rng):
        basis = gram_schmidt([gen.random_qvector(rng, 6) for _ in range(6)])
        assert orthonormality_defect(basis) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_seeded_inputs_match_reference(self, n):
        rng = np.random.default_rng([11, n])
        for count in sorted({1, max(1, n // 2), n}):
            assert_matches_reference([gen.random_qvector(rng, n) for _ in range(count)])

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_more_vectors_than_dimension(self, n):
        rng = np.random.default_rng([12, n])
        vectors = [gen.random_qvector(rng, n) for _ in range(n + 2)]
        assert_matches_reference(vectors)
        with pytest.raises(RankDeficiencyError) as err:
            gram_schmidt(vectors)
        assert err.value.index == n

    def test_zero_vector_matches_reference(self, rng):
        x = [gen.random_qvector(rng, 4) for _ in range(3)]
        assert_matches_reference([x[0], np.zeros((4, 4)), x[2]])
        assert_matches_reference([np.zeros((4, 4)), x[1]])

    def test_repeated_vector_matches_reference(self, rng):
        x = [gen.random_qvector(rng, 5) for _ in range(3)]
        assert_matches_reference([x[0], x[1], x[0]])

    @pytest.mark.parametrize("residual", [1e-13, 1e-11])
    def test_near_dependent_matches_reference(self, rng, residual):
        vectors = near_dependent(rng, 6, residual)
        assert_matches_reference(vectors)
        if residual < RANK_TOL:
            with pytest.raises(RankDeficiencyError) as err:
                gram_schmidt(vectors)
            assert err.value.index == 2
        else:
            assert len(gram_schmidt(vectors)) == 3

    def test_orthonormal_input_matches_reference(self, rng):
        basis, _ = mgs_reference([gen.random_qvector(rng, 8) for _ in range(8)])
        assert_matches_reference(basis)

    def test_empty_list(self):
        assert gram_schmidt([]) == []
        assert mgs_reference([]) == ([], [])

    def test_orthonormal_at_n64(self):
        rng = np.random.default_rng(64)
        basis = gram_schmidt([gen.random_qvector(rng, 64) for _ in range(64)])
        assert orthonormality_defect(basis) <= 1e-13

    def test_positive_leading_coefficient(self, rng):
        vectors = [gen.random_qvector(rng, 5) for _ in range(5)]
        for z, x in zip(gram_schmidt(vectors), vectors):
            c = inner(z, x)
            assert c.re > 0.0 and c.im_norm() <= 1e-13 * c.re

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_named(self, rng, bad):
        vectors = [gen.random_qvector(rng, 4) for _ in range(4)]
        vectors[2][1, 3] = bad
        vectors[3][0, 0] = bad
        with pytest.raises(PreconditionError, match="vector 2 ") as err:
            gram_schmidt(vectors)
        assert not isinstance(err.value, RankDeficiencyError)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gram_schmidt([qvec(ONE), qvec(ONE, ONE)])

    def test_right_coefficient_convention(self, rng):
        # the projection must kill <z|v> exactly on the right
        z, v = gen.random_qvector(rng, 5), gen.random_qvector(rng, 5)
        z = z / norm(z)
        residual = v - scale_right(z, inner(z, v))
        assert abs(inner(z, residual)) <= 1e-13


class TestExpand:
    def test_standard_basis(self):
        basis = [basis_vector(2, 0), basis_vector(2, 1)]
        coeffs = expand(qvec(I, J), basis)
        assert_qclose(coeffs[0], I, 0.0)
        assert_qclose(coeffs[1], J, 0.0)

    def test_rotated_first_vector(self):
        phase = (ONE + K) / abs(ONE + K)
        basis = [scale_right(basis_vector(2, 0), phase), basis_vector(2, 1)]
        coeffs = expand(basis_vector(2, 0), basis)
        # <(1+k)/sqrt(2) e1 | e1> = conj((1+k)/sqrt(2)) = (1 - k)/sqrt(2)
        assert_qclose(coeffs[0], (ONE - K) / abs(ONE + K), 1e-15)
        assert_qclose(coeffs[1], Quaternion(), 0.0)

    def test_zero_vector(self, rng):
        basis = gram_schmidt([gen.random_qvector(rng, 3) for _ in range(3)])
        for c in expand(np.zeros((3, 4)), basis):
            assert abs(c) == 0.0

    def test_reconstruction_identity(self, rng):
        for _ in range(20):
            basis = gram_schmidt([gen.random_qvector(rng, 5) for _ in range(5)])
            x = gen.random_qvector(rng, 5)
            coeffs = expand(x, basis)
            assert norm(x - reconstruct(basis, coeffs)) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, rng, bad):
        basis = gram_schmidt([gen.random_qvector(rng, 3) for _ in range(3)])
        x = gen.random_qvector(rng, 3)
        x[1, 2] = bad
        with pytest.raises(PreconditionError, match="non-finite") as err:
            expand(x, basis)
        assert not isinstance(err.value, IncompleteBasisError)
        basis[1][0, 0] = bad
        with pytest.raises(PreconditionError, match="non-finite"):
            expand(gen.random_qvector(rng, 3), basis)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_vector(self, rng, scale):
        # the miss and ||x|| are read scaled: no overflow warning, a finite bound
        basis = gram_schmidt([gen.random_qvector(rng, 4) for _ in range(4)])
        x = gen.random_qvector(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = expand(x * scale, basis)
        back = reconstruct(basis, coeffs)
        assert norm(back - x * scale) <= 1e-10 * norm(x * scale)

    def test_length_mismatch(self, rng):
        basis = gram_schmidt([gen.random_qvector(rng, 3) for _ in range(3)])
        with pytest.raises(ShapeError):
            expand(gen.random_qvector(rng, 2), basis)

    def test_coefficient_count_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct([basis_vector(2, 0)], [ONE, I])

    def test_empty_basis(self):
        with pytest.raises(IncompleteBasisError):
            expand(basis_vector(2, 0), [])
        assert np.array_equal(reconstruct([], [], like=basis_vector(3, 0)), np.zeros((3, 4)))

    def test_incomplete_basis_detected(self):
        basis = [basis_vector(2, 0)]
        with pytest.raises(IncompleteBasisError):
            expand(basis_vector(2, 1), basis)
