import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    SimilarityOrbit,
    SliceFrame,
    STANDARD_FRAME,
    cm_to_complex,
    complex_to_cm,
    in_slice,
    orbit_of,
    slice_join,
    slice_split,
)
from qspectra import qarray as qa
from qspectra.errors import FrameError

from conftest import assert_qclose

components = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, components, components, components, components)


class TestHamiltonProduct:
    @pytest.mark.parametrize(
        "a,b,want",
        [
            (I, J, K),
            (J, K, I),
            (K, I, J),
            (J, I, -K),
            (I, I, -ONE),
            (J, J, -ONE),
            (K, K, -ONE),
        ],
    )
    def test_unit_table(self, a, b, want):
        assert_qclose(a * b, want, 0.0)

    def test_ijk_is_minus_one(self):
        assert_qclose(I * J * K, -ONE, 0.0)

    def test_identity(self):
        q = Quaternion(0.3, -1.2, 4.0, 0.25)
        assert q * ONE == q
        assert ONE * q == q

    def test_distributive_expansion(self):
        # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
        assert_qclose((ONE + I) * (ONE + J), Quaternion(1, 1, 1, 1), 0.0)

    @given(quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_modulus_multiplicative(self, a, b):
        lhs, rhs = abs(a * b), abs(a) * abs(b)
        assert abs(lhs - rhs) <= 1e-14 * max(rhs, 1.0)

    def test_noncommutative(self):
        a, b = Quaternion(2, 3, 4, 5), Quaternion(3, 4, 5, 6)
        assert a * b != b * a


class TestConjugateModulus:
    def test_all_units(self):
        q = Quaternion(1, 1, 1, 1)
        conj, mod = q.conjugate(), abs(q)
        assert conj == Quaternion(1, -1, -1, -1)
        assert mod == 2.0

    def test_imaginary(self):
        q = I
        conj, mod = q.conjugate(), abs(q)
        assert conj == -I
        assert mod == 1.0

    def test_zero(self):
        q = Quaternion()
        conj, mod = q.conjugate(), abs(q)
        assert conj == Quaternion()
        assert mod == 0.0

    @given(quaternions)
    @settings(max_examples=100, deadline=None)
    def test_conj_times_self_is_real_modulus_squared(self, q):
        prod = q.conjugate() * q
        assert abs(prod - Quaternion(abs(q) ** 2)) <= 1e-10 * max(1.0, abs(q) ** 2)

    def test_inverse(self):
        q = Quaternion(1, -2, 0.5, 3)
        assert_qclose(q * q.inverse(), ONE, 1e-14)
        with pytest.raises(ZeroDivisionError):
            Quaternion().inverse()


class TestFrameCompletion:
    def test_from_i(self):
        f = SliceFrame.from_m(I)
        assert f.n == J and f.mn == K

    def test_from_j_uses_seed_i(self):
        f = SliceFrame.from_m(J)
        assert f.n == I
        assert_qclose(f.mn, -K, 0.0)  # j * i = -k

    def test_diagonal_axis(self):
        m = (I + J) / abs(I + J)
        f = SliceFrame.from_m(m)
        expected_n = (I - J) / abs(I - J)
        assert_qclose(f.n, expected_n, 1e-15)
        # the product oracle, not a remembered constant
        assert_qclose(f.mn, m * expected_n, 1e-15)
        assert_qclose(f.mn, -K, 1e-15)

    def test_deterministic_bit_equal(self):
        m = (3 * I - J + 2 * K) / abs(3 * I - J + 2 * K)
        f1, f2 = SliceFrame.from_m(m), SliceFrame.from_m(m)
        assert f1 == f2
        assert (f1.n.w, f1.n.x, f1.n.y, f1.n.z) == (f2.n.w, f2.n.x, f2.n.y, f2.n.z)

    def test_anticommutation_everywhere(self, random_frames):
        for f in random_frames:
            assert abs(f.m * f.n + f.n * f.m) <= 1e-14

    @pytest.mark.parametrize("bad", [Quaternion(1, 1, 0, 0), 2 * I, Quaternion()])
    def test_rejects_non_unit_imaginary(self, bad):
        with pytest.raises(FrameError):
            SliceFrame.from_m(bad)

    @pytest.mark.parametrize(
        "bad", [Quaternion(0, np.nan, 0, 0), Quaternion(np.nan, 1, 0, 0), Quaternion(0, 1, np.nan, 0)]
    )
    def test_rejects_nan_axis(self, bad):
        # every comparison with NaN is False, so "defect > tol" never fired
        with pytest.raises(FrameError):
            SliceFrame.from_m(bad)

    def test_rejects_inconsistent_triple(self):
        with pytest.raises(FrameError):
            SliceFrame(I, J, -K)


class TestSliceSplit:
    def test_textbook_split(self):
        a, b = slice_split(Quaternion(1, 2, 3, 4), STANDARD_FRAME)
        assert_qclose(a, Quaternion(1, 2, 0, 0), 0.0)
        assert_qclose(b, Quaternion(3, 4, 0, 0), 0.0)
        # oracle: (3 + 4i) * j = 3j + 4k restores the tail
        assert_qclose(b * J, Quaternion(0, 0, 3, 4), 0.0)

    def test_split_of_m_and_n(self, frame):
        a, b = slice_split(frame.m, frame)
        assert_qclose(a, frame.m, 1e-15)
        assert_qclose(b, Quaternion(), 1e-15)
        a, b = slice_split(frame.n, frame)
        assert_qclose(a, Quaternion(), 1e-15)
        assert_qclose(b, ONE, 1e-15)

    def test_parts_in_slice(self, frame, rng):
        from qspectra import generate as gen

        for _ in range(20):
            q = gen.random_quaternion(rng)
            a, b = slice_split(q, frame)
            assert in_slice(a, frame, 1e-12) and in_slice(b, frame, 1e-12)
            assert_qclose(slice_join(a, b, frame), q, 1e-14)

    def test_complex_coordinates_roundtrip(self, frame):
        z = complex(0.7, -2.5)
        assert cm_to_complex(complex_to_cm(z, frame), frame) == pytest.approx(z)

    def test_cm_values_bitwise_equal_to_complex_to_cm(self, frame):
        # signed zeros too: the decompose report prints these values
        parts = [0.0, -0.0, 0.7, -2.5, 1e-300, -3e200]
        values = np.array([complex(a, b) for a in parts for b in parts])
        frames = [frame, SliceFrame.from_m(Quaternion(-0.0, *frame.m.to_array()[1:]))]
        for f in frames:
            want = np.stack([complex_to_cm(complex(c), f).to_array() for c in values])
            assert qa.cm_values(values, f).tobytes() == want.tobytes()


class TestOrbits:
    def test_unit_imaginary_orbit_is_sphere(self):
        orbit = orbit_of(I)
        assert orbit == SimilarityOrbit(0.0, 1.0)
        assert orbit.contains((I + J) / abs(I + J), 1e-12)

    def test_real_point_orbit(self):
        orbit = orbit_of(Quaternion(5))
        assert orbit == SimilarityOrbit(5.0, 0.0)
        assert orbit.contains(Quaternion(5), 0.0)

    def test_wrong_radius_excluded(self):
        assert not SimilarityOrbit(0.0, 1.0).contains(2 * I, 1e-12)

    def test_conjugation_invariance(self, rng):
        from qspectra import generate as gen

        for _ in range(50):
            q, s = gen.random_quaternion(rng), gen.random_quaternion(rng)
            if abs(s) < 1e-3:
                continue
            o1, o2 = orbit_of(q), orbit_of(s.inverse() * q * s)
            assert abs(o1.re - o2.re) <= 1e-12
            assert abs(o1.im_norm - o2.im_norm) <= 1e-12

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            SimilarityOrbit(0.0, 1.0).contains(I, -1.0)


class TestUpperHalfRepresentative:
    def test_unit_sphere(self):
        assert_qclose(SimilarityOrbit(0, 1).representative(STANDARD_FRAME), I, 0.0)

    def test_generic(self):
        assert_qclose(
            SimilarityOrbit(2, 3).representative(STANDARD_FRAME), Quaternion(2, 3, 0, 0), 0.0
        )

    def test_of_j_in_standard_slice(self):
        # [j] is the whole unit imaginary sphere; its C_i+ representative is i
        assert_qclose(orbit_of(J).representative(STANDARD_FRAME), I, 0.0)

    def test_beta_nonnegative(self, frame, rng):
        from qspectra import generate as gen

        for _ in range(20):
            rep = orbit_of(gen.random_quaternion(rng)).representative(frame)
            assert in_slice(rep, frame, 1e-12)
            assert cm_to_complex(rep, frame).imag >= -1e-15
