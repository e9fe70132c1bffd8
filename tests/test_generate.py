import numpy as np
import pytest

from qspectra import I, J, QMatrix, SliceFrame
from qspectra import generate as gen


def seeded_normal(seed: int, n: int, kind: str = "normal", m=I) -> QMatrix:
    return gen.random_normal(np.random.default_rng(seed), n, SliceFrame.from_m(m), kind)


class TestScenario:
    """A seed, a size, a class and a slice axis pin a random_normal input."""

    def test_seeded_build_is_bit_identical(self):
        a = seeded_normal(2024, 6, "normal", J)
        b = seeded_normal(2024, 6, "normal", J)
        assert (a - b).frobenius() == 0.0
        np.testing.assert_array_equal(a.a, b.a)

    def test_different_seeds_differ(self):
        a = seeded_normal(1, 4)
        b = seeded_normal(2, 4)
        assert (a - b).frobenius() > 1e-3

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_all_classes_normal(self, kind):
        assert seeded_normal(5, 5, kind).is_normal(1e-10)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            seeded_normal(0, 3, "hermitian")


class TestRandomBuilders:
    def test_unitary_is_unitary(self, rng):
        u = gen.random_unitary(rng, 6)
        assert ((u.H @ u) - QMatrix.identity(6)).frobenius() <= 1e-12

    def test_standard_values_land_upper_half(self, rng):
        f = gen.random_frame(rng)
        for q in gen.random_standard_values(rng, 10, f):
            from qspectra.quaternion import cm_to_complex, in_slice

            assert in_slice(q, f, 1e-12)
            assert cm_to_complex(q, f).imag >= 0.0

    def test_min_modulus_respected(self, rng):
        f = gen.random_frame(rng)
        for q in gen.random_standard_values(rng, 30, f, min_modulus=0.4):
            assert abs(q) >= 0.4

    def test_unit_imaginary(self, rng):
        for _ in range(20):
            m = gen.random_unit_imaginary(rng)
            assert abs(m.re) == 0.0
            assert abs(m) == pytest.approx(1.0, abs=1e-14)
