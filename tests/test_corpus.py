"""Inputs whose spherical spectrum is known in closed form, inputs of wide
moduli that a commuting J must take at their scale, and orbit counts that
must not depend on the scale of the input.

D_N is Fourier spectral differentiation on N points (Trefethen, Spectral
Methods in MATLAB, ch. 3): real skew-symmetric and circulant, with
eigenvalues i k for |k| < N/2 and a second 0 at the Nyquist mode. So D^p
has N/2 orbits, the values (i k)^p for k = 0 .. N/2 - 1, and
||D^p|| = (N/2 - 1)^p.
"""

import numpy as np
import pytest

from qspectra import I, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.bridge import spectral_decompose
from qspectra.measure import ess_sup
from qspectra.slices import build_J, restrict_pair
from qspectra.spectral import multiplication_form, sphere_spectrum


def fourier_differentiation(size: int) -> np.ndarray:
    """D_ij = (-1)^(i - j) cot((i - j) pi / N) / 2 for i != j, N even."""
    k = np.subtract.outer(np.arange(size), np.arange(size))
    off = k != 0
    d = np.zeros((size, size))
    d[off] = 0.5 * (-1.0) ** k[off] / np.tan(k[off] * np.pi / size)
    return d


def commuting_J(a: QMatrix) -> None:
    """J read off A's own decomposition, checked to commute with A."""
    restrict_pair(a, build_J(spectral_decompose(a, STANDARD_FRAME)))


def orbit_count(a: QMatrix) -> int:
    return len(sphere_spectrum(multiplication_form(a, STANDARD_FRAME)).points)


def fourier_power(size: int, p: int) -> QMatrix:
    entries = np.zeros((size, size, 4))
    entries[..., 0] = np.linalg.matrix_power(fourier_differentiation(size), p)
    return QMatrix(entries)


@pytest.mark.parametrize("p", [1, 2, 4, 6])
@pytest.mark.parametrize("size", [16, 64, 128])
def test_fourier_differentiation_powers(size, p):
    form = multiplication_form(fourier_power(size, p), STANDARD_FRAME)
    assert len(sphere_spectrum(form).points) == size // 2
    want = (size / 2 - 1) ** p
    assert abs(ess_sup(form.phi) - want) <= size * np.finfo(float).eps * want


@pytest.mark.parametrize("p", [1, 2, 4, 6])
@pytest.mark.parametrize("size", [16, 64, 128])
def test_commuting_J_on_fourier_powers(size, p):
    # the eigenvalues -k^2 .. -k^6 keep their gaps in A, not in Z = f(A):
    # J read off Z's eigenvectors failed J_commutes or Z's normality here
    commuting_J(fourier_power(size, p))


@pytest.mark.parametrize("s", [1e2, 1e8, 1e10, 1e12])
def test_commuting_J_on_wide_moduli(s):
    # lambda = r e^{i theta}, r log-uniform in [1, s]: J read off Z's
    # eigenvectors passed 20, 19, 2 and 1 of 20 seeds
    for seed in range(20):
        rng = np.random.default_rng([7, seed])
        r = np.exp(rng.uniform(0.0, np.log(s), 16))
        lam = r * np.exp(1j * rng.choice([0.3, 1.1, 2.0], 16))
        v = gen.random_unitary(rng, 16)
        commuting_J(v @ QMatrix.diag([Quaternion(z.real) + I * z.imag for z in lam]) @ v.H)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12])
def test_repeated_eigenvalues_at_every_scale(c):
    # three standard values, each repeated four times
    rng = np.random.default_rng(12)
    frame = gen.random_frame(rng)
    d = gen.random_standard_values(rng, 3, frame, "normal")
    v = gen.random_unitary(rng, 12)
    a = v @ QMatrix.diag([c * q for q in d for _ in range(4)]) @ v.H
    assert len(sphere_spectrum(multiplication_form(a, frame)).points) == 3


@pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
def test_orbit_count_is_scale_free(kind):
    # scaling by 2^k is exact, so A and 2^k A have one spectrum up to scale
    for seed in range(5):
        rng = np.random.default_rng([seed, gen.MATRIX_CLASSES.index(kind)])
        a = gen.random_normal(rng, 16, STANDARD_FRAME, kind)
        counts = [orbit_count(QMatrix(a.a * 2.0**k)) for k in (-40, -20, 0, 20, 40)]
        assert len(set(counts)) == 1
