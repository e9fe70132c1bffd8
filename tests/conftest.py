import numpy as np
import pytest

from qspectra import I, J, K, Quaternion, SliceFrame, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.bridge import chi, eig_normal


def assert_qclose(a: Quaternion, b: Quaternion, tol: float = 1e-12):
    assert abs(a - b) <= tol, f"{a} != {b} (|diff| = {abs(a - b):.3e})"


def random_complex_normal(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random complex normal matrix W diag(vals) W^H."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, _ = np.linalg.qr(g)
    vals = rng.uniform(-scale, scale, size=n) + 1j * rng.uniform(-scale, scale, size=n)
    return (w * vals) @ np.conj(w.T)


def minus_product(a, s) -> np.ndarray:
    """W2* chi(A) W2, A's matrix on the minus basis V n of structure s, from
    its own product with chi(A) rather than as restrict_pair's conj(T+)."""
    w2 = s.w[:, s.n :]
    return np.conj(w2.T) @ chi(a, s.frame) @ w2


def minus_spectrum(a, s) -> np.ndarray:
    """Eigenvalues of minus_product(a, s), from the decomposition's solver."""
    return eig_normal(minus_product(a, s))[1]


def count_calls(monkeypatch, name):
    """A one-element list counting the calls to np.linalg.<name> from now on."""
    calls = [0]
    wrapped = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(
    params=[
        STANDARD_FRAME,
        SliceFrame.from_m(J),
        SliceFrame.from_m((I + J) / abs(I + J)),
        SliceFrame.from_m((I + 2 * J - K) / abs(I + 2 * J - K)),
    ],
    ids=["i", "j", "i+j", "skew"],
)
def frame(request):
    return request.param


@pytest.fixture
def random_frames():
    r = np.random.default_rng(7)
    return [gen.random_frame(r) for _ in range(6)]
