"""Right quaternionic vectors in H^n and Hilbert-basis machinery.

Vectors are (n, 4) float64 arrays. The inner product is right-linear in its
second argument, <x|y> = sum conj(x_i) * y_i, and basis expansions combine
coefficients on the right: x = sum z * <z|x>. Mixing sides is the dominant
bug class, so every helper here keeps coefficients on the right. A family of
vectors is one quaternion matrix, orthonormalized by one QR of its complex
adjoint and expanded by quaternion matrix products.
"""

from __future__ import annotations

import numpy as np

from . import qarray as qa
from .errors import IncompleteBasisError, PreconditionError, RankDeficiencyError, ShapeError
from .quaternion import Quaternion
from .report import require, scaled_check

RANK_TOL = 1e-12


def _columns(vectors, n: int = 0) -> np.ndarray:
    """The vectors as the columns of an (n, K, 4) array, (n, 0, 4) if none."""
    vectors = list(vectors)
    try:
        x = np.stack(vectors, axis=1) if vectors else np.zeros((n, 0, 4))
    except ValueError as err:
        raise ShapeError(f"vector shapes differ: {err}") from None
    if x.ndim != 3 or x.shape[2] != 4:
        raise ShapeError(f"expected (n, 4) vectors, got shape {x.shape[::2]}")
    return x.astype(np.float64, copy=False)


def inner(x, y) -> Quaternion:
    """<x|y> = sum conj(x_i) * y_i."""
    x, y = _columns([x, y]).transpose(1, 0, 2)
    return qa.to_quaternion(np.sum(qa.qmul(qa.qconj(x), y), axis=0))


def norm(x) -> float:
    return qa.fro(qa.qarr(x))


def scale_right(x, q: Quaternion) -> np.ndarray:
    """Entrywise x_i * q; satisfies ||x*q|| = ||x|| * |q|."""
    return qa.qscale_right(x, q)


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize in input order: z_k is the residual of x_k after
    v <- v - z * <z|v> over the earlier z, divided by its norm.

    One QR of the complex adjoint, columns iota(x_k), iota(x_k * j) in pairs
    that each span the line x_k H: column 2k of Q is iota(z_k) times the
    phase of R[2k, 2k], whose modulus is the residual norm. Raises
    PreconditionError at the first vector with a non-finite entry, and
    RankDeficiencyError at the first residual below RANK_TOL or at index n.
    """
    x = _columns(vectors)
    n, count = x.shape[:2]
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=(0, 2)))
    if len(bad):
        raise PreconditionError(f"vector {bad[0]} has a non-finite entry")
    pairs = np.arange(2 * count).reshape(2, count).T.ravel()  # 0, K, 1, K + 1, ...
    q, r = np.linalg.qr(qa.to_complex_adjoint(x)[:, pairs])
    diag = np.diagonal(r)[::2]
    residual = np.abs(np.pad(diag, (0, count - len(diag))))  # 0 past n: n lines span H^n
    low = np.flatnonzero(residual < RANK_TOL)
    if len(low):
        raise RankDeficiencyError(int(low[0]), float(residual[low[0]]))
    z = q[:, ::2] * (diag / residual)
    return list(qa.from_pair(z[:n].T, np.conj(z[n:].T)))


def expand(x, basis) -> list[Quaternion]:
    """Coefficients c_z = <z|x> with x = sum z * c_z.

    Raises PreconditionError when x or a basis vector has a non-finite entry,
    and IncompleteBasisError when the reconstruction misses x by more than
    c (1 + ||x||), c its coefficient in report.BOUNDS.
    """
    both = _columns([*basis, x])
    z, x = both[:, :-1], both[:, -1]
    if not np.all(np.isfinite(both)):
        raise PreconditionError("vector to expand or its basis has a non-finite entry")
    coeffs = qa.qmatmul(qa.qconj(z.transpose(1, 0, 2)), x[:, None])
    miss, scale = norm(x - qa.qmatmul(z, coeffs)[:, 0]), 1.0 + norm(x)
    require(scaled_check("vectors.expand_reconstruction", miss, scale), IncompleteBasisError)
    return [Quaternion.from_array(c) for c in coeffs[:, 0]]


def reconstruct(basis, coeffs, like=None) -> np.ndarray:
    """sum z * c_z; for an empty basis, zeros shaped like `like`."""
    z = _columns(basis, 0 if like is None else len(qa.qarr(like)))
    c = np.array([q.to_array() for q in coeffs]).reshape(-1, 1, 4)
    if len(c) != z.shape[1]:
        raise ShapeError(f"{len(c)} coefficients for {z.shape[1]} basis vectors")
    return qa.qmatmul(z, c)[:, 0]
