"""Vectorized kernels for quaternion arrays (trailing axis of length 4).

Matrix-sized products route through the complex-pair representation
q = (w + x*i) + (y + z*i) * j, turning a quaternion matrix product into four
complex BLAS products.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ShapeError, SliceMembershipError
from .quaternion import CM_MEMBERSHIP_TOL, Quaternion
from .report import Check, check_from

# Floor of a scale that may be 0, so that a bound relative to it stays positive.
TINY = 1e-300
NORMAL_TOL = 1e-10


def qarr(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim < 1 or out.shape[-1] != 4:
        raise ShapeError(f"expected trailing axis of length 4, got shape {out.shape}")
    return out


def to_quaternion(a) -> Quaternion:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (4,):
        raise ShapeError(f"expected a single quaternion, got shape {a.shape}")
    return Quaternion.from_array(a)


def qconj(a) -> np.ndarray:
    a = qarr(a)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm_sq(a) -> np.ndarray:
    a = qarr(a)
    return np.einsum("...c,...c->...", a, a)


def qabs(a) -> np.ndarray:
    return np.sqrt(qnorm_sq(a))


def qmul(a, b) -> np.ndarray:
    """Componentwise Hamilton product with numpy broadcasting."""
    a, b = qarr(a), qarr(b)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def as_pair(a) -> tuple[np.ndarray, np.ndarray]:
    """Split into complex parts (w + x*i, y + z*i) of q = p1 + p2*j."""
    a = qarr(a)
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def from_pair(p1, p2) -> np.ndarray:
    p1 = np.asarray(p1, dtype=np.complex128)
    p2 = np.asarray(p2, dtype=np.complex128)
    return np.stack([p1.real, p1.imag, p2.real, p2.imag], axis=-1)


def qmatmul(a, b) -> np.ndarray:
    """Quaternion matrix product, preserving entry order.

    (p1 + p2*j)(r1 + r2*j) = (p1*r1 - p2*conj(r2)) + (p1*r2 + p2*conj(r1))*j.
    """
    a1, a2 = as_pair(a)
    b1, b2 = as_pair(b)
    c1 = a1 @ b1 - a2 @ np.conj(b2)
    c2 = a1 @ b2 + a2 @ np.conj(b1)
    return from_pair(c1, c2)


def qscale_right(x, q: Quaternion) -> np.ndarray:
    """Entrywise x_i * q (right module action)."""
    return qmul(x, q.to_array())


def fro(x: np.ndarray) -> float:
    """||x||_F. np.linalg.norm sums unscaled squares, which underflow below
    about 1e-154 and overflow above about 1e154, so outside [1e-140, 1e140]
    x is first scaled by a power of two near its largest entry."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if 1e-140 < norm < 1e140:
        return norm
    peak = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < peak < np.inf:
        return norm
    s = 2.0 ** -min(max(np.frexp(peak)[1], -1000), 1000)
    return float(np.linalg.norm(x * s)) / s


def chi_fro(x: np.ndarray) -> float:
    """||X||_F read off the complex adjoint or chi image x of a quaternion
    matrix X: ||chi(X)||_F = sqrt(2) ||X||_F."""
    return fro(x) / np.sqrt(2.0)


def normality(z: np.ndarray, k: float = 1.0) -> Check:
    """The check normal.commutator, ||z z* - z* z||_F / k against
    NORMAL_TOL max((||z||_F / k)^2, TINY): k = 1 for a plain complex matrix
    such as T+, and k = sqrt 2 for chi(A) or A's complex adjoint, where it
    reads ||AA* - A*A||_F <= NORMAL_TOL ||A||_F^2. PreconditionError, named,
    if the defect or the bound overflows; that is no defect of the input."""
    rows, cols = z.shape
    if rows != cols:
        raise ShapeError("normality check needs a square matrix")
    zh = np.conj(z.T)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = fro(z)
        defect = float(np.linalg.norm(z @ zh - zh @ z)) / k
        bound = NORMAL_TOL * max((scale / k) * (scale / k), TINY)
    if not (np.isfinite(bound) and np.isfinite(defect)):
        raise PreconditionError(
            f"normality check overflows: ||z||_F {scale:.3e}, commutator defect {defect:.3e}"
        )
    return check_from("normal.commutator", defect, bound)


def to_complex_adjoint(a) -> np.ndarray:
    """Complex matrix of doubled size acting as the quaternion matrix does.

    Built against the standard slice (i, j, k); used internally for singular
    values, which are independent of the slice chosen.
    """
    a1, a2 = as_pair(qarr(a))
    if a1.ndim != 2:
        raise ShapeError("expected an (m, n, 4) array")
    top = np.concatenate([a1, -a2], axis=1)
    bottom = np.concatenate([np.conj(a2), np.conj(a1)], axis=1)
    return np.concatenate([top, bottom], axis=0)


def frame_coords(a, frame) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Real coordinates of a quaternion array against {1, m, n, mn}."""
    a = qarr(a)
    basis = np.stack([q.to_array() for q in frame.basis()], axis=0)
    coords = np.einsum("...c,bc->...b", a, basis)
    return coords[..., 0], coords[..., 1], coords[..., 2], coords[..., 3]


def slice_coords(a, frame) -> np.ndarray:
    """Complex coordinates c0 + c1 * i of a quaternion array in the slice C_m
    of a frame.

    Raises SliceMembershipError when the off-slice mass (the largest
    coordinate along n or mn) exceeds CM_MEMBERSHIP_TOL * (1 + largest
    in-slice coordinate).
    """
    c0, c1, c2, c3 = frame_coords(a, frame)
    off = max(np.max(np.abs(c2), initial=0.0), np.max(np.abs(c3), initial=0.0))
    inside = max(np.max(np.abs(c0), initial=0.0), np.max(np.abs(c1), initial=0.0))
    max_off = CM_MEMBERSHIP_TOL * (1.0 + inside)
    if off > max_off:
        raise SliceMembershipError(f"off-slice mass {off:.3e} exceeds {max_off:.3e}")
    return c0 + 1j * c1


def cm_values(c, frame) -> np.ndarray:
    """complex_to_cm over a complex array, bit for bit (signed zeros too)."""
    out = 0.0 + c.imag[..., None] * frame.m.to_array()
    out[..., 0] = c.real + c.imag * frame.m.w
    return out


def from_frame_coords(c0, c1, c2, c3, frame) -> np.ndarray:
    basis = np.stack([q.to_array() for q in frame.basis()], axis=0)
    coords = np.stack([c0, c1, c2, c3], axis=-1)
    return np.einsum("...b,bc->...c", coords, basis)
