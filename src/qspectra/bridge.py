"""Slice embedding into complex matrices of doubled size and the spectral
decomposition of normal quaternion matrices built on top of it.

The embedding chi splits every entry as a_1 + a_2 * n against a slice frame
and maps

    chi(A) = [[A1, -A2], [conj(A2), conj(A1)]]

acting on iota(x) = (x1; conj(x2)) for x = x1 + x2 * n, so that
iota(A x) = chi(A) iota(x) and iota(x * s) = iota(x) * s for slice scalars s.
Eigenvectors (u; v) of chi(A) lift back to quaternionic eigenvectors

    x = u + conj(v) * n     with     A x = x * lambda,

which is forced by the iota contract: iota(x) = (x1; conj(x2)) means the
lifted vector must have slice parts x1 = u and x2 = conj(v), and then
iota(A x) = chi(A) (u; v) = (u; v) * lambda = iota(x * lambda).

The eigenvectors of chi(A) are its complex Schur vectors, recovered by QR
from LAPACK's eig. The Schur form of a normal matrix is diagonal whatever
the eigenvalue gaps, so no cluster tolerance is involved.

The decomposition is checked in the same coordinates, by chi(XY) =
chi(X) chi(Y), chi(X*) = chi(X)* and ||chi(X)||_F = sqrt(2) ||X||_F
(F. Zhang, Linear Algebra Appl. 251, 1997): with C the lifted columns (u; v)
and JC their partners (-conj v; conj u), W = [C, JC] = chi(V), so
||AV - VD||_F = ||chi(A) W - W diag(lam, conj lam)||_F / sqrt 2 and
||V*V - I||_F = ||W*W - I||_F / sqrt 2; no quaternion product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from .errors import (
    EigenResidualError,
    NotNormalError,
    PairingError,
    ShapeError,
    SliceMembershipError,
)
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame

NORMAL_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-10
DECOMP_RESIDUAL_TOL = 1e-9

_TINY = 1e-300


class CMatrix:
    """Matrix with entries in the slice C_m of a frame, held as the complex
    array of their coordinates against {1, m}.

    Quaternion entries are built on demand (data) and checked for slice
    membership on the way in (CMatrix(data, frame), project).
    """

    __slots__ = ("frame", "z")

    def __init__(self, data, frame: SliceFrame):
        data = qa.qarr(data)
        if data.ndim != 3:
            raise ShapeError(f"expected an (p, q, 4) array, got {data.shape}")
        self.frame = frame
        self.z = qa.slice_coords(data, frame)

    @classmethod
    def from_complex(cls, z: np.ndarray, frame: SliceFrame) -> "CMatrix":
        z = np.asarray(z, dtype=np.complex128)
        if z.ndim != 2:
            raise ShapeError(f"expected a (p, q) complex array, got {z.shape}")
        out = cls.__new__(cls)
        out.frame = frame
        out.z = z
        return out

    @classmethod
    def from_chi_row(cls, row: np.ndarray, frame: SliceFrame, max_off: float) -> "CMatrix":
        """The slice part X1 of the X whose chi image has top block row
        [X1, -X2]; X2 is dropped if its coordinates are within max_off
        (eigenvector rounding), rejected otherwise."""
        n = row.shape[1] // 2
        off = np.max(np.abs(np.stack([row[:, n:].real, row[:, n:].imag])), initial=0.0)
        if off > max_off:
            raise SliceMembershipError(f"off-slice mass {off:.3e} exceeds {max_off:.3e}")
        return cls.from_complex(row[:, :n], frame)

    @property
    def data(self) -> np.ndarray:
        """The entries as an (p, q, 4) quaternion array."""
        return qa.cm_values(self.z, self.frame)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape

    def as_qmatrix(self) -> QMatrix:
        return QMatrix(self.data)

    def __repr__(self):
        rows, cols = self.shape
        return f"CMatrix({rows}x{cols})"


@dataclass
class SpectralDecomposition:
    """Unitary V and standard eigenvalues d in C_m+ (an (n, 4) array, values)
    with A V_k = V_k d_k, the chi images z = chi(A), w = chi(V) and rec =
    chi(V D V*), and ||AV - VD||_F (residual) and ||V*V - I||_F (unitarity) on them."""

    V: QMatrix
    values: np.ndarray
    frame: SliceFrame
    residual: float
    unitarity: float
    z: np.ndarray
    w: np.ndarray
    rec: np.ndarray

    @property
    def d(self) -> list[Quaternion]:
        return [Quaternion.from_array(v) for v in self.values]


def chi(a: QMatrix, frame: SliceFrame) -> np.ndarray:
    """Embed a quaternion matrix as a complex matrix of doubled size."""
    # the complex adjoint of the matrix whose standard coordinates are the frame's
    return qa.to_complex_adjoint(np.stack(qa.frame_coords(a.a, frame), axis=-1))


def iota(x: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Coordinates of a quaternion vector in the doubled complex space."""
    c0, c1, c2, c3 = qa.frame_coords(qa.qarr(x), frame)
    return np.concatenate([c0 + 1j * c1, c2 - 1j * c3])


def iota_inv(w: np.ndarray, frame: SliceFrame) -> np.ndarray:
    """Lift doubled complex coordinates (u; v) to u + conj(v) * n."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape[0] % 2:
        raise ShapeError("doubled coordinates must have even length")
    n = w.shape[0] // 2
    u, v = w[:n], w[n:]
    return qa.from_frame_coords(u.real, u.imag, v.real, -v.imag, frame)


def _j(x: np.ndarray) -> np.ndarray:
    """J (u; v) = (-conj v; conj u) = iota(x * n), columnwise."""
    half = x.shape[0] // 2
    return np.concatenate([-np.conj(x[half:]), np.conj(x[:half])])


def _normal_scale(z: np.ndarray, k: float = 1.0) -> float:
    """||z||_F; NotNormalError if ||z z* - z* z||_F / k > NORMAL_TOL (||z||_F / k)^2.
    k = sqrt 2 on z = chi(A) makes this ||AA* - A*A||_F <= NORMAL_TOL ||A||_F^2."""
    rows, cols = z.shape
    if rows != cols:
        raise ShapeError("eigendecomposition needs a square matrix")
    scale = float(np.linalg.norm(z))
    defect = float(np.linalg.norm(z @ np.conj(z.T) - np.conj(z.T) @ z)) / k
    if defect > NORMAL_TOL * max((scale / k) ** 2, _TINY):
        raise NotNormalError(defect, NORMAL_TOL * (scale / k) ** 2)
    return scale


def eigvals_normal(z: np.ndarray) -> np.ndarray:
    """Eigenvalues of a normal complex matrix, in eig_normal's order; its
    eigenvectors are unitary, so Bauer-Fike bounds their error by eig's."""
    _normal_scale(z)
    vals = np.linalg.eigvals(z)
    return vals[np.lexsort((-vals.imag, -vals.real))]


def eig_normal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a normal complex matrix: z q = q diag(vals), q unitary.

    q holds the Schur vectors of z. LAPACK's eig returns eigenvectors
    V = Q X in Schur order, with Q the Schur vectors and X upper triangular,
    so the QR factor of V gives back Q; for normal z, Q* z Q is diagonal to
    rounding whatever the eigenvalue gaps, exact repeats included.

    Eigenvalues are ordered lexicographically by (real part, imaginary part),
    descending, so repeated runs produce identical output. Raises
    NotNormalError for non-normal input and EigenResidualError when the
    residual contract residual <= EIG_RESIDUAL_TOL * ||z||_F is not met.
    """
    return _schur_eig(z, _normal_scale(z))


def _schur_eig(z: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """eig_normal of a z already checked normal, with scale = ||z||_F."""
    # eig floors each vanishing eigenvalue difference at max(ulp * |lambda|,
    # underflow), so an eigenvalue repeated at 0 gives nearly parallel vectors
    # that QR cannot separate; the shift keeps every |lambda + c| >= ||z||_F
    # and changes no eigenvector.
    shifted = z + (2.0 * scale) * np.eye(len(z))
    q, _ = np.linalg.qr(np.linalg.eig(shifted)[1])
    zq = z @ q
    vals = np.sum(np.conj(q) * zq, axis=0)
    order = np.lexsort((-vals.imag, -vals.real))
    vals, q, zq = vals[order], q[:, order], zq[:, order]

    residual = float(np.linalg.norm(zq - q * vals))
    if residual > EIG_RESIDUAL_TOL * max(scale, _TINY):
        raise EigenResidualError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{EIG_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return vals, q


def _j_pairs(w: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Indices and orthonormal deflated vectors x of half the columns of w
    whose pairs [x, Jx], Jx = iota(x * n) = (-conj v; conj u), span the
    J-invariant span of w: one per quaternionic line. Each step keeps the
    column with the largest residual, so no line is lost however the basis
    of w mixes a repeated eigenvalue; its pair is then projected out of all
    columns twice, for orthogonality at rounding level."""
    w = w.copy()
    kept: list[int] = []
    out = np.empty((w.shape[0], w.shape[1] // 2), dtype=np.complex128)
    for k in range(out.shape[1]):
        norms = np.linalg.norm(w, axis=0)
        t = int(np.argmax(norms))
        x = w[:, t] / norms[t]
        pair = np.stack([x, _j(x)], axis=1)
        for _ in range(2):
            w -= pair @ (np.conj(pair.T) @ w)
        kept.append(t)
        out[:, k] = x
    return kept, out


def spectral_decompose(a: QMatrix, frame: SliceFrame) -> SpectralDecomposition:
    """Diagonalize a normal quaternion matrix: A V_k = V_k d_k, d_k in C_m+.

    Route: eigendecompose chi(A), whose spectrum is closed under slice
    conjugation. Eigenvectors (u; v) at eigenvalues above the real axis lift
    to u + conj(v) * n as they are. Eigenvalues on the real axis (within
    1e-9 * ||A||_F) come in doubled pairs whose eigenvectors span
    J-invariant spaces; J-pair deflation keeps one vector per quaternionic
    line, so exactly half of them survive. Normality, the residual and the
    unitarity of V are checked on chi(A) and W = chi(V) (module docstring).
    """
    a.check_finite()
    n = a.n
    z = chi(a, frame)
    vals, w = _schur_eig(z, _normal_scale(z, np.sqrt(2.0)))
    scale = max(qa.chi_fro(z), _TINY)

    pair_tol = 1e-9 * scale
    upper = np.flatnonzero(vals.imag > pair_tol)
    for v in vals[upper]:
        if np.min(np.abs(vals - np.conj(v))) > pair_tol:
            raise PairingError(f"eigenvalue {v:.6e} lacks a conjugate partner")
    real_axis = np.flatnonzero(np.abs(vals.imag) <= pair_tol)
    kept, real_cols = _j_pairs(w[:, real_axis])

    cols = np.concatenate([w[:, upper], real_cols], axis=1)
    lam = np.concatenate([vals[upper], vals[real_axis[kept]].real + 0j])
    if len(lam) != n:
        raise PairingError(f"selected {len(lam)} eigenvectors for dimension {n}")

    order = np.lexsort((-lam.imag, -lam.real))
    cols, lam = cols[:, order], lam[order]
    w, diag = np.concatenate([cols, _j(cols)], axis=1), np.concatenate([lam, np.conj(lam)])
    residual = qa.chi_fro(z @ w - w * diag)
    unitarity = qa.chi_fro(np.conj(w.T) @ w - np.eye(2 * n))
    if residual > DECOMP_RESIDUAL_TOL * scale or unitarity > 1e-10 * max(1.0, np.sqrt(n)):
        raise EigenResidualError(
            f"decomposition residual {residual:.3e} (unitarity {unitarity:.3e}) "
            f"exceeds contract at scale {scale:.3e}"
        )
    rec = (w * diag) @ np.conj(w.T)
    values = qa.cm_values(lam, frame)
    return SpectralDecomposition(
        QMatrix(iota_inv(cols, frame)), values, frame, residual, unitarity, z, w, rec
    )
