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

The eigenvectors come from one eig of chi(A) and one QR (spectral_decompose).
LAPACK's eig returns eigenvectors V = Q X in Schur order, with Q the Schur
vectors and X upper triangular, and the Schur form of a normal matrix is
diagonal whatever the eigenvalue gaps, so a QR that meets each repeated
eigenvalue's vectors in Schur order gives back orthonormal eigenvectors with
no cluster tolerance.

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
    ShapeError,
    SliceMembershipError,
)
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame
from .report import Check, check_from, require

DECOMP_RESIDUAL_TOL = 1e-9


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
        (eigenvector rounding), rejected otherwise (slices.off_slice)."""
        n = row.shape[1] // 2
        off = np.max(np.abs(np.stack([row[:, n:].real, row[:, n:].imag])), initial=0.0)
        require(check_from("slices.off_slice", off, max_off), SliceMembershipError)
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
    chi(V D V*), and the checks ||AV - VD||_F (decompose.eigen_residual) and
    ||V*V - I||_F (decompose.unitary) measured on them."""

    V: QMatrix
    values: np.ndarray
    frame: SliceFrame
    checks: list[Check]
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
    """Coordinates of a quaternion vector in the doubled complex space: the
    map with iota(A x) = chi(A) iota(x) that reduces the theorem to the
    complex case."""
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


def eigvals_normal(z: np.ndarray) -> np.ndarray:
    """Eigenvalues of a normal complex matrix, ordered lexicographically by
    (real part, imaginary part), descending; its eigenvectors are unitary, so
    Bauer-Fike bounds their error by eig's backward error."""
    require(qa.normality(z), NotNormalError)
    vals = np.linalg.eigvals(z)
    return vals[np.lexsort((-vals.imag, -vals.real))]


def _j_pairs(w: np.ndarray) -> np.ndarray:
    """Orthonormal deflated vectors x of half the columns of w whose pairs
    [x, Jx], Jx = iota(x * n) = (-conj v; conj u), span the J-invariant span
    of w: one per quaternionic line. Each step keeps the column with the
    largest residual, so no line is lost however the basis of w mixes a
    repeated eigenvalue; its pair is then projected out of all columns twice,
    for orthogonality at rounding level."""
    w = w.copy()
    out = np.empty((w.shape[0], w.shape[1] // 2), dtype=np.complex128)
    for k in range(out.shape[1]):
        norms = np.linalg.norm(w, axis=0)
        t = int(np.argmax(norms))
        x = w[:, t] / norms[t]
        pair = np.stack([x, _j(x)], axis=1)
        for _ in range(2):
            w -= pair @ (np.conj(pair.T) @ w)
        out[:, k] = x
    return out


def spectral_decompose(a: QMatrix, frame: SliceFrame) -> SpectralDecomposition:
    """Diagonalize a normal quaternion matrix: A V_k = V_k d_k, d_k in C_m+.

    One eig of chi(A), whose spectrum is closed under slice conjugation, and
    one QR of its eigenvectors: each of the m above the real axis followed
    by its J image (chi(A) commutes with J, so that is an eigenvector at the
    conjugate), then those on the axis. The even columns 2k < 2m of Q are
    the upper lines; J-pair deflation picks the lines in the last 2n - 2m,
    which span the J-invariant on-axis eigenspaces. The eigenvalues are the
    kept columns' Rayleigh quotients, real parts alone on the axis.

    Axis band 3 N eps ||chi(A)||_F, N = 2n: eig is backward stable for the
    shifted chi(A) + 2 ||chi(A)||_F I, with an error of N u ||shifted||_2
    <= 3 N u ||chi(A)||_F (u = eps / 2); forming the shift adds 3 u
    ||chi(A)||_F; and by Bauer-Fike no eigenvalue of a normal matrix moves
    further, so a real one's imaginary part stays within
    3 (N + 1) u ||chi(A)||_F, below the band. The k-th largest and k-th
    smallest imaginary parts are decided as one conjugate pair, off the axis
    when half their difference exceeds the band, so the split is m, m and
    2n - 2m however near the band a value lies. Normality, the residual and
    the unitarity of V are checked on chi(A) and W = chi(V) (module
    docstring).
    """
    a.check_finite()
    n = a.n
    z = chi(a, frame)
    require(qa.normality(z, np.sqrt(2.0)), NotNormalError)
    fro = qa.fro(z)

    # eig floors each vanishing eigenvalue difference at max(ulp * |lambda|,
    # underflow), so an eigenvalue repeated at 0 gives nearly parallel vectors
    # that QR cannot separate; the shift keeps every |lambda + c| >= ||z||_F
    # and changes no eigenvector nor any imaginary part.
    mu, x = np.linalg.eig(z + (2.0 * fro) * np.eye(2 * n))
    band = 3.0 * (2 * n) * np.finfo(float).eps * fro
    # the k-th largest and k-th smallest imaginary parts, k < n, as one pair
    rank = np.argsort(-mu.imag, kind="stable")
    im = mu.imag[rank]
    m = int(np.count_nonzero(im[:n] - im[::-1][:n] > 2.0 * band))
    upper, axis = np.sort(rank[:m]), np.sort(rank[m : 2 * n - m])
    lines = np.stack([x[:, upper], _j(x[:, upper])], axis=2).reshape(2 * n, 2 * m)
    q, _ = np.linalg.qr(np.concatenate([lines, x[:, axis]], axis=1))
    cols = np.concatenate([q[:, : 2 * m : 2], _j_pairs(q[:, 2 * m :])], axis=1)
    lam = np.sum(np.conj(cols) * (z @ cols), axis=0)
    lam[m:] = lam[m:].real

    order = np.lexsort((-lam.imag, -lam.real))
    cols, lam = cols[:, order], lam[order]
    w, diag = np.concatenate([cols, _j(cols)], axis=1), np.concatenate([lam, np.conj(lam)])
    residual = check_from(
        "decompose.eigen_residual",
        qa.chi_fro(z @ w - w * diag),
        DECOMP_RESIDUAL_TOL * max(fro / np.sqrt(2.0), qa.TINY),  # ||A||_F
    )
    unitary = check_from(
        "decompose.unitary",
        qa.chi_fro(np.conj(w.T) @ w - np.eye(2 * n)),
        1e-10 * max(1.0, np.sqrt(n)),
    )
    checks = [require(residual, EigenResidualError), require(unitary, EigenResidualError)]
    rec = (w * diag) @ np.conj(w.T)
    values = qa.cm_values(lam, frame)
    return SpectralDecomposition(QMatrix(iota_inv(cols, frame)), values, frame, checks, z, w, rec)
