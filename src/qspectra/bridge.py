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

Every spectrum comes from one solver, eig_normal: of chi(A) for
spectral_decompose and selftest, and of the plus restriction for
spectral.slice_spectrum_check. It is one Hermitian eigensolve: eigh of
C = H + _BETA K, H = (Z + Z*)/2 and K = (Z - Z*)/(2i), for a normal Z
(Goldstine & Horwitz, J. ACM 6, 1959; Bunse-Gerstner, Byers & Mehrmann,
SIMAX 14, 1993). A normal Z shares its eigenvectors with C, whose
eigenvalue for lambda is re lambda + _BETA im lambda, so only eigenvalues
that collide in C come out mixed; they show as couplings in Q*ZQ, and each
coupled block is re-diagonalized alone by eig and a QR in Schur order.
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
The decomposition keeps chi(A), W and chi(V D V*); slice structures, the
extensions, the corollaries and the commuting J work on these images and
read a quaternion matrix back (iota_inv) only to return one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .report import Check, check_from, require, scaled_check

# C = H + _BETA K, with H = (Z + Z*)/2 and K = (Z - Z*)/(2i), takes each
# eigenvalue lambda of a normal Z to re lambda + _BETA im lambda; an
# irrational weight keeps the distinct ones apart but for measure-zero inputs.
_BETA = 0.7549


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

    def __repr__(self):
        rows, cols = self.shape
        return f"CMatrix({rows}x{cols})"


@dataclass
class SpectralDecomposition:
    """Standard eigenvalues d in C_m+ (an (n, 4) array, values) with
    A V_k = V_k d_k for a unitary V, the chi images z = chi(A), w = chi(V) and
    rec = chi(V D V*), and the checks ||AV - VD||_F (decompose.eigen_residual)
    and ||V*V - I||_F (decompose.unitary) measured on them. V itself is read
    back off w when first asked for."""

    values: np.ndarray
    frame: SliceFrame
    checks: list[Check]
    z: np.ndarray
    w: np.ndarray
    rec: np.ndarray

    @cached_property
    def V(self) -> QMatrix:
        return QMatrix(iota_inv(self.w[:, : len(self.values)], self.frame))

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


def _j_clusters(w: np.ndarray) -> list[np.ndarray]:
    """The connected components of G = W* J(W) above 8 N eps, N = len(w),
    for orthonormal w spanning J-invariant on-axis eigenspaces, each of which
    _j_pairs deflates alone. x* J x = 0 and J x lies in the span of w, so each
    column couples to another: every component has two columns or more, and
    the components cover all columns."""
    return _blocks(np.conj(w.T) @ _j(w), _coupling_tol(len(w), 1.0))


def _coupling_tol(size: int, fro: float) -> float:
    """8 N eps ||Z||_F for N = size and ||Z||_F = fro: eig_normal's block threshold."""
    return 8.0 * size * np.finfo(float).eps * fro


def hermitian_eigvecs(z: np.ndarray, zh: np.ndarray) -> np.ndarray:
    """Eigenvectors of C = H + _BETA K from one eigh, given Z and Z*; for a
    normal Z they are Z's, but for eigenvalues that collide in C, whose
    eigenvectors come out mixed. Raises LinAlgError when eigh fails."""
    c = 0.5 * (1.0 - 1j * _BETA)  # C = c Z + conj(c) Z*
    return np.linalg.eigh(c * z + c.conjugate() * zh)[1]


def _blocks(t: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index arrays of the connected components of two or more of the graph
    with an edge wherever |T_ij| > tol, i != j."""
    edge = np.abs(t) > tol
    np.fill_diagonal(edge, False)
    edge |= edge.T
    blocks, seen = [], np.zeros(len(t), dtype=bool)
    for k in np.flatnonzero(edge.any(axis=1)):
        if seen[k]:
            continue
        block = edge[k].copy()
        block[k] = True
        while not np.array_equal(grown := block | edge[block].any(axis=0), block):
            block = grown
        seen |= block
        blocks.append(np.flatnonzero(block))
    return blocks


def eig_normal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary eigenvectors X and eigenvalues lam of a normal complex matrix
    Z, Z X = X diag(lam), from one eigh and eig only where it is needed: one
    eigh of C = H + _BETA K (hermitian_eigvecs) gives a unitary Q; the
    couplings of T = Q*ZQ above 8 N eps ||Z||_F, N = len(Z), join columns
    into blocks (_blocks), and each block of T is re-diagonalized alone by eig
    and a QR of its eigenvectors in Schur order (module docstring). lam is
    T's diagonal outside every block and eig's eigenvalues less its shift on
    a block, in column order, unsorted. Normality is the caller's check."""
    fro = qa.fro(z)
    x = hermitian_eigvecs(z, np.conj(z.T))
    t = np.conj(x.T) @ z @ x
    lam = np.diagonal(t).copy()
    for b in _blocks(t, _coupling_tol(len(z), fro)):
        # eig floors each vanishing eigenvalue difference at max(ulp *
        # |lambda|, underflow), so an eigenvalue repeated at 0 gives nearly
        # parallel vectors that QR cannot separate; the shift keeps every
        # |lambda + c| >= ||Z||_F and changes no eigenvector nor any
        # imaginary part.
        shift = 2.0 * fro
        mu, y = np.linalg.eig(t[np.ix_(b, b)] + shift * np.eye(len(b)))
        lam[b] = mu - shift
        x[:, b] = x[:, b] @ np.linalg.qr(y)[0]
    return x, lam


def spectral_decompose(a: QMatrix, frame: SliceFrame) -> SpectralDecomposition:
    """Diagonalize a normal quaternion matrix: A V_k = V_k d_k, d_k in C_m+.

    eig_normal gives the eigenvectors of Z = chi(A), N = 2n: one eigh of
    C = H + _BETA K, and eig and a QR in Schur order on each block of
    T = Q*ZQ coupled above 8 N eps ||Z||_F. The spectrum of Z is closed
    under slice conjugation, and one QR orders the eigenvectors: each of the
    m above the real axis followed by its J image (Z commutes with J, so
    that is an eigenvector at the conjugate), then those on the axis. The
    even columns 2k < 2m of the QR are the upper lines; J-pair deflation
    picks the lines in the last 2n - 2m, which span the J-invariant on-axis
    eigenspaces, one J cluster at a time (_j_clusters). The eigenvalues are
    the kept columns' Rayleigh quotients, real parts alone on the axis.

    Axis band 3 N eps ||Z||_F. The imaginary parts placed against it are
    the Rayleigh quotients mu_k = q_k* Z q_k of the columns outside every
    block, and eig's eigenvalues on a block. With q_k = sum_j c_j e_j over
    orthonormal eigenvectors of Z, Im mu_k = sum_j |c_j|^2 Im lambda_j, so
    a column at a real lambda_i leaves the axis only by what it mixes in:
    |Im mu_k| <= sum_{j != i} |c_j| |c_j (lambda_j - lambda_i)|, where each
    |c_j (lambda_j - lambda_i)| is a coupling of T up to the rounding of
    forming T, below the block threshold tau = 8 N eps ||Z||_F outside every
    block. eigh's backward error, of order N eps ||C||, keeps each |c_j| at
    that over the gap in C, so an eigenvalue apart from the others in C
    stays far inside the band, and a large |c_j| below tau needs
    |lambda_j - lambda_i| < tau / |c_j|: a cluster on the axis. Eigenvalues
    that collide in C but not in Z couple above tau, and eig on their block
    is backward stable for the block shifted by 2 ||Z||_F, with an error
    below 3 N u ||Z||_F (u = eps / 2), the band the whole matrix has under
    eig (Bauer-Fike). The k-th largest and k-th smallest imaginary parts
    are decided as one conjugate pair, off the axis when half their
    difference exceeds the band, and the cut moves down past each pair
    whose difference is within a band of the next pair's, so it never
    parts a cluster of pairs whose imaginary parts straddle the band; the
    split is m, m and 2n - 2m however near the band values lie. A pair put
    on the axis costs the residual its imaginary part, at most (k + 2)
    bands after k such moves, far below decompose.eigen_residual's bound.
    Normality, the residual and the unitarity of V are checked on Z and
    W = chi(V) (module docstring).
    """
    a.check_finite()
    n = a.n
    z = chi(a, frame)
    require(qa.normality(z, np.sqrt(2.0)), NotNormalError)
    fro = qa.fro(z)
    eps = np.finfo(float).eps

    x, mu = eig_normal(z)
    im = mu.imag
    band = 3.0 * (2 * n) * eps * fro
    # the k-th largest and k-th smallest imaginary parts, k < n, as one pair,
    # and no cut within a band of the next pair's width
    rank = np.argsort(-im, kind="stable")
    width = im[rank[:n]] - im[rank[::-1][:n]]
    m = int(np.count_nonzero(width > 2.0 * band))
    while 0 < m < n and width[m - 1] - width[m] <= band:
        m -= 1
    upper, axis = np.sort(rank[:m]), np.sort(rank[m : 2 * n - m])
    lines = np.stack([x[:, upper], _j(x[:, upper])], axis=2).reshape(2 * n, 2 * m)
    q, _ = np.linalg.qr(np.concatenate([lines, x[:, axis]], axis=1))
    on = q[:, 2 * m :]
    on_lines = (_j_pairs(on[:, b]) for b in _j_clusters(on))
    cols = np.concatenate([q[:, : 2 * m : 2], *on_lines], axis=1)
    lam = np.sum(np.conj(cols) * (z @ cols), axis=0)
    lam[m:] = lam[m:].real

    order = np.lexsort((-lam.imag, -lam.real))
    cols, lam = cols[:, order], lam[order]
    w, diag = np.concatenate([cols, _j(cols)], axis=1), np.concatenate([lam, np.conj(lam)])
    eigen, unit = qa.chi_fro(z @ w - w * diag), qa.chi_fro(np.conj(w.T) @ w - np.eye(2 * n))
    residual = scaled_check("decompose.eigen_residual", eigen, fro / np.sqrt(2.0))  # ||A||_F
    unitary = scaled_check("decompose.unitary", unit, np.sqrt(n))
    checks = [require(residual, EigenResidualError), require(unitary, EigenResidualError)]
    rec = (w * diag) @ np.conj(w.T)
    return SpectralDecomposition(qa.cm_values(lam, frame), frame, checks, z, w, rec)
