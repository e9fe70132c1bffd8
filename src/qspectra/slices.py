"""Slice structures: the J operator, the plus/minus subspaces it carves out,
restriction to and extension from the plus subspace, and the pair construction
that turns a slice Hilbert space into a quaternionic one.

A slice structure is an anti-self-adjoint unitary J together with a frame;
the plus subspace is {x : Jx = x * m} and carries a C_m-linear calculus.
Extension is exact at desk scale: with plus basis V, a slice matrix M extends
to V M V*, the unique right-linear operator restricting to M.

A structure holds only chi images (bridge), cj = chi(J) = W diag(iI, -iI) W*
and w = W = chi(V) = [W1, W2], and every product below is taken on them, with
||X||_F = ||chi(X)||_F / sqrt 2: the matrix B* A B of A on a basis B is the
top-left block of chi(B)* chi(A) chi(B), whose top-right block is minus its
off-slice part; and a slice matrix U has chi(U) = diag(U, conj U), so
chi(V2 U V1*) = W2 chi(U) W1*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from . import vectors as vec
from .bridge import CMatrix, SpectralDecomposition, chi, iota_inv
from .errors import ShapeError, SliceCommutationError
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame, cm_to_complex, complex_to_cm, slice_split
from .report import require, scaled_check


@dataclass
class SliceStructure:
    """J (anti-self-adjoint, unitary) and a plus-subspace basis V, held as
    cj = chi(J) and w = chi(V); J is read back from iota(J e_k) = cj e_k.

    The columns z of V satisfy J z = z * m, so they form a right C_m basis of
    the plus subspace and simultaneously a Hilbert basis of the whole space.
    """

    cj: np.ndarray
    frame: SliceFrame
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.cj.shape[0] // 2

    @property
    def J(self) -> QMatrix:
        return QMatrix(iota_inv(self.cj[:, : self.n], self.frame))


def build_J(dec: SpectralDecomposition) -> SliceStructure:
    """J = V (columns right-multiplied by m) V*, as cj = W D W* with
    W = chi(V) and D = diag(iI, -iI).

    J is anti-self-adjoint and unitary because m is; it commutes with
    V diag(d) V* because every d_k lies in the slice of m. On chi images,
    with E = W*W - I, u = ||E||_F / sqrt 2 <= 1e-10 sqrt n (the
    decomposition's decompose.unitary), delta = ||E||_2, and each product
    rounded within gamma_N |X||Y| (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3):
    - cj* + cj is not checked: multiplying by +-i is exact, so it is the
      rounding of one product, about gamma_2n ||W||_F^2, far below 1e-10 n.
    - J^2 + I = W D E D W* - (W W* - I), at most (2 + delta) u, which
      exceeds 1e-10 n for n <= 3: slices.J_unitary.
    - [cj, rec] = W (D E Lambda - Lambda E D) W* against the decomposition's
      own rec = chi(V diag(d) V*): an E that couples a dominant eigenvalue's
      plus column to a minus column reads about 0.2 sqrt(n) of
      1e-9 ||rec||_F, and so fails from n = 26: slices.J_commutes.
    """
    w = dec.w
    n = w.shape[1] // 2
    cj = (w * np.repeat([1j, -1j], n)) @ np.conj(w.T)
    square = qa.chi_fro(cj @ cj + np.eye(2 * n))
    require(scaled_check("slices.J_unitary", square, n), SliceCommutationError)
    defect = qa.chi_fro(cj @ dec.rec - dec.rec @ cj)
    require(scaled_check("slices.J_commutes", defect, qa.chi_fro(dec.rec)), SliceCommutationError)
    return SliceStructure(cj, dec.frame, w)


def project_plus(x: np.ndarray, s: SliceStructure) -> np.ndarray:
    """P+ x = (x - J(x) m) / 2; range is the plus subspace."""
    return 0.5 * (qa.qarr(x) - vec.scale_right(s.J.apply(x), s.frame.m))


def project_minus(x: np.ndarray, s: SliceStructure) -> np.ndarray:
    return 0.5 * (qa.qarr(x) + vec.scale_right(s.J.apply(x), s.frame.m))


def restrict_pair(a: QMatrix, s: SliceStructure) -> tuple[CMatrix, CMatrix]:
    """Matrices of A on the plus basis, (T+)_kl = <z_k | A z_l>, and on the
    minus basis {z_k * n}, entries in C_m, after one check that
    ||AJ - JA||_F <= c ||A||_F (slices.restrict_commutes, c in report.BOUNDS).

    Components off the slice up to the same bound are eigenvector rounding
    and are projected away; anything larger means A does not truly preserve
    the slice. A non-finite entry of A is named first, then a size that does
    not fit the structure (ShapeError).

    T- = conj(T+) by construction, for any A and V, and is returned as such.
    Write B = V*AV = B1 + B2 n with slice-valued B1, B2; on the minus basis
    V n, (Vn)* A (Vn) = conj(n) B n = conj(B1) + conj(B2) n. On chi images,
    W2 = Jc conj(W1) (bridge._j) with Jc = [[0, -I], [I, 0]], and
    Jc^-1 chi(A) Jc = conj chi(A), so W2* chi(A) W2 = conj(W1* chi(A) W1) and
    the off-slice block of T- is the conjugate of T+'s: a second product
    would measure only its own rounding, and T- is normal iff T+ is.

    With s = build_J(spectral_decompose(A)), this checks the commuting J of
    an unbounded-scale normal A, read off A's own decomposition: Z_A has A's
    eigenvectors but squeezes its large gaps (Davis & Kahan 1970).
    """
    a.check_finite()
    if a.n != s.n:
        raise ShapeError(f"matrix of dim {a.n} does not fit space of dim {s.n}")
    z, cj, w = chi(a, s.frame), s.cj, s.w
    commutes = scaled_check("slices.restrict_commutes", qa.chi_fro(z @ cj - cj @ z), qa.chi_fro(z))
    bound = require(commutes, SliceCommutationError).tol
    plus = CMatrix.from_chi_row(np.conj(w[:, : s.n].T) @ z @ w, s.frame, bound)
    return plus, CMatrix.from_complex(np.conj(plus.z), s.frame)


def _lift(u: CMatrix, s1: SliceStructure, s2: SliceStructure) -> np.ndarray:
    """chi(V2 U V1*) = W2 diag(U, conj U) W1*, after naming any non-finite
    entry of U; ShapeError unless U and both structures share one frame."""
    QMatrix(u.data).check_finite()
    if not u.frame == s1.frame == s2.frame:
        raise ShapeError("operator and slice structures are not in one frame")
    w2, n2 = s2.w, s2.n
    return np.concatenate([w2[:, :n2] @ u.z, w2[:, n2:] @ np.conj(u.z)], axis=1) @ np.conj(s1.w.T)


def extend(t_plus: CMatrix, s: SliceStructure) -> QMatrix:
    """Unique right-linear extension of a slice operator to the whole space.

    Satisfies ||extend(T)|| = ||T||, extend(T*) = extend(T)*, and
    extend(S T) = extend(S) extend(T). A non-finite entry of T is named first.
    """
    rows, cols = t_plus.shape
    if rows != cols or rows != s.n:
        raise ShapeError(f"operator shape {t_plus.shape} does not fit space of dim {s.n}")
    return QMatrix(iota_inv(_lift(t_plus, s, s)[:, :cols], s.frame))


def extend_between(u: CMatrix, s1: SliceStructure, s2: SliceStructure) -> QMatrix:
    """Extension across two spaces; verifies J2 U~ = U~ J1 and norm equality
    (slices.extend_commutes, slices.extend_norm), after naming any non-finite
    entry of U. This lifts the complex unitary of the reduction to the map
    onto L2(Omega; H; mu)."""
    rows, cols = u.shape
    if cols != s1.n or rows != s2.n:
        raise ShapeError(
            f"operator shape {u.shape} does not map dim {s1.n} into dim {s2.n}"
        )
    lifted = _lift(u, s1, s2)
    defect, scale = qa.chi_fro(s2.cj @ lifted - lifted @ s1.cj), qa.chi_fro(lifted)
    require(scaled_check("slices.extend_commutes", defect, scale), SliceCommutationError)
    norm = np.linalg.norm(lifted, 2)
    gap = abs(norm - np.linalg.norm(u.z, 2))
    require(scaled_check("slices.extend_norm", gap, norm), SliceCommutationError)
    return QMatrix(iota_inv(lifted[:, :cols], s1.frame))


class QuaternionifiedSpace:
    """Pairs (x, y) of slice vectors identified with x + y * n.

    The right scalar action for q = alpha + beta * n (alpha, beta slice
    values held as complex numbers) is

        (x, y) * q = (x alpha - y conj(beta), x beta + y conj(alpha)),

    which is what the identification forces via n * z = conj(z) * n. The
    variant without the conjugations (scale_unconjugated) is kept only as a
    regression witness: it breaks associativity of the action.
    """

    def __init__(self, complex_dim: int, frame: SliceFrame):
        if complex_dim < 1:
            raise ShapeError("complex dimension must be >= 1")
        self.dim = complex_dim
        self.frame = frame

    def element(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ShapeError(f"expected two vectors of length {self.dim}")
        return x, y

    def _split_scalar(self, q: Quaternion) -> tuple[complex, complex]:
        a, b = slice_split(q, self.frame)
        return cm_to_complex(a, self.frame), cm_to_complex(b, self.frame)

    def scale(self, u, q: Quaternion):
        alpha, beta = self._split_scalar(q)
        x, y = u
        return x * alpha - y * np.conj(beta), x * beta + y * np.conj(alpha)

    def scale_unconjugated(self, u, q: Quaternion):
        """Broken variant (no conjugations, minus on both cross terms)."""
        alpha, beta = self._split_scalar(q)
        x, y = u
        return x * alpha - y * beta, x * beta - y * alpha

    def inner(self, u, v) -> Quaternion:
        """[<x|z> + <w|y>] + [<x|w> - <z|y>] * n."""
        x, y = u
        z, w = v
        slice_part = complex(np.vdot(x, z) + np.vdot(w, y))
        n_part = complex(np.vdot(x, w) - np.vdot(z, y))
        f = self.frame
        return complex_to_cm(slice_part, f) + complex_to_cm(n_part, f) * f.n

    def norm(self, u) -> float:
        return qa.fro(np.concatenate(u).view(np.float64))

    def j_map(self, u):
        """J(x + y n) = (x - y n) m, i.e. (x m, y m) in pair coordinates."""
        x, y = u
        return 1j * x, 1j * y

    def project_plus(self, u):
        return tuple(0.5 * (a - b) for a, b in zip(u, self.scale(self.j_map(u), self.frame.m)))

    def embed(self, u) -> np.ndarray:
        """The quaternion vector x + y * n this pair stands for: the pair
        identification by which a complex Hilbert space is a slice space."""
        x, y = u
        return qa.from_frame_coords(x.real, x.imag, y.real, y.imag, self.frame)


def quaternionify(complex_dim: int, frame: SliceFrame) -> QuaternionifiedSpace:
    return QuaternionifiedSpace(complex_dim, frame)
