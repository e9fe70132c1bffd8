"""Bounded transform Z = T (I + T*T)^(-1/2), its inverse, the commuting-J
construction routed through it, and the unbounded multiplication form
emulated on truncated atomic spaces.

Matrix square roots of the Gram operands I + A*A and I - Z*Z are taken
spectrally, from one Hermitian eigendecomposition of the Gram matrix's
complex adjoint, never by Newton iteration, so every path stays
deterministic. Results are assembled as complex adjoint matrices and read
back as quaternion matrices from their top block row.

The scalar radial maps

    xi(p)     = p (1 - |p|^2)^(-1/2)        (unit ball -> everything)
    xi_inv(p) = p (1 + |p|^2)^(-1/2)        (everything -> unit ball)

compute their radial factor in extended precision: near the unit sphere
1 - |p|^2 falls below double significance, and the extra digits recover it
exactly from the stored components, leaving input representation as the only
error source.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from . import qarray as qa
from .bridge import CMatrix, spectral_decompose
from .errors import (
    DuplicateSymbolError,
    PreconditionError,
    ShapeError,
    TransformDomainError,
)
from .measure import MERGE_TOL, AtomicMeasureSpace, Symbol
from .operators import QMatrix
from .quaternion import STANDARD_FRAME, Quaternion, SliceFrame
from .slices import SliceStructure, build_J, extend

INVERSE_GUARD = 1e-8
# ||Z|| of a computed transform: 1 plus the rounding of the spectral norm,
# which cannot resolve the true margin 1 - ||Z|| ~ 1 / (2 ||A||^2) once
# ||A|| passes about 1e8.
CONTRACTION_BOUND = 1.0 + 1e-12

_MP_DPS = 40


@dataclass
class BoundedTransform:
    """Z = source (I + source* source)^(-1/2); always a contraction."""

    Z: QMatrix
    source: QMatrix
    residual: float


@dataclass
class UnboundedSim:
    """Multiplication operator with unbounded-scale symbol on a truncation."""

    space: AtomicMeasureSpace
    psi: Symbol

    @classmethod
    def from_symbol(cls, psi: Symbol) -> "UnboundedSim":
        return cls(psi.space, psi)


def _gram_eig(a: QMatrix, sign: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors q of G = I + sign * A*A (complex adjoint), A q, and the
    eigenvalues of G as 1 + sign * ||A q_k||^2. The eigenvalues that eigh
    returns carry an absolute error of about eps * ||A||^2, which at
    ||A|| ~ 1e8 pushes ||Z|| past 1."""
    if not np.all(np.isfinite(a.a)):
        raise PreconditionError("transform input has non-finite entries")
    ac = a.to_complex_adjoint()
    _, q = np.linalg.eigh(np.eye(2 * a.n) + sign * (np.conj(ac.T) @ ac))
    aq = ac @ q
    return q, aq, 1.0 + sign * np.sum(np.abs(aq) ** 2, axis=0)


def _from_adjoint(f: np.ndarray) -> QMatrix:
    """The quaternion matrix whose complex adjoint is f: from_pair(F11, -F12)."""
    n = f.shape[1] // 2
    return QMatrix(qa.from_pair(f[:n, :n], -f[:n, n:]))


def bounded_transform(a: QMatrix, frame: SliceFrame = STANDARD_FRAME) -> BoundedTransform:
    """Contractive image of a matrix; normal input gives normal output.

    With G = I + A*A = q diag(g) q*, Z = (A q) diag(g^(-1/2)) q*. The result
    does not depend on frame.
    """
    q, aq, g = _gram_eig(a, 1.0)
    z = _from_adjoint((aq / np.sqrt(g)) @ np.conj(q.T))
    half = _from_adjoint((q * np.sqrt(g)) @ np.conj(q.T))

    norm_z = z.op_norm()
    if norm_z > CONTRACTION_BOUND:
        raise TransformDomainError(f"transform norm {norm_z} exceeds {CONTRACTION_BOUND}")
    residual = ((z @ half) - a).frobenius()
    return BoundedTransform(z, a, residual)


def inverse_transform(z: QMatrix, frame: SliceFrame = STANDARD_FRAME) -> QMatrix:
    """Recover T from Z = Z_T via T = Z (I - Z*Z)^(-1/2).

    Rejected when ||Z|| >= 1 - 1e-8: the reconstruction conditioning
    (1 - ||Z||^2)^(-1/2) makes anything closer numerically unrecoverable;
    it also keeps I - Z*Z >= 1e-8. The result does not depend on frame.
    """
    norm_z = z.op_norm()
    if norm_z >= 1.0 - INVERSE_GUARD:
        raise TransformDomainError(
            f"||Z|| = {norm_z:.12f} is within {INVERSE_GUARD:.0e} of 1"
        )
    q, zq, g = _gram_eig(z, -1.0)
    return _from_adjoint((zq / np.sqrt(g)) @ np.conj(q.T))


def commuting_J_unbounded(a: QMatrix, frame: SliceFrame = STANDARD_FRAME) -> SliceStructure:
    """Slice structure commuting with a normal matrix, built from its
    bounded transform's eigenbasis (the transform shares eigenvectors)."""
    a.check_normal()
    z = bounded_transform(a, frame).Z
    dec = spectral_decompose(z, frame)
    structure = build_J(dec)
    defect = ((structure.J @ a) - (a @ structure.J)).frobenius()
    bound = 1e-9 * max(a.frobenius(), 1.0)
    if defect > bound:
        raise TransformDomainError(
            f"J from the transform fails to commute: {defect:.3e} > {bound:.3e}"
        )
    return structure


def z_extension_check(t_plus: CMatrix, s: SliceStructure) -> float:
    """Residual between the two orders of transform and extension."""
    z_plus = CMatrix(bounded_transform(t_plus.as_qmatrix(), s.frame).Z.a, s.frame)
    transform_of_extension = bounded_transform(extend(t_plus, s), s.frame).Z
    extension_of_transform = extend(z_plus, s)
    return (transform_of_extension - extension_of_transform).frobenius()


def _radial_rescale(values: np.ndarray, factor_fn) -> np.ndarray:
    """Rescale each quaternion by a function of its squared modulus,
    evaluated in extended precision from the exact stored components."""
    values = qa.qarr(values)
    out = np.empty_like(values)
    with mpmath.workdps(_MP_DPS):
        for t in range(values.shape[0]):
            r2 = mpmath.fsum(mpmath.mpf(float(c)) ** 2 for c in values[t])
            out[t] = values[t] * float(factor_fn(r2))
    return out


def xi_values(values: np.ndarray) -> np.ndarray:
    """xi(p) = p (1 - |p|^2)^(-1/2) entrywise; requires |p| < 1."""

    def factor(r2):
        if r2 >= 1:
            raise TransformDomainError("xi needs |p| < 1")
        return 1 / mpmath.sqrt(1 - r2)

    return _radial_rescale(values, factor)


def xi_inv_values(values: np.ndarray) -> np.ndarray:
    """xi_inv(p) = p (1 + |p|^2)^(-1/2) entrywise; lands in the open ball."""
    return _radial_rescale(values, lambda r2: 1 / mpmath.sqrt(1 + r2))


def xi(p: Quaternion) -> Quaternion:
    return Quaternion.from_array(xi_values(p.to_array()[None, :])[0])


def xi_inv(p: Quaternion) -> Quaternion:
    return Quaternion.from_array(xi_inv_values(p.to_array()[None, :])[0])


def unbounded_multiplication_form(
    sim: UnboundedSim, frame: SliceFrame
) -> tuple[QMatrix, AtomicMeasureSpace, Symbol]:
    """Represent M_psi as V* M_eta V with eta the identity on its atoms.

    Route: contract the symbol through xi_inv, push the measure forward
    through xi (landing on atoms at the original symbol values), and read
    eta off the atom labels. The pushforward must not merge positive-weight
    atoms -- repeated symbol values would collapse the L2 dimension and no
    unitary V could exist -- so duplicates raise DuplicateSymbolError.
    """
    if sim.psi.frame != frame:
        raise ShapeError("symbol frame does not match the requested frame")
    space = sim.space
    if np.any(space.weights <= 0.0):
        raise DuplicateSymbolError(
            "unbounded form needs strictly positive weights (zero-weight atoms "
            "have no L2 content to carry through the pushforward)"
        )

    phi = xi_inv_values(sim.psi.values)
    if np.any(qa.qabs(phi) >= 1.0):
        raise TransformDomainError("bounded symbol escaped the unit ball")

    eta_points = xi_values(phi)
    for i in range(space.n_atoms):
        for t in range(i):
            if np.linalg.norm(eta_points[i] - eta_points[t]) <= MERGE_TOL:
                raise DuplicateSymbolError(
                    f"symbol values at atoms {t} and {i} collide; the "
                    "pushforward would collapse the space"
                )

    new_space = AtomicMeasureSpace(eta_points, space.weights.copy())
    eta = Symbol(new_space, eta_points, frame)

    # The relabeling map pi keeps the atom order, so its matrix is the
    # identity permutation; weights transfer unchanged, making it unitary
    # between the weighted spaces.
    v = QMatrix.identity(space.n_atoms)

    resid = float(np.max(qa.qabs(eta_points - sim.psi.values)))
    bound = 1e-10 * (1.0 + float(np.max(qa.qabs(sim.psi.values))))
    if resid > bound:
        raise TransformDomainError(
            f"xi round trip misses the symbol by {resid:.3e} (bound {bound:.3e})"
        )
    return v, new_space, eta
