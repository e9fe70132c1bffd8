"""Bounded transform Z = T (I + T*T)^(-1/2), its inverse, and the unbounded
multiplication form emulated on truncated atomic spaces.

Both maps and the square root (I + A*A)^(1/2) are functions of the singular
values on the singular vectors of one SVD of the input's complex adjoint,
never Newton iterations, so every path stays deterministic and ||Z|| <= 1
holds up to rounding at any scale. ||Z|| is read once, off the SVD of Z's
adjoint that bounded_transform keeps and the inverse maps, so no Z is
factored twice. A check that reads only a Z (Z_{A*}, Z_T, z_extension_check)
takes it off one SVD, ungated: hypot(1, s) >= s, so s / hypot(1, s) <= 1, and
u, vh are unitary to O(N eps), so ||Z|| <= 1 + O(N eps) < 1 + 1e-12, the
transform.contraction bound, for N <= 256. Results are assembled as complex
adjoint matrices and read back as quaternion matrices from their top block row.

The scalar radial maps

    xi(p)     = p (1 - |p|^2)^(-1/2)        (unit ball -> everything)
    xi_inv(p) = p (1 + |p|^2)^(-1/2)        (everything -> unit ball)

compute their radial factor in double-double arithmetic: near the unit
sphere 1 - |p|^2 falls below double significance, so the squares are taken
exactly (Dekker's TwoProd) and summed error-free (Ogita-Rump-Oishi TwoSum),
and a Newton step gives the factor to within 1 ulp, leaving input
representation as the only error source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from .bridge import CMatrix
from .errors import (
    DuplicateSymbolError,
    PreconditionError,
    ShapeError,
    TransformDomainError,
)
from .measure import MERGE_TOL, AtomicMeasureSpace, Symbol, _first_seen
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame
from .report import Check, check_from, require, scaled_check
from .slices import SliceStructure, extend

INVERSE_GUARD = 1e-8

_SPLIT = 2.0**27 + 1.0  # Dekker's splitting constant for doubles


@dataclass
class BoundedTransform:
    """Z = A (I + A*A)^(-1/2), the check ||Z|| <= 1 + 1e-12 it passed
    (transform.contraction), the check ||Z (I + A*A)^(1/2) - A||_F <= c ||A||_F
    it reports but does not enforce (transform.defining_residual), Z's complex
    adjoint as the SVD of A's gave it, ||A|| = s[0] of that SVD, and the SVD
    (u, s, vh) of Z's adjoint."""

    contraction: Check
    residual: Check
    adjoint: np.ndarray
    a_norm: float
    svd: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def Z(self) -> QMatrix:
        return QMatrix.from_complex_adjoint(self.adjoint)


@dataclass
class UnboundedSim:
    """Multiplication operator with unbounded-scale symbol on a truncation."""

    psi: Symbol

    @classmethod
    def from_symbol(cls, psi: Symbol) -> "UnboundedSim":
        return cls(psi)


def _adjoint(a: QMatrix) -> np.ndarray:
    """The complex adjoint of a finite input."""
    a.check_finite()
    return a.to_complex_adjoint()


def _contract(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z's complex adjoint u diag(s / sqrt(1 + s^2)) vh, s and vh, off one
    SVD u diag(s) vh of T's complex adjoint x; ||T|| = s[0]."""
    u, s, vh = np.linalg.svd(x)
    return (u * (s / np.hypot(1.0, s))) @ vh, s, vh


def bounded_transform(a: QMatrix) -> BoundedTransform:
    """Contractive image of a matrix; normal input gives normal output.

    With A = u diag(s) vh, Z = u diag(s / sqrt(1 + s^2)) vh and
    (I + A*A)^(1/2) = vh* diag(sqrt(1 + s^2)) vh.
    """
    return _bounded(_adjoint(a))


def _bounded(x: np.ndarray) -> BoundedTransform:
    """bounded_transform of the A whose complex adjoint is x."""
    z, s, vh = _contract(x)
    half = (np.conj(vh.T) * np.hypot(1.0, s)) @ vh

    svd = np.linalg.svd(z)
    contraction = scaled_check("transform.contraction", svd[1][0], 1.0)
    require(contraction, TransformDomainError)
    residual = scaled_check("transform.defining_residual", qa.chi_fro(z @ half - x), qa.chi_fro(x))
    return BoundedTransform(contraction, residual, z, float(s[0]), svd)


def _inverse(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """T = u diag(s / sqrt(1 - s^2)) vh for Z = u diag(s) vh, on complex
    adjoints. Rejected when ||Z|| = s[0] >= 1 - INVERSE_GUARD: the
    reconstruction conditioning (1 - ||Z||^2)^(-1/2) makes anything closer
    numerically unrecoverable; it also keeps I - Z*Z >= 1e-8."""
    if s[0] >= 1.0 - INVERSE_GUARD:
        raise TransformDomainError(f"||Z|| = {s[0]:.12f} is within {INVERSE_GUARD:.0e} of 1")
    return (u * (s / np.sqrt((1.0 - s) * (1.0 + s)))) @ vh


def inverse_transform(z: QMatrix) -> QMatrix:
    """Recover T from Z = Z_T via T = Z (I - Z*Z)^(-1/2), off one SVD of Z;
    rejected when ||Z|| >= 1 - 1e-8."""
    return QMatrix.from_complex_adjoint(_inverse(*np.linalg.svd(_adjoint(z))))


def transform_checks(a: QMatrix) -> list[Check]:
    """The checks of `qspectra transform`, on the complex adjoints the SVDs
    give, each c its coefficient in report.BOUNDS: bounded_transform's
    contraction (first; its residual is ||Z||) and defining_residual;
    star_compatible, ||Z_{A*} - Z*||_F <= err = c ||A||_F; round_trip,
    ||inverse(Z) - A||_F <= c (1 + ||A||^2), if ||Z|| < 1 - INVERSE_GUARD, off
    the SVD that ||Z|| came from; and, if A is normal, normal_preserved,
    ||ZZ* - Z*Z||_F within qa.normality's bound plus 2 (1 + ||Z||) err:
    Z = Z0 + E with Z0 the exact, normal transform, ||Z0|| <= 1 and
    ||E||_F <= err, and ZZ* - Z*Z = ZE* + EZ0* - Z*E - E*Z0. All read A's
    complex adjoint x, built once. Z_{A*}, off one SVD u diag(s) vh of x*, is
    ungated: s / hypot(1, s) <= 1 and u, vh are unitary to O(N eps), so
    ||Z_{A*}|| <= 1 + O(N eps) < 1 + 1e-12 for N = 2n <= 256."""
    x = _adjoint(a)
    bt = _bounded(x)
    z, z_norm = bt.adjoint, bt.contraction.residual
    star_err = qa.chi_fro(_contract(np.conj(x.T))[0] - np.conj(z.T))
    star = scaled_check("transform.star_compatible", star_err, qa.chi_fro(x))
    checks = [bt.contraction, bt.residual, star]
    if z_norm < 1.0 - INVERSE_GUARD:
        back = qa.chi_fro(_inverse(*bt.svd) - x)
        checks.append(scaled_check("transform.round_trip", back, 1.0 + bt.a_norm**2))
    if qa.is_normal(x, np.sqrt(2.0)):
        normal = qa.normality(z, np.sqrt(2.0))
        tol = normal.tol + 2.0 * (1.0 + z_norm) * star.tol
        checks.append(check_from("transform.normal_preserved", normal.residual, tol))
    return checks


def inverse_checks(z: QMatrix) -> tuple[list[Check], float]:
    """The check of `qspectra transform --inverse`, ||Z_T - Z||_F <=
    c (1 + ||T||^2) for T = inverse_transform(Z), c in report.BOUNDS, and ||Z||,
    both off one SVD of Z. Z_T and ||T||, off one SVD of T, are ungated as
    Z_{A*} is in transform_checks: ||Z_T|| <= 1 + O(N eps) < 1 + 1e-12.
    T is read back through QMatrix, as inverse_transform returns it: the raw
    inverse's lower block is conj of its upper only to rounding."""
    x = _adjoint(z)
    u, s, vh = np.linalg.svd(x)
    z_t, s_t, _ = _contract(QMatrix.from_complex_adjoint(_inverse(u, s, vh)).to_complex_adjoint())
    back = scaled_check("transform.inverse_round_trip", qa.chi_fro(z_t - x), 1.0 + s_t[0] ** 2)
    return [back], float(s[0])


def z_extension_check(t_plus: CMatrix, s: SliceStructure) -> float:
    """Residual between the two orders of transform and extension."""
    z_plus = QMatrix.from_complex_adjoint(_contract(_adjoint(QMatrix(t_plus.data)))[0])
    z_ext = QMatrix.from_complex_adjoint(_contract(_adjoint(extend(t_plus, s)))[0])
    return (z_ext - extend(CMatrix(z_plus.a, s.frame), s)).frobenius()


def _two_sum(a, b):
    """s + err = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """p + err = a b exactly (Dekker's TwoProd), barring overflow and underflow."""
    p = a * b
    ta, tb = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = ta - (ta - a), tb - (tb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _radial_factor(values: np.ndarray, sign: float) -> np.ndarray:
    """(1 + sign |p|^2)^(-1/2) for every row p, within 1 ulp."""
    if not np.all(np.isfinite(values)):
        raise PreconditionError("radial map input has non-finite components")
    # p = 2^e s with max |s_i| < 1, so no square overflows; below 2^-64 the
    # squares cannot reach the rounding of 1.
    e = np.maximum(np.frexp(np.max(np.abs(values), axis=1))[1], -64)
    s = np.ldexp(values, -e[:, None])
    # 2^(-2e) (1 + sign |p|^2) as nine exact terms, distilled twice (SumK, K = 3).
    terms = [np.ldexp(1.0, -2 * e)]
    for c in s.T:
        terms += [sign * t for t in _two_prod(c, c)]
    for _ in range(2):
        for i in range(1, len(terms)):
            terms[i], terms[i - 1] = _two_sum(terms[i], terms[i - 1])
    hi, lo = _two_sum(terms[-1], sum(terms[:-1]))
    if np.any(hi <= 0.0):
        raise TransformDomainError("xi needs |p| < 1")
    # Newton step from y = hi^(-1/2) with r = 1 - (hi + lo) y^2; the 3r^2/8
    # term decides factors just past a rounding midpoint (|p| = 1 - 2^-51).
    y = 1.0 / np.sqrt(hi)
    y2, y2_err = _two_prod(y, y)
    h, h_err = _two_prod(hi, y2)
    r = (1.0 - h) - h_err - hi * y2_err - lo * y2
    return np.ldexp(y + y * (0.5 * r + 0.375 * r * r), -e)


def xi_values(values: np.ndarray) -> np.ndarray:
    """xi(p) = p (1 - |p|^2)^(-1/2) entrywise; requires |p| < 1."""
    values = qa.qarr(values)
    return values * _radial_factor(values, -1.0)[:, None]


def xi_inv_values(values: np.ndarray) -> np.ndarray:
    """xi_inv(p) = p (1 + |p|^2)^(-1/2) entrywise; lands in the open ball."""
    values = qa.qarr(values)
    return values * _radial_factor(values, 1.0)[:, None]


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
    unitary V could exist -- so the first atom i within MERGE_TOL of an
    earlier atom t raises DuplicateSymbolError naming (t, i); the
    pushforward's first-seen merge finds it in O(N log N). V is the
    identity, held in O(N) memory (`QMatrix.identity`).
    """
    if sim.psi.frame != frame:
        raise ShapeError("symbol frame does not match the requested frame")
    space = sim.psi.space
    if np.any(space.weights <= 0.0):
        raise DuplicateSymbolError(
            "unbounded form needs strictly positive weights (zero-weight atoms "
            "have no L2 content to carry through the pushforward)"
        )

    phi = xi_inv_values(sim.psi.values)
    if np.any(qa.qabs(phi) >= 1.0):
        raise TransformDomainError("bounded symbol escaped the unit ball")

    eta_points = xi_values(phi)
    kept, index = _first_seen(eta_points, MERGE_TOL)
    if len(kept) < space.n_atoms:
        # the first merged atom i; every atom before it is kept, so t is
        # the first atom within MERGE_TOL of it
        i = int(np.flatnonzero(kept[index] != np.arange(space.n_atoms))[0])
        t = int(kept[index[i]])
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
    scale = 1.0 + float(np.max(qa.qabs(sim.psi.values)))
    require(scaled_check("transform.xi_round_trip", resid, scale), TransformDomainError)
    return v, new_space, eta
