"""Finite atomic measure spaces, weighted L2 spaces of quaternion-valued
functions, multiplication operators, and the slice direct-sum split.

Weights live in the inner product, not in the stored values, so a
multiplication operator is literally pointwise. Essential suprema and ranges
ignore atoms of zero weight; that is the standard measure-theoretic meaning
specialized to atomic measures and the only one under which the operator
norm of a multiplication operator equals the essential supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qarray as qa
from .errors import ShapeError
from .quaternion import Quaternion, SliceFrame

MERGE_TOL = 1e-12


@dataclass
class AtomicMeasureSpace:
    """Weighted atoms; labels are quaternion points (real or slice-valued)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = qa.qarr(self.atoms)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.atoms.ndim != 2 or self.weights.ndim != 1:
            raise ShapeError("atoms must be (N, 4) and weights (N,)")
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise ShapeError("atom and weight counts differ")
        if np.any(self.weights < 0.0):
            raise ShapeError("weights must be >= 0")
        if not np.any(self.weights > 0.0):
            raise ShapeError("at least one weight must be positive")

    @classmethod
    def counting(cls, n: int) -> "AtomicMeasureSpace":
        """Unit weights on real integer labels 1..n."""
        atoms = np.zeros((n, 4), dtype=np.float64)
        atoms[:, 0] = np.arange(1, n + 1, dtype=np.float64)
        return cls(atoms, np.ones(n, dtype=np.float64))

    @classmethod
    def from_labels(cls, labels, weights=None) -> "AtomicMeasureSpace":
        atoms = np.stack([q.to_array() for q in labels], axis=0)
        if weights is None:
            weights = np.ones(len(labels), dtype=np.float64)
        return cls(atoms, np.asarray(weights, dtype=np.float64))

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def label(self, i: int) -> Quaternion:
        return Quaternion.from_array(self.atoms[i])

    def positive(self) -> np.ndarray:
        return self.weights > 0.0

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def same_as(self, other: "AtomicMeasureSpace") -> bool:
        return (
            self is other
            or (
                self.atoms.shape == other.atoms.shape
                and np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.weights, other.weights)
            )
        )


def _check_space(a, b) -> None:
    if not a.same_as(b):
        raise ShapeError("operands live on different measure spaces")


@dataclass
class L2Element:
    """Square-summable quaternion-valued function on an atomic space."""

    space: AtomicMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = qa.qarr(self.values)
        if self.values.shape != (self.space.n_atoms, 4):
            raise ShapeError(
                f"values shape {self.values.shape} does not match {self.space.n_atoms} atoms"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.space.weights * qa.qnorm_sq(self.values))))

    def __add__(self, other: "L2Element") -> "L2Element":
        _check_space(self.space, other.space)
        return L2Element(self.space, self.values + other.values)

    def __sub__(self, other: "L2Element") -> "L2Element":
        _check_space(self.space, other.space)
        return L2Element(self.space, self.values - other.values)

    def scale_right(self, q: Quaternion) -> "L2Element":
        return L2Element(self.space, qa.qscale_right(self.values, q))


@dataclass
class Symbol:
    """Slice-valued multiplier on an atomic space."""

    space: AtomicMeasureSpace
    values: np.ndarray
    frame: SliceFrame

    def __post_init__(self):
        self.values = qa.qarr(self.values)
        if self.values.shape != (self.space.n_atoms, 4):
            raise ShapeError("symbol values must give one slice value per atom")
        qa.slice_coords(self.values, self.frame)  # raises when off the slice

    @classmethod
    def from_values(cls, space, values, frame) -> "Symbol":
        data = np.stack([q.to_array() for q in values], axis=0)
        return cls(space, data, frame)

    def value(self, i: int) -> Quaternion:
        return Quaternion.from_array(self.values[i])

    def moduli(self) -> np.ndarray:
        return qa.qabs(self.values)


def l2_inner(f: L2Element, g: L2Element) -> Quaternion:
    """<f|g> = sum_i w_i conj(f_i) g_i."""
    _check_space(f.space, g.space)
    prods = qa.qmul(qa.qconj(f.values), g.values)
    return qa.to_quaternion(np.sum(f.space.weights[:, None] * prods, axis=0))


def m_phi(phi: Symbol, g: L2Element) -> L2Element:
    """Pointwise left multiplication (M_phi g)(x) = phi(x) g(x)."""
    _check_space(phi.space, g.space)
    return L2Element(g.space, qa.qmul(phi.values, g.values))


def ess_sup(phi: Symbol) -> float:
    """max |phi| over atoms of strictly positive weight."""
    pos = phi.space.positive()
    return float(np.max(phi.moduli()[pos]))


def ess_ran(phi: Symbol, dedup_tol: float = MERGE_TOL) -> list[Quaternion]:
    """Distinct symbol values on positive-weight atoms, first-seen order.

    A row is dropped when it lies within dedup_tol of a row already kept.
    The vectorised distances round differently from the norm of one
    difference by an ulp, so they only pick the candidates; the per-row norm
    decides, and a NaN row is never a duplicate.
    """
    rows = phi.values[phi.space.positive()]
    kept = np.empty_like(rows)
    count = 0
    for row in rows:
        dist = np.linalg.norm(kept[:count] - row, axis=1)
        close = kept[:count][dist <= 2.0 * dedup_tol]
        if not any(np.linalg.norm(row - seen) <= dedup_tol for seen in close):
            kept[count] = row
            count += 1
    return [Quaternion.from_array(row) for row in kept[:count]]


def m_phi_norm(phi: Symbol) -> float:
    """Operator norm of M_phi on the weighted space.

    Computed from the action on atom indicators, for which the Rayleigh
    quotient is exactly |phi_i|; agrees with ess_sup(phi) to rounding.
    """
    pos = np.flatnonzero(phi.space.positive())
    best = 0.0
    for i in pos:
        e_i = np.zeros((phi.space.n_atoms, 4), dtype=np.float64)
        e_i[i, 0] = 1.0
        f = L2Element(phi.space, e_i)
        best = max(best, m_phi(phi, f).norm() / f.norm())
    return best


def l2_slice_split(f: L2Element, frame: SliceFrame) -> tuple[L2Element, L2Element]:
    """Pointwise split f = F1 + F2 * n with slice-valued F1, F2.

    Norms satisfy ||f||^2 = ||F1||^2 + ||F2||^2.
    """
    c0, c1, c2, c3 = qa.frame_coords(f.values, frame)
    zero = np.zeros_like(c0)
    f1 = qa.from_frame_coords(c0, c1, zero, zero, frame)
    f2 = qa.from_frame_coords(c2, c3, zero, zero, frame)
    return L2Element(f.space, f1), L2Element(f.space, f2)


def pushforward(
    space: AtomicMeasureSpace,
    fn: Callable[[Quaternion], Quaternion],
    merge_tol: float = MERGE_TOL,
) -> AtomicMeasureSpace:
    """Image space: distinct images as atoms, weights summed over preimages."""
    space_images, weights = _pushforward_with_map(space, fn, merge_tol)[:2]
    return AtomicMeasureSpace(space_images, weights)


def _pushforward_with_map(
    space: AtomicMeasureSpace,
    fn: Callable[[Quaternion], Quaternion],
    merge_tol: float = MERGE_TOL,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Image atoms, image weights, and the atom -> image index map."""
    images: list[np.ndarray] = []
    weights: list[float] = []
    index_map: list[int] = []
    for i in range(space.n_atoms):
        img = fn(space.label(i)).to_array()
        hit = None
        for t, seen in enumerate(images):
            if np.linalg.norm(img - seen) <= merge_tol:
                hit = t
                break
        if hit is None:
            images.append(img)
            weights.append(float(space.weights[i]))
            index_map.append(len(images) - 1)
        else:
            weights[hit] += float(space.weights[i])
            index_map.append(hit)
    return np.stack(images, axis=0), np.asarray(weights), index_map
