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
from .errors import PreconditionError, ShapeError
from .quaternion import Quaternion, SliceFrame

MERGE_TOL = 1e-12
# the 16 ways to move a row to the next grid cell up in some of its 4
# coordinates (see _near_pairs)
_UP = np.array(list(np.ndindex(2, 2, 2, 2)), dtype=bool)


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
        bad = np.flatnonzero(~np.isfinite(self.weights))
        if len(bad):
            raise PreconditionError(f"weight {self.weights[bad[0]]} of atom {bad[0]} is not finite")
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
        return self is other or (
            np.array_equal(self.atoms, other.atoms) and np.array_equal(self.weights, other.weights)
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


def ess_ran(phi: Symbol) -> list[Quaternion]:
    """Distinct symbol values on positive-weight atoms, first-seen order.

    A row is dropped when the norm of its difference to a row already kept
    is <= MERGE_TOL; a NaN row is never a duplicate. One first-seen merge
    (`_first_seen`) decides, in O(N log N) for distinct values.
    """
    rows = phi.values[phi.space.positive()]
    kept, _ = _first_seen(rows, MERGE_TOL)
    return [Quaternion.from_array(row) for row in rows[kept]]


def m_phi_norm(phi: Symbol) -> float:
    """Operator norm of M_phi on the weighted space.

    The largest ratio ||M_phi e_i|| / ||e_i|| over the indicators e_i of the
    positive-weight atoms, all taken with one qmul: the Rayleigh quotient of
    e_i is exactly |phi_i|, so this agrees with ess_sup(phi) to rounding
    while staying a route of its own.
    """
    pos = phi.space.positive()
    values, w = phi.values[pos], phi.space.weights[pos]
    unit = np.zeros_like(values)
    unit[:, 0] = 1.0  # e_i evaluated at its own atom
    ratio = np.sqrt(w * qa.qnorm_sq(qa.qmul(values, unit))) / np.sqrt(w * qa.qnorm_sq(unit))
    return float(np.max(ratio))


def l2_slice_split(f: L2Element, frame: SliceFrame) -> tuple[L2Element, L2Element]:
    """Pointwise split f = F1 + F2 * n with slice-valued F1, F2.

    Norms satisfy ||f||^2 = ||F1||^2 + ||F2||^2.
    """
    c0, c1, c2, c3 = qa.frame_coords(f.values, frame)
    f1, f2 = qa.cm_values(c0 + 1j * c1, frame), qa.cm_values(c2 + 1j * c3, frame)
    return L2Element(f.space, f1), L2Element(f.space, f2)


def pushforward(
    space: AtomicMeasureSpace, fn: Callable[[Quaternion], Quaternion]
) -> AtomicMeasureSpace:
    """Image space: distinct images as atoms, weights summed over preimages.

    fn is called once per bit-identical atom, in first-seen order, and a
    repeated atom reuses the image of its first copy. An image merges into
    the first image kept before it within MERGE_TOL (`_first_seen`); each
    image's weight is the sum of its preimages' weights, added in atom order.
    """
    atoms = np.ascontiguousarray(space.atoms)
    bits = atoms.view(np.dtype((np.void, atoms.itemsize * 4))).ravel()
    _, first, copy_of = np.unique(bits, return_index=True, return_inverse=True)
    seen = np.argsort(first)  # the distinct atoms in first-seen order
    images = np.stack([fn(space.label(i)).to_array() for i in first[seen]])
    images = images[np.argsort(seen)[copy_of.ravel()]]
    kept, index = _first_seen(images, MERGE_TOL)
    weights = space.weights[kept]
    rest = np.ones(space.n_atoms, dtype=bool)
    rest[kept] = False
    np.add.at(weights, index[rest], space.weights[rest])
    return AtomicMeasureSpace(images[kept], weights)


def _first_seen(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """First-seen merge of the rows of an (N, 4) array.

    Walking the rows in order, a row merges into the first row kept before
    it with np.linalg.norm(row - kept) <= tol, and is kept otherwise.
    Returns the ascending indices of the kept rows and, for every row, the
    position in them of the row it merged into (its own when kept).

    Exact duplicates share the fate of their first copy, and a row with a
    NaN or infinite component is never merged, as every norm it takes part
    in is NaN or infinite. Candidate pairs among the distinct finite rows
    come from a grid (`_near_pairs`); only they reach the per-pair norm, so
    N rows further apart than a few tol cost O(N log N) in any layout.
    """
    n = rows.shape[0]
    if not tol >= 0.0:  # no norm is <= a negative or NaN tol
        return np.arange(n), np.arange(n)
    finite = np.flatnonzero(np.all(np.isfinite(rows), axis=1))
    # + 0.0 turns -0.0 into 0.0, so rows equal as numbers sort as one
    x = rows[finite] + 0.0
    order = np.lexsort(x.T[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(x[order[1:]] != x[order[:-1]], axis=1)
    # distinct rows numbered in first-seen order; lexsort is stable, so the
    # first row of each run of equal rows is its first copy
    first = finite[order[new]]
    is_head = np.zeros(n, dtype=bool)
    is_head[first] = True
    heads = np.flatnonzero(is_head)
    rank = np.cumsum(is_head) - 1  # position of a first copy among heads
    group = np.empty(len(order), dtype=np.intp)
    group[order] = rank[first][np.cumsum(new) - 1]

    distinct = rows[heads]
    into = list(range(len(heads)))  # the distinct row each one merges into
    for a, b in _near_pairs(distinct, 2.0 * tol + 1e-160):
        if into[b] == b and into[a] == a:
            if np.linalg.norm(distinct[b] - distinct[a]) <= tol:
                into[b] = a

    target = np.arange(n)
    target[finite] = heads[np.asarray(into, dtype=np.intp)[group]]
    keep = target == np.arange(n)
    return np.flatnonzero(keep), (np.cumsum(keep) - 1)[target]


def _near_pairs(x: np.ndarray, reach: float) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, of finite rows within reach in every coordinate,
    sorted by b and then a.

    A norm <= tol bounds every coordinate of the difference by reach =
    2 tol (plus 1e-160 for squares that underflow). Each row is entered in
    every cell of a grid of side 8 reach that its box of half-width reach
    touches, one or two per coordinate; rows within reach of each other
    share a cell.
    """
    cell = 8.0 * reach
    if np.isfinite(cell):
        lo, hi = np.floor((x - reach) / cell), np.floor((x + reach) / cell)
    else:
        lo = hi = np.zeros_like(x)
    # row p enters cell where(up, hi, lo) for every pattern up that moves
    # only coordinates in which its box spills into the next cell
    pattern, points = np.nonzero(np.all(~_UP[:, None, :] | (hi != lo), axis=2))
    keys = np.where(_UP[pattern], hi[points], lo[points])
    order = np.lexsort(keys.T[::-1])
    points, keys = points[order], keys[order]
    start = np.ones(len(keys), dtype=bool)
    start[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    cell_id = np.cumsum(start)
    pairs = []
    for d in range(1, len(points)):
        same = np.flatnonzero(cell_id[d:] == cell_id[:-d])
        if not len(same):
            break
        a, b = points[same], points[same + d]
        pairs.append((np.minimum(a, b), np.maximum(a, b)))
    if not pairs:
        return []
    a, b = (np.concatenate(side) for side in zip(*pairs))
    near = np.all(np.abs(x[a] - x[b]) <= reach, axis=1)
    order = np.lexsort((a[near], b[near]))
    a, b = a[near][order], b[near][order]
    fresh = np.ones(len(a), dtype=bool)  # rows sharing several cells pair once
    fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return list(zip(a[fresh].tolist(), b[fresh].tolist()))
