"""Right-linear operators on H^n stored as quaternion matrices.

Entries left-multiply coordinates, (A x)_i = sum_j A[i, j] * x_j, and vector
coefficients right-multiply; this is the unique assignment under which a
matrix commutes with the right scalar action.
"""

from __future__ import annotations

import numpy as np

from . import qarray as qa
from .errors import PreconditionError, ShapeError
from .quaternion import Quaternion


class QMatrix:
    """Quaternion matrix wrapping an (m, n, 4) float64 component array."""

    __slots__ = ("a", "__weakref__")

    def __init__(self, a):
        a = qa.qarr(a)
        if a.ndim != 3:
            raise ShapeError(f"expected an (m, n, 4) array, got shape {a.shape}")
        self.a = a

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        """Read-only identity in O(n) memory: entry (i, j) is row n - i + j
        of a (2n + 1, 4) buffer whose middle row is the real 1."""
        rows = np.zeros((2 * n + 1, 4))
        rows[n, 0] = 1.0
        step, comp = rows.strides
        return cls(
            np.lib.stride_tricks.as_strided(
                rows[n:], (n, n, 4), (-step, step, comp), writeable=False
            )
        )

    @classmethod
    def from_complex_adjoint(cls, f: np.ndarray) -> "QMatrix":
        """The matrix whose complex adjoint is f, read off its top block row
        [F11, F12] as from_pair(F11, -F12)."""
        n = f.shape[1] // 2
        return cls(qa.from_pair(f[:n, :n], -f[:n, n:]))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols, 4), dtype=np.float64))

    @classmethod
    def diag(cls, values) -> "QMatrix":
        if isinstance(values, (list, tuple)) and values and isinstance(values[0], Quaternion):
            values = np.stack([q.to_array() for q in values], axis=0)
        values = qa.qarr(values)
        if values.ndim != 2:
            raise ShapeError("diagonal expects an (n, 4) array of values")
        out = np.zeros((len(values), *values.shape))
        out[np.arange(len(values)), np.arange(len(values))] = values
        return cls(out)

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        """Matrix from rows of Quaternion entries, the API-boundary constructor."""
        data = np.stack(
            [np.stack([q.to_array() for q in row], axis=0) for row in rows], axis=0
        )
        return cls(data)

    @classmethod
    def from_columns(cls, cols) -> "QMatrix":
        data = np.stack([qa.qarr(c) for c in cols], axis=1)
        return cls(data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[0], self.a.shape[1]

    @property
    def n(self) -> int:
        rows, cols = self.shape
        if rows != cols:
            raise ShapeError(f"matrix is not square: {self.shape}")
        return rows

    def entry(self, i: int, j: int) -> Quaternion:
        """Entry (i, j) as a Quaternion, the API-boundary accessor."""
        return Quaternion.from_array(self.a[i, j])

    @property
    def H(self) -> "QMatrix":
        """Adjoint: (A*)_ij = conj(A_ji), so <x|Ay> = <A*x|y>."""
        return QMatrix(qa.qconj(np.swapaxes(self.a, 0, 1)))

    def apply(self, x) -> np.ndarray:
        x = qa.qarr(x)
        if x.ndim != 2 or x.shape[0] != self.a.shape[1]:
            raise ShapeError(f"vector shape {x.shape} does not match matrix {self.shape}")
        return qa.qmatmul(self.a, x)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.a.shape[1] != other.a.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return QMatrix(qa.qmatmul(self.a, other.a))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a + other.a)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a - other.a)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.a)

    def __mul__(self, scalar) -> "QMatrix":
        return QMatrix(self.a * float(scalar))

    __rmul__ = __mul__

    def frobenius(self) -> float:
        return qa.fro(self.a)

    def to_complex_adjoint(self) -> np.ndarray:
        return qa.to_complex_adjoint(self.a)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.to_complex_adjoint(), compute_uv=False)

    def op_norm(self) -> float:
        """Largest singular value; equals sup ||Ax|| / ||x||."""
        return float(self.singular_values()[0])

    def is_normal(self) -> bool:
        """Whether A passes qa.normality; False, not an error, if it overflows."""
        return qa.is_normal(self.to_complex_adjoint(), np.sqrt(2.0))

    def check_finite(self) -> None:
        finite = np.isfinite(self.a)
        if finite.all():  # one flat pass; the per-entry reduction is 15x slower
            return
        i, j = np.argwhere(~finite.all(axis=-1))[0]
        raise PreconditionError(f"matrix entry ({i}, {j}) is not finite")

    def __repr__(self):
        rows, cols = self.shape
        return f"QMatrix({rows}x{cols})"


def delta(a: QMatrix, q: Quaternion) -> QMatrix:
    """A**2 - A*(q + conj q) + I*|q|**2; both coefficients are real scalars.

    Depends on q only through its similarity orbit, and q in the spherical
    spectrum of a normal A is detected by sigma_min(delta(A, q)) collapsing.
    """
    n = a.n
    return (a @ a) - (2.0 * q.re) * a + (q.norm_sq()) * QMatrix.identity(n)
