"""Scalar quaternion algebra: Hamilton products, slices C_m, frames, orbits.

Conventions used throughout the package:

* components are float64 reals (w, x, y, z) against the basis (1, i, j, k)
  with i**2 = j**2 = k**2 = i*j*k = -1;
* a slice C_m is the real span of {1, m} for a unit imaginary m, and a slice
  frame (m, n, mn) is an anticommuting pair m, n with mn = m*n exactly, so
  {1, m, n, mn} is an orthonormal real basis of the quaternions;
* DEFAULT_TOL = 1e-10 is the absolute tolerance of the frame axes only: a
  unit imaginary m or n, their orthogonality, mn = m*n and m n = -n m; every
  other check states its own bound where its residual is measured.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FrameError

DEFAULT_TOL = 1e-10
CM_MEMBERSHIP_TOL = 1e-12

# Seed-axis switch for deterministic frame completion: take i unless the
# imaginary direction of m is within 0.9 of it, else take j.
_SEED_SWITCH = 0.9


class Quaternion:
    """Immutable-by-convention quaternion w + x*i + y*j + z*k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    @property
    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other, self.y / other, self.z / other)
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Quaternion(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def real_dot(a: Quaternion, b: Quaternion) -> float:
    """Euclidean pairing re(conj(a)*b) under which {1, i, j, k} is orthonormal."""
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def check_unit_imaginary(q: Quaternion) -> None:
    # written so that a NaN component, for which every comparison is False, fails
    if not (abs(q.re) <= DEFAULT_TOL and abs(abs(q) - 1.0) <= DEFAULT_TOL):
        raise FrameError(f"{q!r} is not a unit imaginary quaternion")


class SliceFrame:
    """A slice frame (m, n, mn): anticommuting unit imaginaries with mn = m*n."""

    __slots__ = ("m", "n", "mn")

    def __init__(self, m: Quaternion, n: Quaternion, mn: Quaternion | None = None):
        check_unit_imaginary(m)
        check_unit_imaginary(n)
        if abs(real_dot(m, n)) > DEFAULT_TOL:
            raise FrameError("frame axes m and n are not orthogonal")
        product = m * n
        if mn is None:
            mn = product
        elif abs(mn - product) > DEFAULT_TOL:
            raise FrameError("mn entry does not equal m*n")
        anti = m * n + n * m
        if abs(anti) > DEFAULT_TOL:
            raise FrameError("frame axes do not anticommute")
        self.m = m
        self.n = n
        self.mn = mn

    @classmethod
    def from_m(cls, m: Quaternion) -> "SliceFrame":
        """Deterministic completion of m to a frame.

        Seed axis is i unless |<im(m), i>| >= 0.9 (then j); n is the
        normalized Gram-Schmidt remainder of the seed against m. Equal
        inputs give bit-equal frames.
        """
        check_unit_imaginary(m)
        seed = I if abs(m.x) < _SEED_SWITCH else J
        proj = real_dot(seed, m)
        rem = seed - m * proj
        n = rem / abs(rem)
        return cls(m, n, m * n)

    def basis(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return ONE, self.m, self.n, self.mn

    def __eq__(self, other):
        if not isinstance(other, SliceFrame):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.mn == other.mn

    def __hash__(self):
        return hash((self.m, self.n, self.mn))

    def __repr__(self):
        return f"SliceFrame(m={self.m!r}, n={self.n!r}, mn={self.mn!r})"


STANDARD_FRAME = SliceFrame(I, J, K)


def slice_split(q: Quaternion, frame: SliceFrame) -> tuple[Quaternion, Quaternion]:
    """Write q = a + b*n with a, b in the slice C_m of the frame."""
    a = complex_to_cm(complex(q.w, real_dot(frame.m, q)), frame)
    return a, complex_to_cm(complex(real_dot(frame.n, q), real_dot(frame.mn, q)), frame)


def slice_join(a: Quaternion, b: Quaternion, frame: SliceFrame) -> Quaternion:
    return a + b * frame.n


def in_slice(q: Quaternion, frame: SliceFrame, tol: float = CM_MEMBERSHIP_TOL) -> bool:
    """Membership in C_m: components along n and mn below tolerance."""
    return abs(real_dot(frame.n, q)) <= tol and abs(real_dot(frame.mn, q)) <= tol


def cm_to_complex(q: Quaternion, frame: SliceFrame) -> complex:
    """Coordinates of a C_m value against {1, m}, as a complex number."""
    return complex(q.w, real_dot(frame.m, q))


def complex_to_cm(c: complex, frame: SliceFrame) -> Quaternion:
    return Quaternion(c.real) + frame.m * c.imag


class SimilarityOrbit:
    """The conjugation orbit of a quaternion: fixed real part and |imaginary|.

    A 2-sphere in general, degenerating to a single point when im_norm = 0.
    """

    __slots__ = ("re", "im_norm")

    def __init__(self, re: float, im_norm: float):
        if im_norm < 0.0:
            raise ValueError("orbit imaginary radius must be >= 0")
        self.re = float(re)
        self.im_norm = float(im_norm)

    def contains(self, p: Quaternion, tol: float) -> bool:
        if tol < 0.0:
            raise ValueError("tolerance must be >= 0")
        return abs(p.re - self.re) <= tol and abs(p.im_norm() - self.im_norm) <= tol

    def representative(self, frame: SliceFrame) -> Quaternion:
        """The unique representative in the closed upper half slice C_m+, where
        the theorem's phi takes its values."""
        return Quaternion(self.re) + frame.m * self.im_norm

    def __eq__(self, other):
        if not isinstance(other, SimilarityOrbit):
            return NotImplemented
        return self.re == other.re and self.im_norm == other.im_norm

    def __hash__(self):
        return hash((self.re, self.im_norm))

    def __repr__(self):
        return f"SimilarityOrbit(re={self.re!r}, im_norm={self.im_norm!r})"


def orbit_of(q: Quaternion) -> SimilarityOrbit:
    return SimilarityOrbit(q.re, q.im_norm())
