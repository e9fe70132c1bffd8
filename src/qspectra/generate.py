"""Seeded random data for the selftest harness and the tests.

Everything here is driven by numpy Generators, so a seed pins the inputs
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from . import vectors as vec
from .operators import QMatrix
from .quaternion import Quaternion, SliceFrame

MATRIX_CLASSES = ("normal", "antiSelfAdjoint", "unitary", "real")


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    return Quaternion.from_array(rng.normal(0.0, scale, size=4))


def random_unit_imaginary(rng: np.random.Generator) -> Quaternion:
    while True:
        v = rng.normal(0.0, 1.0, size=3)
        r = float(np.linalg.norm(v))
        if r > 1e-3:
            return Quaternion(0.0, v[0] / r, v[1] / r, v[2] / r)


def random_frame(rng: np.random.Generator) -> SliceFrame:
    return SliceFrame.from_m(random_unit_imaginary(rng))


def random_qvector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, scale, size=(n, 4))


def random_unitary(rng: np.random.Generator, n: int) -> QMatrix:
    cols = vec.gram_schmidt([random_qvector(rng, n) for _ in range(n)])
    return QMatrix.from_columns(cols)


def random_standard_values(
    rng: np.random.Generator,
    n: int,
    frame: SliceFrame,
    kind: str = "normal",
    scale: float = 1.0,
    min_modulus: float = 0.0,
) -> list[Quaternion]:
    """Standard eigenvalues in the closed upper half slice C_m+."""
    if kind not in MATRIX_CLASSES:
        raise ValueError(f"unknown matrix class {kind!r}; expected one of {MATRIX_CLASSES}")
    values = []
    while len(values) < n:
        if kind == "normal":
            alpha = rng.uniform(-scale, scale)
            beta = rng.uniform(0.0, scale)
        elif kind == "antiSelfAdjoint":
            alpha = 0.0
            beta = rng.uniform(0.0, scale)
        elif kind == "unitary":
            theta = rng.uniform(0.0, np.pi)
            alpha, beta = np.cos(theta), np.sin(theta)
        else:  # real
            alpha = rng.uniform(-scale, scale)
            beta = 0.0
        q = Quaternion(alpha) + frame.m * beta
        if abs(q) >= min_modulus:
            values.append(q)
    return values


def random_normal(
    rng: np.random.Generator,
    n: int,
    frame: SliceFrame,
    kind: str = "normal",
    scale: float = 1.0,
    min_modulus: float = 0.0,
) -> QMatrix:
    """V diag(d) V* for a random unitary V and random d in C_m+."""
    d = random_standard_values(rng, n, frame, kind, scale, min_modulus)
    v = random_unitary(rng, n)
    return v @ QMatrix.diag(d) @ v.H
