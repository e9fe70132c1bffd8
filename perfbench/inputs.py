"""Seeded benchmark inputs, built with numpy alone.

The generator does not use qspectra, so a change to the package under test
cannot change the inputs. Quaternion matrices are held as complex pairs
Q = Q1 + Q2 j and written as (n, n, 4) arrays of (w, x, y, z); the same seed
gives byte-identical files on the same machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MATRIX_CLASSES = ("normal", "antiSelfAdjoint", "unitary", "real")


def rng(seed: int, *stream) -> np.random.Generator:
    """An independent stream per (seed, workload tag, index, ...)."""
    return np.random.default_rng([seed, *stream])


def unit_imaginary(g: np.random.Generator) -> np.ndarray:
    v = g.normal(size=3)
    return v / np.linalg.norm(v)


def qmatmul(a, b):
    """(A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j."""
    a1, a2 = a
    b1, b2 = b
    return a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1)


def qadjoint(a):
    a1, a2 = a
    return np.conj(a1.T), -a2.T


def random_unitary(g: np.random.Generator, n: int):
    """Polar factor of a Gaussian quaternion matrix, taken on its complex
    adjoint [[Q1, Q2], [-conj(Q2), conj(Q1)]], which keeps that structure."""
    g1 = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    g2 = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    adj = np.block([[g1, g2], [-np.conj(g2), np.conj(g1)]])
    u, _, vh = np.linalg.svd(adj)
    polar = u @ vh
    return polar[:n, :n], polar[:n, n:]


def standard_values(g: np.random.Generator, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of standard eigenvalues alpha + beta m with beta >= 0."""
    if kind == "normal":
        return g.uniform(-1.0, 1.0, n), g.uniform(0.0, 1.0, n)
    if kind == "antiSelfAdjoint":
        return np.zeros(n), g.uniform(0.0, 1.0, n)
    if kind == "unitary":
        theta = g.uniform(0.0, math.pi, n)
        return np.cos(theta), np.sin(theta)
    if kind == "real":
        return g.uniform(-1.0, 1.0, n), np.zeros(n)
    raise ValueError(f"unknown matrix class {kind!r}")


@dataclass
class NormalInput:
    """A normal matrix V diag(alpha + beta m) V* and its known spectrum."""

    entries: np.ndarray  # (n, n, 4)
    m: np.ndarray  # unit imaginary axis (x, y, z)
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def frame_text(self) -> str:
        return ",".join(repr(float(c)) for c in (0.0, *self.m))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "entries": self.entries.tolist()})

    def write(self, path: Path) -> None:
        path.write_text(self.to_json(), encoding="utf-8")

    def op_norm(self) -> float:
        return float(np.max(np.hypot(self.alpha, self.beta)))


def normal_input(
    g: np.random.Generator, n: int, kind: str, scale: float = 1.0, gap: float | None = None
) -> NormalInput:
    """Seeded normal matrix; `gap` pulls eigenvalue 1 to within `gap` of 0."""
    m = unit_imaginary(g)
    alpha, beta = standard_values(g, n, kind)
    if gap is not None:
        alpha[1], beta[1] = alpha[0] + gap, beta[0]
    alpha, beta = scale * alpha, scale * beta
    # alpha + beta m as a complex pair: (alpha + beta m_x i) + beta (m_y + m_z i) j.
    d1 = alpha + 1j * beta * m[0]
    d2 = beta * (m[1] + 1j * m[2])
    v = random_unitary(g, n)
    a1, a2 = qmatmul(qmatmul(v, (np.diag(d1), np.diag(d2))), qadjoint(v))
    entries = np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)
    return NormalInput(entries, m, alpha, beta)


def spectrum_gap(inp: NormalInput, phi) -> float:
    """Two-sided distance between the report's symbol values and the known
    eigenvalues alpha + beta m, as a share of ||A||."""
    q = np.asarray(phi, dtype=np.float64)
    if q.shape != (inp.n, 4):
        return math.inf
    want = np.column_stack([inp.alpha, np.outer(inp.beta, inp.m)])
    dist = np.linalg.norm(q[:, None, :] - want[None, :, :], axis=2)
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max())) / max(inp.op_norm(), 1e-300)
