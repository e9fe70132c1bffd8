"""Multiplication form of bounded normal quaternion matrices, spherical
spectra, the Delta-kernel oracle, and the classification corollaries.

The headline identity is A = U* M_phi U: U sends the eigenbasis to an atomic
L2 space (counting measure on eigenvalue indices, multiplicity as repeated
symbol values) and phi collects the standard eigenvalues in the closed upper
half slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from .bridge import SpectralDecomposition, eigvals_normal, spectral_decompose
from .errors import CrossCheckError, PreconditionError, SymbolZeroError
from .measure import MERGE_TOL, AtomicMeasureSpace, Symbol, _first_seen, ess_sup
from .operators import QMatrix
from .quaternion import Quaternion, SimilarityOrbit, SliceFrame
from .slices import SliceStructure, restrict_pair

FORM_RESIDUAL_TOL = 1e-9
ORBIT_DEDUP_TOL = 1e-9
# on- and off-sphere probes per orbit for the Delta-kernel oracle
PROBES_PER_ORBIT = 16
# Share of max(||A||, 1) by which a restriction's eigenvalues may miss the
# orbits (plus) or the conjugates of the plus eigenvalues (minus).
SLICE_SPECTRUM_TOL = 1e-8

_TINY = 1e-300


@dataclass
class MultiplicationForm:
    """A = U* M_phi U with unitary U onto an atomic L2 space, the
    decomposition it was read from, and the two invariants it was checked
    with: ||A - U* M_phi U||_F (reconstruction) and | ||A|| - ess sup |phi| |
    (norm_gap)."""

    U: QMatrix
    space: AtomicMeasureSpace
    phi: Symbol
    frame: SliceFrame
    residual: float
    decomposition: SpectralDecomposition
    reconstruction: float = 0.0
    op_norm: float = 0.0
    norm_gap: float = 0.0

    def reconstruct(self) -> QMatrix:
        return self.U.H @ QMatrix(qa.left_diag_entries(self.phi.values)) @ self.U


@dataclass
class SphereSpectrum:
    """Union of similarity orbits; the spherical spectrum at desk scale, and
    the norm ||A|| that the form it was read from measured."""

    orbits: list[SimilarityOrbit]
    op_norm: float

    def contains(self, q: Quaternion, tol: float) -> bool:
        return any(o.contains(q, tol) for o in self.orbits)

    def distance(self, q: Quaternion) -> float:
        return min(o.distance(q) for o in self.orbits)


def multiplication_form(a: QMatrix, frame: SliceFrame) -> MultiplicationForm:
    """Unitary reduction of a normal matrix to a multiplication operator.

    The emitted measure space is counting measure on eigenvalue indices so
    that U stays square; the symbol repeats a value per multiplicity. Both
    invariants are asserted and kept on the form: reconstruction to
    FORM_RESIDUAL_TOL * ||A||_F and | ||A|| - ess sup |phi| | to
    FORM_RESIDUAL_TOL * max(||A||, 1).
    """
    dec = spectral_decompose(a, frame)
    space = AtomicMeasureSpace.counting(a.n)
    phi = Symbol(space, dec.values, frame)
    form = MultiplicationForm(dec.V.H, space, phi, frame, dec.residual, dec)

    # on chi(A), as in spectral_decompose: U* M_phi U = V D V*
    z = dec.z
    form.reconstruction = qa.chi_fro(z - dec.rec)
    if form.reconstruction > FORM_RESIDUAL_TOL * max(qa.chi_fro(z), _TINY):
        raise CrossCheckError(
            f"multiplication form reconstruction off by {form.reconstruction:.3e}"
        )
    form.op_norm = float(np.linalg.svd(z, compute_uv=False)[0])
    form.norm_gap = abs(form.op_norm - ess_sup(phi))
    if form.norm_gap > FORM_RESIDUAL_TOL * max(form.op_norm, 1.0):
        raise CrossCheckError(f"norm identity off by {form.norm_gap:.3e}")
    form.residual = max(dec.residual, form.reconstruction)
    return form


def sphere_spectrum(form: MultiplicationForm) -> SphereSpectrum:
    """Orbits of the essential range of the symbol, merged within ORBIT_DEDUP_TOL.

    Two first-seen merges (`_first_seen`): the positive-weight values within
    MERGE_TOL, as ess_ran takes them, then their (re, |im|) points within
    ORBIT_DEDUP_TOL, each orbit kept at its first value.
    """
    rows = form.phi.values[form.phi.space.positive()]
    rows = rows[_first_seen(rows, MERGE_TOL)[0]]
    x, y, z = rows[:, 1], rows[:, 2], rows[:, 3]
    points = np.zeros_like(rows)
    points[:, 0] = rows[:, 0]
    points[:, 1] = np.sqrt(x * x + y * y + z * z)  # bit-equal to Quaternion.im_norm
    kept, _ = _first_seen(points, ORBIT_DEDUP_TOL)
    return SphereSpectrum([SimilarityOrbit(*p) for p in points[kept, :2].tolist()], form.op_norm)


def oracle_scale(a: QMatrix) -> float:
    """Threshold scale for the Delta-kernel oracle: (1 + ||A||)^2."""
    return _oracle_scale(a.to_complex_adjoint())


def _oracle_scale(z: np.ndarray) -> float:
    return (1.0 + float(np.linalg.svd(z, compute_uv=False)[0])) ** 2


# The screens of delta_oracle test sigma_min(Z - lam)^2 > _OUT_MARGIN * t and
# ||Delta x|| <= _IN_MARGIN * t * ||x||. They decide a probe only when
# _ROUNDING_FACTOR * (N + 2) * eps * F^2 < t, with F = ||Z||_F + sqrt(N) |lam|
# >= ||Z - lam||_F: that covers the rounding of forming (Z - lam)*(Z - lam),
# of its Cholesky factorization, of the two matvecs, and of the exact route
# whose verdict the screens must reproduce.
_OUT_MARGIN = 2.0
_IN_MARGIN = 0.5
_ROUNDING_FACTOR = 8.0


def delta_oracle(a: QMatrix, probes: list[Quaternion], tol: float) -> list[bool]:
    """Mark each probe q whose Delta_q(A) has a numerical kernel.

    In-spectrum iff sigma_min(delta(a, q)) <= t = tol * (1 + ||A||)^2. This
    route never touches the eigendecomposition, so it is an independent check
    of the spectrum read off the multiplication form.

    With Z the complex adjoint of A and lam = re q + i |im q|,
    Delta_q = (Z - lam)(Z - conj lam), and Z - conj lam = J conj(Z - lam) J^-1
    for any complex adjoint, so for every x, normal A or not,

        sigma_min(Z - lam)^2 <= sigma_min(Delta_q) <= ||Delta_q x|| / ||x||.

    Each probe is decided by the first of these that applies:
    out  -- a Cholesky factorization of (Z - lam)*(Z - lam) - 2t I succeeds,
            so sigma_min(Delta_q) > 2t less rounding > t;
    in   -- one inverse-iteration step x = (Z - lam)^-1 e gives
            ||Delta_q x|| <= t/2 ||x||, so sigma_min(Delta_q) <= t;
    exact -- the smallest singular value of Delta_q, compared with t.
    The two screens are skipped, leaving the exact route, wherever their
    rounding error is not well below t (tiny tol, huge probes), so every
    verdict equals that of the exact route. A probe whose inputs are
    bit-identical to an earlier probe's takes that probe's verdict.
    """
    a.check_finite()
    for k, q in enumerate(probes):
        if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
            raise PreconditionError(f"probe {k} is not finite")
    z = qa.to_complex_adjoint(a.a)
    size = z.shape[0]
    threshold = tol * _oracle_scale(z)
    zh = z.conj().T
    gram, z2 = zh @ z, z @ z
    fro = float(np.linalg.norm(z))
    rounding = _ROUNDING_FACTOR * (size + 2) * np.finfo(np.float64).eps
    ident = np.eye(size)
    # right-hand side of the inverse-iteration step: unit entries whose
    # phases (1 rad apart) follow no pattern a kernel vector could cancel
    e = np.exp(1j * np.arange(size))
    # Equal floats make an equal computation, so a probe reuses the work of
    # an earlier probe with bit-identical inputs, as probes on one orbit
    # sphere often have: the screens read lam alone, the exact route re q
    # and |q|^2.
    screened: dict[tuple[str, str], bool | None] = {}
    exact: dict[tuple[str, str], bool] = {}
    out = []
    for q in probes:
        lam = complex(q.re, q.im_norm())
        lam_key = (q.re.hex(), lam.imag.hex())
        if lam_key not in screened:
            screened[lam_key] = None
            if rounding * (fro + math.sqrt(size) * abs(lam)) ** 2 < threshold:
                screened[lam_key] = _screen(z, zh, gram, lam, threshold, e)
        verdict = screened[lam_key]
        if verdict is None:
            dz_key = (q.re.hex(), q.norm_sq().hex())
            if dz_key not in exact:
                dz = z2 - (2.0 * q.re) * z + q.norm_sq() * ident
                exact[dz_key] = bool(np.linalg.svd(dz, compute_uv=False)[-1] <= threshold)
            verdict = exact[dz_key]
        out.append(verdict)
    return out


def _screen(z, zh, gram, lam, t, e) -> bool | None:
    """The out and in screens of delta_oracle; None when neither decides."""
    step = z.shape[0] + 1  # stride of the diagonal in .flat
    g = gram - lam * zh - lam.conjugate() * z
    g.flat[::step] += abs(lam) ** 2 - _OUT_MARGIN * t
    try:
        np.linalg.cholesky(g)
        return False
    except np.linalg.LinAlgError:
        pass
    shifted = z.copy()
    shifted.flat[::step] -= lam
    try:
        x = np.linalg.solve(shifted, e)
    except np.linalg.LinAlgError:
        return None
    r = shifted @ x
    dx = shifted @ r + (lam - lam.conjugate()) * r
    nx, ndx = float(np.linalg.norm(x)), float(np.linalg.norm(dx))
    if math.isfinite(nx) and ndx <= _IN_MARGIN * t * nx:
        return True
    return None


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform directions on the unit 2-sphere."""
    t = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * t + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(golden * t), r * np.sin(golden * t), z], axis=1)


def on_sphere_probes(orbit: SimilarityOrbit) -> list[Quaternion]:
    """PROBES_PER_ORBIT probes exactly on the orbit sphere via a Fibonacci lattice."""
    return [Quaternion(orbit.re, *(orbit.im_norm * d)) for d in fibonacci_sphere(PROBES_PER_ORBIT)]


def off_sphere_probes(
    orbit: SimilarityOrbit, spectrum: SphereSpectrum, margin: float
) -> list[Quaternion]:
    """PROBES_PER_ORBIT probes near the orbit but at distance >= margin from
    every orbit.

    Candidates circle the orbit point in the (re, |im|) half plane at growing
    radii until clear of the whole spectrum; a far-field fallback guarantees
    termination. Probe directions reuse the Fibonacci lattice so the oracle
    also sees varying imaginary directions.
    """
    dirs = fibonacci_sphere(PROBES_PER_ORBIT)
    far = max(abs(o.re) + o.im_norm for o in spectrum.orbits) + 1.0
    out = []
    for t in range(PROBES_PER_ORBIT):
        angle = 2.0 * math.pi * (t + 0.5) / PROBES_PER_ORBIT
        placed = None
        for attempt in range(40):
            r = margin * (1.3**attempt) * 1.5
            re = orbit.re + r * math.cos(angle)
            beta = abs(orbit.im_norm + r * math.sin(angle))
            cand = SimilarityOrbit(re, beta)
            if all(
                math.hypot(cand.re - o.re, cand.im_norm - o.im_norm) >= margin
                for o in spectrum.orbits
            ):
                placed = cand
                break
        if placed is None:
            placed = SimilarityOrbit(far + (t + 1) * margin, far)
        out.append(Quaternion(placed.re, *(placed.im_norm * dirs[t])))
    return out


def classify(form: MultiplicationForm, tol: float) -> dict[str, bool]:
    """Anti-self-adjointness and unitarity read off the symbol.

    anti_self_adjoint iff every positive-weight value has |re| <= tol;
    unitary iff every | |value| - 1 | <= tol. Both verdicts are cross-checked
    against ||A + A*|| and ||A*A - I|| on the reconstructed operator and a
    CrossCheckError is raised if the two routes disagree.
    """
    pos = form.space.positive()
    values = form.phi.values[pos]
    moduli = form.phi.moduli()[pos]
    anti_sym = bool(np.all(np.abs(values[:, 0]) <= tol))
    unit_sym = bool(np.all(np.abs(moduli - 1.0) <= tol))

    rec = form.reconstruct()
    ident = QMatrix.identity(rec.n)
    slack = 1e-12 * (1.0 + rec.op_norm())
    anti_op = (rec + rec.H).op_norm() <= 2.0 * tol + slack
    unit_op = ((rec.H @ rec) - ident).op_norm() <= 3.0 * tol + slack
    if anti_sym != anti_op or unit_sym != unit_op:
        raise CrossCheckError(
            f"symbol/operator classification disagrees: "
            f"anti {anti_sym}/{anti_op}, unitary {unit_sym}/{unit_op}"
        )
    return {"anti_self_adjoint": anti_sym, "unitary": unit_sym}


def conjugate_equivalence(form: MultiplicationForm) -> QMatrix:
    """Unitary W with A = W* A* W, built as U* M_rho U, rho = phi * n / |phi|.

    Requires the symbol to be nonzero on every positive-weight atom.
    """
    moduli = form.phi.moduli()
    floor = 1e-12 * (1.0 + float(np.max(moduli)))
    low = np.flatnonzero(form.space.positive() & (moduli <= floor))
    if len(low):
        raise SymbolZeroError(f"symbol vanishes on positive-weight atom {low[0]}")

    rho = [
        (form.phi.value(int(i)) / moduli[int(i)]) * form.frame.n
        for i in range(form.space.n_atoms)
    ]
    w = form.U.H @ QMatrix.diag(rho) @ form.U

    rec = form.reconstruct()
    scale = max(rec.frobenius(), 1.0)
    unit_err = ((w.H @ w) - QMatrix.identity(w.n)).frobenius()
    conj_err = (rec - (w.H @ rec.H @ w)).frobenius()
    if unit_err > 1e-9 * w.n or conj_err > FORM_RESIDUAL_TOL * scale:
        raise CrossCheckError(
            f"conjugate equivalence failed: unitarity {unit_err:.3e}, residual {conj_err:.3e}"
        )
    return w


@dataclass
class SliceSpectrumReport:
    """Eigenvalues of the plus/minus restrictions, as complex coordinates
    against {1, m}, and how far they are from the orbit set and from each
    other's conjugates."""

    plus: np.ndarray
    minus: np.ndarray
    plus_deviation: float
    conj_deviation: float
    passed: bool


def _multiset_deviation(x: np.ndarray, y: np.ndarray) -> float:
    """Largest partner distance when two equal-size multisets are matched
    nearest pair first; unlike sorting, this does not depend on real parts
    that are rounding noise (anti-self-adjoint input)."""
    dist = np.abs(x[:, None] - y[None, :])
    worst = 0.0
    for _ in range(len(x)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


def slice_spectrum_check(
    a: QMatrix, s: SliceStructure, spectrum: SphereSpectrum | None = None
) -> SliceSpectrumReport:
    """Check sigma(plus restriction) = spectrum orbits in C_m+, and that the
    minus restriction's eigenvalues are their conjugates, both within
    SLICE_SPECTRUM_TOL * max(||A||, 1). The orbits and ||A|| are those of
    multiplication_form(a) unless spectrum is given."""
    t_plus, t_minus = restrict_pair(a, s)
    plus_c = eigvals_normal(t_plus.z)
    minus_c = eigvals_normal(t_minus.z)

    if spectrum is None:
        spectrum = sphere_spectrum(multiplication_form(a, s.frame))
    reps_c = np.array([complex(o.re, o.im_norm) for o in spectrum.orbits])

    # Hausdorff distance between the eigenvalue set and the orbit reps.
    dist = np.abs(plus_c[:, None] - reps_c[None, :])
    plus_dev = max(float(np.max(np.min(dist, axis=1))), float(np.max(np.min(dist, axis=0))))
    conj_dev = _multiset_deviation(plus_c, np.conj(minus_c))
    bound = SLICE_SPECTRUM_TOL * max(spectrum.op_norm, 1.0)
    passed = plus_dev <= bound and conj_dev <= bound
    return SliceSpectrumReport(plus_c, minus_c, plus_dev, conj_dev, passed)
