"""Multiplication form of bounded normal quaternion matrices, spherical
spectra, the Delta-kernel oracle, and the classification corollaries.

The headline identity is A = U* M_phi U: U sends the eigenbasis to an atomic
L2 space (counting measure on eigenvalue indices, multiplicity as repeated
symbol values) and phi collects the standard eigenvalues in the closed upper
half slice.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from .bridge import SpectralDecomposition, eigvals_normal, spectral_decompose
from .errors import CrossCheckError, PreconditionError, SymbolZeroError
from .measure import MERGE_TOL, AtomicMeasureSpace, Symbol, _first_seen, ess_sup
from .operators import QMatrix
from .quaternion import Quaternion, SimilarityOrbit, SliceFrame
from .report import Check, check_from, require
from .slices import SliceStructure, restrict_pair

FORM_RESIDUAL_TOL = 1e-9
ORBIT_DEDUP_TOL = 1e-9
# on- and off-sphere probes per orbit for the Delta-kernel oracle
PROBES_PER_ORBIT = 16
# Share of max(||A||, 1) by which a restriction's eigenvalues may miss the
# orbits (plus) or the conjugates of the plus eigenvalues (minus).
SLICE_SPECTRUM_TOL = 1e-8


@dataclass
class MultiplicationForm:
    """A = U* M_phi U with unitary U onto an atomic L2 space, the
    decomposition it was read from, ||A||, and the checks it passed:
    ||A - U* M_phi U||_F (decompose.reconstruction), | ||A|| - ess sup |phi| |
    (decompose.norm_identity) and the decomposition's decompose.unitary."""

    U: QMatrix
    space: AtomicMeasureSpace
    phi: Symbol
    frame: SliceFrame
    decomposition: SpectralDecomposition
    op_norm: float
    checks: list[Check]

    @property
    def residual(self) -> float:
        """max(||AV - VD||_F, ||A - U* M_phi U||_F)."""
        return max(self.decomposition.checks[0].residual, self.checks[0].residual)

    def reconstruct(self) -> QMatrix:
        return self.U.H @ QMatrix(qa.left_diag_entries(self.phi.values)) @ self.U


@dataclass
class SphereSpectrum:
    """Union of similarity orbits; the spherical spectrum at desk scale, and
    the norm ||A|| that the form it was read from measured."""

    orbits: list[SimilarityOrbit]
    op_norm: float

    def __post_init__(self):
        self._points = [(o.re, o.im_norm) for o in self.orbits]

    def contains(self, q: Quaternion, tol: float) -> bool:
        """Whether some orbit contains q, by SimilarityOrbit.contains's
        comparisons, with |im q| taken at most once."""
        if tol < 0.0:
            raise ValueError("tolerance must be >= 0")
        re, im_norm = q.re, None
        for o_re, o_im_norm in self._points:
            if abs(re - o_re) <= tol:
                if im_norm is None:
                    im_norm = q.im_norm()
                if abs(im_norm - o_im_norm) <= tol:
                    return True
        return False

    def distance(self, q: Quaternion) -> float:
        return min(o.distance(q) for o in self.orbits)


def multiplication_form(a: QMatrix, frame: SliceFrame) -> MultiplicationForm:
    """Unitary reduction of a normal matrix to a multiplication operator.

    The emitted measure space is counting measure on eigenvalue indices so
    that U stays square; the symbol repeats a value per multiplicity. Both
    invariants are required and kept on the form as checks: reconstruction
    to FORM_RESIDUAL_TOL * ||A||_F and | ||A|| - ess sup |phi| | to
    FORM_RESIDUAL_TOL * max(||A||, 1); CrossCheckError names a failed one.
    """
    dec = spectral_decompose(a, frame)
    space = AtomicMeasureSpace.counting(a.n)
    phi = Symbol(space, dec.values, frame)

    # on chi(A), as in spectral_decompose: U* M_phi U = V D V*
    z = dec.z
    reconstruction = check_from(
        "decompose.reconstruction",
        qa.chi_fro(z - dec.rec),
        FORM_RESIDUAL_TOL * max(qa.chi_fro(z), qa.TINY),
    )
    require(reconstruction, CrossCheckError)
    op_norm = float(np.linalg.svd(z, compute_uv=False)[0])
    norm_identity = check_from(
        "decompose.norm_identity",
        abs(op_norm - ess_sup(phi)),
        FORM_RESIDUAL_TOL * max(op_norm, 1.0),
    )
    checks = [reconstruction, require(norm_identity, CrossCheckError), dec.checks[1]]
    return MultiplicationForm(dec.V.H, space, phi, frame, dec, op_norm, checks)


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
    """Threshold scale for the Delta-kernel oracle: (1 + ||A||)^2.

    ||A|| = sqrt(lambda_max(Z*Z)), Z the complex adjoint of A, from one
    `eigvalsh` of the gram that delta_oracle also forms, so both see the
    same threshold bit for bit."""
    z = a.to_complex_adjoint()
    return (1.0 + _gram_norm(_gram(z, z.conj().T))) ** 2


def _gram(z: np.ndarray, zh: np.ndarray) -> np.ndarray:
    """Z*Z from Z and its conjugate transpose; raises PreconditionError,
    before any LAPACK call, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = zh @ z
    if not np.all(np.isfinite(gram)):
        raise PreconditionError("oracle scale overflows: Z*Z has a non-finite entry")
    return gram


def _gram_norm(gram: np.ndarray) -> float:
    """||Z|| from a finite Z*Z: the square root of its largest eigenvalue.

    Raises PreconditionError when the threshold scale (1 + ||Z||)^2
    overflows."""
    norm = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    if not math.isfinite((1.0 + norm) * (1.0 + norm)):
        raise PreconditionError(f"oracle scale overflows: (1 + ||A||)^2 with ||A|| = {norm:.3e}")
    return norm


# The certificate of delta_oracle decides a probe only when
# _ROUNDING_FACTOR * (N + 2) * eps * F^2 < t, with F = ||Z||_F + sqrt(N) |lam|
# >= ||Z - lam||_F. Then the rounding of the certificate's products and that
# of the exact route -- forming Delta_q and its SVD -- each err by less than
# t / _ROUNDING_FACTOR, so a certificate verdict, which keeps a margin of
# t / _ROUNDING_FACTOR on its side of t, is the exact route's verdict. Every
# other probe takes the exact route.
_ROUNDING_FACTOR = 8.0
# The eigen-certificate of delta_oracle factors C = H + _BETA K, with
# H = (Z + Z*)/2 and K = (Z - Z*)/(2i); an irrational weight keeps the
# distinct eigenvalues of a normal Z apart in C but for measure-zero inputs.
_BETA = 0.7549
# The certificate's basis per live QMatrix: Q, delta and the residual ||rho||
# measured when it was factored; see "Reuse" in delta_oracle.
_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def delta_oracle(a: QMatrix, probes: list[Quaternion], tol: float) -> list[bool]:
    """Mark each probe q whose Delta_q(A) has a numerical kernel.

    In-spectrum iff sigma_min(delta(a, q)) <= t = tol * (1 + ||A||)^2, with
    ||A|| as oracle_scale takes it; tol must be finite and >= 0, and every
    probe and its |q|^2 finite. This route never calls the bridge's
    eigensolver: its only eigendecompositions are its own `eigvalsh` of Z*Z
    for ||A|| and `eigh` of a Hermitian matrix for the certificate (below),
    which is checked from measured residuals, and a check that fails only
    leaves probes undecided. So it is an independent check of the spectrum
    read off the multiplication form, and no factorization can flip one of
    its verdicts.

    With Z the complex adjoint of A and lam = re q + i |im q|,
    Delta_q = (Z - lam)(Z - conj lam), and Z - conj lam = J conj(Z - lam) J^-1
    for any complex adjoint, so for every x, normal A or not,

        sigma_min(Z - lam)^2 <= sigma_min(Delta_q) <= ||Delta_q x|| / ||x||.

    Each probe is decided by the first of two routes that applies:
    certificate -- for the probes inside the rounding gate (see
            _ROUNDING_FACTOR), bounds read off one eigendecomposition decide
            each in O(N) (below) or leave it undecided;
    exact -- the smallest singular value of Delta_q, compared with t.
    With R = _ROUNDING_FACTOR, each rounding stage of a gated probe errs by
    less than t/R, so the exact route answers out when
    sigma_min(Delta_q) > (1 + 1/R) t and in when sigma_min(Delta_q)
    <= (1 - 1/R) t, and the certificate decides only beyond those margins.
    Outside the gate (tiny tol, huge probes) the exact route decides alone,
    so every verdict equals that of the exact route. Probes with
    bit-identical re q and |q|^2 share one exact computation.

    Certificate (after Rump, "Verification methods", Acta Numerica 19,
    2010). Q holds the eigenvectors from `eigh` of C = H + _BETA K (see
    _BETA); for normal Z with no two eigenvalues colliding in C they nearly
    diagonalize Z, but nothing below assumes it. With d_k = q_k* Z q_k,
    the Rayleigh numerators, R = ZQ - Q diag(d) and every norm measured:
        delta >= ||Q*Q - I||, rho_k >= ||r_k||, ||R|| <= ||rho||,
    each the computed Frobenius norm plus the rounding of the products it
    comes from. A product of inner size N errs by at most g |X||Y|
    entrywise, g = (N + 2) eps, which gives g ||Q||_F^2 for Q*Q and
    g (||Z||_F + |d_k|) ||q_k|| for column k of R; ||q_k||^2 <= 1 + delta.
    The computed norms, the |d_k - lam| and the final comparisons err
    relatively by far less than s = (N^2 + 8) eps, by which each is widened.
    out: Q*(Z - lam)Q = diag(d - lam) + (Q*Q - I) diag(d - lam) + Q*R, so by
        Weyl sigma_min(Q*(Z - lam)Q) >= min_k |d_k - lam| - e - |lam| delta
        with e = sqrt(1 + delta) ||rho|| + delta max_k |d_k|, and
        sigma_min(Q*(Z - lam)Q) <= ||Q||^2 sigma_min(Z - lam)
        <= (1 + delta) sigma_min(Z - lam). The probe is out when
        ((min_k |d_k - lam| - e - |lam| delta) / (1 + delta))^2 > (1 + 1/R) t.
    in: (Z - conj lam)(Z - lam) q_k
        = (d_k - lam)(d_k - conj lam) q_k + (d_k - lam) r_k + (Z - conj lam) r_k
        and ||q_k|| >= sqrt(1 - delta), so for the k minimising
        p_k = |d_k - lam| |d_k - conj lam| the probe is in when
        p_k + (|d_k - lam| + ||Z||_F + |lam|) rho_k / sqrt(1 - delta)
        <= (1 - 1/R) t; ||Z||_F >= ||A|| stands in for ||A|| because it
        needs no eigensolver's rounding.
    Non-normal Z, or colliding eigenvalues that mix the columns of Q, only
    grow rho and leave probes to the exact route; so do a failed `eigh` and
    delta >= 1/2, which leave every probe to it. Under the gate,
    g ||Z||_F^2 < t / R, so the rounding terms cost the bounds little.

    Reuse. delta depends on Q alone, so the first call on a matrix object
    keeps Q, read-only, and delta for as long as the object lives (a failed
    `eigh` or delta >= 1/2 is not kept), and later calls skip forming C, the
    `eigh` and Q*Q. Every call still measures Z, Z*Z, ||A||, ||Z||_F, the
    gate, W = ZQ, d, rho and e from the current entries. The bounds above
    hold for any Q with ||Q*Q - I|| <= delta, so a kept Q that no longer
    nearly diagonalizes Z (entries changed in place) only grows rho and
    leaves probes undecided. When a probe is left undecided and ||rho|| has
    grown since Q was factored, the call factors afresh once, keeps the new
    basis and decides again. A kept basis of another size than Z is never
    used. On an unchanged matrix the kept Q is the one `eigh` returned for
    the same C, so every verdict and route is that of a fresh call.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tol must be finite and >= 0, got {tol!r}")
    a.check_finite()
    for k, q in enumerate(probes):
        if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
            raise PreconditionError(f"probe {k} is not finite")
    z = qa.to_complex_adjoint(a.a)
    size = z.shape[0]
    zh = z.conj().T
    gram = _gram(z, zh)
    for k, q in enumerate(probes):
        if not math.isfinite(q.norm_sq()):
            raise PreconditionError(f"probe {k} overflows: |q|^2 is not finite")
    threshold = tol * (1.0 + _gram_norm(gram)) ** 2
    fro = float(np.linalg.norm(z))
    rounding = _ROUNDING_FACTOR * (size + 2) * np.finfo(np.float64).eps
    root_n = math.sqrt(size)
    lams = [complex(q.re, q.im_norm()) for q in probes]
    # f * f, not f ** 2, which raises OverflowError on a huge probe
    gated = [
        k
        for k, f in enumerate(fro + root_n * abs(lam) for lam in lams)
        if rounding * f * f < threshold
    ]
    out: list[bool | None] = [None] * len(probes)
    if gated:
        certified = _certificate(z, zh, fro, np.array([lams[k] for k in gated]), threshold, a)
        for k, verdict in zip(gated, certified):
            out[k] = verdict
    exact: dict[tuple[str, str], bool] = {}
    z2 = None
    for k, q in enumerate(probes):
        if out[k] is not None:
            continue
        dz_key = (q.re.hex(), q.norm_sq().hex())
        if dz_key not in exact:
            if z2 is None:
                z2 = z @ z
            dz = z2 - (2.0 * q.re) * z + q.norm_sq() * np.eye(size)
            exact[dz_key] = bool(np.linalg.svd(dz, compute_uv=False)[-1] <= threshold)
        out[k] = exact[dz_key]
    return out


def _certificate(z, zh, fro, lams, t, a=None) -> list[bool | None]:
    """The certificate verdicts of delta_oracle for the probes lams (a
    complex array): True (in), False (out) or None (undecided).

    With a, on the basis kept for a, unless it has another size than Z or
    leaves a probe undecided with a larger residual ||rho|| than it had when
    factored (entries changed since); a fresh basis then replaces it. On an
    unchanged matrix the residual repeats bit for bit, so undecided probes
    there cost no second `eigh`."""
    kept = None if a is None else _BASES.get(a)
    if kept is not None and kept[0].shape[0] == z.shape[0]:
        q, delta, factored = kept
        verdicts, residual = _decide(z, fro, lams, t, q, delta)
        if None not in verdicts or residual <= factored:
            return verdicts
    basis = _basis(z, zh)
    if basis is None:
        return [None] * len(lams)
    verdicts, residual = _decide(z, fro, lams, t, *basis)
    if a is not None:
        _BASES[a] = (*basis, residual)
    return verdicts


def _basis(z, zh) -> tuple[np.ndarray, float] | None:
    """The certificate's basis: Q, read-only, from `eigh` of C and
    delta >= ||Q*Q - I||; None when `eigh` fails or delta >= 1/2."""
    eps = np.finfo(np.float64).eps
    size = z.shape[0]
    g = (size + 2) * eps
    grow = 1.0 + (size * size + 8) * eps
    c = 0.5 * (1.0 - 1j * _BETA)  # C = c Z + conj(c) Z*
    try:
        q = np.linalg.eigh(c * z + c.conjugate() * zh)[1]
    except np.linalg.LinAlgError:
        return None
    gq = q.conj().T @ q
    gq.flat[:: size + 1] -= 1.0
    qf = float(np.linalg.norm(q))
    delta = grow * float(np.linalg.norm(gq)) + g * qf * qf
    if not delta < 0.5:
        return None
    q.flags.writeable = False
    return q, delta


def _decide(z, fro, lams, t, q, delta) -> tuple[list[bool | None], float]:
    """The certificate's verdicts on basis (Q, delta) from the current Z,
    and the residual ||rho|| they were decided with."""
    eps = np.finfo(np.float64).eps
    size = z.shape[0]
    g = (size + 2) * eps
    grow = 1.0 + (size * size + 8) * eps
    r = 1.0 / _ROUNDING_FACTOR
    w = z @ q
    d = np.einsum("ij,ij->j", q.conj(), w)
    abs_d = np.abs(d)
    rho = grow * np.linalg.norm(w - q * d, axis=0) + g * (fro + abs_d) * math.sqrt(1.0 + delta)
    residual = float(np.linalg.norm(rho))
    e = grow * (math.sqrt(1.0 + delta) * residual + delta * float(abs_d.max()))

    up = np.abs(d[None, :] - lams[:, None])
    down = np.abs(d[None, :] - lams.conj()[:, None])
    mod = np.abs(lams)
    low = up.min(axis=1) / grow - grow * (e + mod * delta)
    is_out = (low > 0.0) & (low * low > grow * (1.0 + r) * t * (1.0 + delta) ** 2)
    prod = up * down
    k = prod.argmin(axis=1)
    rows = np.arange(len(lams))
    bound = grow * (prod[rows, k] + (up[rows, k] + fro + mod) * rho[k] / math.sqrt(1.0 - delta))
    is_in = bound <= (1.0 - r) * t
    verdicts = [True if i else False if o else None for i, o in zip(is_in.tolist(), is_out.tolist())]
    return verdicts, residual


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

    unit_err = ((w.H @ w) - QMatrix.identity(w.n)).frobenius()
    require(check_from("spectral.conjugate_unitary", unit_err, 1e-9 * w.n), CrossCheckError)
    rec = form.reconstruct()
    conj_err = (rec - (w.H @ rec.H @ w)).frobenius()
    bound = FORM_RESIDUAL_TOL * max(rec.frobenius(), 1.0)
    require(check_from("spectral.conjugate_residual", conj_err, bound), CrossCheckError)
    return w


@dataclass
class SliceSpectrumReport:
    """Eigenvalues of the plus/minus restrictions, as complex coordinates
    against {1, m}, and the checks of how far they are from the orbit set
    (decompose.slice_spectrum_plus) and from each other's conjugates
    (decompose.slice_spectrum_conjugate)."""

    plus: np.ndarray
    minus: np.ndarray
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


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
    bound = SLICE_SPECTRUM_TOL * max(spectrum.op_norm, 1.0)
    checks = [
        check_from("decompose.slice_spectrum_plus", plus_dev, bound),
        check_from(
            "decompose.slice_spectrum_conjugate",
            _multiset_deviation(plus_c, np.conj(minus_c)),
            bound,
        ),
    ]
    return SliceSpectrumReport(plus_c, minus_c, checks)
