"""Multiplication form of bounded normal quaternion matrices, spherical
spectra, the Delta-kernel oracle, and the classification corollaries.

The headline identity is A = U* M_phi U: U sends the eigenbasis to an atomic
L2 space (counting measure on eigenvalue indices, multiplicity as repeated
symbol values) and phi collects the standard eigenvalues in the closed upper
half slice; values within the eigensolver's rounding share an orbit, at any scale.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import qarray as qa
from .bridge import (
    SpectralDecomposition,
    _coupling_tol,
    eig_normal,
    hermitian_eigvecs,
    iota_inv,
    spectral_decompose,
)
from .errors import CrossCheckError, NotNormalError, PreconditionError, ShapeError, SymbolZeroError
from .measure import AtomicMeasureSpace, Symbol, _first_seen, ess_sup
from .operators import QMatrix
from .quaternion import SliceFrame
from .report import TINY, Check, require, scaled_check
from .slices import SliceStructure, restrict_pair

# on- and off-sphere probes per orbit for the Delta-kernel oracle
PROBES_PER_ORBIT = 16


@dataclass
class MultiplicationForm:
    """A = U* M_phi U with unitary U onto an atomic L2 space, the
    decomposition it was read from, ||A||, and the checks it passed:
    ||A - U* M_phi U||_F (decompose.reconstruction), | ||A|| - ess sup |phi| |
    (decompose.norm_identity) and the decomposition's decompose.unitary.
    U = V*, built from the decomposition when first asked for."""

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

    @property
    def U(self) -> QMatrix:
        return self.decomposition.V.H

    def reconstruct(self) -> QMatrix:
        """U* M_phi U = V D V*, read back off the decomposition's chi image."""
        return QMatrix(iota_inv(self.decomposition.rec[:, : self.space.n_atoms], self.frame))


@dataclass
class SphereSpectrum:
    """Union of similarity orbits, the spherical spectrum at desk scale, as a
    (K, 2) array of orbit points (re, |im|), merged at the input's scale, and
    the norm ||A|| that the form it was read from measured."""

    points: np.ndarray
    op_norm: float

    def contains(self, probes: np.ndarray, tol: float) -> np.ndarray:
        """Whether some orbit contains each row of a (M, 4) array of probes,
        as a bool array, by SimilarityOrbit.contains's comparisons:
        |re q - re| <= tol and | |im q| - |im| | <= tol."""
        if tol < 0.0:
            raise ValueError("tolerance must be >= 0")
        re, im_norm = _re_im_norm(_probe_rows(probes))
        near_re = np.abs(re[:, None] - self.points[:, 0]) <= tol
        near_im = np.abs(im_norm[:, None] - self.points[:, 1]) <= tol
        return (near_re & near_im).any(axis=1)


def _probe_rows(probes: np.ndarray | list) -> np.ndarray:
    """probes as a (M, 4) array of quaternions (w, x, y, z); a list of
    Quaternions is converted once. ShapeError for any other shape."""
    if not isinstance(probes, np.ndarray):
        probes = np.array([(q.w, q.x, q.y, q.z) for q in probes]).reshape(len(probes), 4)
    if probes.ndim != 2 or probes.shape[1] != 4:
        raise ShapeError(f"probes must be an (M, 4) array of quaternions, got shape {probes.shape}")
    return probes


@np.errstate(over="ignore")
def _re_im_norm(probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """re q and |im q| of each row, bit-equal to Quaternion's unless scaled (qa.row_norms)."""
    return probes[:, 0], qa.row_norms(probes[:, 1:], lambda v: np.sqrt(np.sum(v * v, axis=-1)))


def multiplication_form(a: QMatrix, frame: SliceFrame) -> MultiplicationForm:
    """Unitary reduction of a normal matrix to a multiplication operator.

    The emitted measure space is counting measure on eigenvalue indices so
    that U stays square; the symbol repeats a value per multiplicity. Both
    invariants are required and kept on the form as checks, reconstruction
    relative to ||A||_F and | ||A|| - ess sup |phi| | to ||A||;
    CrossCheckError names a failed one.
    """
    dec = spectral_decompose(a, frame)
    space = AtomicMeasureSpace.counting(a.n)
    phi = Symbol(space, dec.values, frame)

    # on chi(A), as in spectral_decompose: U* M_phi U = V D V*
    z = dec.z
    recon = scaled_check("decompose.reconstruction", qa.chi_fro(z - dec.rec), qa.chi_fro(z))
    require(recon, CrossCheckError)
    op_norm = float(np.linalg.svd(z, compute_uv=False)[0])
    norm_identity = scaled_check("decompose.norm_identity", abs(op_norm - ess_sup(phi)), op_norm)
    checks = [recon, require(norm_identity, CrossCheckError), dec.checks[1]]
    return MultiplicationForm(space, phi, frame, dec, op_norm, checks)


def sphere_spectrum(form: MultiplicationForm) -> SphereSpectrum:
    """Orbits of the essential range of the symbol: one first-seen merge
    (`_first_seen`) of the (re, |im|) points of the positive-weight values,
    each kept at its first, within bridge._coupling_tol(2n, ||chi(A)||_F),
    ||chi(A)||_F = sqrt(2) ||phi||_2 on counting measure. Normal eigenvalues move by at
    most the backward error (Bauer & Fike, 1960), so one eigenvalue's copies merge."""
    rows = form.phi.values[form.phi.space.positive()]
    points = np.stack(_re_im_norm(rows), axis=1)
    tol = _coupling_tol(2 * len(form.phi.values), math.sqrt(2.0) * qa.fro(form.phi.values))
    return SphereSpectrum(points[_first_seen(points, tol)[0]], form.op_norm)


def oracle_scale(a: QMatrix) -> float:
    """Threshold scale for the Delta-kernel oracle: (1 + ||A||)^2.

    ||A|| = sqrt(lambda_max(Z*Z)), Z the complex adjoint of A, is read from
    the record kept for a while its entries are bit-identical to the ones
    it was measured on (_kept); otherwise one `eigvalsh` of Z*Z measures it
    and a new record replaces the old. delta_oracle reads the same stored
    float, so both see the same threshold bit for bit."""
    kept = _kept(a)
    if kept is None:
        z = a.to_complex_adjoint()
        kept = _keep(a, _gram(z, z.conj().T))
    return (1.0 + kept.norm) ** 2


@dataclass
class _Record:
    """What the oracle keeps per live QMatrix: a copy of the entries it
    measured, ||A|| on them and, once the certificate has factored them, its
    basis (Q, delta); see "Reuse" in delta_oracle."""

    entries: np.ndarray
    norm: float
    basis: tuple[np.ndarray, float] | None = None


_RECORDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept(a: QMatrix) -> _Record | None:
    """The record kept for a if its entries are bit-identical to a's now --
    the same shape and the same bit patterns, so 0.0 and -0.0 differ --
    else None. Raises PreconditionError, before anything else, for a
    non-finite entry."""
    a.check_finite()
    kept = _RECORDS.get(a)
    if kept is not None and np.array_equal(_bits(kept.entries), _bits(a.a)):
        return kept
    return None


def _bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _keep(a: QMatrix, gram: np.ndarray) -> _Record:
    """A new record for a, with ||A|| from gram, the finite Z*Z of a's
    entries now."""
    kept = _Record(np.array(a.a, dtype=np.float64), _gram_norm(gram))
    _RECORDS[a] = kept
    return kept


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


def delta_oracle(a: QMatrix, probes: np.ndarray | list, tol: float) -> list[bool]:
    """Mark each probe q whose Delta_q(A) has a numerical kernel.

    probes is a (M, 4) array of quaternions (w, x, y, z), as sphere_probes
    places them; the API also takes a list of Quaternions, converted once.
    In-spectrum iff sigma_min(delta(a, q)) <= t = tol * (1 + ||A||)^2, with
    ||A|| as oracle_scale takes it; tol must be finite and >= 0, and every
    probe and its |q|^2 finite. Errors come in this order, all but the last
    before any LAPACK call: tol, a non-finite entry, Z*Z overflow, probes
    not of shape (M, 4) (ShapeError), a non-finite probe, |q|^2 overflow,
    and (1 + ||A||)^2 overflow. This route never reads the multiplication
    form's factorization: its only eigendecompositions are its own
    `eigvalsh` of Z*Z for ||A|| and, for the certificate (below), the
    Hermitian eigensolve that spectral_decompose also makes
    (bridge.hermitian_eigvecs), here of the standard complex adjoint Z of A
    rather than of chi(A) in frame m. The certificate is checked from
    measured residuals, and a check that fails only leaves probes
    undecided. So it is an independent check of the spectrum read off the
    multiplication form, and no factorization can flip one of its verdicts.

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
    bridge._BETA); for normal Z with no two eigenvalues colliding in C they
    nearly diagonalize Z, but nothing below assumes it. With d_k = q_k* Z q_k,
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

    Reuse. One record is kept per matrix object, weakly, for as long as it
    lives: a copy of its entries, ||A|| and, from the first call whose
    certificate factors them, Q, read-only, and delta (a failed `eigh` or
    delta >= 1/2 is not kept). A call, or oracle_scale, uses the record only
    while the entries are bit-identical to the copy: the same shape and the
    same bit patterns, so 0.0 and -0.0 differ. It then skips Z*Z, its
    `eigvalsh`, forming C, the `eigh` and Q*Q; otherwise it measures afresh
    and replaces the record. Every call still measures Z, ||Z||_F, the gate,
    W = ZQ, d, rho and e from the current entries. On bit-identical entries
    the kept ||A|| and Q are the ones `eigvalsh` and `eigh` return for the
    same Z*Z and C, so every threshold, verdict and route is that of a
    fresh call.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tol must be finite and >= 0, got {tol!r}")
    kept = _kept(a)
    z = qa.to_complex_adjoint(a.a)
    size = z.shape[0]
    zh = z.conj().T
    gram = _gram(z, zh) if kept is None else None
    probes = _probe_rows(probes)
    bad = np.flatnonzero(~np.isfinite(probes).all(axis=1))
    if len(bad):
        raise PreconditionError(f"probe {bad[0]} is not finite")
    with np.errstate(over="ignore"):  # |q|^2 may overflow, and the gate's F^2
        sq = probes * probes
        norm_sq = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]  # as Quaternion.norm_sq
        bad = np.flatnonzero(~np.isfinite(norm_sq))
        if len(bad):
            raise PreconditionError(f"probe {bad[0]} overflows: |q|^2 is not finite")
        if kept is None:
            kept = _keep(a, gram)
        threshold = tol * (1.0 + kept.norm) ** 2
        fro = float(np.linalg.norm(z))
        rounding = _ROUNDING_FACTOR * (size + 2) * np.finfo(np.float64).eps
        re, im_norm = _re_im_norm(probes)
        lams = re.astype(complex)
        lams.imag = im_norm
        f = fro + math.sqrt(size) * np.abs(lams)
        gated = rounding * f * f < threshold
    verdict = np.zeros(len(probes), dtype=bool)
    decided = gated.copy()
    if gated.any():
        verdict[gated], decided[gated] = _certificate(z, zh, fro, lams[gated], threshold, kept)
    exact: dict[tuple[str, str], bool] = {}
    undecided = np.flatnonzero(~decided)
    if len(undecided):
        z2, ident = z @ z, np.eye(size)
    for k, q_re, q_sq in zip(undecided, re[undecided].tolist(), norm_sq[undecided].tolist()):
        key = (q_re.hex(), q_sq.hex())
        if key not in exact:
            dz = z2 - (2.0 * q_re) * z + q_sq * ident
            exact[key] = bool(np.linalg.svd(dz, compute_uv=False)[-1] <= threshold)
        verdict[k] = exact[key]
    return verdict.tolist()


def _certificate(z, zh, fro, lams, t, kept=None) -> tuple[np.ndarray, np.ndarray]:
    """The certificate verdicts of delta_oracle for the probes lams (a
    complex array), as two bool arrays: in, and decided (in or out).

    With a record kept, on its basis, factored and stored there by the
    first call that needs it; without, on a fresh basis."""
    basis = None if kept is None else kept.basis
    if basis is None:
        basis = _basis(z, zh)
        if basis is None:
            none = np.zeros(len(lams), dtype=bool)
            return none, none
        if kept is not None:
            kept.basis = basis
    return _decide(z, fro, lams, t, *basis)


def _basis(z, zh) -> tuple[np.ndarray, float] | None:
    """The certificate's basis: Q, read-only, from `eigh` of C
    (bridge.hermitian_eigvecs) and delta >= ||Q*Q - I||; None when `eigh`
    fails or delta >= 1/2."""
    eps = np.finfo(np.float64).eps
    size = z.shape[0]
    g = (size + 2) * eps
    grow = 1.0 + (size * size + 8) * eps
    try:
        q = hermitian_eigvecs(z, zh)
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


def _decide(z, fro, lams, t, q, delta) -> tuple[np.ndarray, np.ndarray]:
    """The certificate's verdicts on basis (Q, delta) from the current Z, as
    _certificate returns them."""
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
    return is_in, is_in | is_out


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform directions on the unit 2-sphere."""
    t = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * t + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(golden * t), r * np.sin(golden * t), z], axis=1)


def sphere_probes(spectrum: SphereSpectrum, margin: float) -> np.ndarray:
    """For each orbit point of spectrum in turn, PROBES_PER_ORBIT probes on
    its sphere, then PROBES_PER_ORBIT near it but at distance >= margin from
    every orbit point in the (re, |im|) half plane: a (2 PROBES_PER_ORBIT K,
    4) array.

    Probe t of each half takes direction t of a Fibonacci lattice, so the
    oracle also sees varying imaginary directions. Off-sphere probe t tries
    the points at angle 2 pi (t + 1/2) / PROBES_PER_ORBIT around the orbit
    point, at radii 1.5 margin 1.3^k for k < 40, and takes the first one
    clear of the whole spectrum; a far-field point stands in when none is.
    """
    points = spectrum.points
    dirs = fibonacci_sphere(PROBES_PER_ORBIT)
    angles = [2.0 * math.pi * (t + 0.5) / PROBES_PER_ORBIT for t in range(PROBES_PER_ORBIT)]
    cos = np.array([math.cos(x) for x in angles])
    sin = np.array([math.sin(x) for x in angles])
    # Python's power, which np.power does not match bit for bit
    radii = margin * np.array([1.3**k for k in range(40)]) * 1.5
    far = float(np.max(np.abs(points[:, 0]) + points[:, 1], initial=0.0)) + 1.0
    placed = np.empty((len(points), 2, PROBES_PER_ORBIT, 2))
    placed[:, 0] = points[:, None, :]
    placed[:, 1, :, 0] = far + np.arange(1, PROBES_PER_ORBIT + 1) * margin
    placed[:, 1, :, 1] = far
    for k, (re, im_norm) in enumerate(points.tolist()):
        pending = np.arange(PROBES_PER_ORBIT)
        for r in radii:
            cand_re = re + r * cos[pending]
            cand_im = np.abs(im_norm + r * sin[pending])
            dist = np.hypot(cand_re[:, None] - points[:, 0], cand_im[:, None] - points[:, 1])
            clear = (dist >= margin).all(axis=1)
            placed[k, 1, pending[clear]] = np.stack([cand_re[clear], cand_im[clear]], axis=1)
            pending = pending[~clear]
            if not len(pending):
                break
    probes = np.empty((len(points), 2, PROBES_PER_ORBIT, 4))
    probes[..., 0] = placed[..., 0]
    probes[..., 1:] = placed[..., 1, None] * dirs
    return probes.reshape(-1, 4)


def classify(form: MultiplicationForm, tol: float) -> dict[str, bool]:
    """Anti-self-adjointness and unitarity read off the symbol.

    anti_self_adjoint iff every positive-weight value has |re| <= tol;
    unitary iff every | |value| - 1 | <= tol. tol is absolute, not relative
    to ||A||, so any A with ||A|| <= tol reads as anti-self-adjoint. Both
    verdicts are cross-checked on the chi image of the reconstructed
    operator against ||A + A*|| <= 2 tol + slack and ||A*A - I|| <= 3 tol +
    slack, slack = 1e-12 (1 + ||A||), and a CrossCheckError is raised if the
    two routes disagree.
    """
    pos = form.space.positive()
    values = form.phi.values[pos]
    moduli = form.phi.moduli()[pos]
    anti_sym = bool(np.all(np.abs(values[:, 0]) <= tol))
    unit_sym = bool(np.all(np.abs(moduli - 1.0) <= tol))

    rec = form.decomposition.rec
    rec_h, slack = np.conj(rec.T), 1e-12 * (1.0 + form.op_norm)
    anti_op = np.linalg.norm(rec + rec_h, 2) <= 2.0 * tol + slack
    unit_op = np.linalg.norm(rec_h @ rec - np.eye(len(rec)), 2) <= 3.0 * tol + slack
    if anti_sym != anti_op or unit_sym != unit_op:
        raise CrossCheckError(
            f"symbol/operator classification disagrees: "
            f"anti {anti_sym}/{anti_op}, unitary {unit_sym}/{unit_op}"
        )
    return {"anti_self_adjoint": anti_sym, "unitary": unit_sym}


def conjugate_equivalence(form: MultiplicationForm) -> QMatrix:
    """Unitary W with A = W* A* W, built as U* M_rho U, rho = phi * n / |phi|.

    Requires the symbol to be nonzero on every positive-weight atom. Built
    and checked on chi images: with chi(V) = [W1, W2] and C = diag(phi / |phi|),
    chi(rho) = M = [[0, -C], [conj C, 0]], so chi(W) = W2 conj(C) W1* - W1 C W2*.
    M is unitary (|c_k| = 1 to rounding), so with E = chi(V)* chi(V) - I,
    chi(W)* chi(W) - I = (chi(V) chi(V)* - I) + chi(V) M* E M chi(V)* reads
    at most (2 + ||E||_2) u, u = ||E||_F / sqrt 2 <= 1e-10 sqrt n
    (decompose.unitary): at most 0.2 of 1e-9 n, so W's unitarity is not
    checked; spectral.conjugate_residual is.
    """
    moduli = form.phi.moduli()
    floor = 1e-12 * max(float(np.max(moduli)), TINY)
    low = np.flatnonzero(form.space.positive() & (moduli <= floor))
    if len(low):
        raise SymbolZeroError(f"symbol vanishes on positive-weight atom {low[0]}")

    n, rec = len(moduli), form.decomposition.rec
    c = qa.slice_coords(form.phi.values, form.frame) / moduli
    w1, w2 = np.split(form.decomposition.w, 2, axis=1)
    cw = (w2 * np.conj(c)) @ np.conj(w1.T) - (w1 * c) @ np.conj(w2.T)
    conj_err = qa.chi_fro(rec - np.conj(cw.T) @ np.conj(rec.T) @ cw)
    require(scaled_check("spectral.conjugate_residual", conj_err, qa.chi_fro(rec)), CrossCheckError)
    return QMatrix(iota_inv(cw[:, :n], form.frame))


@dataclass
class SliceSpectrumReport:
    """Eigenvalues of the plus restriction, as complex coordinates against
    {1, m}, and the check of how far they are from the orbit set
    (decompose.slice_spectrum_plus); the minus restriction's are their
    conjugates (slices.restrict_pair)."""

    plus: np.ndarray
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
    """Check sigma(plus restriction) = spectrum orbits in C_m+, relative to
    ||A||. The orbits and ||A|| are those of multiplication_form(a) unless
    given. The minus restriction is conj(T+) (slices.restrict_pair), so its
    spectrum is the conjugate set, and is not checked again.

    T+ must be normal (normal.commutator, NotNormalError): for J = build_J
    of A's own decomposition it is, but a caller may pass the J of another
    matrix. Its eigenvalues come from the decomposition's solver
    (bridge.eig_normal), unsorted."""
    t_plus = restrict_pair(a, s)[0]
    require(qa.normality(t_plus.z), NotNormalError)
    plus_c = eig_normal(t_plus.z)[1]

    if spectrum is None:
        spectrum = sphere_spectrum(multiplication_form(a, s.frame))
    reps_c = spectrum.points[:, 0] + 1j * spectrum.points[:, 1]

    # Hausdorff distance between the eigenvalue set and the orbit reps.
    dist = np.abs(plus_c[:, None] - reps_c[None, :])
    plus_dev = max(float(np.max(np.min(dist, axis=1))), float(np.max(np.min(dist, axis=0))))
    check = scaled_check("decompose.slice_spectrum_plus", plus_dev, spectrum.op_norm)
    return SliceSpectrumReport(plus_c, [check])
