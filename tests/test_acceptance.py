"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The bounded-operator corpus (criteria 2-4, 8) is 100 seeded random normal
matrices, 20 per dimension in {2, 4, 8, 16, 32}; the slice-operator corpus
(criterion 5) is 100 random slice-valued normal matrices of dimension <= 16.
All tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from qspectra import J, K, QMatrix, STANDARD_FRAME, inner
from qspectra import generate as gen
from qspectra.bridge import CMatrix, spectral_decompose
from qspectra.example import run_example
from qspectra.measure import ess_sup
from qspectra.operators import delta
from qspectra.slices import (
    build_J,
    extend,
    project_minus,
    project_plus,
    quaternionify,
    restrict_plus,
)
from qspectra.spectral import (
    conjugate_equivalence,
    delta_oracle,
    multiplication_form,
    off_sphere_probes,
    on_sphere_probes,
    oracle_scale,
    slice_spectrum_check,
    sphere_spectrum,
)
from qspectra.transform import (
    bounded_transform,
    commuting_J_unbounded,
    inverse_transform,
    z_extension_check,
)

MASTER_SEED = 1108
SIZES = (2, 4, 8, 16, 32)
PER_SIZE = 20


def _announce(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """100 random normal matrices with their multiplication forms."""
    out = []
    start = time.perf_counter()
    for n in SIZES:
        for trial in range(PER_SIZE):
            rng = np.random.default_rng([MASTER_SEED, n, trial])
            frame = gen.random_frame(rng)
            a = gen.random_normal(rng, n, frame, min_modulus=0.05)
            form = multiplication_form(a, frame)
            out.append((a, frame, form))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_1_worked_example():
    start = time.perf_counter()
    report = run_example(64)
    elapsed = time.perf_counter() - start
    by_name = {c.name.split(".")[1]: c for c in report.checks}
    ok = (
        by_name["unit_modulus"].residual <= 1e-15
        and by_name["multiplier_equivalence"].residual <= 1e-12
        and by_name["conjugation_identity"].residual <= 1e-14
        and report.passed
        and elapsed < 1.0
    )
    _announce(
        1,
        ok,
        f"worked example at grid 64: |u|-1 = {by_name['unit_modulus'].residual:.1e}, "
        f"multiplier gap {by_name['multiplier_equivalence'].residual:.1e} (<= 1e-12), "
        f"conjugation {by_name['conjugation_identity'].residual:.1e} (<= 1e-14), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_multiplication_form(corpus):
    matrices, build_time = corpus
    start = time.perf_counter()
    worst_rec, worst_norm = 0.0, 0.0
    for a, frame, form in matrices:
        rec_rel = (a - form.reconstruct()).frobenius() / a.frobenius()
        norm_rel = abs(a.op_norm() - ess_sup(form.phi)) / max(a.op_norm(), 1e-300)
        worst_rec = max(worst_rec, rec_rel)
        worst_norm = max(worst_norm, norm_rel)
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst_rec <= 1e-9 and worst_norm <= 1e-9 and elapsed < 30.0
    _announce(
        2,
        ok,
        f"100 normal matrices (n in {SIZES}): reconstruction residual "
        f"{worst_rec:.2e} (<= 1e-9 * ||A||_F), norm identity {worst_norm:.2e} "
        f"(<= 1e-9 * ||A||), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_oracle_equivalence(corpus):
    matrices, _ = corpus
    disagreements, probes_run = 0, 0
    for a, frame, form in matrices:
        spectrum = sphere_spectrum(form)
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        for orbit in spectrum.orbits:
            probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
            verdicts = delta_oracle(a, probes, 1e-7)
            member = [spectrum.contains(q, 1e-9) for q in probes]
            probes_run += len(probes)
            disagreements += sum(v != m for v, m in zip(verdicts, member))
    _announce(
        3,
        disagreements == 0,
        f"Delta-kernel oracle vs orbit membership: {disagreements} disagreements "
        f"over {probes_run} probes (16 on + 16 off sphere per orbit, tol 1e-7)",
    )


def test_criterion_4_slice_spectrum(corpus):
    matrices, _ = corpus
    worst_plus, worst_conj = 0.0, 0.0
    for a, frame, form in matrices:
        dec = spectral_decompose(a, frame)
        structure = build_J(dec)
        report = slice_spectrum_check(a, structure, spectrum=sphere_spectrum(form))
        scale = max(a.op_norm(), 1.0)
        worst_plus = max(worst_plus, report.plus_deviation / scale)
        worst_conj = max(worst_conj, report.conj_deviation / scale)
    ok = worst_plus <= 1e-8 and worst_conj <= 1e-8
    _announce(
        4,
        ok,
        f"plus-restriction spectrum = orbit set in the upper half slice to "
        f"{worst_plus:.2e} (<= 1e-8), minus spectrum conjugate to {worst_conj:.2e}",
    )


def test_criterion_5_extension_algebra():
    worst_norm, worst_star, worst_mult, worst_delta = 0.0, 0.0, 0.0, 0.0
    for trial in range(100):
        rng = np.random.default_rng([MASTER_SEED, 5, trial])
        n = int(rng.integers(2, 17))
        frame = gen.random_frame(rng)
        anchor = gen.random_normal(rng, n, frame)
        structure = build_J(spectral_decompose(anchor, frame))

        zt = gen.random_complex_normal(rng, n)
        zs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t_plus = CMatrix.from_complex(zt, frame)
        s_plus = CMatrix.from_complex(zs, frame)
        t_ext = extend(t_plus, structure)
        s_ext = extend(s_plus, structure)

        tq, sq = QMatrix(t_plus.data), QMatrix(s_plus.data)
        worst_norm = max(worst_norm, abs(t_ext.op_norm() - tq.op_norm()))
        worst_star = max(
            worst_star,
            (extend(CMatrix(tq.H.a, frame), structure) - t_ext.H).frobenius(),
        )
        worst_mult = max(
            worst_mult,
            (extend(CMatrix((sq @ tq).a, frame), structure) - (s_ext @ t_ext)).frobenius(),
        )
        for _ in range(8):
            q = gen.random_quaternion(rng)
            d_plus = (tq @ tq) - (2.0 * q.re) * tq + q.norm_sq() * QMatrix.identity(n)
            gap = (delta(t_ext, q) - extend(CMatrix(d_plus.a, frame), structure)).frobenius()
            worst_delta = max(worst_delta, gap)
    ok = worst_norm <= 1e-9 and worst_star <= 1e-10 and worst_mult <= 1e-10 and worst_delta <= 1e-10
    _announce(
        5,
        ok,
        f"extension algebra on 100 slice normal matrices (n <= 16): "
        f"norm equality {worst_norm:.2e} (<= 1e-9), star {worst_star:.2e} (<= 1e-10), "
        f"multiplicativity {worst_mult:.2e} (<= 1e-10), Delta compatibility "
        f"{worst_delta:.2e} (<= 1e-10, 8 probes each)",
    )


def test_criterion_6_bounded_transform():
    norm_ok = True
    worst_star, worst_round, worst_zext, worst_commute = 0.0, 0.0, 0.0, 0.0
    for trial in range(25):
        rng = np.random.default_rng([MASTER_SEED, 6, trial])
        frame = gen.random_frame(rng)
        n = int(rng.integers(2, 9))
        scale = float(rng.choice([0.5, 1.0, 10.0, 1000.0]))
        a = gen.random_normal(rng, n, frame, scale=scale)
        bt = bounded_transform(a)
        norm_ok = norm_ok and bt.Z.op_norm() <= 1.0
        worst_star = max(
            worst_star, (bounded_transform(a.H).Z - bt.Z.H).frobenius()
        )
        worst_round = max(
            worst_round,
            (inverse_transform(bt.Z) - a).frobenius() / (1.0 + a.op_norm() ** 2),
        )
        structure = commuting_J_unbounded(a, frame)
        worst_commute = max(
            worst_commute,
            ((structure.J @ a) - (a @ structure.J)).frobenius() / max(a.frobenius(), 1e-300),
        )
        anchor = gen.random_normal(rng, n, frame)
        s2 = build_J(spectral_decompose(anchor, frame))
        t_plus = CMatrix.from_complex(gen.random_complex_normal(rng, n), frame)
        worst_zext = max(worst_zext, z_extension_check(t_plus, s2))
    ok = (
        norm_ok
        and worst_star <= 1e-10
        and worst_round <= 1e-8
        and worst_zext <= 1e-9
        and worst_commute <= 1e-9
    )
    _announce(
        6,
        ok,
        f"bounded transform: ||Z|| <= 1 {'held' if norm_ok else 'VIOLATED'}, "
        f"star compatibility {worst_star:.2e} (<= 1e-10), round trip "
        f"{worst_round:.2e} (<= 1e-8 * (1+||T||^2), ||T|| up to 1e3), "
        f"transform-extension commutation {worst_zext:.2e} (<= 1e-9), commuting J "
        f"{worst_commute:.2e} (<= 1e-9 * ||A||)",
    )


def test_criterion_7_pair_construction():
    rng = np.random.default_rng([MASTER_SEED, 7])
    frame = gen.random_frame(rng)
    space = quaternionify(3, frame)
    worst_assoc = 0.0
    for _ in range(1000):
        u = space.element(
            rng.normal(size=3) + 1j * rng.normal(size=3),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        p, q = gen.random_quaternion(rng), gen.random_quaternion(rng)
        lhs = space.scale(space.scale(u, p), q)
        rhs = space.scale(u, p * q)
        worst_assoc = max(
            worst_assoc,
            float(np.linalg.norm(lhs[0] - rhs[0]) + np.linalg.norm(lhs[1] - rhs[1])),
        )

    # regression witness: the unconjugated action maps (0,1) * k, i.e. j * k,
    # to -i instead of i in the standard frame
    std = quaternionify(1, STANDARD_FRAME)
    jk_good = std.scale(std.element([0.0], [1.0]), K)
    jk_bad = std.scale_unconjugated(std.element([0.0], [1.0]), K)
    witness = (
        np.allclose(jk_good[0], [1j])
        and np.allclose(jk_bad[0], [-1j])
    )

    worst_orth = 0.0
    anchor_rng = np.random.default_rng([MASTER_SEED, 7, 1])
    a = gen.random_normal(anchor_rng, 8, frame)
    structure = build_J(spectral_decompose(a, frame))
    for _ in range(1000):
        xp = project_plus(gen.random_qvector(anchor_rng, 8), structure)
        xm = project_minus(gen.random_qvector(anchor_rng, 8), structure)
        worst_orth = max(worst_orth, abs(inner(xp, xm) + inner(xm, xp)))

    ok = worst_assoc <= 1e-12 and witness and worst_orth <= 1e-10
    _announce(
        7,
        ok,
        f"pair construction: associativity over 1000 triples {worst_assoc:.2e} "
        f"(<= 1e-12), unconjugated-action regression witness "
        f"{'reproduced' if witness else 'MISSING'}, plus/minus orthogonality "
        f"identity over 1000 pairs {worst_orth:.2e} (<= 1e-10)",
    )


def test_criterion_8_conjugate_equivalence(corpus):
    matrices, _ = corpus
    worst_unitary, worst_conj = 0.0, 0.0
    for a, frame, form in matrices:
        w = conjugate_equivalence(form)
        worst_unitary = max(
            worst_unitary,
            ((w.H @ w) - QMatrix.identity(a.n)).frobenius() / np.sqrt(a.n),
        )
        worst_conj = max(
            worst_conj, (a - (w.H @ a.H @ w)).frobenius() / a.frobenius()
        )
    ok = worst_unitary <= 1e-9 and worst_conj <= 1e-9
    _announce(
        8,
        ok,
        f"conjugate equivalence on the 100-matrix corpus: W unitary to "
        f"{worst_unitary:.2e}, A = W* A* W to {worst_conj:.2e} (<= 1e-9 * ||A||)",
    )
