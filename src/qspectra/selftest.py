"""Seeded property-suite runner behind the selftest CLI command.

Each group re-derives module invariants on seeded random data and reports
the worst residual observed; the spectral groups share one corpus, decomposed
once per run. A check a library routine builds (the form's, the
transform's) is reported as built, never stated again.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import generate as gen
from . import qarray as qa
from . import vectors as vec
from .bridge import CMatrix, chi, eig_normal, spectral_decompose
from .measure import (
    AtomicMeasureSpace,
    L2Element,
    Symbol,
    ess_sup,
    l2_slice_split,
    m_phi,
    m_phi_norm,
    pushforward,
)
from .operators import QMatrix, delta
from .quaternion import Quaternion, SliceFrame, orbit_of, slice_join, slice_split
from .report import Check, VerificationReport, check_from, flag_check
from .slices import build_J, extend, project_minus, project_plus, quaternionify, restrict_pair
from .spectral import (
    _multiset_deviation,
    classify,
    conjugate_equivalence,
    delta_oracle,
    multiplication_form,
    oracle_scale,
    sphere_probes,
    sphere_spectrum,
)
from .transform import (
    UnboundedSim,
    transform_checks,
    unbounded_multiplication_form,
    xi,
    xi_inv,
    z_extension_check,
)


def _worst(name: str, checks: list[Check], library_name: str) -> Check:
    """The library_name check that fails, else the one of largest residual / tol, as name."""
    built = (c for c in checks if c.name == library_name)
    return replace(max(built, key=lambda c: (not c.passed, c.residual / c.tol)), name=name)


def _group_quaternion(rng, n, corpus) -> list[Check]:
    worst_mul, worst_split, worst_orbit = 0.0, 0.0, 0.0
    frames = [gen.random_frame(rng) for _ in range(4)]
    for _ in range(200):
        a, b = gen.random_quaternion(rng), gen.random_quaternion(rng)
        rel = abs(abs(a * b) - abs(a) * abs(b)) / max(abs(a) * abs(b), 1e-30)
        worst_mul = max(worst_mul, rel)
        f = frames[rng.integers(len(frames))]
        q = gen.random_quaternion(rng)
        sa, sb = slice_split(q, f)
        worst_split = max(worst_split, abs(slice_join(sa, sb, f) - q))
        s = gen.random_quaternion(rng)
        if abs(s) > 1e-3:
            o1, o2 = orbit_of(q), orbit_of(s.inverse() * q * s)
            worst_orbit = max(worst_orbit, abs(o1.re - o2.re), abs(o1.im_norm - o2.im_norm))
    m = gen.random_unit_imaginary(rng)
    f1, f2 = SliceFrame.from_m(m), SliceFrame.from_m(Quaternion(0.0, m.x, m.y, m.z))
    deterministic = f1 == f2
    return [
        check_from("quaternion.modulus_multiplicative", worst_mul, 1e-14),
        check_from("quaternion.slice_split_recombine", worst_split, 1e-14),
        check_from("quaternion.orbit_conjugation_invariant", worst_orbit, 1e-12),
        flag_check("quaternion.frame_deterministic", deterministic),
    ]


def _group_vectors(rng, n, corpus) -> list[Check]:
    worst_real, worst_cs, worst_expand = 0.0, 0.0, 0.0
    for _ in range(50):
        x = gen.random_qvector(rng, n)
        y = gen.random_qvector(rng, n)
        g = vec.inner(x, x)
        worst_real = max(worst_real, abs(g - Quaternion(vec.norm(x) ** 2)))
        worst_cs = max(worst_cs, abs(vec.inner(x, y)) - vec.norm(x) * vec.norm(y))
        basis = vec.gram_schmidt([gen.random_qvector(rng, n) for _ in range(n)])
        coeffs = vec.expand(x, basis)
        worst_expand = max(worst_expand, vec.norm(x - vec.reconstruct(basis, coeffs)))
    return [
        check_from("vectors.inner_self_real", worst_real, 1e-10),
        check_from("vectors.cauchy_schwarz_margin", worst_cs, 1e-12),
        check_from("vectors.expand_reconstruct", worst_expand, 1e-10),
    ]


def _power_iteration_norm(a: QMatrix, rng) -> float:
    x = gen.random_qvector(rng, a.n)
    x /= vec.norm(x)
    ah = a.H
    for _ in range(100):
        x = ah.apply(a.apply(x))
        nx = vec.norm(x)
        if nx == 0.0:
            return 0.0
        x /= nx
    return vec.norm(a.apply(x))


def _spread_spectrum_matrix(rng, n, frame) -> QMatrix:
    """Normal matrix whose top singular value is separated by construction,
    so the power iteration below converges for every seed."""
    d = gen.random_standard_values(rng, n, frame, scale=0.8)
    d[0] = Quaternion(1.5) + frame.m * 1.5
    v = gen.random_unitary(rng, n)
    return v @ QMatrix.diag(d) @ v.H


def _group_operators(rng, n, corpus) -> list[Check]:
    worst_bound, worst_power, worst_delta, worst_adj = 0.0, 0.0, 0.0, 0.0
    for _ in range(10):
        a = QMatrix(gen.random_qvector(rng, n * n).reshape(n, n, 4))
        b = QMatrix(gen.random_qvector(rng, n * n).reshape(n, n, 4))
        norm_a = a.op_norm()
        for _ in range(5):
            x = gen.random_qvector(rng, n)
            worst_bound = max(worst_bound, vec.norm(a.apply(x)) - norm_a * vec.norm(x))
        spread = _spread_spectrum_matrix(rng, n, gen.random_frame(rng))
        worst_power = max(worst_power, spread.op_norm() - _power_iteration_norm(spread, rng))
        q = gen.random_quaternion(rng)
        s = gen.random_quaternion(rng)
        d1 = delta(a, q)
        worst_delta = max(
            worst_delta,
            (d1 - delta(a, q.conjugate())).frobenius(),
            (d1 - delta(a, s.inverse() * q * s)).frobenius() if abs(s) > 1e-3 else 0.0,
        )
        worst_adj = max(worst_adj, ((a @ b).H - (b.H @ a.H)).frobenius())
    return [
        check_from("operators.norm_bounds_action", worst_bound, 1e-10),
        check_from("operators.power_iteration_attains_norm", worst_power, 1e-6),
        check_from("operators.delta_orbit_function", worst_delta, 1e-10),
        check_from("operators.adjoint_antihomomorphism", worst_adj, 1e-12),
    ]


def _orbits(values: list[Quaternion]) -> np.ndarray:
    return np.array([complex(q.re, q.im_norm()) for q in values])


def _group_bridge(rng, n, corpus) -> list[Check]:
    worst_orbit, worst_mult, worst_star, worst_pair, worst_frame = 0.0, 0.0, 0.0, 0.0, 0.0
    for kind, f, d, a, form in corpus:
        # orbits as multisets: on anti-self-adjoint input the real parts are
        # rounding noise, so sorting by them pairs unrelated orbits
        got = _orbits(form.decomposition.d)
        worst_orbit = max(worst_orbit, _multiset_deviation(_orbits(d), got))
        b = QMatrix(gen.random_qvector(rng, n * n).reshape(n, n, 4))
        za, zb = form.decomposition.z, chi(b, f)
        worst_mult = max(worst_mult, float(np.linalg.norm(chi(a @ b, f) - za @ zb)))
        worst_star = max(worst_star, float(np.linalg.norm(chi(a.H, f) - np.conj(za.T))))
        vals = eig_normal(za)[1]
        for lam in vals[vals.imag > 1e-9]:
            worst_pair = max(worst_pair, float(np.min(np.abs(vals - np.conj(lam)))))
        dec2 = spectral_decompose(a, gen.random_frame(rng))
        worst_frame = max(worst_frame, _multiset_deviation(got, _orbits(dec2.d)))
    return [
        check_from("bridge.orbit_recovery", worst_orbit, 1e-8),
        check_from("bridge.chi_multiplicative", worst_mult, 1e-12),
        check_from("bridge.chi_star_homomorphism", worst_star, 1e-12),
        check_from("bridge.eigenvalue_conjugate_pairing", worst_pair, 1e-9),
        check_from("bridge.frame_covariant_orbits", worst_frame, 1e-9),
    ]


def _group_extension(rng, n, corpus) -> list[Check]:
    worst_orth, worst_norm, worst_star, worst_mult, worst_delta = 0.0, 0.0, 0.0, 0.0, 0.0
    for kind, f, d, a, form in corpus:
        s = build_J(form.decomposition)
        for _ in range(10):
            xp = project_plus(gen.random_qvector(rng, n), s)
            xm = project_minus(gen.random_qvector(rng, n), s)
            worst_orth = max(worst_orth, abs(vec.inner(xp, xm) + vec.inner(xm, xp)))
        tp = restrict_pair(a, s)[0]
        tq = restrict_pair(a @ a, s)[0]
        ext, tpq = extend(tp, s), QMatrix(tp.data)
        worst_norm = max(worst_norm, abs(ext.op_norm() - tpq.op_norm()))
        worst_star = max(worst_star, (extend(CMatrix(tpq.H.a, f), s) - ext.H).frobenius())
        worst_mult = max(worst_mult, (extend(tq, s) - (ext @ ext)).frobenius())
        q = gen.random_quaternion(rng)
        d_plus = CMatrix(delta(tpq, q).a, f)
        worst_delta = max(worst_delta, (delta(ext, q) - extend(d_plus, s)).frobenius())
    return [
        check_from("extension.plus_minus_orthogonality", worst_orth, 1e-10),
        check_from("extension.norm_equality", worst_norm, 1e-9),
        check_from("extension.star", worst_star, 1e-10),
        check_from("extension.multiplicative", worst_mult, 1e-10),
        check_from("extension.delta_compatible", worst_delta, 1e-10),
    ]


def _pair_gap(x, y) -> float:
    return float(np.linalg.norm(x[0] - y[0]) + np.linalg.norm(x[1] - y[1]))


def _group_pair(rng, n, corpus) -> list[Check]:
    worst_assoc, lit_fail, worst_proj = 0.0, False, 0.0
    for _ in range(10):
        f = gen.random_frame(rng)
        space = quaternionify(n, f)
        u = space.element(
            rng.normal(size=n) + 1j * rng.normal(size=n),
            rng.normal(size=n) + 1j * rng.normal(size=n),
        )
        p, q2 = gen.random_quaternion(rng), gen.random_quaternion(rng)
        lhs = space.scale(space.scale(u, p), q2)
        rhs = space.scale(u, p * q2)
        worst_assoc = max(worst_assoc, _pair_gap(lhs, rhs))
        lit_lhs = space.scale_unconjugated(space.scale_unconjugated(u, p), q2)
        lit_rhs = space.scale_unconjugated(u, p * q2)
        lit_fail = lit_fail or _pair_gap(lit_lhs, lit_rhs) > 1e-6
        worst_proj = max(worst_proj, _pair_gap(space.project_plus(u), (u[0], 0.0)))
    return [
        check_from("pair.action_associative", worst_assoc, 1e-12),
        flag_check("pair.action_unconjugated_fails", lit_fail),
        check_from("pair.projection_recovers_first_slot", worst_proj, 1e-10),
    ]


def _group_measure(rng, n, corpus) -> list[Check]:
    worst_norm, worst_normal, worst_pyth, worst_mass = 0.0, 0.0, 0.0, 0.0
    for _ in range(10):
        f = gen.random_frame(rng)
        n_atoms = int(rng.integers(2, 12))
        space = AtomicMeasureSpace(
            gen.random_qvector(rng, n_atoms), np.abs(rng.normal(size=n_atoms)) + 0.01
        )
        values = [
            Quaternion(rng.uniform(-2, 2)) + f.m * rng.uniform(-2, 2) for _ in range(n_atoms)
        ]
        phi = Symbol.from_values(space, values, f)
        worst_norm = max(worst_norm, abs(m_phi_norm(phi) - ess_sup(phi)))
        g = L2Element(space, gen.random_qvector(rng, n_atoms))
        phistar = Symbol.from_values(space, [v.conjugate() for v in values], f)
        commutator = m_phi(phistar, m_phi(phi, g)) - m_phi(phi, m_phi(phistar, g))
        worst_normal = max(worst_normal, commutator.norm())
        f_el = L2Element(space, gen.random_qvector(rng, n_atoms))
        f1, f2 = l2_slice_split(f_el, f)
        worst_pyth = max(
            worst_pyth, abs(f_el.norm() ** 2 - f1.norm() ** 2 - f2.norm() ** 2)
        )
        image = pushforward(space, lambda q: Quaternion(round(q.re, 1)))
        worst_mass = max(worst_mass, abs(image.total_mass() - space.total_mass()))
    return [
        check_from("measure.mphi_norm_equals_ess_sup", worst_norm, 1e-12),
        check_from("measure.mphi_normal", worst_normal, 1e-12),
        check_from("measure.slice_split_pythagoras", worst_pyth, 1e-12),
        check_from("measure.pushforward_mass", worst_mass, 1e-12),
    ]


def _group_form(rng, n, corpus) -> list[Check]:
    checks = [c for *_, form in corpus for c in form.checks]
    return [
        _worst("form.reconstruction_relative", checks, "decompose.reconstruction"),
        _worst("form.norm_identity_relative", checks, "decompose.norm_identity"),
    ]


def _group_oracle(rng, n, corpus) -> list[Check]:
    oracle_ok = True
    for kind, f, d, a, form in corpus:
        spec = sphere_spectrum(form)
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        probes = sphere_probes(spec, margin)
        member = spec.contains(probes, 1e-9).tolist()
        oracle_ok = oracle_ok and delta_oracle(a, probes, 1e-7) == member
    return [flag_check("oracle.delta_kernel_agrees_with_orbits", oracle_ok)]


def _group_corollaries(rng, n, corpus) -> list[Check]:
    classify_ok = True
    worst_conj = 0.0
    for kind, f, d, a, form in corpus:
        got = classify(form, 1e-8)
        classify_ok = (
            classify_ok
            and got["anti_self_adjoint"] == (kind == "antiSelfAdjoint")
            and got["unitary"] == (kind == "unitary")
        )
        w = conjugate_equivalence(form)
        worst_conj = max(
            worst_conj, (a - (w.H @ a.H @ w)).frobenius() / max(a.frobenius(), 1e-30)
        )
    return [
        flag_check("corollaries.classify_cross_check", classify_ok),
        check_from("corollaries.conjugate_equivalence_relative", worst_conj, 1e-9),
    ]


def _group_transform(rng, n, corpus) -> list[Check]:
    worst_xi = 0.0
    f = gen.random_frame(rng)
    for _ in range(20):
        p = gen.random_quaternion(rng, scale=100.0)
        err = abs(xi_inv(xi(xi_inv(p))) - xi_inv(p))
        worst_xi = max(worst_xi, err / (1.0 + abs(xi_inv(p))))
    inputs = [gen.random_normal(rng, n, f, scale=scale) for scale in (1.0, 40.0, 1000.0)]
    checks = [c for a in inputs for c in transform_checks(a)]
    return [
        check_from("transform.xi_round_trip_relative", worst_xi, 1e-12),
        _worst("transform.contraction_norm_bounded", checks, "transform.contraction"),
        _worst("transform.inverse_round_trip_scaled", checks, "transform.round_trip"),
        _worst("transform.star_compatible", checks, "transform.star_compatible"),
    ]


def _group_unbounded(rng, n, corpus) -> list[Check]:
    kind, f, d, a, form = corpus[0]
    s = build_J(form.decomposition)
    worst_zext = z_extension_check(restrict_pair(a, s)[0], s)
    worst_trunc = 0.0
    for n_atoms in (8, 64, 512):
        grid = np.linspace(0.0, 8.0, n_atoms)
        space = AtomicMeasureSpace.from_labels(
            [Quaternion(t) for t in grid], np.full(n_atoms, 8.0 / n_atoms)
        )
        psi = Symbol.from_values(space, [f.m * t for t in grid], f)
        sim = UnboundedSim.from_symbol(psi)
        v, new_space, eta = unbounded_multiplication_form(sim, f)
        g = L2Element(space, gen.random_qvector(rng, n_atoms))
        lhs = m_phi(psi, g).values
        vg = L2Element(new_space, v.apply(g.values))
        rhs = v.H.apply(m_phi(eta, vg).values)
        worst_trunc = max(
            worst_trunc,
            float(np.max(qa.qabs(lhs - rhs))) / (1.0 + float(np.max(qa.qabs(lhs)))),
        )
    return [
        check_from("unbounded.z_extension_commutes", worst_zext, 1e-9),
        check_from("unbounded.truncation_stable", worst_trunc, 1e-10),
    ]


GROUPS = [
    _group_quaternion,
    _group_vectors,
    _group_operators,
    _group_bridge,
    _group_extension,
    _group_pair,
    _group_measure,
    _group_form,
    _group_oracle,
    _group_corollaries,
    _group_transform,
    _group_unbounded,
]


def _spectral_corpus(seed: int, n: int) -> list[tuple]:
    """(kind, frame, d, A, form) of each class on a stream of its own:
    A = V diag(d) V* for known standard values d of modulus >= 0.05."""
    rng = np.random.default_rng([seed, len(GROUPS)])
    corpus = []
    for kind in gen.MATRIX_CLASSES:
        f = gen.random_frame(rng)
        d = gen.random_standard_values(rng, n, f, kind, min_modulus=0.05)
        v = gen.random_unitary(rng, n)
        a = v @ QMatrix.diag(d) @ v.H
        corpus.append((kind, f, d, a, multiplication_form(a, f)))
    return corpus


def run_selftest(seed: int, n: int) -> VerificationReport:
    corpus = _spectral_corpus(seed, n)
    checks: list[Check] = []
    for index, group in enumerate(GROUPS):
        rng = np.random.default_rng([seed, index])
        checks.extend(group(rng, n, corpus))
    return VerificationReport("selftest", checks, seed=seed)
