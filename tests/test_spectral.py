import math
from types import SimpleNamespace

import numpy as np
import pytest

from qspectra import I, J, K, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.bridge import spectral_decompose
from qspectra.errors import NotNormalError, PreconditionError, SymbolZeroError
from qspectra.measure import MERGE_TOL, AtomicMeasureSpace, Symbol, ess_ran, ess_sup
from qspectra.operators import delta
from qspectra.quaternion import orbit_of
from qspectra.slices import build_J
from qspectra.spectral import (
    ORBIT_DEDUP_TOL,
    classify,
    conjugate_equivalence,
    delta_oracle,
    fibonacci_sphere,
    multiplication_form,
    off_sphere_probes,
    on_sphere_probes,
    oracle_scale,
    slice_spectrum_check,
    sphere_spectrum,
    _multiset_deviation,
)

from conftest import assert_qclose


class TestMultiplicationForm:
    def test_left_j(self):
        form = multiplication_form(QMatrix.from_rows([[J]]), STANDARD_FRAME)
        assert_qclose(form.phi.value(0), I, 1e-13)
        assert (QMatrix.from_rows([[J]]) - form.reconstruct()).frobenius() <= 1e-12
        assert form.space.n_atoms == 1
        assert form.space.weights[0] == 1.0

    def test_lower_half_diagonal_flipped(self):
        a = QMatrix.from_rows([[Quaternion(1, -2)]])
        form = multiplication_form(a, STANDARD_FRAME)
        assert_qclose(form.phi.value(0), Quaternion(1, 2), 1e-12)
        assert (a - form.reconstruct()).frobenius() <= 1e-12

    def test_zero_matrix(self):
        form = multiplication_form(QMatrix.zeros(2), STANDARD_FRAME)
        assert np.all(form.phi.moduli() <= 1e-13)

    def test_norm_identity(self, frame, rng):
        a = gen.random_normal(rng, 8, frame)
        form = multiplication_form(a, frame)
        assert abs(a.op_norm() - ess_sup(form.phi)) <= 1e-9 * max(a.op_norm(), 1.0)

    def test_reconstruction_random(self, frame, rng):
        for n in (2, 6, 12):
            a = gen.random_normal(rng, n, frame)
            form = multiplication_form(a, frame)
            assert (a - form.reconstruct()).frobenius() <= 1e-9 * a.frobenius()

    def test_rejects_non_normal(self):
        arr = np.zeros((2, 2, 4))
        arr[0, 1, 0] = 1.0
        with pytest.raises(NotNormalError):
            multiplication_form(QMatrix(arr), STANDARD_FRAME)

    @pytest.mark.parametrize("route", [multiplication_form, spectral_decompose])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, route, bad, rng):
        a = gen.random_normal(rng, 3, STANDARD_FRAME).a.copy()
        a[1, 2, 3] = bad
        with pytest.raises(PreconditionError, match=r"entry \(1, 2\) is not finite") as err:
            route(QMatrix(a), STANDARD_FRAME)
        assert not isinstance(err.value, NotNormalError)


    @pytest.mark.parametrize(
        "kind, gap, scale",
        [(kind, gap, 1.0) for gap in (1e-9, 1e-8, 1e-7) for kind in gen.MATRIX_CLASSES]
        + [(kind, 1e-8, scale) for scale in (1e-12, 1e12) for kind in gen.MATRIX_CLASSES],
    )
    def test_near_degenerate_spectrum(self, kind, gap, scale):
        # eigenvalue gaps just above rounding, where splitting by a cluster tolerance fails
        rng = np.random.default_rng(16)
        frame = gen.random_frame(rng)
        d = gen.random_standard_values(rng, 16, frame, kind)
        d[1] = d[0] + gap
        d = [scale * q for q in d]
        v = gen.random_unitary(rng, 16)
        a = v @ QMatrix.diag(d) @ v.H
        form = multiplication_form(a, frame)
        want = np.array([q.to_array() for q in d])
        dist = np.linalg.norm(form.phi.values[:, None, :] - want[None, :, :], axis=2)
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-8 * a.op_norm()


class TestSphereSpectrum:
    def test_left_j_is_unit_sphere(self):
        form = multiplication_form(QMatrix.from_rows([[J]]), STANDARD_FRAME)
        spec = sphere_spectrum(form)
        assert len(spec.orbits) == 1
        assert spec.orbits[0].re == pytest.approx(0.0, abs=1e-12)
        assert spec.orbits[0].im_norm == pytest.approx(1.0, abs=1e-12)
        assert spec.contains(J, 1e-9) and spec.contains(K, 1e-9)

    def test_real_diagonal_points(self):
        form = multiplication_form(QMatrix.diag([Quaternion(1), Quaternion(2)]), STANDARD_FRAME)
        got = sorted((o.re, o.im_norm) for o in sphere_spectrum(form).orbits)
        assert got == pytest.approx([(1.0, 0.0), (2.0, 0.0)])

    def test_mixed_diagonal(self):
        form = multiplication_form(QMatrix.diag([I, Quaternion(2, 3)]), STANDARD_FRAME)
        got = sorted((o.re, o.im_norm) for o in sphere_spectrum(form).orbits)
        assert got == pytest.approx([(0.0, 1.0), (2.0, 3.0)])

    def test_multiplicity_deduplicated(self):
        form = multiplication_form(QMatrix.diag([I, I, I]), STANDARD_FRAME)
        assert len(sphere_spectrum(form).orbits) == 1


def reference_orbits(form) -> list[tuple[str, str]]:
    """The orbit loop sphere_spectrum replaced: the values of ess_ran, each
    kept unless math.hypot puts a kept orbit within ORBIT_DEDUP_TOL."""
    orbits = []
    for value in ess_ran(form.phi):
        cand = orbit_of(value)
        if not any(
            math.hypot(cand.re - o.re, cand.im_norm - o.im_norm) <= ORBIT_DEDUP_TOL for o in orbits
        ):
            orbits.append(cand)
    return [(o.re.hex(), o.im_norm.hex()) for o in orbits]


def orbit_bits(form) -> list[tuple[str, str]]:
    return [(o.re.hex(), o.im_norm.hex()) for o in sphere_spectrum(form).orbits]


def symbol_form(values, weights=None):
    """What sphere_spectrum reads of a form, for a symbol on C_i."""
    values = np.asarray(values, dtype=np.float64)
    rows = np.zeros((len(values), 4))
    rows[:, :2] = values
    atoms = AtomicMeasureSpace.counting(len(rows)).atoms
    space = AtomicMeasureSpace(atoms, np.ones(len(rows)) if weights is None else weights)
    return SimpleNamespace(phi=Symbol(space, rows, STANDARD_FRAME), op_norm=1.0)


class TestSphereSpectrumReference:
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_seeded_forms(self, frame, kind, n):
        a = gen.random_normal(np.random.default_rng([n, gen.MATRIX_CLASSES.index(kind)]), n, frame, kind)
        form = multiplication_form(a, frame)
        assert orbit_bits(form) == reference_orbits(form)

    def test_repeated_values(self):
        half = 0.5 * MERGE_TOL
        values = [(1, 2), (1, -2), (1, 2), (0, 1), (1 + half, 2), (0, -1), (3, 0), (3, -0.0)]
        form = symbol_form(values)
        assert orbit_bits(form) == reference_orbits(form)
        assert len(orbit_bits(form)) == 3

    def test_zero_weight_atoms(self):
        values = [(5, 1), (1, 2), (7, 0), (1, -2), (0, 1)]
        form = symbol_form(values, [0.0, 1.0, 0.0, 2.0, 0.5])
        assert orbit_bits(form) == reference_orbits(form)
        assert orbit_bits(form)[0] == ((1.0).hex(), (2.0).hex())
        assert len(orbit_bits(form)) == 2

    @pytest.mark.parametrize("factor, count", [(1 - 1e-3, 1), (1 + 1e-3, 2)])
    @pytest.mark.parametrize("direction", [(1, 0), (0, 1), (0.6, 0.8)])
    def test_pairs_at_the_dedup_tolerance(self, factor, count, direction):
        step = ORBIT_DEDUP_TOL * factor
        base = (0.25, 0.75)
        other = (base[0] + step * direction[0], base[1] + step * direction[1])
        form = symbol_form([base, other, (other[0], -other[1])])
        assert orbit_bits(form) == reference_orbits(form)
        assert len(orbit_bits(form)) == count


class TestDeltaOracle:
    def test_on_and_off_probe(self):
        a = QMatrix.from_rows([[J]])
        verdicts = delta_oracle(a, [I, 2 * I, (I + J) / abs(I + J)], 1e-7)
        assert verdicts == [True, False, True]

    def test_matches_direct_quaternion_route(self, rng):
        a = gen.random_normal(rng, 4, STANDARD_FRAME)
        probes = [gen.random_quaternion(rng) for _ in range(5)]
        threshold = 1e-7 * oracle_scale(a)
        direct = [delta(a, q).sigma_min() <= threshold for q in probes]
        assert delta_oracle(a, probes, 1e-7) == direct

    def test_probe_layout(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        spectrum = sphere_spectrum(multiplication_form(a, frame))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        for orbit in spectrum.orbits:
            for q in on_sphere_probes(orbit):
                assert orbit.distance(q) <= 1e-12
            for q in off_sphere_probes(orbit, spectrum, margin):
                assert spectrum.distance(q) >= margin * (1.0 - 1e-12)

    def test_zero_disagreements(self, frame, rng):
        for _ in range(5):
            a = gen.random_normal(rng, 8, frame)
            spectrum = sphere_spectrum(multiplication_form(a, frame))
            margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
            for orbit in spectrum.orbits:
                probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
                member = [spectrum.contains(q, 1e-9) for q in probes]
                assert delta_oracle(a, probes, 1e-7) == member

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad, rng, monkeypatch):
        a = gen.random_normal(rng, 3, STANDARD_FRAME).a.copy()
        a[1, 2, 0] = bad
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match=r"entry \(1, 2\) is not finite"):
            delta_oracle(QMatrix(a), [I, J], 1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_named(self, bad, rng, monkeypatch):
        a = gen.random_normal(rng, 3, STANDARD_FRAME)
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match=r"probe 2 is not finite"):
            delta_oracle(a, [I, J, Quaternion(0.0, 1.0, bad, 0.0)], 1e-7)

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_non_normal_matches_exact_route(self, scale, tol):
        # the screens bound sigma_min(Delta_q) without assuming normality
        rng = np.random.default_rng(7)
        base = QMatrix(rng.standard_normal((6, 6, 4)))
        assert not base.is_normal()
        a = base * scale
        probes = [scale * gen.random_quaternion(rng) for _ in range(6)]
        if tol > 1e-16:
            # At tol 1e-16 sigma_min at an eigenvalue of this matrix is
            # rounding noise of order N eps ||A||^2 on every route, so such
            # a probe has no verdict to compare.
            lams = np.linalg.eigvals(base.to_complex_adjoint())[:6] * scale
            dirs = fibonacci_sphere(6)
            probes += [Quaternion(lam.real, *(abs(lam.imag) * d)) for lam, d in zip(lams, dirs)]
        assert delta_oracle(a, probes, tol) == _exact_verdicts(a, probes, tol)

    @pytest.mark.parametrize("seed", range(10))
    def test_below_rounding_floor_keeps_exact_verdicts(self, seed):
        # At ||A|| = 1e6 and tol 1e-16 the threshold lies below the rounding
        # of both screens, so every probe must take the exact route unchanged.
        rng = np.random.default_rng(seed)
        a = gen.random_normal(rng, 8, STANDARD_FRAME, "real") * 1e6
        z = a.to_complex_adjoint()
        t = 1e-16 * oracle_scale(a)
        probes = []
        for k, lam in enumerate(np.linalg.eigvals(z)):
            for ratio in (1.0, 3.0):
                p = lam + np.sqrt(ratio * t) * np.exp(2j * np.pi * 0.618 * (2 * k + ratio))
                probes.append(Quaternion(p.real, abs(p.imag)))
        z2, ident = z @ z, np.eye(z.shape[0])
        want = [
            np.linalg.svd(z2 - (2.0 * q.re) * z + q.norm_sq() * ident, compute_uv=False)[-1] <= t
            for q in probes
        ]
        assert delta_oracle(a, probes, 1e-16) == want

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_bisected_probes_match_exact_route(self, scale, tol, monkeypatch):
        # probes placed at sigma_min(Delta_q) = ratio * t, on both sides of the
        # screens' 2t and t/2 margins and of the threshold itself
        values = [Quaternion(1, 2), Quaternion(0.3, 0, 0.4), Quaternion(-0.5), Quaternion(0)]
        a = QMatrix.diag([scale * v for v in values])
        t = tol * oracle_scale(a)
        steps = [Quaternion(0.6, 0.8), Quaternion(0, 0, 0, 1), Quaternion(-1), Quaternion(0, 0.6, 0.8)]
        probes = [
            _bisect_probe(a, scale * v, scale * w, ratio * t)
            for v, w in zip(values, steps)
            for ratio in (0.2, 0.45, 0.55, 0.9, 1.1, 1.9, 2.1, 5.0)
        ]
        want = _exact_verdicts(a, probes, tol)
        calls = _count_svd(monkeypatch)
        assert delta_oracle(a, probes, tol) == want
        if tol == 1e-7:
            assert calls[0] < len(probes)  # the screens decided some probes

    def test_probe_at_eigenvalue_falls_back(self, monkeypatch):
        # Z - lam is exactly singular, so solve fails and the exact SVD decides
        calls = _count_svd(monkeypatch)
        assert delta_oracle(QMatrix.diag([I]), [I], 1e-7) == [True]
        assert calls[0] == 2  # ||A|| and the fallback

    def test_clear_probes_need_one_svd(self, rng, monkeypatch):
        a = gen.random_normal(rng, 16, STANDARD_FRAME)
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        orbit = spectrum.orbits[0]
        probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
        calls = _count_svd(monkeypatch)
        assert delta_oracle(a, probes, 1e-7) == [True] * 16 + [False] * 16
        assert calls[0] == 1

    @pytest.mark.parametrize("tol, screens, svds", [(1e-7, 2, 1), (1e-30, 0, 3)], ids=["screen", "exact"])
    def test_one_computation_per_key(self, rng, monkeypatch, tol, screens, svds):
        # (x, b, 0, 0), (x, 0, b, 0) and (x, 0, 0, b) have bit-identical
        # re q, |im q| and |q|^2, so one screen (or, below the rounding gate,
        # one exact SVD) decides all three; x = 0.0 and -0.0 are two keys
        a = gen.random_normal(rng, 8, STANDARD_FRAME)
        probes = [Quaternion(x, *(0.7 * np.eye(3)[k])) for x in (0.0, -0.0) for k in range(3)]
        want = [delta_oracle(a, [q], tol)[0] for q in probes]
        calls = _count_svd(monkeypatch)
        cholesky, factored = np.linalg.cholesky, [0]

        def counted(*args, **kwargs):
            factored[0] += 1
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        assert delta_oracle(a, probes, tol) == want
        assert (factored[0], calls[0]) == (screens, svds)


def _exact_verdicts(a, probes, tol):
    threshold = tol * oracle_scale(a)
    return [delta(a, q).sigma_min() <= threshold for q in probes]


def _bisect_probe(a, v, w, target):
    """Probe v + s w with sigma_min(delta(a, .)) = target, by bisection on s."""
    def above(s):
        return delta(a, v + w * s).sigma_min() >= target

    lo, hi = 0.0, 1.0
    while not above(hi):
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return v + w * hi


def _count_svd(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _forbid_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("LAPACK reached before the input check")

    for name in ("svd", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, fail)


class TestClassify:
    def test_left_j_is_anti_and_unitary(self):
        form = multiplication_form(QMatrix.from_rows([[J]]), STANDARD_FRAME)
        assert classify(form, 1e-9) == {"anti_self_adjoint": True, "unitary": True}

    def test_mixed_diagonal_unitary_only(self):
        form = multiplication_form(QMatrix.diag([Quaternion(1), I]), STANDARD_FRAME)
        assert classify(form, 1e-9) == {"anti_self_adjoint": False, "unitary": True}

    def test_scaled_identity_neither(self):
        form = multiplication_form(2.0 * QMatrix.identity(2), STANDARD_FRAME)
        assert classify(form, 1e-9) == {"anti_self_adjoint": False, "unitary": False}

    def test_constructed_classes_cross_check(self, frame, rng):
        b = QMatrix(gen.random_qvector(rng, 25).reshape(5, 5, 4))
        anti = b - b.H
        form = multiplication_form(anti, frame)
        assert classify(form, 1e-8)["anti_self_adjoint"] is True
        unitary = gen.random_normal(rng, 5, frame, kind="unitary")
        form = multiplication_form(unitary, frame)
        assert classify(form, 1e-8)["unitary"] is True


class TestConjugateEquivalence:
    def test_left_j(self):
        a = QMatrix.from_rows([[J]])
        w = conjugate_equivalence(multiplication_form(a, STANDARD_FRAME))
        assert (a - (w.H @ a.H @ w)).frobenius() <= 1e-12

    def test_self_adjoint_fixed(self):
        a = QMatrix.diag([Quaternion(2), Quaternion(-1)])
        w = conjugate_equivalence(multiplication_form(a, STANDARD_FRAME))
        assert (a - (w.H @ a @ w)).frobenius() <= 1e-12

    def test_imaginary_diagonal(self):
        a = QMatrix.diag([I, 2 * I])
        form = multiplication_form(a, STANDARD_FRAME)
        w = conjugate_equivalence(form)
        assert ((w.H @ w) - QMatrix.identity(2)).frobenius() <= 1e-12
        assert (a - (w.H @ a.H @ w)).frobenius() <= 1e-12

    def test_zero_symbol_rejected(self):
        a = QMatrix.diag([Quaternion(0), I])
        with pytest.raises(SymbolZeroError):
            conjugate_equivalence(multiplication_form(a, STANDARD_FRAME))

    def test_random_normal_matrices(self, frame, rng):
        for _ in range(5):
            a = gen.random_normal(rng, 6, frame, min_modulus=0.1)
            w = conjugate_equivalence(multiplication_form(a, frame))
            assert (a - (w.H @ a.H @ w)).frobenius() <= 1e-9 * a.frobenius()


class TestSliceSpectrumIdentity:
    def test_left_j(self):
        a = QMatrix.from_rows([[J]])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert report.plus[0] == pytest.approx(1j, abs=1e-12)
        assert report.minus[0] == pytest.approx(-1j, abs=1e-12)

    def test_real_diagonal_self_conjugate(self):
        a = QMatrix.diag([Quaternion(2), Quaternion(3)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        plus = sorted(report.plus.real)
        minus = sorted(report.minus.real)
        assert plus == pytest.approx([2.0, 3.0], abs=1e-10)
        assert minus == pytest.approx([2.0, 3.0], abs=1e-10)

    def test_complex_point(self):
        a = QMatrix.diag([Quaternion(1, 2)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert report.plus[0] == pytest.approx(1 + 2j, abs=1e-10)
        assert report.minus[0] == pytest.approx(1 - 2j, abs=1e-10)

    def test_random_corpus(self, frame, rng):
        for n in (3, 7):
            a = gen.random_normal(rng, n, frame)
            s = build_J(spectral_decompose(a, frame))
            report = slice_spectrum_check(a, s)
            assert report.passed
            assert report.plus_deviation <= 1e-8 * max(a.op_norm(), 1.0)
            assert report.conj_deviation <= 1e-8 * max(a.op_norm(), 1.0)

    def test_anti_self_adjoint(self, frame, rng):
        # real parts of the restricted spectra are rounding noise here
        a = gen.random_normal(rng, 8, frame, kind="antiSelfAdjoint")
        s = build_J(spectral_decompose(a, frame))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert report.conj_deviation <= 1e-8 * max(a.op_norm(), 1.0)

    def test_altered_minus_multiset_fails(self, rng):
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind="antiSelfAdjoint")
        report = slice_spectrum_check(a, build_J(spectral_decompose(a, STANDARD_FRAME)))
        plus, conj_minus = report.plus, np.conj(report.minus)
        tol = 1e-8 * max(a.op_norm(), 1.0)
        assert _multiset_deviation(plus, rng.permutation(conj_minus)) <= tol
        # same set of values, different multiplicities
        altered = conj_minus.copy()
        altered[0] = altered[1]
        assert _multiset_deviation(plus, altered) > tol
        altered = conj_minus.copy()
        altered[3] += 1e-3
        assert _multiset_deviation(plus, altered) > tol
