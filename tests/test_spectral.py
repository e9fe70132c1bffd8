import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import I, J, K, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen, spectral
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

from conftest import assert_qclose, count_calls


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

    def test_contains_rejects_negative_tol(self):
        spec = sphere_spectrum(multiplication_form(QMatrix.from_rows([[J]]), STANDARD_FRAME))
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            spec.contains(J, -1e-9)


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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-7])
    def test_bad_tol_named(self, tol, rng, monkeypatch):
        a = gen.random_normal(rng, 3, STANDARD_FRAME)
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match=r"tol must be finite and >= 0"):
            delta_oracle(a, [I, J], tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e155, 1e160, 1e200])
    def test_overflowing_scale_named(self, s, monkeypatch):
        # Z*Z holds (2s)^2, past the largest double
        a = QMatrix.diag([s * I, Quaternion(2.0 * s)])
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match="oracle scale overflows"):
            delta_oracle(a, [s * I, Quaternion(3.0 * s)], 1e-7)
        with pytest.raises(PreconditionError, match="oracle scale overflows"):
            oracle_scale(a)

    @pytest.mark.parametrize("s", [1e160, 1e200])
    def test_overflowing_probe_named(self, s, monkeypatch):
        # |q|^2 = s^2 is past the largest double although q is finite
        a = QMatrix.diag([I, Quaternion(2.0)])
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match=r"probe 1 overflows"):
            delta_oracle(a, [I, s * I], 1e-7)

    @pytest.mark.parametrize("s", [1e100, 1.2e154])
    def test_large_probe_below_overflow(self, s):
        # at 1.2e154, |q|^2 is finite but the rounding gate's square of
        # ||Z||_F + sqrt(N) |q| is not
        assert delta_oracle(QMatrix.diag([I, Quaternion(2.0)]), [s * I], 1e-7) == [False]

    def test_large_scale_below_overflow(self):
        s = 1e150
        a = QMatrix.diag([s * I, Quaternion(2.0 * s)])
        assert delta_oracle(a, [s * I, Quaternion(3.0 * s)], 1e-7) == [True, False]

    def test_zero_tol_accepted(self):
        # Delta_I(diag(I)) = 0 exactly, and Delta_2I(diag(I)) = 3
        assert delta_oracle(QMatrix.diag([I]), [I, 2 * I], 0.0) == [True, False]

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_non_normal_matches_exact_route(self, scale, tol):
        # the certificate bounds sigma_min(Delta_q) without assuming normality
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
        # gate, so every probe must take the exact route unchanged.
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
        # threshold and of the certificate's (1 +- 1/8) t margins
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
            assert calls[0] < len(probes)  # the certificate decided some probes

    @pytest.mark.parametrize("tol", [1e-7, 1e-13])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_reuse_radius_is_sound(self, scale, tol):
        # a first probe at sigma_min(Delta_q) near t/2, t and 2t, then a
        # second one just inside and just outside 0.125 t / (||A|| + |lam| +
        # sqrt(t)) and 0.26221548 sqrt(t), the distances over which the Delta
        # difference bound (in) and Weyl's inequality (out) carry a verdict
        # at t/2 or 2t to the second probe: toward the nearest eigenvalue,
        # away from it, and along the imaginary axis
        values = [Quaternion(1, 2), Quaternion(0.3, 0, 0.4), Quaternion(-0.5), Quaternion(0)]
        steps = [Quaternion(0.6, 0.8), Quaternion(0, 0, 0, 1), Quaternion(-1), Quaternion(0, 0.6, 0.8)]
        a = QMatrix.diag([scale * v for v in values])
        eigs = [complex(scale * v.re, scale * v.im_norm()) for v in values]
        norm = math.sqrt(oracle_scale(a)) - 1.0
        t = tol * oracle_scale(a)
        firsts = [
            _bisect_probe(a, scale * v, scale * w, ratio * t)
            for v, w in zip(values, steps)
            for ratio in (0.45, 0.55, 0.95, 1.05, 1.9, 2.1)
        ]
        for first in firsts:
            lam = complex(first.re, first.im_norm())
            toward = min(eigs, key=lambda d: abs(d - lam)) - lam
            toward /= abs(toward)
            radii = (0.125 * t / (norm + abs(lam) + math.sqrt(t)), 0.26221548 * math.sqrt(t))
            for radius in radii:
                for factor in (1.0 - 1e-6, 1.0 + 1e-6):
                    for direction in (toward, -toward, 1j):
                        p = lam + factor * radius * direction
                        probes = [first, Quaternion(p.real, p.imag)]
                        assert delta_oracle(a, probes, tol) == _exact_verdicts(a, probes, tol)

    def test_orbit_call_screens_on_sphere_once(self, rng, monkeypatch):
        # one eigen-certificate decides the 16 on-sphere probes of an orbit
        a = gen.random_normal(rng, 16, STANDARD_FRAME)
        orbit = sphere_spectrum(multiplication_form(a, STANDARD_FRAME)).orbits[0]
        names = ("eigh", "cholesky", "solve", "svd")
        counts = [count_calls(monkeypatch, name) for name in names]
        assert delta_oracle(a, on_sphere_probes(orbit), 1e-7) == [True] * 16
        assert [c[0] for c in counts] == [1, 0, 0, 0]

    def test_orbit_call_makes_one_eigh(self, rng, monkeypatch):
        a = gen.random_normal(rng, 16, STANDARD_FRAME)
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        orbit = spectrum.orbits[0]
        probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
        names = ("eigh", "eigvalsh", "cholesky", "solve", "svd")
        counts = [count_calls(monkeypatch, name) for name in names]
        assert delta_oracle(a, probes, 1e-7) == [True] * 16 + [False] * 16
        assert [c[0] for c in counts] == [1, 1, 0, 0, 0]

    def test_probe_at_eigenvalue_falls_back(self, monkeypatch):
        # the probes at the diagonal of Q*ZQ that the certificate leaves
        # undecided (test_colliding_eigenvalues_leave_probes_undecided), each
        # also turned to a second imaginary direction: one exact SVD per
        # distinct (re q, |q|^2) of the undecided probes decides them
        values = [I, Quaternion(spectral._BETA), Quaternion(-2.0)]
        v = gen.random_unitary(np.random.default_rng(5), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        z = a.to_complex_adjoint()
        c = 0.5 * (1.0 - 1j * spectral._BETA)
        vecs = np.linalg.eigh(c * z + c.conjugate() * z.conj().T)[1]
        d = [x for x in np.einsum("ik,ij,jk->k", vecs.conj(), z, vecs) if x.imag >= 0.0]
        probes = [Quaternion(x.real, x.imag) for x in d] + [Quaternion(x.real, 0, x.imag) for x in d]
        lams = np.array([complex(q.re, q.im_norm()) for q in probes])
        t = 1e-7 * oracle_scale(a)
        got = spectral._certificate(z, z.conj().T, float(np.linalg.norm(z)), lams, t)
        keys = {(q.re, q.norm_sq()) for q, g in zip(probes, got) if g is None}
        assert keys
        want = _oracle_exact_verdicts(a, probes, 1e-7)
        calls = _count_svd(monkeypatch)
        assert delta_oracle(a, probes, 1e-7) == want
        assert calls[0] == len(keys)

    def test_clear_probes_need_one_svd(self, rng, monkeypatch):
        a = gen.random_normal(rng, 16, STANDARD_FRAME)
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        orbit = spectrum.orbits[0]
        probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
        calls = _count_svd(monkeypatch)
        assert delta_oracle(a, probes, 1e-7) == [True] * 16 + [False] * 16
        assert calls[0] == 0

    @pytest.mark.parametrize(
        "tol, eighs, svds", [(1e-7, 1, 0), (1e-30, 0, 2)], ids=["certificate", "exact"]
    )
    def test_one_computation_per_key(self, rng, monkeypatch, tol, eighs, svds):
        # (x, b, 0, 0), (x, 0, b, 0) and (x, 0, 0, b) have bit-identical
        # re q, |im q| and |q|^2; one certificate decides all six probes, and
        # below the rounding gate one exact SVD per key does, x = 0.0 and
        # -0.0 being two keys
        a = gen.random_normal(rng, 8, STANDARD_FRAME)
        probes = [Quaternion(x, *(0.7 * np.eye(3)[k])) for x in (0.0, -0.0) for k in range(3)]
        want = [delta_oracle(a, [q], tol)[0] for q in probes]
        calls = [count_calls(monkeypatch, name) for name in ("eigh", "svd")]
        assert delta_oracle(a, probes, tol) == want
        assert [c[0] for c in calls] == [eighs, svds]

    @pytest.mark.parametrize(
        "kind, n, scale, gap",
        [
            (kind, n, scale, None)
            for kind in gen.MATRIX_CLASSES
            for n in (8, 32)
            for scale in (1e-12, 1.0, 1e12)
        ]
        + [("normal", 32, 1.0, 1e-9)],
    )
    def test_orbit_calls_take_the_certificate_alone(self, kind, n, scale, gap, monkeypatch):
        # every orbit call of 16 on- and 16 off-sphere probes, as criterion 3,
        # selftest and the oracle_probes benchmark make them, is decided by
        # one certificate: one eigh, one eigvalsh for ||A|| and no SVD
        rng = np.random.default_rng(17)
        d = gen.random_standard_values(rng, n, STANDARD_FRAME, kind)
        if gap is not None:
            d[1] = d[0] + gap
        v = gen.random_unitary(rng, n)
        a = v @ QMatrix.diag([scale * q for q in d]) @ v.H
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
        for orbit in spectrum.orbits:
            probes = on_sphere_probes(orbit) + off_sphere_probes(orbit, spectrum, margin)
            for c in counts:
                c[0] = 0
            assert delta_oracle(a, probes, 1e-7) == [True] * 16 + [False] * 16
            assert [c[0] for c in counts] == [1, 1, 0]


class TestDeltaOracleCertificate:
    """The eigen-certificate route, against the oracle's own exact route."""

    VALUES = [Quaternion(1, 2), Quaternion(0.3, 0, 0.4), Quaternion(-0.5), Quaternion(0)]
    STEPS = [Quaternion(0.6, 0.8), Quaternion(0, 0, 0, 1), Quaternion(-1), Quaternion(0, 0.6, 0.8)]
    RATIOS = (0.2, 0.45, 0.55, 0.9, 1.1, 1.9, 2.1, 5.0)

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_bisected_probes_on_conjugated_diagonals(self, scale, tol, monkeypatch):
        # as test_bisected_probes_match_exact_route, with A = V D V* for a
        # random unitary V, so that Q != I and e, delta > 0
        values = [scale * v for v in self.VALUES]
        v = gen.random_unitary(np.random.default_rng(16), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        t = tol * oracle_scale(a)
        probes = [
            _bisect_diagonal(values, x, scale * w, ratio * t)
            for x, w in zip(values, self.STEPS)
            for ratio in self.RATIOS
        ]
        want = _oracle_exact_verdicts(a, probes, tol)
        factored, calls = count_calls(monkeypatch, "eigh"), _count_svd(monkeypatch)
        assert delta_oracle(a, probes, tol) == want
        if tol == 1e-7:
            assert factored[0] == 1
            assert calls[0] < len(probes)  # the certificate decided some probes

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_colliding_eigenvalues_leave_probes_undecided(self, scale):
        # i and the real _BETA are distinct eigenvalues of Z that both map
        # to _BETA in C = H + _BETA K, so eigh mixes their eigenvectors
        values = [scale * I, Quaternion(scale * spectral._BETA), Quaternion(-2.0 * scale)]
        v = gen.random_unitary(np.random.default_rng(5), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        t = 1e-7 * oracle_scale(a)
        steps = [Quaternion(0.6, 0.8), Quaternion(-1), Quaternion(0, 0, 0.6, 0.8)]
        probes = [
            _bisect_diagonal(values, x, scale * w, ratio * t)
            for x, w in zip(values, steps)
            for ratio in self.RATIOS
        ]
        # and at the diagonal of Q*ZQ, where only the residuals of the mixed
        # columns keep the in bound from holding
        z = a.to_complex_adjoint()
        c = 0.5 * (1.0 - 1j * spectral._BETA)
        vecs = np.linalg.eigh(c * z + c.conjugate() * z.conj().T)[1]
        d = np.einsum("ik,ij,jk->k", vecs.conj(), z, vecs)
        probes += [Quaternion(x.real, x.imag) for x in d if x.imag >= 0.0]
        want = _oracle_exact_verdicts(a, probes, 1e-7)
        lams = np.array([complex(q.re, q.im_norm()) for q in probes])
        got = spectral._certificate(z, z.conj().T, float(np.linalg.norm(z)), lams, t)
        assert None in got
        assert all(g is None or g == w for g, w in zip(got, want))
        assert delta_oracle(a, probes, 1e-7) == want

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_non_normal(self, scale, tol, monkeypatch):
        rng = np.random.default_rng(7)
        base = QMatrix(rng.standard_normal((6, 6, 4)))
        a = base * scale
        probes = [scale * gen.random_quaternion(rng) for _ in range(16)]
        if tol > 1e-16:
            # below the rounding floor a probe at an eigenvalue has no
            # verdict to compare (test_non_normal_matches_exact_route)
            lams = np.linalg.eigvals(base.to_complex_adjoint())[:6] * scale
            dirs = fibonacci_sphere(6)
            probes += [Quaternion(lam.real, *(abs(lam.imag) * d)) for lam, d in zip(lams, dirs)]
        want = _oracle_exact_verdicts(a, probes, tol)
        factored = count_calls(monkeypatch, "eigh")
        assert delta_oracle(a, probes, tol) == want
        if tol == 1e-7:
            assert factored[0] == 1


def _exact_verdicts(a, probes, tol):
    threshold = tol * oracle_scale(a)
    return [delta(a, q).sigma_min() <= threshold for q in probes]


def _oracle_exact_verdicts(a, probes, tol):
    """The oracle's own exact route: sigma_min of Delta_q on the complex
    adjoint, against t."""
    z = a.to_complex_adjoint()
    t = tol * oracle_scale(a)
    z2, ident = z @ z, np.eye(z.shape[0])
    return [
        bool(np.linalg.svd(z2 - (2.0 * q.re) * z + q.norm_sq() * ident, compute_uv=False)[-1] <= t)
        for q in probes
    ]


def _bisect_probe(a, v, w, target):
    """Probe v + s w with sigma_min(delta(a, .)) = target, by bisection on s."""
    return _bisect(lambda q: delta(a, q).sigma_min(), v, w, target)


def _bisect_diagonal(values, v, w, target):
    """_bisect_probe for diag(values), whose sigma_min(Delta_q) is the
    smallest |mu - lam| |mu - conj lam| over the standard values mu."""
    mus = [complex(x.re, x.im_norm()) for x in values]

    def sigma(q):
        lam = complex(q.re, q.im_norm())
        return min(abs(mu - lam) * abs(mu - lam.conjugate()) for mu in mus)

    return _bisect(sigma, v, w, target)


def _bisect(sigma, v, w, target):
    def above(s):
        return sigma(v + w * s) >= target

    lo, hi = 0.0, 1.0
    while not above(hi):
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return v + w * hi


def _count_svd(monkeypatch):
    return count_calls(monkeypatch, "svd")


def _forbid_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("LAPACK reached before the input check")

    for name in ("svd", "eigvalsh", "eigh"):
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


class TestFormAcrossSpectra:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 16),
        kind=st.sampled_from(gen.MATRIX_CLASSES),
        low=st.integers(-6, 6),
        decades=st.floats(0.0, 12.0),
        tilt=st.one_of(st.just(0.0), st.floats(-16.0, -6.0).map(lambda e: 10.0**e)),
        distinct=st.integers(1, 16),
        close=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_form_and_slice_spectrum(self, n, kind, low, decades, tilt, distinct, close, seed):
        # moduli over up to 12 decades (unitary input keeps modulus 1), real
        # and some normal eigenvalues within tilt ||A|| of the real axis, and
        # the first `distinct` values repeated exactly or 1e-9 ||A|| apart
        rng = np.random.default_rng(seed)
        f = gen.random_frame(rng)
        d = gen.random_standard_values(rng, min(distinct, n), f, kind)
        vals = np.array([complex(q.re, q.im_norm()) for q in d])
        if kind != "unitary":
            vals *= 10.0 ** rng.uniform(low, low + decades, len(vals))
        size = max(np.max(np.abs(vals)), 1e-300)
        near = rng.random(len(vals)) < (0.5 if kind == "normal" else float(kind == "real"))
        lift = tilt * size * rng.uniform(0.0, 1.0, np.count_nonzero(near))
        vals[near] = vals[near].real + 1j * lift
        vals = np.resize(vals, n)
        if close:
            step = rng.uniform(-1.0, 1.0, (2, n - len(d)))
            vals[len(d):] += 1e-9 * size * (step[0] + 1j * step[1])
        v = gen.random_unitary(rng, n)
        a = v @ QMatrix.diag([Quaternion(z.real) + f.m * z.imag for z in vals]) @ v.H
        form = multiplication_form(a, f)
        s = build_J(form.decomposition)
        assert slice_spectrum_check(a, s, spectrum=sphere_spectrum(form)).passed


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
