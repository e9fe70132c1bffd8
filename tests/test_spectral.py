import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import I, J, K, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen, qarray, report, serialize, spectral
from qspectra.bridge import _BETA, spectral_decompose
from qspectra.cli import main
from qspectra.errors import NotNormalError, PreconditionError, ShapeError, SymbolZeroError
from qspectra.measure import AtomicMeasureSpace, Symbol, ess_sup
from qspectra.operators import delta
from qspectra.quaternion import orbit_of
from qspectra.report import BOUNDS, check_from
from qspectra.slices import build_J, extend_between, restrict_pair
from qspectra.spectral import (
    SphereSpectrum,
    classify,
    conjugate_equivalence,
    delta_oracle,
    fibonacci_sphere,
    multiplication_form,
    oracle_scale,
    slice_spectrum_check,
    sphere_probes,
    sphere_spectrum,
    _multiset_deviation,
)

from conftest import assert_qclose, count_calls, minus_spectrum


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

    @pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
    def test_tiny_normal_input(self, scale):
        # the normality check decides on z scaled up by a power of two
        a = gen.random_normal(np.random.default_rng(5), 8, STANDARD_FRAME)
        form = multiplication_form(QMatrix(a.a * scale), STANDARD_FRAME)
        assert all(c.passed for c in form.checks)

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
        assert spec.points.shape == (1, 2)
        assert spec.points[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert spec.points[0, 1] == pytest.approx(1.0, abs=1e-12)
        probes = np.array([J.to_array(), K.to_array(), (2 * J).to_array()])
        assert spec.contains(probes, 1e-9).tolist() == [True, True, False]

    def test_real_diagonal_points(self):
        form = multiplication_form(QMatrix.diag([Quaternion(1), Quaternion(2)]), STANDARD_FRAME)
        got = sorted(map(tuple, sphere_spectrum(form).points.tolist()))
        assert got == pytest.approx([(1.0, 0.0), (2.0, 0.0)])

    def test_mixed_diagonal(self):
        form = multiplication_form(QMatrix.diag([I, Quaternion(2, 3)]), STANDARD_FRAME)
        got = sorted(map(tuple, sphere_spectrum(form).points.tolist()))
        assert got == pytest.approx([(0.0, 1.0), (2.0, 3.0)])

    def test_multiplicity_deduplicated(self):
        form = multiplication_form(QMatrix.diag([I, I, I]), STANDARD_FRAME)
        assert len(sphere_spectrum(form).points) == 1

    def test_contains_rejects_negative_tol(self):
        spec = sphere_spectrum(multiplication_form(QMatrix.from_rows([[J]]), STANDARD_FRAME))
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            spec.contains(J.to_array()[None], -1e-9)


def orbit_bound(values) -> float:
    """The merge bound derived for n symbol values, 8 N eps ||Z||_F with
    N = 2n and ||Z||_F = sqrt(2) ||phi||_2, summed by math.fsum."""
    norm = math.sqrt(math.fsum(x * x for x in np.ravel(values).tolist()))
    return 8.0 * (2 * len(values)) * np.finfo(float).eps * math.sqrt(2.0) * norm


def reference_orbits(form) -> list[tuple[str, str]]:
    """An orbit loop of its own: the positive-weight values in order, each
    kept unless math.hypot puts a kept orbit within orbit_bound."""
    bound = orbit_bound(form.phi.values)
    orbits = []
    for i in np.flatnonzero(form.phi.space.positive()):
        cand = orbit_of(form.phi.value(i))
        if not any(math.hypot(cand.re - o.re, cand.im_norm - o.im_norm) <= bound for o in orbits):
            orbits.append(cand)
    return [(o.re.hex(), o.im_norm.hex()) for o in orbits]


def orbit_bits(form) -> list[tuple[str, str]]:
    return [(re.hex(), im_norm.hex()) for re, im_norm in sphere_spectrum(form).points.tolist()]


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
        values = [(1, 2), (1, -2), (1, 2), (0, 1), (1, 2), (0, -1), (3, 0), (3, -0.0)]
        values[4] = (1 + 0.5 * orbit_bound(values), 2)
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
        # the atom at 64 makes the bound about 1e4 ulps of the pair's
        # coordinates, so that rounding them moves each step by far less
        # than the 1e-3 margin
        base, far = (0.25, 0.75), (64.0, 0.0)
        step = orbit_bound([far, base, base, base]) * factor
        other = (base[0] + step * direction[0], base[1] + step * direction[1])
        form = symbol_form([far, base, other, (other[0], -other[1])])
        assert orbit_bits(form) == reference_orbits(form)
        assert len(orbit_bits(form)) == 1 + count


class TestDeltaOracle:
    def test_on_and_off_probe(self):
        a = QMatrix.from_rows([[J]])
        verdicts = delta_oracle(a, [I, 2 * I, (I + J) / abs(I + J)], 1e-7)
        assert verdicts == [True, False, True]

    def test_matches_direct_quaternion_route(self, rng):
        a = gen.random_normal(rng, 4, STANDARD_FRAME)
        probes = [gen.random_quaternion(rng) for _ in range(5)]
        threshold = 1e-7 * oracle_scale(a)
        direct = [delta(a, q).singular_values()[-1] <= threshold for q in probes]
        assert delta_oracle(a, probes, 1e-7) == direct

    def test_probe_layout(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        spectrum = sphere_spectrum(multiplication_form(a, frame))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        probes = sphere_probes(spectrum, margin).reshape(-1, 2, 16, 4)
        assert len(probes) == len(spectrum.points)
        for point, (on, off) in zip(spectrum.points, probes):
            assert _half_plane_distance(on, point[None]).max() <= 1e-12
            assert _half_plane_distance(off, spectrum.points).min() >= margin * (1.0 - 1e-12)

    def test_zero_disagreements(self, frame, rng):
        for _ in range(5):
            a = gen.random_normal(rng, 8, frame)
            spectrum = sphere_spectrum(multiplication_form(a, frame))
            margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
            for probes in sphere_probes(spectrum, margin).reshape(-1, 32, 4):
                member = spectrum.contains(probes, 1e-9).tolist()
                assert delta_oracle(a, probes, 1e-7) == member

    def test_empty_call(self, rng):
        a = gen.random_normal(rng, 4, STANDARD_FRAME)
        assert delta_oracle(a, [], 1e-7) == []
        assert delta_oracle(a, np.empty((0, 4)), 1e-7) == []

    def test_list_and_array_agree(self, frame, rng):
        a = gen.random_normal(rng, 6, frame)
        spectrum = sphere_spectrum(multiplication_form(a, frame))
        probes = sphere_probes(spectrum, 50.0 * np.sqrt(1e-7 * oracle_scale(a)))
        listed = [Quaternion(*row) for row in probes]
        assert delta_oracle(QMatrix(a.a.copy()), listed, 1e-7) == delta_oracle(a, probes, 1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad, rng, monkeypatch):
        a = gen.random_normal(rng, 3, STANDARD_FRAME).a.copy()
        a[1, 2, 0] = bad
        _forbid_lapack(monkeypatch)
        with pytest.raises(PreconditionError, match=r"entry \(1, 2\) is not finite"):
            delta_oracle(QMatrix(a), [I, J], 1e-7)
        with pytest.raises(PreconditionError, match=r"entry \(1, 2\) is not finite"):
            oracle_scale(QMatrix(a))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 4), (2, 2, 2), (0,)])
    def test_probe_shape_named(self, shape, rng, monkeypatch):
        # a (2, 2, 2) array holds eight components but no (M, 4) rows
        a = gen.random_normal(rng, 3, STANDARD_FRAME)
        probes = np.ones(shape)
        spectrum = SphereSpectrum(np.array([[0.0, 1.0]]), 1.0)
        _forbid_lapack(monkeypatch)
        with pytest.raises(ShapeError, match=r"\(M, 4\) array"):
            delta_oracle(a, probes, 1e-7)
        with pytest.raises(ShapeError, match=r"\(M, 4\) array"):
            spectrum.contains(probes, 1e-9)

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
    def test_nearby_probe_pairs_match_exact(self, scale, tol):
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

    def test_probe_at_eigenvalue_falls_back(self, monkeypatch):
        # the probes at the diagonal of Q*ZQ that the certificate leaves
        # undecided (test_colliding_eigenvalues_leave_probes_undecided), each
        # also turned to a second imaginary direction: one exact SVD per
        # distinct (re q, |q|^2) of the undecided probes decides them
        values = [I, Quaternion(_BETA), Quaternion(-2.0)]
        v = gen.random_unitary(np.random.default_rng(5), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        z = a.to_complex_adjoint()
        c = 0.5 * (1.0 - 1j * _BETA)
        vecs = np.linalg.eigh(c * z + c.conjugate() * z.conj().T)[1]
        d = [x for x in np.einsum("ik,ij,jk->k", vecs.conj(), z, vecs) if x.imag >= 0.0]
        probes = [Quaternion(x.real, x.imag) for x in d] + [Quaternion(x.real, 0, x.imag) for x in d]
        lams = np.array([complex(q.re, q.im_norm()) for q in probes])
        t = 1e-7 * oracle_scale(a)
        _, decided = spectral._certificate(z, z.conj().T, float(np.linalg.norm(z)), lams, t)
        keys = {(q.re, q.norm_sq()) for q, d in zip(probes, decided) if not d}
        assert keys
        want = _oracle_exact_verdicts(a, probes, 1e-7)
        calls = _count_svd(monkeypatch)
        assert delta_oracle(a, probes, 1e-7) == want
        assert calls[0] == len(keys)

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
        # on a copy, so that the counted call is the first on a and factors
        want = [delta_oracle(QMatrix(a.a.copy()), [q], tol)[0] for q in probes]
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
        + [("normal", 32, 1.0, 1e-9), ("normal", 16, 1.0, None)],
    )
    def test_orbit_calls_take_the_certificate_alone(self, kind, n, scale, gap, monkeypatch):
        # every orbit call of 16 on- and 16 off-sphere probes, as criterion 3,
        # selftest and the oracle_probes benchmark make them, is decided by
        # the certificate: no eigvalsh, since every call reads the ||A|| that
        # oracle_scale kept, no SVD, and one eigh on the first call on the
        # matrix, whose basis every later call reuses; so is a first call of
        # one orbit's 16 on-sphere probes alone
        rng = np.random.default_rng(17)
        d = gen.random_standard_values(rng, n, STANDARD_FRAME, kind)
        if gap is not None:
            d[1] = d[0] + gap
        v = gen.random_unitary(rng, n)
        a = v @ QMatrix.diag([scale * q for q in d]) @ v.H
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
        orbits = sphere_probes(spectrum, margin).reshape(-1, 32, 4)
        for k, probes in enumerate(orbits):
            for c in counts:
                c[0] = 0
            assert delta_oracle(a, probes, 1e-7) == [True] * 16 + [False] * 16
            assert [c[0] for c in counts] == [int(k == 0), 0, 0]
        for c in counts:
            c[0] = 0
        fresh = QMatrix(a.a.copy())  # no kept basis
        assert delta_oracle(fresh, orbits[0, :16], 1e-7) == [True] * 16
        assert [c[0] for c in counts] == [1, 1, 0]

    @pytest.mark.parametrize(
        "case, scale, tol",
        [
            (case, scale, tol)
            for case in ("conjugated_diagonal", "non_normal")
            for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12)
            for tol in (1e-7, 1e-13, 1e-16)
        ]
        + [("colliding", scale, 1e-7) for scale in (1e-12, 1.0, 1e12)],
    )
    def test_reused_basis_gives_fresh_verdicts(self, case, scale, tol, monkeypatch):
        # a second call on the same matrix object reuses the first call's
        # basis, and makes no eigh even where probes are left undecided
        a, probes = getattr(TestDeltaOracleCertificate, case)(scale, tol)
        want = _oracle_exact_verdicts(a, probes, tol)
        first = delta_oracle(a, probes, tol)
        factored = count_calls(monkeypatch, "eigh")
        assert delta_oracle(a, probes, tol) == first == want
        assert factored[0] == 0

    def test_stale_basis_is_refactored(self, monkeypatch):
        rng = np.random.default_rng(23)
        a = gen.random_normal(rng, 8, STANDARD_FRAME)
        delta_oracle(a, self._orbit_probes(a)[0], 1e-7)
        # entries overwritten in place: they differ from the kept copy, so
        # the first call measures and factors afresh, and every call decides
        # its probes without an SVD
        a.a[...] = gen.random_normal(rng, 8, STANDARD_FRAME).a
        fresh = QMatrix(a.a.copy())  # so that the counted calls on a measure
        calls = [(p, _oracle_exact_verdicts(fresh, p, 1e-7)) for p in self._orbit_probes(fresh)]
        counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
        for probes, want in calls:
            assert delta_oracle(a, probes, 1e-7) == want
        assert [c[0] for c in counts] == [1, 1, 0]
        # a.a reassigned to another size: the kept record is not used
        a.a = gen.random_normal(rng, 12, STANDARD_FRAME).a
        fresh = QMatrix(a.a.copy())
        probes = self._orbit_probes(fresh)[0]
        want = _oracle_exact_verdicts(fresh, probes, 1e-7)
        counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
        assert delta_oracle(a, probes, 1e-7) == want
        assert [c[0] for c in counts] == [1, 1, 0]

    def test_one_eigvalsh_and_one_eigh_per_matrix(self, monkeypatch):
        # a fresh matrix, through oracle_scale and every orbit call, as
        # criterion 3 and selftest make them: ||A|| measured once, factored
        # once
        rng = np.random.default_rng(29)
        a = gen.random_normal(rng, 16, STANDARD_FRAME)
        orbits = self._orbit_probes(QMatrix(a.a.copy()))
        counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
        oracle_scale(a)
        for probes in orbits:
            delta_oracle(a, probes, 1e-7)
        assert [c[0] for c in counts] == [1, 1, 0]

    def test_entries_changed_to_other_bits_are_measured_afresh(self, monkeypatch):
        # A block-diagonal normal matrix has exact zeros. Flipping one to
        # -0.0 in place, or reassigning a.a to an array with other bits,
        # measures and factors once more; reassigning it to a bit-identical
        # copy does not. Every call gives a fresh copy's threshold and
        # verdicts.
        rng = np.random.default_rng(31)
        entries = np.zeros((8, 8, 4))
        entries[:4, :4] = gen.random_normal(rng, 4, STANDARD_FRAME).a
        entries[4:, 4:] = gen.random_normal(rng, 4, STANDARD_FRAME).a
        a = QMatrix(entries.copy())
        probes = [q for orbit in self._orbit_probes(QMatrix(entries.copy())) for q in orbit]
        delta_oracle(a, probes, 1e-7)
        for change, refactors in [
            (lambda: a.a.__setitem__((0, 7, 2), -0.0), True),
            (lambda: setattr(a, "a", a.a.copy()), False),
            (lambda: setattr(a, "a", entries.copy()), True),
        ]:
            change()
            fresh = QMatrix(a.a.copy())
            want = (oracle_scale(fresh), delta_oracle(fresh, probes, 1e-7))
            counts = [count_calls(monkeypatch, name) for name in ("eigh", "eigvalsh")]
            assert (oracle_scale(a), delta_oracle(a, probes, 1e-7)) == want
            assert [c[0] for c in counts] == [int(refactors)] * 2

    def test_basis_lives_as_long_as_its_matrix(self, rng):
        a = gen.random_normal(rng, 8, STANDARD_FRAME)
        delta_oracle(a, self._orbit_probes(a)[0], 1e-7)
        kept = spectral._RECORDS[a]
        refs = [weakref.ref(x) for x in (a, kept.entries, kept.basis[0])]
        del a, kept
        gc.collect()
        assert all(ref() is None for ref in refs)

    @staticmethod
    def _orbit_probes(a):
        """The 16 on- and 16 off-sphere probes of each orbit of a, as
        Quaternion lists."""
        spectrum = sphere_spectrum(multiplication_form(a, STANDARD_FRAME))
        margin = 50.0 * np.sqrt(1e-7 * oracle_scale(a))
        probes = sphere_probes(spectrum, margin).reshape(-1, 32, 4)
        return [[Quaternion(*row) for row in orbit] for orbit in probes]


class TestDeltaOracleCertificate:
    """The eigen-certificate route, against the oracle's own exact route."""

    VALUES = [Quaternion(1, 2), Quaternion(0.3, 0, 0.4), Quaternion(-0.5), Quaternion(0)]
    STEPS = [Quaternion(0.6, 0.8), Quaternion(0, 0, 0, 1), Quaternion(-1), Quaternion(0, 0.6, 0.8)]
    RATIOS = (0.2, 0.45, 0.55, 0.9, 1.1, 1.9, 2.1, 5.0)

    @classmethod
    def conjugated_diagonal(cls, scale, tol):
        """A = V D V* for a random unitary V, so that Q != I and e, delta > 0,
        and probes bisected to sigma_min(Delta_q) = ratio * t next to each
        value, as in test_bisected_probes_match_exact_route."""
        values = [scale * v for v in cls.VALUES]
        v = gen.random_unitary(np.random.default_rng(16), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        t = tol * oracle_scale(a)
        probes = [
            _bisect_diagonal(values, x, scale * w, ratio * t)
            for x, w in zip(values, cls.STEPS)
            for ratio in cls.RATIOS
        ]
        return a, probes

    @classmethod
    def colliding(cls, scale, tol):
        """i and the real _BETA are distinct eigenvalues of Z that both map to
        _BETA in C = H + _BETA K, so eigh mixes their eigenvectors. Probes are
        bisected next to each value, and at the diagonal of Q*ZQ, where only
        the residuals of the mixed columns keep the in bound from holding."""
        values = [scale * I, Quaternion(scale * _BETA), Quaternion(-2.0 * scale)]
        v = gen.random_unitary(np.random.default_rng(5), len(values))
        a = v @ QMatrix.diag(values) @ v.H
        t = tol * oracle_scale(a)
        steps = [Quaternion(0.6, 0.8), Quaternion(-1), Quaternion(0, 0, 0.6, 0.8)]
        probes = [
            _bisect_diagonal(values, x, scale * w, ratio * t)
            for x, w in zip(values, steps)
            for ratio in cls.RATIOS
        ]
        z = a.to_complex_adjoint()
        c = 0.5 * (1.0 - 1j * _BETA)
        vecs = np.linalg.eigh(c * z + c.conjugate() * z.conj().T)[1]
        d = np.einsum("ik,ij,jk->k", vecs.conj(), z, vecs)
        probes += [Quaternion(x.real, x.imag) for x in d if x.imag >= 0.0]
        return a, probes

    @classmethod
    def non_normal(cls, scale, tol):
        """A non-normal 6x6, random probes and, above tol 1e-16, probes at
        its eigenvalues: below the rounding floor a probe at an eigenvalue
        has no verdict to compare (test_non_normal_matches_exact_route)."""
        rng = np.random.default_rng(7)
        base = QMatrix(rng.standard_normal((6, 6, 4)))
        probes = [scale * gen.random_quaternion(rng) for _ in range(16)]
        if tol > 1e-16:
            lams = np.linalg.eigvals(base.to_complex_adjoint())[:6] * scale
            dirs = fibonacci_sphere(6)
            probes += [Quaternion(lam.real, *(abs(lam.imag) * d)) for lam, d in zip(lams, dirs)]
        return base * scale, probes

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_bisected_probes_on_conjugated_diagonals(self, scale, tol, monkeypatch):
        a, probes = self.conjugated_diagonal(scale, tol)
        want = _oracle_exact_verdicts(a, probes, tol)
        factored, calls = count_calls(monkeypatch, "eigh"), _count_svd(monkeypatch)
        assert delta_oracle(a, probes, tol) == want
        if tol == 1e-7:
            assert factored[0] == 1
            assert calls[0] < len(probes)  # the certificate decided some probes

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_colliding_eigenvalues_leave_probes_undecided(self, scale):
        a, probes = self.colliding(scale, 1e-7)
        t = 1e-7 * oracle_scale(a)
        z = a.to_complex_adjoint()
        want = _oracle_exact_verdicts(a, probes, 1e-7)
        lams = np.array([complex(q.re, q.im_norm()) for q in probes])
        is_in, decided = spectral._certificate(z, z.conj().T, float(np.linalg.norm(z)), lams, t)
        assert not decided.all()
        assert all(i == w for i, w, d in zip(is_in, want, decided) if d)
        assert delta_oracle(a, probes, 1e-7) == want

    @pytest.mark.parametrize("tol", [1e-7, 1e-13, 1e-16])
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_non_normal(self, scale, tol, monkeypatch):
        a, probes = self.non_normal(scale, tol)
        want = _oracle_exact_verdicts(a, probes, tol)
        factored = count_calls(monkeypatch, "eigh")
        assert delta_oracle(a, probes, tol) == want
        if tol == 1e-7:
            assert factored[0] == 1


def _half_plane_distance(probes, points):
    """Distance in the (re, |im|) half plane from each probe row to the
    nearest of points."""
    im_norm = np.linalg.norm(probes[:, 1:], axis=1)
    dist = np.hypot(probes[:, 0, None] - points[:, 0], im_norm[:, None] - points[:, 1])
    return dist.min(axis=1)


def _exact_verdicts(a, probes, tol):
    threshold = tol * oracle_scale(a)
    return [delta(a, q).singular_values()[-1] <= threshold for q in probes]


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
    return _bisect(lambda q: delta(a, q).singular_values()[-1], v, w, target)


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

    @pytest.mark.parametrize(
        "kind, low, decades, tilt, distinct, close",
        [(kind, -3, 6.0, 0.0, 128, False) for kind in gen.MATRIX_CLASSES]
        + [("normal", 0, 3.0, 0.0, 64, True), ("real", 0, 3.0, 1e-12, 128, False)],
        ids=[*gen.MATRIX_CLASSES, "close-pairs", "near-axis"],
    )
    def test_n128(self, kind, low, decades, tilt, distinct, close):
        # the body above at n = 128, seeded: one input per matrix class with
        # moduli over 6 decades, 64 values each repeated 1e-9 ||A|| apart,
        # and real values all lifted off the axis by up to 1e-12 ||A||
        self.test_form_and_slice_spectrum.hypothesis.inner_test(
            self, 128, kind, low, decades, tilt, distinct, close, seed=128
        )


class TestSliceSpectrumIdentity:
    def test_left_j(self):
        a = QMatrix.from_rows([[J]])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert report.plus[0] == pytest.approx(1j, abs=1e-12)
        assert minus_spectrum(a, s)[0] == pytest.approx(-1j, abs=1e-12)

    def test_real_diagonal_self_conjugate(self):
        a = QMatrix.diag([Quaternion(2), Quaternion(3)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        plus = sorted(report.plus.real)
        minus = sorted(minus_spectrum(a, s).real)
        assert plus == pytest.approx([2.0, 3.0], abs=1e-10)
        assert minus == pytest.approx([2.0, 3.0], abs=1e-10)

    def test_complex_point(self):
        a = QMatrix.diag([Quaternion(1, 2)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert report.plus[0] == pytest.approx(1 + 2j, abs=1e-10)
        assert minus_spectrum(a, s)[0] == pytest.approx(1 - 2j, abs=1e-10)

    def test_random_corpus(self, frame, rng):
        for n in (3, 7):
            a = gen.random_normal(rng, n, frame)
            s = build_J(spectral_decompose(a, frame))
            report = slice_spectrum_check(a, s)
            assert report.passed
            (plus,) = report.checks
            conj = _multiset_deviation(np.conj(report.plus), minus_spectrum(a, s))
            assert plus.residual <= 1e-8 * max(a.op_norm(), 1.0)
            assert conj <= 1e-8 * max(a.op_norm(), 1.0)

    def test_anti_self_adjoint(self, frame, rng):
        # real parts of the restricted spectra are rounding noise here
        a = gen.random_normal(rng, 8, frame, kind="antiSelfAdjoint")
        s = build_J(spectral_decompose(a, frame))
        report = slice_spectrum_check(a, s)
        assert report.passed
        conj = _multiset_deviation(np.conj(report.plus), minus_spectrum(a, s))
        assert conj <= 1e-8 * max(a.op_norm(), 1.0)

    def test_altered_minus_multiset_fails(self, rng):
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind="antiSelfAdjoint")
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        plus, conj_minus = slice_spectrum_check(a, s).plus, np.conj(minus_spectrum(a, s))
        tol = 1e-8 * max(a.op_norm(), 1.0)
        assert _multiset_deviation(plus, rng.permutation(conj_minus)) <= tol
        # same set of values, different multiplicities
        altered = conj_minus.copy()
        altered[0] = altered[1]
        assert _multiset_deviation(plus, altered) > tol
        altered = conj_minus.copy()
        altered[3] += 1e-3
        assert _multiset_deviation(plus, altered) > tol


# p with tol(2^k A) = 2^(p k) tol(A) for each bound in report.BOUNDS these
# routines build; every other one reads ||A|| or ||A||_F
_SCALE_POWER = {"normal.commutator": 2, "decompose.unitary": 0, "slices.J_unitary": 0}


class TestScaleFreeBounds:
    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_same_verdicts_on_2k_a(self, monkeypatch, kind):
        # each bound is c max(scale, TINY), and scaling by 2^k is exact, so
        # every tol scales exactly and every verdict stays
        built = []

        def recording(name, residual, tol):
            built.append(check_from(name, residual, tol))
            return built[-1]

        for module in (report, qarray):
            monkeypatch.setattr(module, "check_from", recording)
        rng = np.random.default_rng([3, gen.MATRIX_CLASSES.index(kind)])
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind, min_modulus=0.05)
        runs = {}
        for k in (-40, -20, 0, 20, 40):
            built.clear()
            b = QMatrix(np.ldexp(a.a, k))
            form = multiplication_form(b, STANDARD_FRAME)
            s = build_J(form.decomposition)
            t_plus = restrict_pair(b, s)[0]
            slice_spectrum_check(b, s, sphere_spectrum(form))
            conjugate_equivalence(form)
            extend_between(t_plus, s, s)
            runs[k] = built[:]
        paths = ("normal", "decompose", "slices", "spectral")
        assert {c.name for c in runs[0]} == {n for n in BOUNDS if n.split(".")[0] in paths}
        for k, run in runs.items():
            assert [(c.name, c.passed) for c in run] == [(c.name, c.passed) for c in runs[0]]
            for check, base in zip(run, runs[0]):
                power = _SCALE_POWER.get(check.name, 1)
                assert check.tol == np.ldexp(base.tol, power * k), (k, check.name)

    @pytest.mark.parametrize("kind", gen.MATRIX_CLASSES)
    def test_decompose_keeps_the_orbits_at_tiny_scale(self, kind, tmp_path):
        # moduli, orbit points and their merge are read on scaled rows
        rng = np.random.default_rng([4, gen.MATRIX_CLASSES.index(kind)])
        a = gen.random_normal(rng, 8, STANDARD_FRAME, kind)
        orbits = {}
        for c in (1.0, 1e-170, 1e-200, 1e-300):
            path, out = tmp_path / "a.json", tmp_path / "rep.json"
            serialize.save_json(serialize.matrix_to_json(QMatrix(a.a * c)), path)
            assert main(["decompose", str(path), "--out", str(out)]) == 0
            orbits[c] = len(serialize.load_json(out)["orbits"])
        assert len(set(orbits.values())) == 1, orbits
