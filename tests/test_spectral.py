import numpy as np
import pytest

from qspectra import I, J, K, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.bridge import spectral_decompose
from qspectra.errors import NotNormalError, PreconditionError, SymbolZeroError
from qspectra.measure import ess_sup
from qspectra.operators import delta
from qspectra.quaternion import cm_to_complex
from qspectra.slices import build_J
from qspectra.spectral import (
    classify,
    conjugate_equivalence,
    delta_oracle,
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
        assert_qclose(form.phi_values()[0], I, 1e-13)
        assert (QMatrix.from_rows([[J]]) - form.reconstruct()).frobenius() <= 1e-12
        assert form.space.n_atoms == 1
        assert form.space.weights[0] == 1.0

    def test_lower_half_diagonal_flipped(self):
        a = QMatrix.from_rows([[Quaternion(1, -2)]])
        form = multiplication_form(a, STANDARD_FRAME)
        assert_qclose(form.phi_values()[0], Quaternion(1, 2), 1e-12)
        assert (a - form.reconstruct()).frobenius() <= 1e-12

    def test_zero_matrix(self):
        form = multiplication_form(QMatrix.zeros(2), STANDARD_FRAME)
        for v in form.phi_values():
            assert abs(v) <= 1e-13

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
        assert_qclose(report.plus_vals[0], I, 1e-12)
        assert_qclose(report.minus_vals[0], -I, 1e-12)

    def test_real_diagonal_self_conjugate(self):
        a = QMatrix.diag([Quaternion(2), Quaternion(3)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        plus = sorted(v.re for v in report.plus_vals)
        minus = sorted(v.re for v in report.minus_vals)
        assert plus == pytest.approx([2.0, 3.0], abs=1e-10)
        assert minus == pytest.approx([2.0, 3.0], abs=1e-10)

    def test_complex_point(self):
        a = QMatrix.diag([Quaternion(1, 2)])
        s = build_J(spectral_decompose(a, STANDARD_FRAME))
        report = slice_spectrum_check(a, s)
        assert report.passed
        assert_qclose(report.plus_vals[0], Quaternion(1, 2), 1e-10)
        assert_qclose(report.minus_vals[0], Quaternion(1, -2), 1e-10)

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
        plus = np.array([cm_to_complex(v, STANDARD_FRAME) for v in report.plus_vals])
        conj_minus = np.conj([cm_to_complex(v, STANDARD_FRAME) for v in report.minus_vals])
        tol = 1e-8 * max(a.op_norm(), 1.0)
        assert _multiset_deviation(plus, rng.permutation(conj_minus)) <= tol
        # same set of values, different multiplicities
        altered = conj_minus.copy()
        altered[0] = altered[1]
        assert _multiset_deviation(plus, altered) > tol
        altered = conj_minus.copy()
        altered[3] += 1e-3
        assert _multiset_deviation(plus, altered) > tol
