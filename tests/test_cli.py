import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qspectra
from qspectra import J, QMatrix, Quaternion, STANDARD_FRAME
from qspectra import generate as gen
from qspectra import cli, qarray, selftest
from qspectra.cli import main
from qspectra.serialize import load_json, matrix_from_json, matrix_to_json, save_json
from qspectra.slices import build_J
from qspectra.spectral import multiplication_form, slice_spectrum_check
from qspectra.transform import bounded_transform, inverse_checks, transform_checks

from conftest import count_calls


@pytest.fixture
def j_matrix_file(tmp_path):
    path = tmp_path / "j.json"
    save_json(matrix_to_json(QMatrix.from_rows([[J]])), path)
    return path


@pytest.fixture
def shift_matrix_file(tmp_path):
    arr = np.zeros((2, 2, 4))
    arr[0, 1, 0] = 1.0
    path = tmp_path / "shift.json"
    save_json(matrix_to_json(QMatrix(arr)), path)
    return path


def read_report(path):
    return json.loads(path.read_text())


class TestSelftest:
    def test_passes_and_reports_schema(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["selftest", "--seed", "42", "--n", "6", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["schema"] == "qspectra-report-v1"
        assert rep["status"] == "pass"
        assert rep["seed"] == 42
        groups = {c["name"].split(".")[0] for c in rep["checks"]}
        assert len(groups) == 12
        assert all(set(c) == {"name", "residual", "tol", "pass"} for c in rep["checks"])

    def test_deterministic_except_timing(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["selftest", "--seed", "7", "--n", "4", "--out", str(out1)]) == 0
        assert main(["selftest", "--seed", "7", "--n", "4", "--out", str(out2)]) == 0
        r1, r2 = read_report(out1), read_report(out2)
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_flag_validation(self):
        assert main(["selftest", "--n", "0"]) == 3
        assert main(["selftest", "--n", "129"]) == 3
        with pytest.raises(SystemExit) as err:
            main(["selftest", "--tol", "-1"])
        assert err.value.code == 3

    def test_unknown_flag_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["selftest", "--bogus"])
        assert err.value.code == 3


class TestExample:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["example", "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["status"] == "pass"
        assert rep["grid"] == 64
        names = [c["name"] for c in rep["checks"]]
        assert "example.conjugation_identity" in names

    def test_two_point_grid(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["example", "--grid", "2", "--out", str(out)]) == 0
        assert read_report(out)["status"] == "pass"

    def test_grid_validation(self):
        assert main(["example", "--grid", "1"]) == 3


class TestDecompose:
    def test_left_j_matrix(self, j_matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["decompose", str(j_matrix_file), "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["status"] == "pass"
        assert rep["schema"] == "qspectra-report-v1"
        phi = rep["phi"]
        assert len(phi) == 1
        assert phi[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rep["orbits"][0] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert rep["normCheck"]["gap"] <= 1e-9

    def test_custom_slice_axis(self, j_matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["decompose", str(j_matrix_file), "--m", "0,0,1,0", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        # in the slice of j itself, the symbol is j
        assert rep["phi"][0][2] == pytest.approx(1.0, abs=1e-12)

    def test_non_normal_exit_code(self, shift_matrix_file, capsys):
        assert main(["decompose", str(shift_matrix_file)]) == 2
        assert "commutator" in capsys.readouterr().err

    def test_tiny_non_normal_exit_code(self, tmp_path, capsys):
        # at 1e-100 the commutator's squares underflow unless z is scaled first
        path = tmp_path / "tiny.json"
        a = np.random.default_rng(7).standard_normal((4, 4, 4)) * 1e-100
        save_json(matrix_to_json(QMatrix(a)), path)
        assert main(["decompose", str(path)]) == 2
        assert "normal.commutator" in capsys.readouterr().err

    def test_malformed_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["decompose", str(bad)]) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["decompose", str(tmp_path / "absent.json")]) == 3

    def test_bad_m_flag(self, j_matrix_file):
        assert main(["decompose", str(j_matrix_file), "--m", "1,0,0,0"]) == 3

    def test_mixed_spectrum_orbits(self, tmp_path):
        from qspectra import I, Quaternion

        a = QMatrix.diag([Quaternion(1, 2), J])
        path = tmp_path / "mixed.json"
        save_json(matrix_to_json(a), path)
        out = tmp_path / "rep.json"
        assert main(["decompose", str(path), "--out", str(out)]) == 0
        rep = read_report(out)
        orbits = sorted(tuple(o) for o in rep["orbits"])
        assert orbits[0] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert orbits[1] == pytest.approx((1.0, 2.0), abs=1e-9)
        # symbol values are the standard eigenvalues in the upper half slice
        phi = sorted(tuple(v) for v in rep["phi"])
        assert phi[0] == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-9)
        assert phi[1] == pytest.approx((1.0, 2.0, 0.0, 0.0), abs=1e-9)

    def test_checks_are_the_library_checks(self, normal_matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["decompose", str(normal_matrix_file), "--out", str(out)]) == 0
        a = matrix_from_json(load_json(normal_matrix_file))
        form = multiplication_form(a, STANDARD_FRAME)
        slice_report = slice_spectrum_check(a, build_J(form.decomposition))
        checks = read_report(out)["checks"]
        assert checks[:3] == [c.to_dict() for c in form.checks]
        assert checks[3:] == [c.to_dict() for c in slice_report.checks]
        assert checks[2]["tol"] == 1e-10 * np.sqrt(8)  # what spectral_decompose enforces

    def test_report_deterministic(self, tmp_path, j_matrix_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["decompose", str(j_matrix_file), "--out", str(out1)])
        main(["decompose", str(j_matrix_file), "--out", str(out2)])
        r1, r2 = read_report(out1), read_report(out2)
        r1.pop("timing"), r2.pop("timing")
        assert r1 == r2


class TestTransform:
    def test_forward_report(self, j_matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["transform", str(j_matrix_file), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["status"] == "pass"
        assert rep["zNorm"] == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_checks_are_the_library_checks(self, normal_matrix_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["transform", str(normal_matrix_file), "--out", str(out)]) == 0
        a = matrix_from_json(load_json(normal_matrix_file))
        bt = bounded_transform(a)
        report = read_report(out)
        checks = report["checks"]
        assert checks == [c.to_dict() for c in transform_checks(a)]
        assert checks[:2] == [bt.contraction.to_dict(), bt.residual.to_dict()]
        assert checks[1]["tol"] == 1e-9 * max(a.frobenius(), 1.0)
        assert report["zNorm"] == bt.contraction.residual

        save_json(matrix_to_json(bt.Z), normal_matrix_file)
        assert main(["transform", str(normal_matrix_file), "--inverse", "--out", str(out)]) == 0
        report = read_report(out)
        inverse, z_norm = inverse_checks(bt.Z)
        assert report["checks"] == [c.to_dict() for c in inverse]
        assert report["zNorm"] == z_norm

    @pytest.mark.parametrize(
        "n, top", [(8, 2e6), (128, 1e6), (8, 1e8), (32, 1e8), (128, 1e8)]
    )
    def test_graded_normal_input_passes(self, n, top, tmp_path):
        # one eigenvalue of modulus top, the rest in the unit square. Z
        # carries the SVDs' backward error eps ||A||, so ||Z_{A*} - Z*||_F
        # passes 1e-10 here although ||Z|| <= 1, and at 1e8 ||ZZ* - Z*Z||_F
        # passes 1e-10 ||Z||_F^2; both bounds scale with ||A||_F
        rng = np.random.default_rng([n, 0])
        d = [Quaternion(top), *gen.random_standard_values(rng, n - 1, STANDARD_FRAME)]
        v = gen.random_unitary(rng, n)
        a = v @ QMatrix.diag(d) @ v.H
        path, out = tmp_path / "graded.json", tmp_path / "rep.json"
        save_json(matrix_to_json(a), path)
        assert main(["transform", str(path), "--out", str(out)]) == 0
        star = next(c for c in read_report(out)["checks"] if c["name"] == "transform.star_compatible")
        assert star["residual"] > 1e-10
        assert star["tol"] == 1e-10 * max(1.0, a.frobenius())

    def test_inverse_mode(self, tmp_path):
        z = QMatrix.from_rows([[J * (2.0 ** -0.5)]])
        path = tmp_path / "z.json"
        save_json(matrix_to_json(z), path)
        out = tmp_path / "rep.json"
        assert main(["transform", str(path), "--inverse", "--out", str(out)]) == 0
        assert read_report(out)["status"] == "pass"

    def test_inverse_mode_rejects_contraction_boundary(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_json(matrix_to_json(QMatrix.identity(1)), path)
        assert main(["transform", str(path), "--inverse"]) == 2
        assert "within" in capsys.readouterr().err

    def test_stdout_when_no_out_flag(self, j_matrix_file, capsys):
        assert main(["transform", str(j_matrix_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "qspectra-report-v1"

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_large_scale_normal_input_passes(self, scale, tmp_path):
        # ||Z|| sits within rounding of 1 here: 1 - ||Z|| ~ 1 / (2 ||A||^2)
        rng = np.random.default_rng(31)
        for i, kind in enumerate(gen.MATRIX_CLASSES * 2):
            a = gen.random_normal(rng, 16, STANDARD_FRAME, kind=kind, scale=scale)
            path, out = tmp_path / f"a{i}.json", tmp_path / f"rep{i}.json"
            save_json(matrix_to_json(a), path)
            assert main(["transform", str(path), "--out", str(out)]) == 0
            assert read_report(out)["status"] == "pass"


@pytest.fixture
def normal_matrix_file(tmp_path):
    path = tmp_path / "a.json"
    a = gen.random_normal(np.random.default_rng(3), 8, STANDARD_FRAME)
    save_json(matrix_to_json(a), path)
    return path


SELFTEST_CHECKS = [
    "quaternion.modulus_multiplicative",
    "quaternion.slice_split_recombine",
    "quaternion.orbit_conjugation_invariant",
    "quaternion.frame_deterministic",
    "vectors.inner_self_real",
    "vectors.cauchy_schwarz_margin",
    "vectors.expand_reconstruct",
    "operators.norm_bounds_action",
    "operators.power_iteration_attains_norm",
    "operators.delta_orbit_function",
    "operators.adjoint_antihomomorphism",
    "bridge.orbit_recovery",
    "bridge.chi_multiplicative",
    "bridge.chi_star_homomorphism",
    "bridge.eigenvalue_conjugate_pairing",
    "bridge.frame_covariant_orbits",
    "extension.plus_minus_orthogonality",
    "extension.norm_equality",
    "extension.star",
    "extension.multiplicative",
    "extension.delta_compatible",
    "pair.action_associative",
    "pair.action_unconjugated_fails",
    "pair.projection_recovers_first_slot",
    "measure.mphi_norm_equals_ess_sup",
    "measure.mphi_normal",
    "measure.slice_split_pythagoras",
    "measure.pushforward_mass",
    "form.reconstruction_relative",
    "form.norm_identity_relative",
    "oracle.delta_kernel_agrees_with_orbits",
    "corollaries.classify_cross_check",
    "corollaries.conjugate_equivalence_relative",
    "transform.xi_round_trip_relative",
    "transform.contraction_norm_bounded",
    "transform.inverse_round_trip_scaled",
    "transform.star_compatible",
    "unbounded.z_extension_commutes",
    "unbounded.truncation_stable",
]
EXAMPLE_CHECKS = [
    "example.unit_modulus",
    "example.conjugation_identity",
    "example.multiplier_equivalence",
    "example.multiplier_equivalence_opnorm",
    "example.norm_matches_ess_sup",
]
DECOMPOSE_CHECKS = [
    "decompose.reconstruction",
    "decompose.norm_identity",
    "decompose.unitary",
    "decompose.slice_spectrum_plus",
    "decompose.slice_spectrum_conjugate",
]
TRANSFORM_CHECKS = [
    "transform.contraction",
    "transform.defining_residual",
    "transform.star_compatible",
    "transform.round_trip",
    "transform.normal_preserved",
]


class TestCheckNames:
    def names(self, argv, tmp_path):
        out = tmp_path / "rep.json"
        assert main(argv + ["--out", str(out)]) == 0
        return [c["name"] for c in read_report(out)["checks"]]

    def test_selftest(self, tmp_path):
        assert self.names(["selftest", "--n", "4"], tmp_path) == SELFTEST_CHECKS

    def test_example(self, tmp_path):
        assert self.names(["example"], tmp_path) == EXAMPLE_CHECKS

    def test_decompose(self, normal_matrix_file, tmp_path):
        assert self.names(["decompose", str(normal_matrix_file)], tmp_path) == DECOMPOSE_CHECKS

    def test_transform(self, normal_matrix_file, tmp_path):
        assert self.names(["transform", str(normal_matrix_file)], tmp_path) == TRANSFORM_CHECKS

    def test_transform_inverse(self, tmp_path):
        path = tmp_path / "z.json"
        save_json(matrix_to_json(QMatrix.from_rows([[J * 0.5]])), path)
        names = self.names(["transform", str(path), "--inverse"], tmp_path)
        assert names == ["transform.inverse_round_trip"]


class TestLapackCalls:
    """The CLI reads the norms and residuals the library has already
    measured instead of computing them again, and checks on complex
    adjoints, with no quaternion matrix product."""

    def counters(self, monkeypatch):
        calls = dict.fromkeys(["svd", "eig", "qr", "eigvals", "qmatmul"], 0)
        for name in calls:
            module = qarray if name == "qmatmul" else np.linalg

            def counted(*args, _name=name, _f=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def count(self, monkeypatch, argv, tmp_path):
        calls = self.counters(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "rep.json")]) == 0
        return calls

    def test_decompose(self, monkeypatch, normal_matrix_file, tmp_path):
        eigh = count_calls(monkeypatch, "eigh")
        calls = self.count(monkeypatch, ["decompose", str(normal_matrix_file)], tmp_path)
        # one eigh each for chi(A), T+ and T-, and no block couples in any
        assert calls == {"svd": 1, "eig": 0, "qr": 1, "eigvals": 0, "qmatmul": 0}
        assert eigh == [3]

    def test_forward_transform(self, monkeypatch, normal_matrix_file, tmp_path):
        calls = self.count(monkeypatch, ["transform", str(normal_matrix_file)], tmp_path)
        # one full SVD each of A, A*, Z and Z_{A*}; the round trip inverts Z's
        assert calls == {"svd": 4, "eig": 0, "qr": 0, "eigvals": 0, "qmatmul": 0}

    def test_inverse_transform(self, monkeypatch, tmp_path):
        a = gen.random_normal(np.random.default_rng(3), 8, STANDARD_FRAME, scale=0.3)
        path = tmp_path / "z.json"
        save_json(matrix_to_json(a), path)
        calls = self.count(monkeypatch, ["transform", str(path), "--inverse"], tmp_path)
        assert calls == {"svd": 3, "eig": 0, "qr": 0, "eigvals": 0, "qmatmul": 0}

    def test_selftest_form_group(self, monkeypatch):
        # four matrices, one SVD each in its form; the group reads ||A|| and
        # both residuals off the forms, with no SVD or quaternion product of its own
        calls = self.counters(monkeypatch)
        corpus = selftest._spectral_corpus(0, 8)
        assert calls["svd"] == 4
        calls.update(dict.fromkeys(calls, 0))
        selftest._group_form(np.random.default_rng([0, 7]), 8, corpus)
        assert calls["svd"] == 0
        assert calls["qmatmul"] == 0

    def test_selftest_transform_group(self, monkeypatch):
        # four SVDs per input, as in `transform`, and no SVD of its own; the
        # group draws its own inputs, not the spectral corpus
        calls = self.counters(monkeypatch)
        selftest._group_transform(np.random.default_rng([0, 10]), 8, [])
        assert calls["svd"] == 12

    def test_selftest_bridge_group(self, monkeypatch):
        # the conjugate pairing reads chi(A)'s spectrum off the solver the
        # decomposition uses, not a general eigvals
        corpus = selftest._spectral_corpus(0, 8)
        calls = self.counters(monkeypatch)
        selftest._group_bridge(np.random.default_rng([0, 3]), 8, corpus)
        assert calls["eigvals"] == 0

    def test_selftest_decomposes_each_corpus_matrix_once(self, monkeypatch):
        # one corpus of four matrices serves every spectral group: one form
        # each, plus the bridge group's decomposition in a second frame (28
        # decompositions and 12 forms when each group drew its own matrices)
        calls = {"spectral_decompose": 0, "multiplication_form": 0}
        for name in calls:
            wrapped = getattr(qspectra.spectral, name)

            def counted(*args, _name=name, _f=wrapped, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("qspectra") and getattr(module, name, None) is wrapped:
                    monkeypatch.setattr(module, name, counted)
        assert selftest.run_selftest(0, 8).passed
        assert calls == {"spectral_decompose": 8, "multiplication_form": 4}


@pytest.mark.parametrize("n", [4, 64])
def test_selftest_bridge_orbits_on_anti_self_adjoint_input(n):
    # the real parts of its eigenvalues are rounding noise, so the orbits are
    # matched as multisets; sorted by real part they paired unrelated orbits
    sample = next(s for s in selftest._spectral_corpus(0, n) if s[0] == "antiSelfAdjoint")
    checks = selftest._group_bridge(np.random.default_rng([0, 3]), n, [sample])
    worst = {c.name: c.residual for c in checks}
    assert worst["bridge.orbit_recovery"] <= 1e-12
    assert worst["bridge.frame_covariant_orbits"] <= 1e-12


class TestQuaternionCount:
    """Below the API boundary a decompose keeps its values in arrays; the
    Quaternion objects it builds are the slice axis and its frame."""

    def test_decompose_n64(self, monkeypatch, tmp_path):
        path = tmp_path / "a.json"
        a = gen.random_normal(np.random.default_rng(5), 64, STANDARD_FRAME)
        save_json(matrix_to_json(a), path)
        built = []
        init = Quaternion.__init__

        def counted(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Quaternion, "__init__", counted)
        assert main(["decompose", str(path), "--out", str(tmp_path / "rep.json")]) == 0
        assert len(built) <= 16


class TestParser:
    def test_built_once_per_process(self, normal_matrix_file, tmp_path):
        cli._build_parser.cache_clear()
        for name in ("a", "b"):
            assert main(["decompose", str(normal_matrix_file), "--out", str(tmp_path / name)]) == 0
        assert cli._build_parser.cache_info().misses == 1

    def test_usage_errors_still_exit_3(self, normal_matrix_file, tmp_path):
        assert _usage_error_code(["selftest", "--bogus"]) == 3
        assert _usage_error_code(["decompose"]) == 3
        # the parser that raised them still parses
        assert main(["decompose", str(normal_matrix_file), "--out", str(tmp_path / "r")]) == 0
        assert _usage_error_code(["transform", str(normal_matrix_file), "--tol", "1"]) == 3


def _usage_error_code(argv) -> int:
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


def _scaled_normal_file(tmp_path, scale):
    """A seeded n = 6 normal matrix with ||A||_F = scale."""
    a = gen.random_normal(np.random.default_rng(5), 6, STANDARD_FRAME)
    path = tmp_path / f"a{scale:.0e}.json"
    save_json(matrix_to_json(QMatrix(a.a * (scale / a.frobenius()))), path)
    return path


class TestOverflow:
    def test_transform_with_overflowed_bound_fails(self, tmp_path, capsys, recwarn):
        # ||A||_F overflows, so the defining residual's bound is inf; the
        # overflow is read off the value, with no numpy warning
        out = tmp_path / "rep.json"
        assert main(["transform", str(_scaled_normal_file(tmp_path, 1e160)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        assert not recwarn.list
        rep = read_report(out)
        assert rep["status"] == "fail"
        check = next(c for c in rep["checks"] if c["name"] == "transform.defining_residual")
        assert check["tol"] == float("inf") and not check["pass"]

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_decompose_names_the_overflow(self, scale, tmp_path, capsys):
        assert main(["decompose", str(_scaled_normal_file(tmp_path, scale))]) == 2
        assert "normality check overflows" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("command", ["selftest", "example", "decompose", "transform"])
    def test_tol_is_rejected(self, command, normal_matrix_file):
        matrix = [str(normal_matrix_file)] if command in ("decompose", "transform") else []
        assert _usage_error_code([command, *matrix, "--tol", "1e-3"]) == 3

    @pytest.mark.parametrize("command", ["selftest", "example"])
    def test_m_only_on_matrix_commands(self, command):
        assert _usage_error_code([command, "--m", "0,1,0,0"]) == 3

    @pytest.mark.parametrize(
        "command,m",
        [("decompose", "0,nan,0,0"), ("transform", "0,nan,0,0"), ("transform", "nan,1,0,0")],
    )
    def test_nan_slice_axis_is_input_error(self, command, m, normal_matrix_file, capsys):
        assert main([command, str(normal_matrix_file), "--m", m]) == 3
        assert "unit imaginary" in capsys.readouterr().err

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["selftest", "--seed", "-1"]) == 3
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_out_writes_the_stdout_payload(self, normal_matrix_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["decompose", str(normal_matrix_file), "--out", str(out)]) == 0
        assert main(["decompose", str(normal_matrix_file)]) == 0
        written, printed = json.loads(out.read_text()), json.loads(capsys.readouterr().out)
        written.pop("timing"), printed.pop("timing")
        assert written == printed
        assert out.read_text().endswith("}\n")


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(qspectra.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", ["scipy", "mpmath", "jsonschema"])
def test_cli_import_leaves_module_out(module):
    # the runtime is numpy alone; each of these would add tens to hundreds
    # of milliseconds to every fresh qspectra process
    proc = _run_python(f"import qspectra.cli, sys; sys.exit({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_test_only_packages(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "a.json"
    save_json(matrix_to_json(gen.random_normal(rng, 4, STANDARD_FRAME)), path)
    runs = [
        ["selftest", "--n", "4"],
        ["example"],
        ["decompose", str(path)],
        ["transform", str(path)],
    ]
    code = f"""
import sys
sys.modules["mpmath"] = sys.modules["jsonschema"] = None
from qspectra.cli import main
for i, argv in enumerate({runs!r}):
    code = main(argv + ["--out", {str(tmp_path)!r} + f"/rep{{i}}.json"])
    if code != 0:
        sys.exit(f"{{argv}} exited {{code}}")
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
