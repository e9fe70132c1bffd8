import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qspectra
from qspectra import J, QMatrix, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.cli import main
from qspectra.serialize import matrix_to_json, save_json


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
        assert main(["selftest", "--n", "65"]) == 3
        assert main(["selftest", "--tol", "-1"]) == 3

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
