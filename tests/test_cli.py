"""End-to-end command line checks via cotton3.cli.main."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cotton3.cli import main

SU2_BRACKETS = {
    "brackets": [
        {"i": 2, "j": 3, "coeffs": [2, 0, 0]},
        {"i": 3, "j": 1, "coeffs": [0, 2, 0]},
        {"i": 1, "j": 2, "coeffs": [0, 0, 2]},
    ]
}


@pytest.fixture
def geom(tmp_path):
    def write(data, name="geom.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def kenmotsu(lam, b=0.0, c=0.0, **extra):
    return {"kenmotsu": {"lambda": lam, "b": b, "c": c}, **extra}


class TestCurvature:
    def test_human_output(self, geom, capsys):
        rc = main(["curvature", geom(kenmotsu(2.0))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scalar curvature: -14" in out
        assert "geometry class: not_symmetric" in out
        assert "connection along e1" in out

    def test_machine_output(self, geom, capsys):
        rc = main(["curvature", geom(kenmotsu(1.0)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scalar_curvature"] == pytest.approx(-8.0, abs=1e-12)
        assert doc["geometry_class"]["kind"] == "product_h2xr"
        assert doc["geometry_class"]["curvature"] == pytest.approx(-4.0, abs=1e-9)
        assert sorted(doc["ricci_eigenvalues"]) == pytest.approx(
            [-4.0, -4.0, 0.0], abs=1e-9
        )
        assert doc["ricci_parallel"] is True
        assert doc["version"]
        assert len(doc["connection"]) == 3

    def test_nonunimodular_constant_curvature(self, geom, capsys):
        rc = main([
            "curvature",
            geom({"nonunimodular": {"alpha": 1.0, "beta": 0.0}}),
            "--format", "machine",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["geometry_class"]["kind"] == "constant_curvature"
        assert doc["geometry_class"]["curvature"] == pytest.approx(-1.0, abs=1e-9)

    def test_custom_metric(self, geom, capsys):
        path = geom({
            "brackets": SU2_BRACKETS["brackets"],
            "metric": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
        })
        rc = main(["curvature", path, "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["geometry_class"]["curvature"] == pytest.approx(0.25, abs=1e-9)


class TestStructure:
    def test_detects_family_member(self, geom, capsys):
        rc = main(["structure", geom(kenmotsu(2.0)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == pytest.approx(2.0, abs=1e-9)
        assert doc["b"] == pytest.approx(0.0, abs=1e-9)
        assert doc["kenmotsu"] is False
        assert doc["max_residual"] <= 1e-8
        assert doc["h_parallel"]["holds"] is True
        assert doc["xi_ricci_eigenvector"]["is_eigenvector"] is True

    def test_kenmotsu_case_human(self, geom, capsys):
        rc = main(["structure", geom({"nonunimodular": {"alpha": 1.0, "beta": 0.0}})])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kenmotsu (h = 0): yes" in out
        assert "xi is a ricci eigenvector" not in out

    def test_no_structure_is_an_error(self, geom, capsys):
        rc = main(["structure", geom(SU2_BRACKETS)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_requires_orthonormal_frame(self, geom, capsys):
        path = geom(kenmotsu(2.0, metric=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
        rc = main(["structure", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "orthonormal" in captured.err


class TestCotton:
    def test_machine_values(self, geom, capsys):
        rc = main(["cotton", geom(kenmotsu(2.0)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cotton2"][1][1] == pytest.approx(12.0, abs=1e-9)
        assert doc["cotton2"][2][2] == pytest.approx(-12.0, abs=1e-9)
        assert doc["cotton2_norm"] == pytest.approx(12 * math.sqrt(2), rel=1e-10)
        assert abs(doc["cotton2_trace"]) <= 1e-10
        assert doc["conformally_flat"] is False
        assert doc["adapted_frame_values"]["max_gap"] <= 1e-8

    def test_conformally_flat_member(self, geom, capsys):
        rc = main(["cotton", geom(kenmotsu(1.0, 3.0, 3.0)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conformally_flat"] is True
        assert doc["cotton2_norm"] <= 1e-9

    def test_scaled_metric_skips_adapted_block(self, geom, capsys):
        path = geom(kenmotsu(2.0, metric=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
        rc = main(["cotton", path, "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["adapted_frame_values"] is None
        # Under g -> 2g the (0,2) Cotton tensor scales by 2^(-1/2).
        assert doc["cotton2_norm"] == pytest.approx(12.0, rel=1e-10)

    def test_human_output(self, geom, capsys):
        rc = main(["cotton", geom(kenmotsu(1.0))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conformally flat: yes" in out

    def test_one_metric_pass_and_recorded_output(self, geom, capsys, monkeypatch):
        # the connection, the curvature and cotton2_trace all read the
        # algebra's one pass; the document is byte for byte the one recorded
        # when the trace made a pass of its own (its rounding-level figures
        # make the digest, like verify-paper's, one of the numpy build)
        import sys

        from cotton3.frame_algebra import _metric_frame

        passes = []

        def counting(g):
            passes.append(g)
            return _metric_frame(g)
        for modname, mod in sorted(sys.modules.items()):
            if modname.startswith("cotton3.") and hasattr(mod, "_metric_frame"):
                monkeypatch.setattr(mod, "_metric_frame", counting)
        metric = [[2, 0.3, 0], [0.3, 1, 0], [0, 0, 1.5]]
        rc = main(["cotton", geom(kenmotsu(2.0, metric=metric)), "--format", "machine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(passes) == 1
        doc = json.loads(out)
        c2 = np.array(doc["cotton2"])
        assert doc["cotton2_trace"] == float(np.trace(_metric_frame(np.array(metric, float))[0] @ c2))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "72b659767c85328ca738124030ec5802ada4c862dd2252ec4656740b684ef8d8"
        )

    def test_huge_metric(self, geom, capsys):
        # det g = 1e600 overflows; the dual still follows the scale law,
        # C(e, e) = 12 / sqrt(1e200)
        path = geom(kenmotsu(2.0, metric=(1e200 * np.eye(3)).tolist()))
        rc = main(["cotton", path, "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cotton2"][1][1] == pytest.approx(1.2e-99, rel=1e-12, abs=0.0)
        assert doc["cotton2"][2][2] == pytest.approx(-1.2e-99, rel=1e-12, abs=0.0)


class TestSoliton:
    def test_all_ansatz_spaces(self, geom, capsys):
        rc = main(["soliton", geom(kenmotsu(1.0)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["collinear"]["classification"] == "trivial_only"
        assert doc["orthogonal"]["classification"] == "steady"
        assert doc["orthogonal"]["family_dim"] == 1
        assert doc["general"]["classification"] == "steady"

    def test_single_ansatz(self, geom, capsys):
        rc = main([
            "soliton", geom(kenmotsu(2.0)), "--ansatz", "collinear",
            "--format", "machine",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"collinear", "version"}
        assert doc["collinear"]["classification"] == "infeasible"
        assert doc["collinear"]["residual"] == pytest.approx(
            12 * math.sqrt(2), rel=1e-9
        )

    def test_general_needs_no_structure(self, geom, capsys):
        # The bi-invariant sphere has no adapted structure, but the general
        # ansatz still solves: every frame field is Killing.
        rc = main([
            "soliton", geom(SU2_BRACKETS), "--ansatz", "general",
            "--format", "machine",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["general"]["classification"] == "steady"
        assert doc["general"]["family_dim"] == 3

    def test_all_on_structureless_geometry_fails(self, geom, capsys):
        rc = main(["soliton", geom(SU2_BRACKETS)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_human_output(self, geom, capsys):
        rc = main(["soliton", geom(kenmotsu(1.0))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "collinear: trivial_only" in out
        assert "orthogonal: steady" in out


class TestFlow:
    def test_stdout_csv_matches_file(self, geom, tmp_path, capsys):
        path = geom(kenmotsu(2.0))
        rc = main(["flow", path, "--dt", "1e-3", "--steps", "10", "--stride", "2"])
        stdout_csv = capsys.readouterr().out
        assert rc == 0
        out_file = tmp_path / "traj.csv"
        rc = main([
            "flow", path, "--dt", "1e-3", "--steps", "10", "--stride", "2",
            "--output", str(out_file),
        ])
        capsys.readouterr()
        assert rc == 0
        assert out_file.read_text() == stdout_csv
        lines = stdout_csv.splitlines()
        assert lines[0] == "time,g11,g12,g13,g22,g23,g33,cotton_norm"
        assert len(lines) == 7  # header + 6 recorded states

    def test_fixed_point_report(self, geom, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        rc = main([
            "flow", geom(kenmotsu(1.0)), "--dt", "1e-3", "--steps", "20",
            "--fixed-point-tol", "1e-9", "--output", str(out_file),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ended at a fixed point" in out

    def test_machine_summary(self, geom, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        rc = main([
            "flow", geom(kenmotsu(2.0)), "--dt", "1e-3", "--steps", "30",
            "--output", str(out_file), "--format", "machine",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 31
        assert doc["final_time"] == pytest.approx(0.03, rel=1e-12)
        assert doc["final_metric"][1][1] == pytest.approx(2.10553778, abs=1e-7)
        assert doc["fixed_point"] is False

    def test_degeneration_writes_partial_trajectory(self, geom, tmp_path, capsys):
        out_file = tmp_path / "partial.csv"
        rc = main([
            "flow", geom(kenmotsu(2.0)), "--dt", "1e-3", "--steps", "100",
            "--output", str(out_file),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "wrote 35 states" in captured.err
        assert "step 35" in captured.err
        assert len(out_file.read_text().splitlines()) == 36  # header + 35 states

    def test_singular_after_the_step_writes_partial_trajectory(
        self, geom, tmp_path, capsys
    ):
        # positive definite after step 1, but past the conditioning rule
        out_file = tmp_path / "partial.csv"
        data = {
            "brackets": [
                {"i": 2, "j": 3, "coeffs": [-2, 0, 0]},
                {"i": 3, "j": 1, "coeffs": [0, 3, 0]},
                {"i": 1, "j": 2, "coeffs": [0, 0, 0.5]},
            ],
            "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 3e-12]],
        }
        rc = main([
            "flow", geom(data), "--dt", "1.1e-19", "--steps", "1",
            "--output", str(out_file),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "wrote 1 states" in captured.err
        assert "error: step 1 (t=1.1e-19): metric became singular after the step" in (
            captured.err
        )
        assert len(out_file.read_text().splitlines()) == 2  # header + 1 state

    def test_normalize_flag(self, geom, capsys):
        rc = main([
            "flow", geom(kenmotsu(2.0)), "--dt", "1e-3", "--steps", "10",
            "--normalize",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines()[1:]:
            vals = [float(x) for x in line.split(",")]
            g = np.array([
                [vals[1], vals[2], vals[3]],
                [vals[2], vals[4], vals[5]],
                [vals[3], vals[5], vals[6]],
            ])
            assert abs(np.linalg.det(g) - 1.0) <= 1e-12

    def test_bad_step_parameters(self, geom, capsys):
        rc = main(["flow", geom(kenmotsu(1.0)), "--dt=-1e-3", "--steps", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "dt must be positive" in captured.err

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt(self, geom, capsys, dt):
        rc = main(["flow", geom(kenmotsu(2.0)), "--dt", dt, "--steps", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: dt must be positive and finite")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_fixed_point_tolerance(self, geom, tmp_path, capsys, value):
        argv = ["flow", geom(kenmotsu(1.0)), "--dt", "1e-3", "--steps", "5"]
        rc = main(argv + [f"--fixed-point-tol={value}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --fixed-point-tol must be a non-negative")
        assert len(captured.err.splitlines()) == 1
        # zero stays valid: only an exactly flat final state is a fixed point
        rc = main(argv + ["--fixed-point-tol=0", "--output", str(tmp_path / "t.csv")])
        assert rc == 0
        assert "ended at a fixed point" in capsys.readouterr().out


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["curvature", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: cannot read")

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["curvature", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "invalid JSON at line 1" in captured.err

    def test_non_number_parameter(self, geom, capsys):
        rc = main(["curvature", geom({"kenmotsu": {"lambda": "two"}})])
        captured = capsys.readouterr()
        assert rc == 1
        assert "'lambda' must be a number" in captured.err

    def test_missing_parameter(self, geom, capsys):
        rc = main(["curvature", geom({"kenmotsu": {"b": 1.0}})])
        captured = capsys.readouterr()
        assert rc == 1
        assert "missing field 'lambda'" in captured.err

    def test_equal_bracket_indices(self, geom, capsys):
        rc = main(["curvature", geom({
            "brackets": [{"i": 1, "j": 1, "coeffs": [1, 0, 0]}]
        })])
        captured = capsys.readouterr()
        assert rc == 1
        assert "i and j must differ" in captured.err

    def test_duplicate_bracket_pair(self, geom, capsys):
        rc = main(["curvature", geom({
            "brackets": [
                {"i": 1, "j": 2, "coeffs": [0, 0, 1]},
                {"i": 2, "j": 1, "coeffs": [0, 0, -1]},
            ]
        })])
        captured = capsys.readouterr()
        assert rc == 1
        assert "duplicate bracket" in captured.err

    def test_non_closing_brackets(self, geom, capsys):
        # lam != 1 with b != c violates the Jacobi identity.
        rc = main(["curvature", geom(kenmotsu(2.0, 1.0, 0.0))])
        captured = capsys.readouterr()
        assert rc == 1
        assert "brackets close only when" in captured.err

    def test_nonpositive_lambda(self, geom, capsys):
        rc = main(["curvature", geom(kenmotsu(-1.0))])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_jacobi_violation_in_raw_brackets(self, geom, capsys):
        rc = main(["curvature", geom({
            "brackets": [
                {"i": 1, "j": 2, "coeffs": [0, 0, 1]},
                {"i": 1, "j": 3, "coeffs": [0, 1, 0]},
                {"i": 2, "j": 3, "coeffs": [0, 1, 0]},
            ]
        })])
        captured = capsys.readouterr()
        assert rc == 1
        assert "jacobi" in captured.err

    def test_indefinite_metric(self, geom, capsys):
        path = geom(kenmotsu(1.0, metric=[[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "metric_not_positive" in captured.err

    def test_wrong_metric_shape(self, geom, capsys):
        path = geom(kenmotsu(1.0, metric=[[1, 0], [0, 1]]))
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "must be 3x3" in captured.err

    def test_two_geometry_forms(self, geom, capsys):
        rc = main(["curvature", geom({
            "kenmotsu": {"lambda": 1.0},
            "nonunimodular": {"alpha": 1.0, "beta": 0.0},
        })])
        captured = capsys.readouterr()
        assert rc == 1
        assert "exactly one of" in captured.err

    def test_unknown_field(self, geom, capsys):
        rc = main(["curvature", geom({"kenmotsu": {"lambda": 1.0}, "spin": 2})])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown fields" in captured.err

    @pytest.mark.parametrize("data", [
        {"nonunimodular": {"alpha": float("nan"), "beta": 0.0}},
        {"kenmotsu": {"lambda": float("inf")}},
        {"brackets": [{"i": 1, "j": 2, "coeffs": [0.0, 0.0, float("nan")]}]},
        kenmotsu(1.0, metric=[[1, 0, 0], [0, 1, 0], [0, 0, float("-inf")]]),
    ])
    def test_non_finite_numbers(self, geom, capsys, data):
        rc = main(["structure", geom(data), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "finite" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_constants(self, geom, capsys):
        rc = main(["curvature", geom(kenmotsu(1e200)), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "overflow" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("command, lam, key", [
        ("cotton", 1e60, "cotton2_norm"),
        ("curvature", 1e100, "ricci_eigenvalues"),
    ])
    def test_non_finite_result(self, geom, capsys, command, lam, key, fmt):
        # valid constants whose derived values overflow: no Infinity or NaN
        # on stdout and no numpy warning, only the one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, geom(kenmotsu(lam)), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} is not finite")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("dt, output", [
        ("1e-200", False),  # finite metric, infinite Cotton norm, CSV on stdout
        ("1e-200", True),   # the same trajectory into --output
        ("1e-100", True),   # degenerates at the first step: partial trajectory
    ])
    def test_non_finite_trajectory(self, geom, tmp_path, capsys, dt, output):
        # no CSV row is written, to stdout or to a file, when one is not finite
        out_file = tmp_path / "traj.csv"
        argv = ["flow", geom(kenmotsu(1e60)), "--dt", dt, "--steps", "1"]
        rc = main(argv + (["--output", str(out_file)] if output else []))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cotton_norm is not finite")
        assert len(captured.err.splitlines()) == 1
        assert not out_file.exists()


class TestTolerances:
    def test_tolerance_comes_only_from_the_flag(self, capsys, monkeypatch):
        # the environment is not read: a tolerance that would fail the
        # reference checks changes nothing unless --tolerance gives it
        monkeypatch.setenv("COTTON3_TOL", "1e-30")
        rc = main(["verify-paper"])
        assert "26/26 reference checks passed" in capsys.readouterr().out
        assert rc == 0
        rc = main(["verify-paper", "--tolerance", "1e-30"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_non_positive_or_non_finite_tolerance(self, geom, capsys, value):
        path = geom(kenmotsu(2.0))
        rc = main(["structure", path, "--tolerance", value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: --tolerance must be a positive")
        rc = main(["verify-paper", "--tolerance", value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --tolerance must be a positive")


class TestVerifyPaper:
    def test_human_summary(self, capsys):
        rc = main(["verify-paper"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "26/26 reference checks passed" in out
        assert "FAIL" not in out

    def test_machine_runs_are_byte_identical(self, capsys):
        rc1 = main(["verify-paper", "--format", "machine"])
        first = capsys.readouterr().out
        rc2 = main(["verify-paper", "--format", "machine"])
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert first == second
        doc = json.loads(first)
        assert doc["all_ok"] is True
        assert len(doc["checks"]) == 26
        assert doc["grid"] == [0.5, 1.0, 2.0]
        assert doc["version"]

    def test_machine_output_matches_recorded_digest(self, capsys):
        # the benchmark's record of the reproduction output, from the seed engine
        record = Path(__file__).resolve().parents[1] / "perfbench" / "verify_paper.sha256"
        rc = main(["verify-paper", "--format", "machine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == record.read_text().split()[0]

    def test_each_layer_built_once_per_member(self, capsys, monkeypatch):
        # eight reference members, each connection, curvature (with its
        # Cotton tensor) and structure built once, and no cotton_pack call;
        # the default grid reads the members at lambda = 0.5, 1 and 2; five
        # Cotton evaluations for the stationary flow, which stops evaluating
        # after its first step.  Metric passes: one per member, kept on its
        # algebra for the connection, the curvature and the Ricci spectra,
        # and one per flow evaluation
        import sys

        counts = dict.fromkeys(
            ("detect_structure", "levi_civita", "curvature", "cotton_pack",
             "cotton2_array", "_metric_frame"), 0
        )
        wrapped = {}
        for modname, mod in sorted(sys.modules.items()):
            if modname != "cotton3" and not modname.startswith("cotton3."):
                continue
            for name in counts:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                if fn not in wrapped:
                    def counting(*args, _fn=fn, _name=name, **kwargs):
                        counts[_name] += 1
                        return _fn(*args, **kwargs)
                    wrapped[fn] = counting
                monkeypatch.setattr(mod, name, wrapped[fn])
        rc = main(["verify-paper", "--format", "machine"])
        capsys.readouterr()
        assert rc == 0
        assert counts == {
            "detect_structure": 8,
            "levi_civita": 8,
            "curvature": 8,
            "cotton_pack": 0,
            "cotton2_array": 5,
            "_metric_frame": 13,
        }

    def test_custom_grid(self, capsys):
        rc = main(["verify-paper", "--grid", "2", "--format", "machine"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["checks"]) == 20  # 18 fixed + 2 grid rows
        assert doc["grid"] == [2.0]

    def test_bad_grid_values(self, capsys):
        rc = main(["verify-paper", "--grid", "1,zebra"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--grid must be comma-separated numbers" in captured.err
        rc = main(["verify-paper", "--grid", "0,1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--grid values must be positive" in captured.err
        rc = main(["verify-paper", "--grid", ","])
        captured = capsys.readouterr()
        assert rc == 1
        assert "at least one value" in captured.err

    @pytest.mark.parametrize("grid", ["inf", "nan", "1,inf"])
    def test_non_finite_grid(self, capsys, grid):
        rc = main(["verify-paper", "--grid", grid])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --grid values must be positive and finite")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["1e200", "1e100"])
    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_non_finite_residual(self, capsys, grid, fmt):
        # finite lam whose soliton residual overflows (inf) or is undefined
        # (nan): no check passes or fails on it
        rc = main(["verify-paper", "--grid", grid, "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: residual is not finite")
        assert len(captured.err.splitlines()) == 1

    def test_unmatched_model_reports_finite_residual(self, capsys):
        # just off lam = 1 the geometry matches no model: the split check
        # fails with the Ricci spectrum's distance from {-4, -4, 0}
        rc = main(["verify-paper", "--grid", "1.000000001", "--format", "machine"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        (split,) = [c for c in doc["checks"] if c["name"].startswith("metric splits")]
        assert split["ok"] is False
        residual = float(split["detail"].rsplit("residual ", 1)[1])
        assert 0.0 < residual < 1e-6

    def test_failing_tolerance_marks_failures(self, capsys):
        rc = main(["verify-paper", "--tolerance", "1e-30"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in out
