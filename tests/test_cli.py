"""End-to-end command line checks via cotton3.cli.main."""

import argparse
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_jacobi, change_basis, random_rotation, rotate_algebra, semidirect
from cotton3 import (curvature, detect_structure, from_kenmotsu_params, levi_civita,
                     ricci_spectrum)
from cotton3.cli import _KENMOTSU_MEMBERS, _gap, _layers, build_parser, main

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


SKEW_METRIC = [[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.5]]


def brackets_of(L):
    """The bracket form of ``L``'s structure constants."""
    c = L.structure_constants
    return {"brackets": [{"i": i + 1, "j": j + 1, "coeffs": c[i, j].tolist()}
                         for i, j in ((0, 1), (0, 2), (1, 2))]}


def count_calls(monkeypatch, names) -> dict:
    """Count the calls of each cotton3 function in ``names``.  Every
    cotton3 namespace that binds one gets the same counting wrapper, so a
    call counts once, whichever binding it goes through."""
    counts = dict.fromkeys(names, 0)
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
    return counts


def skew_frame_kenmotsu():
    """The lambda = 2 member in the frame e'_i = sum_a P[a, i] e_a, P the
    transposed Cholesky factor of SKEW_METRIC: brackets plus that metric."""
    P = np.linalg.cholesky(np.array(SKEW_METRIC)).T
    return dict(brackets_of(change_basis(from_kenmotsu_params(2.0, 0.0, 0.0), P)),
                metric=SKEW_METRIC)


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

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_one_spectrum_per_run(self, geom, capsys, monkeypatch, lam):
        # lam = 1 is Ricci-parallel, and its class has read the spectrum
        # that the output prints; lam = 2 reads it for the output alone
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        expected = ricci_spectrum(curvature(L, levi_civita(L))).tolist()
        counts = count_calls(monkeypatch, ("ricci_spectrum",))
        rc = main(["curvature", geom(kenmotsu(lam)), "--format", "machine"])
        assert rc == 0
        assert counts == {"ricci_spectrum": 1}
        assert json.loads(capsys.readouterr().out)["ricci_eigenvalues"] == expected

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

    def test_h_parallel_sides_are_evaluated_once(self, geom, capsys, monkeypatch):
        # both sides of nabla_xi h are made in check_h_parallel alone: one
        # run builds one Riemann tensor and one Jacobi operator along xi
        counts = count_calls(monkeypatch, ("_riemann", "_jacobi", "structure_residuals",
                                           "check_h_parallel"))
        rc = main(["structure", geom(skew_frame_kenmotsu()), "--format", "machine"])
        capsys.readouterr()
        assert rc == 0
        assert counts == {"_riemann": 1, "_jacobi": 1, "structure_residuals": 1,
                          "check_h_parallel": 1}

    def test_no_structure_is_an_error(self, geom, capsys):
        rc = main(["structure", geom(SU2_BRACKETS)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        # su(2) is unimodular: tr ad vanishes, so there is no candidate
        assert "no vector orthogonal to [g, g] has nonzero tr ad" in captured.err

    @pytest.mark.parametrize("lam", [1e16, 1e30])
    @pytest.mark.parametrize("command", ["structure", "soliton"])
    def test_detects_at_large_lambda(self, geom, capsys, command, lam):
        # tr ad_xi = -2 is tiny next to |c| here, and xi = e1 is still found
        rc = main([command, geom({"kenmotsu": {"lambda": lam}}), "--format", "machine"])
        assert rc == 0
        if command == "structure":
            doc = json.loads(capsys.readouterr().out)
            assert doc["lambda"] == lam
            assert doc["xi"] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("lam", [1e77, 1e100])
    def test_adapted_frame_is_unit_at_huge_lambda(self, geom, capsys, lam):
        # e g e of the unnormalised e, of order lam^4, overflowed and gave
        # e = phi_e = 0
        rc = main(["structure", geom({"kenmotsu": {"lambda": lam}}), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("e", "phi_e"):
            assert abs(math.fsum(x * x for x in doc[key]) - 1.0) <= 1e-15

    def test_raw_constants_under_a_scaled_metric_have_no_structure(self, geom, capsys):
        # tr ad of the unit Reeb candidate e1 / sqrt(2) is -sqrt(2), not -2
        path = geom(kenmotsu(2.0, metric=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
        rc = main(["structure", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: no unit Reeb candidate satisfies")
        assert captured.err.count("\n") == 1


class TestGeneralFrame:
    """The lam = 2 member written in a frame with a non-diagonal metric is
    the same geometry: every command detects its structure."""

    def test_structure(self, geom, capsys):
        rc = main(["structure", geom(skew_frame_kenmotsu()), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == pytest.approx(2.0, abs=1e-9)
        assert abs(doc["b"]) <= 1e-9 and abs(doc["c"]) <= 1e-9

    def test_soliton(self, geom):
        assert main(["soliton", geom(skew_frame_kenmotsu()), "--format", "machine"]) == 0

    @pytest.mark.parametrize("t", [1e30, 1e-30])
    def test_structure_in_scaled_frames(self, geom, capsys, t):
        # the frame t e_i scales the constants by t and the metric by t^2;
        # detection scores in the orthonormal frame, where neither shows
        L = change_basis(from_kenmotsu_params(2.0, 0.0, 0.0), t * np.eye(3))
        path = geom(dict(brackets_of(L), metric=L.metric.tolist()))
        rc = main(["structure", path, "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == pytest.approx(2.0, abs=1e-12)
        assert doc["xi"] == pytest.approx([1.0 / t, 0.0, 0.0], rel=1e-12)

    def test_cotton_adapted_frame_values(self, geom, capsys):
        rc = main(["cotton", geom(skew_frame_kenmotsu()), "--format", "machine"])
        assert rc == 0
        adapted = json.loads(capsys.readouterr().out)["adapted_frame_values"]
        assert np.allclose(adapted["closed_form"], np.diag([0.0, 12.0, -12.0]),
                           rtol=0.0, atol=1e-9)
        assert adapted["max_gap"] <= 1e-9
        assert main(["cotton", geom(skew_frame_kenmotsu())]) == 0
        assert "adapted-frame values" in capsys.readouterr().out


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

    def test_tiny_metric(self, geom, capsys):
        # the metric rule is scale-free, so 1e-200 I is valid, and
        # C(e, e) = 12 / sqrt(1e-200)
        path = geom(kenmotsu(2.0, metric=(1e-200 * np.eye(3)).tolist()))
        rc = main(["cotton", path])
        assert rc == 0
        assert "conformally flat: no" in capsys.readouterr().out
        rc = main(["cotton", path, "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cotton2"][1][1] == pytest.approx(1.2e101, rel=1e-12, abs=0.0)
        assert doc["cotton2"][2][2] == pytest.approx(-1.2e101, rel=1e-12, abs=0.0)


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

    def test_detects_at_the_given_tolerance(self, geom, capsys):
        # semidirect(diag(1.5, 0.5) + 1e-6 J) is a 3-h structure up to its
        # w = 1e-6, a degree-one residual: at 1e-8 soliton refuses it as
        # structure does, with the same line, and at 1e-4 both detect it
        D = np.diag([1.5, 0.5]) + 1e-6 * np.array([[0.0, -1.0], [1.0, 0.0]])
        path = geom(brackets_of(semidirect(D)))
        errs = []
        for command in ("structure", "soliton"):
            rc = main([command, path, "--tolerance", "1e-8"])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err.startswith("error: no unit Reeb candidate")
            assert len(captured.err.splitlines()) == 1
            errs.append(captured.err)
            assert main([command, path, "--tolerance", "1e-4"]) == 0
            capsys.readouterr()
        assert errs[0] == errs[1]


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

    def test_no_tolerance_option(self, geom, capsys):
        # the flow's one verdict takes --fixed-point-tol: --tolerance is an
        # unknown option, not one that is read and ignored
        with pytest.raises(SystemExit) as exc:
            main(["flow", geom(kenmotsu(2.0)), "--dt", "1e-3", "--steps", "2",
                  "--tolerance", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--help"])
        assert exc.value.code == 0
        assert "--tolerance" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("steps", ["2", "100"])  # success; degenerates at step 35
    @pytest.mark.parametrize("target", ["missing/traj.csv", "."])
    def test_unwritable_output(self, geom, tmp_path, capsys, steps, target):
        out_file = str(tmp_path / target)
        rc = main(["flow", geom(kenmotsu(2.0)), "--dt", "1e-3", "--steps", steps,
                   "--output", out_file])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_file}: ")
        assert len(captured.err.splitlines()) == 1

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

    @pytest.mark.parametrize("output", [False, True])
    def test_non_finite_initial_cotton_tensor(self, geom, tmp_path, capsys, output):
        # valid constants and metric whose connection overflows: the initial
        # Cotton tensor is nan, refused before any step as cotton refuses it
        path = geom(kenmotsu(1e100, metric=(4e307 * np.eye(3)).tolist()))
        out_file = tmp_path / "traj.csv"
        argv = ["flow", path, "--dt", "1e-3", "--steps", "5"]
        rc = main(argv + ["--output", str(out_file)] if output else argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: the initial Cotton tensor is not finite: "
                                "the geometry exceeds double precision\n")
        assert not out_file.exists()
        assert main(["cotton", path]) == 1
        assert capsys.readouterr().err.endswith(
            "is not finite: the geometry exceeds double precision\n")

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

    def test_json_nested_too_deeply(self, tmp_path, capsys):
        # json's decoder recurses once per level and runs out of stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        rc = main(["curvature", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {path}: invalid JSON: nested too deeply to parse\n"

    @pytest.mark.parametrize("command", ["verify-paper", "flow"])
    def test_closed_stdout(self, geom, capsys, monkeypatch, command):
        # a reader that closed the pipe: one error line and exit 1, no traceback
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        argv = [command]
        if command == "flow":
            argv += [geom(kenmotsu(2.0)), "--dt", "1e-5", "--steps", "30"]
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            "error: standard output was closed before all of it was written\n"
        )

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
        # lam != 1 with b != c violates the Jacobi identity, and so does
        # b != c at lam = 1 however close: the builder builds both, and
        # validate refuses each with its one line
        for params, size in (((2.0, 1.0, 0.0), "2.000e+00"),
                             ((1.0, 1.0, 1.0 + 1e-10), "1.000e-10")):
            path = geom(kenmotsu(*params))
            rc = main(["curvature", path])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err == (f"error: {path}: invalid geometry: jacobi violation "
                                    f"of size {size} at indices (0, 1, 2)\n")

    def test_nonpositive_lambda(self, geom, capsys):
        rc = main(["curvature", geom(kenmotsu(-1.0))])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    # raw brackets whose cyclic sum at (0, 1, 2) is nonzero
    NON_JACOBI_BRACKETS = [
        {"i": 1, "j": 2, "coeffs": [0, 0, 1]},
        {"i": 1, "j": 3, "coeffs": [0, 1, 0]},
        {"i": 2, "j": 3, "coeffs": [0, 1, 0]},
    ]

    def jacobi_line(self, path, s=1.0):
        """The refusal line for ``NON_JACOBI_BRACKETS`` scaled by ``s``,
        sized by the oracle's largest cyclic-sum component at (0, 1, 2)."""
        c = np.zeros((3, 3, 3))
        for b in self.NON_JACOBI_BRACKETS:
            c[b["i"] - 1, b["j"] - 1] = np.multiply(s, b["coeffs"])
            c[b["j"] - 1, b["i"] - 1] = -np.multiply(s, b["coeffs"])
        size = float(np.max(np.abs(brute_jacobi(c)[0, 1, 2])))
        # a size that underflows to 0 is reported as below the double range
        size = f"{size:.3e}" if size else "below the double range"
        return (f"error: {path}: invalid geometry: jacobi violation of size "
                f"{size} at indices (0, 1, 2)\n")

    def test_jacobi_violation_in_raw_brackets(self, geom, capsys):
        path = geom({"brackets": self.NON_JACOBI_BRACKETS})
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == self.jacobi_line(path)

    # the cyclic sum is s^2 against the cutoff 1e-12 s^2, so the brackets
    # are refused at every scale s, also where their products underflow and,
    # at 1e-170, where s^2 lies below the smallest subnormal
    @pytest.mark.parametrize("s", [1e13, 1e-7, 1e-160, 1e-170])
    def test_jacobi_violation_at_every_scale(self, geom, capsys, s):
        brackets = [dict(b, coeffs=[s * x for x in b["coeffs"]])
                    for b in self.NON_JACOBI_BRACKETS]
        path = geom({"brackets": brackets})
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == self.jacobi_line(path, s)

    @pytest.mark.parametrize("command", ["structure", "cotton", "soliton", "flow"])
    def test_jacobi_violation_every_command(self, geom, capsys, command):
        path = geom({"brackets": self.NON_JACOBI_BRACKETS})
        argv = [command, path]
        if command == "flow":
            argv += ["--dt", "1e-3", "--steps", "1"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == self.jacobi_line(path)

    def test_indefinite_metric(self, geom, capsys):
        path = geom(kenmotsu(1.0, metric=[[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "metric_not_positive" in captured.err

    @pytest.mark.parametrize("data, message", [
        (kenmotsu(1.0, metric=[[1, math.inf, 0], [math.inf, 1, 0], [0, 0, 1]]),
         "'metric' entry [0][1] must be finite, got inf"),
        ({"brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, "1"]}]},
         "brackets[0]: 'coeffs' entry [2] must be a number, got '1'"),
        ({"brackets": [{"i": 1, "j": 2, "coeffs": [0, False, 1]}]},
         "brackets[0]: 'coeffs' entry [1] must be a number, got False"),
        ({"brackets": [{"i": 1, "j": 2, "coeffs": [None, 0, 1]}]},
         "brackets[0]: 'coeffs' entry [0] must be a number, got None"),
    ])
    def test_entry_refused_by_name(self, geom, capsys, data, message):
        # a metric entry or a coefficient goes through the number rule of
        # every parameter field, which names the entry it refuses
        path = geom(data)
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_wrong_metric_shape(self, geom, capsys):
        path = geom(kenmotsu(1.0, metric=[[1, 0], [0, 1]]))
        rc = main(["curvature", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "must be 3x3" in captured.err

    @pytest.mark.parametrize("metric, entry", [
        ([["1", False, 0], [0, True, 0], [0, 0, "1e0"]], "[0][0] must be a number, got '1'"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, True]], "[2][2] must be a number, got True"),
        ([[1, 0, 0], [0, None, 0], [0, 0, 1]], "[1][1] must be a number, got None"),
    ])
    def test_metric_entries_not_numbers(self, geom, capsys, metric, entry):
        rc = main(["curvature", geom(kenmotsu(1.0, metric=metric))])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.endswith(f"'metric' entry {entry}\n")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["curvature", "structure", "cotton", "soliton", "flow"])
    @pytest.mark.parametrize("metric, message", [
        # finite metrics whose g + g^T or g - g^T overflows
        (np.diag([1e308] * 3).tolist(), None),
        (np.diag([1.7e308] * 3).tolist(), None),
        ([[1, 1.7e308, 0], [1.7e308, 1, 0], [0, 0, 1]], "metric_not_positive"),
        ([[1, 1.7e308, 0], [-1.7e308, 1, 0], [0, 0, 1]], "metric_asymmetric"),
        # condition 1e10, but g^-1 overflows
        (np.diag([1e-300, 1e-300, 1e-310]).tolist(), "metric_not_positive"),
    ])
    def test_large_metric_one_line(self, geom, capsys, command, metric, message):
        argv = [command, geom(kenmotsu(2.0, metric=metric)), "--format", "machine"]
        if command == "flow":
            argv += ["--dt", "1e-3", "--steps", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        if message is not None:
            assert f"invalid geometry: {message}" in captured.err
        elif command == "curvature":
            assert captured.err.startswith("error: connection is not finite")

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

    @pytest.mark.parametrize("argv", [["curvature"], ["cotton"], ["structure"], ["soliton"],
                                      ["soliton", "--ansatz", "general"]])
    def test_overflowing_connection(self, geom, capsys, argv):
        # c g overflows to nan in the connection of this valid geometry;
        # detection then found no candidate, the solve's SVD did not
        # converge, and curvature and cotton named a later value, none
        # naming the cause
        path = geom(kenmotsu(1e100, metric=(4e307 * np.eye(3)).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([argv[0], path, *argv[1:], "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: connection is not finite: the geometry exceeds "
                                "double precision\n")

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("command, lam, key", [
        ("cotton", 1e60, "cotton2_norm"),
        ("curvature", 5e102, "ricci_parallel_residual"),
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

    def test_large_ricci_eigenvalues_finite(self, geom, capsys):
        # entries past 1e154 would overflow the closed form's squares; its
        # eigenvalues, about -2e200, do not
        rc = main(["curvature", geom(kenmotsu(1e100)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(x) for x in doc["ricci_eigenvalues"])
        assert doc["ricci_eigenvalues"][0] == pytest.approx(-2e200, rel=1e-12)
        assert doc["scalar_curvature"] == pytest.approx(-2e200, rel=1e-12)

    def test_small_ricci_eigenvalues_accurate(self, geom, capsys):
        # the spectrum {-2 - 2 lam^2, -2 - 2 lam, 2 lam - 2}: at lam = 1e100
        # two eigenvalues are 1e-100 times the largest, and keep their digits
        rc = main(["curvature", geom(kenmotsu(1e100)), "--format", "machine"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ricci_eigenvalues"] == pytest.approx([-2e200, -2e100, 2e100], rel=1e-12)

    @pytest.mark.parametrize("command", ["cotton", "flow"])
    @pytest.mark.parametrize("data, field", [
        ({"kenmotsu": {"lambda": 10**400}}, "field 'lambda'"),
        (kenmotsu(2.0, metric=[[1, 0, 0], [0, -10**400, 0], [0, 0, 1]]), "'metric'"),
        ({"brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 10**400]}]}, "'coeffs'"),
    ])
    def test_integer_too_large_for_a_double(self, geom, capsys, command, data, field):
        argv = [command, geom(data)]
        if command == "flow":
            argv += ["--dt", "1e-3", "--steps", "1"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert field in captured.err and "too large for a double" in captured.err
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

    @pytest.mark.parametrize("payload", [
        # a nested list, after a key json would sort ahead of it
        {"ricci": [[1.0, 2.0], [3.0, float("nan")]], "a": [0.0]},
        {"b": float("inf"), "a": [float("-inf")]},
        {"checks": [{"name": "x", "residual": 0.5}, {"name": "y", "residual": math.inf}]},
    ])
    def test_machine_format_names_the_walks_key(self, capsys, payload):
        from cotton3.cli import CLIError, _emit, _non_finite

        key = next(_non_finite(payload))
        for fmt in ("machine", "human"):
            with pytest.raises(CLIError, match=f"^{key} is not finite"):
                _emit(payload, argparse.Namespace(format=fmt), print)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_non_finite_number_in_a_tuple(self, capsys, monkeypatch, fmt):
        # a tuple is walked like a list: one error line and exit 1, never
        # json's own message or a NaN on stdout
        from cotton3 import cli

        def cmd(args):
            cli._emit({"spectrum": (1.0, (2.0, float("nan")))}, args, print)
            return 0
        # a parser built after the patch dispatches verify-paper to cmd
        monkeypatch.setattr(cli, "cmd_verify", cmd)
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        rc = main(["verify-paper", "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: spectrum is not finite: the geometry exceeds double precision\n"


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
        # the default grid reads the members at lambda = 0.5, 1 and 2; one
        # Cotton evaluation for the stationary flow, whose initial metric is
        # an exact fixed point.  Metric passes: one per member, kept on its
        # algebra for the connection, the curvature and the Ricci spectrum,
        # and one for the flow evaluation.  Detection reads no Riemann
        # tensor: the lambda = 2 Jacobi check builds the only one.  The members
        # at lambda = 2, 1 and 0.5 each assemble one soliton system and solve
        # its collinear and orthogonal ansatz subsets once, for the reference
        # checks and the grid rows together.  The lambda = 1 member is
        # classified once, for its reference check and its grid row, and
        # the check reads the Ricci spectrum that classification read
        counts = count_calls(monkeypatch, (
            "detect_structure", "levi_civita", "curvature", "cotton_pack",
            "cotton2_array", "_metric_frame", "_riemann", "_solve",
            "_assemble_system", "ricci_parallel_check", "classify_geometry",
            "ricci_spectrum"))
        rc = main(["verify-paper", "--format", "machine"])
        capsys.readouterr()
        assert rc == 0
        assert counts == {
            "detect_structure": 8,
            "levi_civita": 8,
            "curvature": 8,
            "cotton_pack": 0,
            "cotton2_array": 1,
            "_metric_frame": 9,
            "_riemann": 1,
            "_solve": 6,
            "_assemble_system": 3,
            "ricci_parallel_check": 1,
            "classify_geometry": 1,
            "ricci_spectrum": 1,
        }

    @pytest.mark.parametrize("grid, classified", [("1", 1), ("1.000000001", 2)])
    def test_fresh_pack_classifies_itself(self, capsys, monkeypatch, grid, classified):
        # a grid row on the lambda = 1 member reads the reference check's
        # class; a lambda within --tolerance of 1 on a fresh pack has its own
        counts = count_calls(monkeypatch, ("ricci_parallel_check", "classify_geometry"))
        main(["verify-paper", "--grid", grid])
        capsys.readouterr()
        assert counts == {"ricci_parallel_check": classified, "classify_geometry": classified}

    def test_diagonal_members_have_the_standard_adapted_frame(self):
        # the grid rows of a (lam, 0, 0) member read the solutions of its
        # reference checks, solved over its adapted frame: that frame must be
        # (e1, e2, e3) bit for bit, as a fresh pack is solved over
        diagonal = [p for p in _KENMOTSU_MEMBERS if p[1] == p[2] == 0.0]
        assert len(diagonal) == 4
        for p in diagonal:
            pack = _layers(from_kenmotsu_params(*p))
            frame = detect_structure(pack.algebra, pack.connection, pack).adapted_frame
            got = np.array([v.components for v in frame])
            assert got.tobytes() == np.eye(3).tobytes(), p

    @pytest.mark.parametrize("grid", [(0.5, 1.0, 2.0, 3.0), (0.75, 1.5), (0.75, 3.0)])
    def test_member_pack_rows_equal_fresh_pack_rows(self, capsys, monkeypatch, grid):
        # members (0.5, 1, 2, 3) read their shared solutions, 3 outside the
        # default grid; 0.75 and 1.5 get fresh layers.  Either way each
        # solution equals the one of a fresh pack, residual bits included,
        # and each printed row is the one the fresh pack gives
        from cotton3 import cli

        solved = []
        frame_solutions = cli._frame_solutions

        def recording(pack, tol):
            sols = frame_solutions(pack, tol)
            solved.append((pack.algebra.structure_constants[0, 1, 2], sols))
            return sols
        monkeypatch.setattr(cli, "_frame_solutions", recording)
        rc = main(["verify-paper", "--grid", ",".join(map(str, grid)),
                   "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        monkeypatch.undo()
        # the (lam, 0, 0) geometry has lam as the e3 component of [e1, e2]
        assert [lam for lam, _ in solved] == list(dict.fromkeys((2.0, 1.0, *grid)))
        fresh = {}
        for lam, sols in solved:
            pack = cli._layers(from_kenmotsu_params(lam, 0.0, 0.0))
            fresh[lam] = pack, cli._frame_solutions(pack, 1e-8)
            for name, sol in sols.items():
                want = fresh[lam][1][name]
                assert sol.classification == want.classification, (lam, name)
                assert sol.residual.hex() == want.residual.hex(), (lam, name)
                assert sol.sigma.hex() == want.sigma.hex(), (lam, name)
                assert np.array_equal(sol.coefficients, want.coefficients)
                assert np.array_equal(sol.family_basis, want.family_basis)
        want = []
        for lam in grid:
            want += cli._theorem_checks(lam, *fresh[lam], None, 1e-8)
        assert len(want) > len(grid)
        assert doc["checks"][-len(want):] == want

    def test_default_grid_rows(self, capsys):
        # three rows at lambda = 0.5 and 2, where the orthogonal ansatz is
        # infeasible, and five at lambda = 1
        rc = main(["verify-paper", "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        rows = [c["name"].rsplit(", lambda=", 1)[0] for c in doc["checks"][-8:]]
        assert [rows.count(name) for name in dict.fromkeys(rows)] == [3, 3, 1, 1]
        assert list(dict.fromkeys(rows)) == [
            "collinear potential stays trivial",
            "orthogonal ansatz feasible only at lam = 1",
            "orthogonal soliton is steady",
            "metric splits as hyperbolic plane (curvature -4) times line",
        ]

    def test_off_one_within_tolerance_fails(self, capsys):
        # slightly off lambda = 1 with a loose tolerance: the feasibility
        # gate then claims the orthogonal ansatz should work, but the
        # geometry no longer splits and sigma is not numerically zero
        rc = main(["verify-paper", "--grid", "1.00001", "--tolerance", "1e-3",
                   "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert len(doc["checks"]) == 22
        assert [c["name"] for c in doc["checks"] if not c["ok"]] == [
            "orthogonal soliton is steady, lambda=1.00001",
            "metric splits as hyperbolic plane (curvature -4) times line, lambda=1.00001",
        ]

    def test_integer_grid(self, capsys):
        rc = main(["verify-paper", "--grid", "1", "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["grid"] == [1.0]
        assert [c["name"].rsplit(", ", 1)[1] for c in doc["checks"][18:]] == ["lambda=1"] * 4

    def test_custom_grid(self, capsys):
        rc = main(["verify-paper", "--grid", "2", "--format", "machine"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["checks"]) == 20  # 18 fixed + 2 grid rows
        assert doc["grid"] == [2.0]
        rows = doc["checks"][-2:]
        assert all(c["ok"] and c["name"].endswith(", lambda=2") for c in rows)

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

    @pytest.mark.parametrize("tol, failing", [
        # rounding-level gaps fail a tolerance below them
        ("1e-30", [
            "cotton closed form vs derivative route",
            "cotton norm across the diagonal family",
            "reeb-collinear soliton, lambda=2",
            "orthogonal soliton, lambda=1",
        ]),
        ("1e-3", []),
        # at 0.5 the grid's lam = 0.5 counts as lam = 1
        ("0.5", [
            "orthogonal ansatz feasible only at lam = 1, lambda=0.5",
            "orthogonal soliton is steady, lambda=0.5",
            "metric splits as hyperbolic plane (curvature -4) times line, lambda=0.5",
        ]),
    ])
    def test_failing_checks_by_tolerance(self, capsys, tol, failing):
        rc = main(["verify-paper", "--tolerance", tol, "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == (2 if failing else 0)
        assert [c["name"] for c in doc["checks"] if not c["ok"]] == failing
        assert len(doc["checks"]) == 26 + (tol == "0.5") * 2

    def test_nan_gap_fails(self):
        # a nan anywhere makes the gap nan, which no tolerance passes
        assert math.isnan(_gap([0.0, math.nan, 1.0], 0.0))
        assert math.isnan(_gap([math.nan, 1.0], [0.0, 0.0]))
        assert math.isnan(_gap(np.eye(3), [1.0, math.nan, 1.0]))
        assert _gap([[1.0, -3.0], [2.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]) == 3.0


class TestSharedParser:
    """``main`` parses with one parser built at import; successive calls
    must still behave as separate runs."""

    MACHINE = ["verify-paper", "--format", "machine"]
    SUBCOMMANDS = ("curvature", "structure", "cotton", "soliton", "flow", "verify-paper")

    @staticmethod
    def _record():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "verify_paper.sha256"
        return path.read_text().split()[0]

    @staticmethod
    def _help(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(self.MACHINE) == 0
        assert main(["verify-paper", "--grid", "2"]) == 0
        capsys.readouterr()
        assert built == []

    def test_successive_runs_print_the_record(self, capsys):
        digests = []
        for _ in range(2):
            assert main(self.MACHINE) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == [self._record()] * 2

    @pytest.mark.parametrize("argv,code", [
        (["verify-paper", "--format", "bogus"], 2),
        (["--help"], 0),
        (["flow", "--help"], 0),
    ])
    def test_exit_leaves_the_next_call_unchanged(self, capsys, argv, code):
        assert main(self.MACHINE) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert main(self.MACHINE) == 0
        assert capsys.readouterr().out == before

    @pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
    def test_help_equals_a_fresh_parser(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        shared = self._help(main, argv, capsys)
        fresh = self._help(build_parser().parse_args, argv, capsys)
        assert shared == fresh
        assert shared.startswith("usage: cotton3")
