"""The package's public surface: exactly the names the CLI, the README and
the benchmark reach, plus the value and result types they return.

Growing or shrinking the surface means changing ``PUBLIC`` here on purpose.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotton3
from cotton3 import almost_kenmotsu, cli, frame_algebra, soliton

PUBLIC = [
    "AKStructure",
    "CONSTANT_CURVATURE",
    "ConnectionTable",
    "Cotton3Error",
    "CottonPack",
    "CurvaturePack",
    "DEFAULT_TOL",
    "DegenerateMetric",
    "EXPANDING",
    "FlowResult",
    "FlowState",
    "FrameVector",
    "GeometryClass",
    "HParallelCheck",
    "INFEASIBLE",
    "InconsistentStructure",
    "MetricLieAlgebra3",
    "NOT_SYMMETRIC",
    "NoStructure",
    "PRODUCT_H2XR",
    "ParallelCheck",
    "SHRINKING",
    "STEADY",
    "SYMMETRIC_OTHER",
    "SingularMetric",
    "SolitonProblem",
    "SolitonSolution",
    "SymBilinear",
    "TRIVIAL_ONLY",
    "Tensor3",
    "ValidityReport",
    "Violation",
    "XiEigenReport",
    "adapted_connection_table",
    "check_h_parallel",
    "classify_geometry",
    "cotton2_closed_form",
    "cotton_pack",
    "curvature",
    "detect_structure",
    "export_trajectory",
    "flow_run",
    "from_kenmotsu_params",
    "from_nonunimodular",
    "levi_civita",
    "lie_derivative_metric",
    "ricci_parallel_check",
    "ricci_spectrum",
    "solve",
    "soliton_existence_survey",
    "soliton_residual",
    "structure_residuals",
    "validate",
    "xi_eigenvector_analysis",
]

# wrappers over private helpers that had no caller outside the tests, the
# library's second reproduction route, which verify-paper replaces, and
# functions that stay in their modules but that no CLI command, README
# example or benchmark workload calls, and the error class of the Kenmotsu
# builder's own Jacobi rule (validate alone decides Jacobi)
REMOVED = ["cotton3_oracle", "cotton2_from_cotton3", "cov_deriv_sym2", "flow_step",
           "reproduce_theorems", "TheoremReport", "TheoremCheck", "AssertionFailure",
           "bracket", "ricci_closed_form", "make_state", "JacobiViolation"]


def test_all_is_pinned():
    assert cotton3.__all__ == PUBLIC
    assert len(PUBLIC) == 54


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(cotton3, name), name


def test_removed_wrappers_are_gone():
    for name in REMOVED:
        assert not hasattr(cotton3, name), name


def test_second_routes_are_gone():
    # each input has one way in: the flow starts from the algebra's metric,
    # an ansatz basis goes to the SolitonProblem constructor, and a pack
    # carries its algebra rather than a copy of the metric
    assert "g0" not in inspect.signature(cotton3.flow_run).parameters
    assert "basis" not in inspect.signature(cotton3.SolitonProblem.build).parameters
    fields = {f.name for f in dataclasses.fields(cotton3.CurvaturePack)}
    assert "algebra" in fields and "metric" not in fields
    assert not hasattr(cotton3.ValidityReport, "max_magnitude")
    # validate's cutoffs are fixed: no tolerance override
    assert "tol" not in inspect.signature(cotton3.validate).parameters
    # the layers come from the caller: no fallback builds them
    for fn in (cotton3.cotton_pack, cotton3.SolitonProblem.build):
        params = inspect.signature(fn).parameters
        assert params["conn"].default is params["pack"].default is inspect.Parameter.empty
    # the metric pass reads eigvalsh, and every (lam, 0, 0) geometry has one
    # solve route: no closed-form cubic, no layers-and-solutions helper
    assert not hasattr(frame_algebra, "_sym3_eigenvalues")
    # the Cholesky pass alone decides the positive cone: no second verdict
    # on a zero pivot from the spectrum
    assert not hasattr(frame_algebra, "_refuse")
    assert not hasattr(cotton3.errors, "JacobiViolation")
    assert not hasattr(soliton, "_theorem_layers")
    # soliton holds the solver alone: verify-paper's rows are built in the CLI
    for name in ("_theorem_checks", "_fresh_pack", "classify_geometry", "curvature"):
        assert not hasattr(soliton, name), name
    # the CLI builds a geometry's layers in one place, and detection's
    # eigenvector has no singular-value fallback
    for name in ("_finite_layers", "_member", "_fresh_pack"):
        assert not hasattr(cli, name), name
    assert not hasattr(almost_kenmotsu, "_svd")


def test_one_rank_cutoff_and_one_cotton_scale():
    # the soliton solve decides at one rank cutoff, and its verdict scale is
    # the pack's Cotton norm: no lstsq cutoff and no second scale helper
    for name in ("_svd_lstsq", "_EPS"):
        assert not hasattr(frame_algebra, name), name
    assert not hasattr(soliton, "_cotton_scale")


def test_import_loads_errors_and_frame_algebra_only():
    # every other module loads on first use of one of its names
    code = ("import sys, cotton3; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'cotton3'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cotton3.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["cotton3", "cotton3.errors", "cotton3.frame_algebra"]


def test_every_public_name_is_its_home_modules_object():
    for name in PUBLIC:
        home = importlib.import_module(f"cotton3.{cotton3._HOME[name]}")
        value = getattr(home, name)
        assert getattr(cotton3, name) is value, name
        if callable(value):
            assert value.__module__ == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(cotton3.__all__) <= set(dir(cotton3))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cotton3' has no attribute 'no_such_name'$"):
        cotton3.no_such_name


def test_a_patched_home_function_is_read_through():
    from cotton3 import almost_kenmotsu

    original = almost_kenmotsu.detect_structure

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        # as before the package's first read of the name
        mp.delitem(vars(cotton3), "detect_structure", raising=False)
        mp.setattr(almost_kenmotsu, "detect_structure", stand_in)
        assert cotton3.detect_structure is stand_in
        assert "detect_structure" not in vars(cotton3)
    assert cotton3.detect_structure is original
    assert vars(cotton3)["detect_structure"] is original
