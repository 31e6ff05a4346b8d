"""The package's public surface: exactly the names the CLI, the README and
the benchmark reach, plus the value and result types they return.

Growing or shrinking the surface means changing ``PUBLIC`` here on purpose.
"""

import dataclasses
import inspect

import cotton3
from cotton3 import frame_algebra, soliton

PUBLIC = [
    "AKStructure",
    "AssertionFailure",
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
    "JacobiViolation",
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
    "TheoremCheck",
    "TheoremReport",
    "ValidityReport",
    "Violation",
    "XiEigenReport",
    "adapted_connection_table",
    "bracket",
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
    "make_state",
    "reproduce_theorems",
    "ricci_closed_form",
    "ricci_parallel_check",
    "ricci_spectrum",
    "solve",
    "soliton_existence_survey",
    "soliton_residual",
    "structure_residuals",
    "validate",
    "xi_eigenvector_analysis",
]

# wrappers over private helpers that had no caller outside the tests
REMOVED = ["cotton3_oracle", "cotton2_from_cotton3", "cov_deriv_sym2", "flow_step"]


def test_all_is_pinned():
    assert cotton3.__all__ == PUBLIC
    assert len(PUBLIC) == 62


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
    assert not hasattr(soliton, "_theorem_layers")
