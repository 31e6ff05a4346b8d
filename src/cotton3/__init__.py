"""Curvature, Cotton tensors, solitons, and Cotton flow on homogeneous 3-geometries.

``import cotton3`` loads ``errors`` and ``frame_algebra``, which every call
needs: each layer takes a ``MetricLieAlgebra3``.  The other modules
(``connection_curvature``, ``cotton``, ``almost_kenmotsu``, ``soliton`` and
``cotton_flow``) load the first time one of their names is read from the
package (PEP 562), so a Cotton flow never loads detection or soliton code.
The ``cotton3`` console script (``cotton3.cli``) loads every module.
"""

import importlib

from . import errors, frame_algebra  # noqa: F401  (loaded with the package)

__version__ = "0.1.0"

# public name -> the module that defines it, in the order of __all__
_HOME = {
    "AKStructure": "almost_kenmotsu",
    "CONSTANT_CURVATURE": "connection_curvature",
    "ConnectionTable": "connection_curvature",
    "Cotton3Error": "errors",
    "CottonPack": "connection_curvature",
    "CurvaturePack": "connection_curvature",
    "DEFAULT_TOL": "frame_algebra",
    "DegenerateMetric": "errors",
    "EXPANDING": "soliton",
    "FlowResult": "cotton_flow",
    "FlowState": "cotton_flow",
    "FrameVector": "frame_algebra",
    "GeometryClass": "connection_curvature",
    "HParallelCheck": "almost_kenmotsu",
    "INFEASIBLE": "soliton",
    "InconsistentStructure": "errors",
    "MetricLieAlgebra3": "frame_algebra",
    "NOT_SYMMETRIC": "connection_curvature",
    "NoStructure": "errors",
    "PRODUCT_H2XR": "connection_curvature",
    "ParallelCheck": "connection_curvature",
    "SHRINKING": "soliton",
    "STEADY": "soliton",
    "SYMMETRIC_OTHER": "connection_curvature",
    "SingularMetric": "errors",
    "SolitonProblem": "soliton",
    "SolitonSolution": "soliton",
    "SymBilinear": "frame_algebra",
    "TRIVIAL_ONLY": "soliton",
    "Tensor3": "frame_algebra",
    "ValidityReport": "frame_algebra",
    "Violation": "frame_algebra",
    "XiEigenReport": "almost_kenmotsu",
    "adapted_connection_table": "almost_kenmotsu",
    "check_h_parallel": "almost_kenmotsu",
    "classify_geometry": "connection_curvature",
    "cotton2_closed_form": "cotton",
    "cotton_pack": "cotton",
    "curvature": "connection_curvature",
    "detect_structure": "almost_kenmotsu",
    "export_trajectory": "cotton_flow",
    "flow_run": "cotton_flow",
    "from_kenmotsu_params": "frame_algebra",
    "from_nonunimodular": "frame_algebra",
    "levi_civita": "connection_curvature",
    "lie_derivative_metric": "soliton",
    "ricci_parallel_check": "connection_curvature",
    "ricci_spectrum": "connection_curvature",
    "solve": "soliton",
    "soliton_existence_survey": "soliton",
    "soliton_residual": "soliton",
    "structure_residuals": "almost_kenmotsu",
    "validate": "frame_algebra",
    "xi_eigenvector_analysis": "almost_kenmotsu",
}

__all__ = list(_HOME)


def __getattr__(name):
    """Import ``name``'s home module and return the name from it.

    The value is kept in the package only when it is the module's own
    object.  A stand-in bound over it (a test's patch, a tracer's wrapper)
    is read through on every access, so it goes when it is undone.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = getattr(home, name)
    if not callable(value) or value.__module__ == home.__name__:
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
