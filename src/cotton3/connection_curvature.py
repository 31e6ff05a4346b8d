"""Levi-Civita connection and curvature of left-invariant 3-frame data.

Sign conventions, fixed once and validated against closed forms in tests:

* Koszul identity for frame-constant fields (the derivative terms vanish):
  ``2 g(nabla_X Y, Z) = g([X,Y], Z) - g([Y,Z], X) + g([Z,X], Y)``.
* Curvature
  ``R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``.
* Ricci ``S(X,Y)`` is the trace of ``Z -> R(Z,X)Y``; the scalar curvature
  is the metric trace of S.

Index conventions: ``gamma[i, j, k]`` is the ``e_k`` component of
``nabla_{e_i} e_j``; ``riemann[i, j, k, l]`` is the ``e_l`` component of
``R(e_i, e_j) e_k``.

The private helpers work on plain arrays and contract through constant
index maps built at import: the Koszul array is one product of the flat
``g([e_i, e_j], e_l)`` with a 27x27 map, and Ricci is contracted straight
from the connection, without the Riemann tensor.  ``curvature`` builds
the Riemann tensor only for ``CurvaturePack.riemann``, which the Jacobi
operator ``_jacobi`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, SingularMetric
from .frame_algebra import DEFAULT_TOL, MetricLieAlgebra3, SymBilinear
from .frame_algebra import _wrap


@dataclass(frozen=True, eq=False)
class ConnectionTable:
    """Connection coefficients gamma[i, j, k] for nabla_{e_i} e_j."""

    gamma: np.ndarray

    def __post_init__(self):
        arr = np.array(self.gamma, dtype=float)
        if arr.shape != (3, 3, 3):
            raise ValueError(f"expected shape (3, 3, 3), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)


@dataclass(frozen=True, eq=False)
class CurvaturePack:
    """Curvature data of one metric Lie algebra.

    ``metric`` is the inner product the curvature belongs to.
    """

    riemann: np.ndarray
    ricci: SymBilinear
    ricci_operator: np.ndarray
    scalar: float
    metric: np.ndarray


def _metric_frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metric rule: factor g = V diag(w) V^T with one ``eigh``, w ascending.

    ``DegenerateMetric`` when an eigenvalue is negative or nan (g outside the
    positive cone, or not finite); ``SingularMetric`` when one is zero or
    w_min <= 1e-12 w_max.  Every layer that needs g^-1, det g or positive
    definiteness reads it off this one factorization.
    """
    try:
        w, V = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # no convergence on some nan input
        raise DegenerateMetric(f"metric is not positive definite ({exc})") from exc
    w0, w1, w2 = w.tolist()
    # false on nan too: eigh may return a finite w0 beside a nan
    if not (w0 >= 0 and w1 >= 0 and w2 >= 0):
        raise DegenerateMetric(f"metric is not positive definite (eigenvalues {w})")
    if w0 <= 1e-12 * w2:
        raise SingularMetric(f"metric is singular (singular values {w[::-1]})")
    return V, w


# Row a of _KOSZUL is the Koszul array of the flat cg = e_a under the
# transposition formula K[i, j, l] = (cg[i, j, l] - cg[j, l, i] + cg[l, i, j]) / 2
_E = np.eye(27).reshape(27, 3, 3, 3)
_KOSZUL = (0.5 * (_E - _E.transpose(0, 3, 1, 2) + _E.transpose(0, 2, 3, 1))).reshape(27, 27)


def _koszul(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K[i, j, l] = g(nabla_{e_i} e_j, e_l) of constants ``c`` under metric ``g``:
    the Koszul identity on cg[i, j, l] = g([e_i, e_j], e_l)."""
    return ((c.reshape(9, 3) @ g).reshape(27) @ _KOSZUL).reshape(3, 3, 3)


def _gamma(c: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Connection coefficients of constants ``c`` under metric ``g``, and
    det g, under the metric rule: the Koszul array times g^-1 = (V / w) V^T."""
    V, w = _metric_frame(g)
    w0, w1, w2 = w.tolist()
    return (_koszul(c, g).reshape(9, 3) @ ((V / w) @ V.T)).reshape(3, 3, 3), w0 * w1 * w2


def _riemann(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # prod[i, j, k] = nabla_{e_i} nabla_{e_j} e_k = gamma[j, k] @ gamma[i]
    prod = np.matmul(gamma[None], gamma[:, None])
    bracket_term = (c.reshape(9, 3) @ gamma.reshape(3, 9)).reshape(3, 3, 3, 3)
    return prod - prod.transpose(1, 0, 2, 3) - bracket_term


# Maps on flat (27,) arrays: _TRACE takes gamma to t[m] = sum_i gamma[i, m, i];
# the gather _SWAP puts gamma[j, m, i] at [j, (i, m)], which read as (9, 3)
# is gamma[i, k, m] at [(i, m), k]; _ROLL puts c[m, j, i] at [j, (i, m)]
_TRACE = np.eye(9).reshape(27, 3)
_IDX = np.arange(27).reshape(3, 3, 3)
_SWAP = _IDX.transpose(0, 2, 1).reshape(3, 9)
_ROLL = _IDX.transpose(1, 2, 0).reshape(3, 9)


def _ricci(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Ricci form of the connection ``gamma`` over constants ``c``: the
    symmetrized trace sum_i riemann[i, j, k, i], contracted as
    S_jk = sum_m gamma[j, k, m] t[m]
           - sum_{i, m} (gamma[j, m, i] + c[m, j, i]) gamma[i, k, m]."""
    f = gamma.reshape(27)
    gs = f[_SWAP]
    s = (gamma.reshape(9, 3) @ (f @ _TRACE)).reshape(3, 3)
    s -= (gs + c.reshape(27)[_ROLL]) @ gs.reshape(9, 3)
    return 0.5 * (s + s.T)


def _cov_deriv(gamma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(nabla_{e_i} S)(e_j, e_k) of a symmetric frame-constant form ``s``."""
    p = gamma @ s
    return -(p + p.transpose(0, 2, 1))


def levi_civita(L: MetricLieAlgebra3) -> ConnectionTable:
    """Unique torsion-free metric connection, computed via Koszul.

    Raises ``DegenerateMetric`` or ``SingularMetric`` when the metric fails
    the metric rule of ``_metric_frame``.
    """
    return ConnectionTable(_gamma(L.structure_constants, L.metric)[0])


def _jacobi(riemann: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of the Jacobi operator X -> R(X, x) x along the vector ``x``."""
    return (x @ (x @ riemann)).T


def curvature(L: MetricLieAlgebra3, conn: ConnectionTable) -> CurvaturePack:
    """Riemann tensor, Ricci form and operator, scalar curvature.

    The metric must pass the metric rule of ``_metric_frame``, which raises
    ``DegenerateMetric`` or ``SingularMetric`` as ``levi_civita`` does; the
    Ricci operator g^-1 S is then solved against it.
    """
    _metric_frame(L.metric)
    riemann = _riemann(L.structure_constants, conn.gamma)
    ricci = _ricci(L.structure_constants, conn.gamma)
    q = np.linalg.solve(L.metric, ricci)
    scalar = float(np.trace(q))
    return CurvaturePack(riemann, _wrap(SymBilinear, ricci), q, scalar, L.metric)


@dataclass(frozen=True)
class ParallelCheck:
    is_parallel: bool
    max_component: float


def ricci_parallel_check(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    tol: float = DEFAULT_TOL,
) -> ParallelCheck:
    """Whether nabla S vanishes, with the largest component as witness."""
    mx = float(np.abs(_cov_deriv(conn.gamma, pack.ricci.components)).max())
    return ParallelCheck(mx <= tol, mx)


def _sym3_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a symmetric 3x3 matrix, ascending.

    Trigonometric solution of the characteristic cubic; no iterative
    factorization involved.
    """
    M = np.asarray(M, dtype=float)
    p1 = M[0, 1] ** 2 + M[0, 2] ** 2 + M[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(M).copy())
    q = float(np.trace(M)) / 3.0
    p2 = (M[0, 0] - q) ** 2 + (M[1, 1] - q) ** 2 + (M[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    B = (M - q * np.eye(3)) / p
    r = float(np.linalg.det(B)) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))


def ricci_spectrum(pack: CurvaturePack) -> np.ndarray:
    """Eigenvalues of the Ricci operator, ascending.

    With g = V diag(w) V^T from the metric rule of ``_metric_frame`` (which
    may raise) and R = V / sqrt(w), the operator g^-1 S is similar to the
    symmetric R^T S R, so the closed-form symmetric solver applies.
    """
    V, w = _metric_frame(pack.metric)
    R = V / np.sqrt(w)
    W = R.T @ pack.ricci.components @ R
    return _sym3_eigenvalues(0.5 * (W + W.T))


@dataclass(frozen=True)
class GeometryClass:
    """Coarse local-geometry classification from the Ricci spectrum.

    ``kind`` is one of "constant_curvature", "product_h2xr",
    "symmetric_other", "not_symmetric"; ``curvature`` carries the model's
    sectional curvature when one applies.
    """

    kind: str
    curvature: float | None = None


CONSTANT_CURVATURE = "constant_curvature"
PRODUCT_H2XR = "product_h2xr"
SYMMETRIC_OTHER = "symmetric_other"
NOT_SYMMETRIC = "not_symmetric"


def classify_geometry(
    pack: CurvaturePack, ricci_parallel: bool, rel_tol: float = 1e-6
) -> GeometryClass:
    """Match the Ricci spectrum of a Ricci-parallel metric to a model space.

    In dimension 3, constant sectional curvature k has Ricci spectrum
    {2k, 2k, 2k}; a hyperbolic-plane-times-line product with factor
    curvature k < 0 has {k, k, 0}.  Eigenvalues are compared sorted with
    relative tolerance ``rel_tol``.
    """
    if not ricci_parallel:
        return GeometryClass(NOT_SYMMETRIC)
    eigs = ricci_spectrum(pack)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    atol = rel_tol * scale
    lo, mid, hi = (float(v) for v in eigs)
    if hi - lo <= atol:
        return GeometryClass(CONSTANT_CURVATURE, (lo + mid + hi) / 6.0)
    # {k, k, 0} with k < 0: the zero eigenvalue is the largest of the three.
    if abs(hi) <= atol and abs(mid - lo) <= atol and mid < -atol:
        return GeometryClass(PRODUCT_H2XR, 0.5 * (lo + mid))
    return GeometryClass(SYMMETRIC_OTHER)
