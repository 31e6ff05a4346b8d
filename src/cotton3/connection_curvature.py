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
operator ``_jacobi`` reads, and the Cotton tensors (``_cotton3`` and its
dual ``_cotton2``) once per geometry, for ``CurvaturePack.cotton``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, SingularMetric
from .frame_algebra import DEFAULT_TOL, MetricLieAlgebra3, SymBilinear, Tensor3
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
class CottonPack:
    """Both Cotton tensors of one algebra, plus the size of the (0,2) form."""

    cotton3: Tensor3
    cotton2: SymBilinear
    norm2: float


@dataclass(frozen=True, eq=False)
class CurvaturePack:
    """Curvature data of one metric Lie algebra.

    ``metric`` is the inner product the curvature belongs to; ``cotton``
    holds its Cotton tensors, the one evaluation every reader shares.
    """

    riemann: np.ndarray
    ricci: SymBilinear
    ricci_operator: np.ndarray
    scalar: float
    metric: np.ndarray
    cotton: CottonPack


def _metric_frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The metric rule, in one scalar Cholesky pass g = L L^T over the floats
    of g's lower triangle.  Returns g^-1, u = g / sqrt(det g) and L^-1 (rows
    of floats).

    g is first divided by 2^k, k even, so that its largest diagonal entry
    lies in [1, 4): the scaling and its square root are exact, and g = I is
    not scaled, so that the pass returns exactly I, I and I there.  u is
    (g 2^-k) / (l00 l11 l22 2^(k/2)), finite even where det g overflows.

    ``DegenerateMetric`` when g is not finite or a pivot is negative or nan
    (g outside the positive cone).  ``SingularMetric`` when a pivot is zero
    (unless the closed-form spectrum shows g indefinite) or when
    w_min <= 1e-12 w_max.  That condition is read as
    lambda_max(g) lambda_max(g^-1) from ``_sym3_eigenvalues``, whose largest
    eigenvalue is accurate where a double smallest one is not, and only
    when its upper bound tr g tr g^-1 reaches 1e12.  Every layer that needs
    g^-1, g / sqrt(det g) or positive definiteness reads it off this one pass.
    """
    (a, _, _), (b, d, _), (c, e, f) = g.tolist()
    # on the positive cone the largest diagonal entry bounds every entry;
    # a nan that max passes over fails a pivot below
    m = max(a, d, f)
    k = 0
    if not 1.0 <= m < 4.0:
        if not m < math.inf:
            raise DegenerateMetric("metric is not positive definite (entries not finite)")
        k = max(-1022, (math.frexp(m)[1] - 1) & -2)
        s = math.ldexp(1.0, -k)
        a, b, c, d, e, f = a * s, b * s, c * s, d * s, e * s, f * s
    rows = ((a, b, c), (b, d, e), (c, e, f))
    if not a > 0.0:
        _refuse(a, rows)
    l00 = math.sqrt(a)
    l10, l20 = b / l00, c / l00
    p1 = d - l10 * l10
    if not p1 > 0.0:
        _refuse(p1, rows)
    l11 = math.sqrt(p1)
    l21 = (e - l20 * l10) / l11
    p2 = f - l20 * l20 - l21 * l21
    if not p2 > 0.0:
        _refuse(p2, rows)
    # L^-1 by substitution; 0.0 - x keeps the zeros of a diagonal g positive
    i00, i11, i22 = 1.0 / l00, 1.0 / l11, 1.0 / math.sqrt(p2)
    i10 = 0.0 - l10 * i00 * i11
    i21 = 0.0 - l21 * i11 * i22
    i20 = 0.0 - (l20 * i00 + l21 * i10) * i22
    # g^-1 = L^-T L^-1
    v00 = i00 * i00 + i10 * i10 + i20 * i20
    v10 = i10 * i11 + i20 * i21
    v20 = i20 * i22
    v11 = i11 * i11 + i21 * i21
    v21 = i21 * i22
    v22 = i22 * i22
    # on the positive cone tr g >= lambda_max(g), so this bounds the condition
    if not (a + d + f) * (v00 + v11 + v22) < 1e12:
        inv = ((v00, v10, v20), (v10, v11, v21), (v20, v21, v22))
        cond = _sym3_eigenvalues(rows)[2] * _sym3_eigenvalues(inv)[2]
        # false on nan too, from an inverse that overflowed
        if not cond < 1e12:
            raise SingularMetric(f"metric is singular (condition number {cond:.3g})")
    # 1 / sqrt(det) of the scaled g
    w = i00 * i11 * i22
    if k:
        # undo the scaling: g^-1 by 2^-k, L^-1 and 1 / sqrt(det g) by 2^(-k/2)
        v00, v10, v20, v11, v21, v22 = v00 * s, v10 * s, v20 * s, v11 * s, v21 * s, v22 * s
        h = math.ldexp(1.0, -k // 2)
        i00, i10, i20, i11, i21, i22 = i00 * h, i10 * h, i20 * h, i11 * h, i21 * h, i22 * h
        w = w * h
    a, b, c, d, e, f = a * w, b * w, c * w, d * w, e * w, f * w
    # g^-1 and u from one array
    gu = np.array((v00, v10, v20, v10, v11, v21, v20, v21, v22,
                   a, b, c, b, d, e, c, e, f)).reshape(2, 3, 3)
    return gu[0], gu[1], ((i00, 0.0, 0.0), (i10, i11, 0.0), (i20, i21, i22))


def _refuse(pivot: float, rows: tuple) -> None:
    """Raise the metric rule's refusal for a Cholesky pivot that is not
    positive: a zero pivot is a singular metric unless the closed-form
    spectrum of ``rows`` has a negative eigenvalue."""
    if pivot == 0.0 and _sym3_eigenvalues(rows)[0] >= 0.0:
        raise SingularMetric("metric is singular (zero Cholesky pivot)")
    raise DegenerateMetric(f"metric is not positive definite (Cholesky pivot {pivot:.3g})")


# Row a of _KOSZUL is the Koszul array of the flat cg = e_a under the
# transposition formula K[i, j, l] = (cg[i, j, l] - cg[j, l, i] + cg[l, i, j]) / 2
_E = np.eye(27).reshape(27, 3, 3, 3)
_KOSZUL = (0.5 * (_E - _E.transpose(0, 3, 1, 2) + _E.transpose(0, 2, 3, 1))).reshape(27, 27)


def _koszul(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K[i, j, l] = g(nabla_{e_i} e_j, e_l) of constants ``c`` under metric ``g``:
    the Koszul identity on cg[i, j, l] = g([e_i, e_j], e_l)."""
    return ((c.reshape(9, 3) @ g).reshape(27) @ _KOSZUL).reshape(3, 3, 3)


def _gamma(c: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connection coefficients of constants ``c`` under metric ``g``, and
    g / sqrt(det g), under the metric rule: the Koszul array times g^-1."""
    ginv, u, _ = _metric_frame(g)
    return (_koszul(c, g).reshape(9, 3) @ ginv).reshape(3, 3, 3), u


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


# flat index of c3[a, b, i] at [i, p] for the skew pairs (a, b) = (1, 2), (2, 0), (0, 1)
_DUAL = _IDX[[1, 2, 0], [2, 0, 1]].T


def _cotton3(gamma: np.ndarray, ricci: np.ndarray) -> np.ndarray:
    """(0,3) Cotton tensor: the skew part of the covariant Ricci derivative."""
    d = _cov_deriv(gamma, ricci)
    return d - d.transpose(1, 0, 2)


def _cotton2(c3: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dual of ``c3`` under the metric g with u = g / sqrt(det g)."""
    # row i is (C_12i, C_20i, C_01i): eps sums each skew pair twice, cancelling the 1/2
    out = c3.reshape(27)[_DUAL] @ u
    return 0.5 * (out + out.T)


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
    """Riemann tensor, Ricci form and operator, scalar curvature, Cotton
    tensors.

    The metric must pass the metric rule of ``_metric_frame``, which raises
    ``DegenerateMetric`` or ``SingularMetric`` as ``levi_civita`` does; the
    Ricci operator g^-1 S and the Cotton dual read that pass.  The Cotton
    norm is sqrt(x @ x), the computation of ``np.linalg.norm``.
    """
    ginv, u, _ = _metric_frame(L.metric)
    riemann = _riemann(L.structure_constants, conn.gamma)
    ricci = _ricci(L.structure_constants, conn.gamma)
    q = ginv @ ricci
    scalar = float(np.trace(q))
    c3 = _cotton3(conn.gamma, ricci)
    c2 = _cotton2(c3, u)
    x = c2.ravel()
    cotton = CottonPack(_wrap(Tensor3, c3), _wrap(SymBilinear, c2), math.sqrt(x @ x))
    return CurvaturePack(riemann, _wrap(SymBilinear, ricci), q, scalar, L.metric, cotton)


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


def _sym3_eigenvalues(M) -> list:
    """Closed-form eigenvalues of a symmetric 3x3 matrix, ascending, from
    the upper triangle of its rows (floats, or an array).

    Trigonometric solution of the characteristic cubic; no iterative
    factorization involved.  The largest eigenvalue is accurate to rounding;
    a double smallest one only to about sqrt(eps) times the largest.
    """
    (a, b, c), (_, d, e), (_, _, f) = M
    p1 = b * b + c * c + e * e
    if p1 == 0.0:
        return sorted((a, d, f))
    q = (a + d + f) / 3.0
    a, d, f = a - q, d - q, f - q
    p = math.sqrt((a * a + d * d + f * f + 2.0 * p1) / 6.0)
    # B = (M - q I) / p, and r = det(B) / 2
    a, d, f, b, c, e = a / p, d / p, f / p, b / p, c / p, e / p
    r = (a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return sorted((lam1, 3.0 * q - lam1 - lam3, lam3))


def ricci_spectrum(pack: CurvaturePack) -> np.ndarray:
    """Eigenvalues of the Ricci operator, ascending.

    With g = L L^T from the metric rule of ``_metric_frame`` (which may
    raise), the operator g^-1 S is similar to the symmetric L^-1 S L^-T, so
    the closed-form symmetric solver applies.
    """
    Li = np.array(_metric_frame(pack.metric)[2])
    W = Li @ pack.ricci.components @ Li.T
    return np.array(_sym3_eigenvalues((0.5 * (W + W.T)).tolist()))


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
