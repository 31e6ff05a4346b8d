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
from the connection, without the Riemann tensor.  ``_chain`` is the one
Ricci -> nabla S -> Cotton sequence, run by ``curvature`` once per geometry
and by ``cotton2_array`` once per flow stage; ``levi_civita``,
``curvature`` and ``ricci_spectrum`` (through ``CurvaturePack.algebra``)
share the algebra's one metric pass, ``L._frame`` (the metric rule of
``frame_algebra``).  The Riemann tensor is built only when
``CurvaturePack.riemann`` is first read (``_jacobi``), from the pack's
connection.

Products call ``ndarray.dot`` rather than the ``@`` operator: on 1-D and
2-D operands it hands the pair straight to BLAS, which on 3x3 operands
costs under half of the matmul ufunc's dispatch, and it rounds the same,
bitwise (``tests/test_dot_products.py``).  Stacked products, and the few
whose ``.dot`` form contracts other axes or rounds differently, keep ``@``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frame_algebra import DEFAULT_TOL, MetricLieAlgebra3, SymBilinear, Tensor3
from .frame_algebra import _eigenvalues, _wrap


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

    ``algebra`` and ``connection`` are the algebra and connection
    ``curvature`` was called with, so readers share the algebra's metric
    pass; ``ricci_derivative`` (nabla S) and ``cotton`` (the Cotton
    tensors) are the one evaluation of each that every reader shares.
    ``riemann`` is built on first read, from ``connection``, and kept.
    """

    ricci: SymBilinear
    ricci_derivative: Tensor3
    ricci_operator: np.ndarray
    scalar: float
    algebra: MetricLieAlgebra3
    connection: ConnectionTable
    cotton: CottonPack

    @cached_property
    def riemann(self) -> np.ndarray:
        """The Riemann tensor, read-only: ``_riemann`` of the constants and
        the pack's connection, made on the first read and kept."""
        r = _riemann(self.algebra.structure_constants, self.connection.gamma)
        r.setflags(write=False)
        return r


# Row a of _KOSZUL is the Koszul array of the flat cg = e_a under the
# transposition formula K[i, j, l] = (cg[i, j, l] - cg[j, l, i] + cg[l, i, j]) / 2
_E = np.eye(27).reshape(27, 3, 3, 3)
_KOSZUL = (0.5 * (_E - _E.transpose(0, 3, 1, 2) + _E.transpose(0, 2, 3, 1))).reshape(27, 27)


def _koszul(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K[i, j, l] = g(nabla_{e_i} e_j, e_l) of constants ``c`` under metric ``g``:
    the Koszul identity on cg[i, j, l] = g([e_i, e_j], e_l)."""
    return c.reshape(9, 3).dot(g).reshape(27).dot(_KOSZUL).reshape(3, 3, 3)


def _gamma(c: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Connection coefficients of constants ``c`` under metric ``g``: the
    Koszul array times ``ginv`` = g^-1, read off the metric rule's pass."""
    return _koszul(c, g).reshape(9, 3).dot(ginv).reshape(3, 3, 3)


def _riemann(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # prod[i, j, k] = nabla_{e_i} nabla_{e_j} e_k = gamma[j, k] @ gamma[i]
    prod = np.matmul(gamma[None], gamma[:, None])
    bracket_term = c.reshape(9, 3).dot(gamma.reshape(3, 9)).reshape(3, 3, 3, 3)
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
    s = gamma.reshape(9, 3).dot(f.dot(_TRACE)).reshape(3, 3)
    s -= (gs + c.reshape(27)[_ROLL]).dot(gs.reshape(9, 3))
    return 0.5 * (s + s.T)


def _cov_deriv(gamma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(nabla_{e_i} S)(e_j, e_k) of a symmetric frame-constant form ``s``."""
    p = gamma.dot(s)
    return -(p + p.transpose(0, 2, 1))


# flat index of c3[a, b, i] at [i, p] for the skew pairs (a, b) = (1, 2), (2, 0), (0, 1)
_DUAL = _IDX[[1, 2, 0], [2, 0, 1]].T


def _cotton2(c3: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dual of ``c3`` under the metric g with u = g / sqrt(det g)."""
    # row i is (C_12i, C_20i, C_01i): eps sums each skew pair twice, cancelling the 1/2
    out = c3.reshape(27)[_DUAL].dot(u)
    return 0.5 * (out + out.T)


def _chain(c: np.ndarray, gamma: np.ndarray, u: np.ndarray) -> tuple:
    """The Cotton sequence of constants ``c`` under the connection ``gamma``
    of a metric g with u = g / sqrt(det g): the Ricci form S, nabla S, the
    (0,3) Cotton tensor (the skew part of nabla S) and its (0,2) dual."""
    ricci = _ricci(c, gamma)
    d = _cov_deriv(gamma, ricci)
    c3 = d - d.transpose(1, 0, 2)
    return ricci, d, c3, _cotton2(c3, u)


def levi_civita(L: MetricLieAlgebra3) -> ConnectionTable:
    """Unique torsion-free metric connection, computed via Koszul.

    Raises ``DegenerateMetric`` or ``SingularMetric`` when the metric fails
    the metric rule of ``_metric_frame``, read off the algebra's one pass.
    """
    return _wrap(ConnectionTable, gamma=_gamma(L.structure_constants, L.metric, L._frame[0]))


def _jacobi(riemann: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of the Jacobi operator X -> R(X, x) x along the vector ``x``."""
    return x.dot(x.dot(riemann)).T


def curvature(L: MetricLieAlgebra3, conn: ConnectionTable) -> CurvaturePack:
    """Ricci form, its derivative and operator, scalar curvature, Cotton
    tensors; the Riemann tensor on first read of ``CurvaturePack.riemann``.

    The metric must pass the metric rule of ``_metric_frame``, which raises
    ``DegenerateMetric`` or ``SingularMetric`` as ``levi_civita`` does; the
    Ricci operator g^-1 S and the Cotton dual read ``L``'s one pass.  The
    Cotton norm is sqrt(x.dot(x)), ``np.linalg.norm``'s own vector form.
    """
    ginv, u, _ = L._frame
    c = L.structure_constants
    ricci, d, c3, c2 = _chain(c, conn.gamma, u)
    q = ginv.dot(ricci)
    # np.trace(q) bit for bit: its float sum from +0.0, so that a diagonal
    # of -0.0 gives 0.0
    scalar = 0.0 + q.item(0) + q.item(4) + q.item(8)
    x = c2.ravel()
    cotton = _wrap(CottonPack, cotton3=_wrap(Tensor3, components=c3),
                   cotton2=_wrap(SymBilinear, components=c2), norm2=math.sqrt(x.dot(x)))
    return _wrap(CurvaturePack, ricci=_wrap(SymBilinear, components=ricci),
                 ricci_derivative=_wrap(Tensor3, components=d), ricci_operator=q,
                 scalar=scalar, algebra=L, connection=conn, cotton=cotton)


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
    """Whether nabla S vanishes, with the largest component as witness:
    ``pack.ricci_derivative``, which ``curvature`` built."""
    mx = float(np.abs(pack.ricci_derivative.components).max())
    return ParallelCheck(mx <= tol, mx)


def ricci_spectrum(pack: CurvaturePack) -> np.ndarray:
    """Eigenvalues of the Ricci operator, ascending; all nan where they are
    not finite.

    With g = L L^T from the metric pass of ``pack.algebra`` (the one
    ``curvature`` read), the operator g^-1 S is similar to the symmetric
    W = L^-1 S L^-T, whose spectrum ``_eigenvalues`` reads: ``_eigvalsh``
    (``np.linalg.eigvalsh``'s, bit for bit) behind its one finiteness guard.
    It keeps eigenvalues far below the largest one, which a closed-form
    cubic rounds away.
    """
    Li = np.array(pack.algebra._frame[2])
    return _eigenvalues(Li.dot(pack.ricci.components).dot(Li.T))


@dataclass(frozen=True)
class GeometryClass:
    """Coarse local-geometry classification from the Ricci spectrum.

    ``kind`` is one of "constant_curvature", "product_h2xr",
    "symmetric_other", "not_symmetric"; ``curvature`` carries the model's
    sectional curvature when one applies, and ``spectrum`` the ascending
    Ricci eigenvalues the class was read from (None when not
    Ricci-parallel: the spectrum is not read).
    """

    kind: str
    curvature: float | None = None
    spectrum: tuple | None = None


CONSTANT_CURVATURE = "constant_curvature"
PRODUCT_H2XR = "product_h2xr"
SYMMETRIC_OTHER = "symmetric_other"
NOT_SYMMETRIC = "not_symmetric"


# relative tolerance of the sorted Ricci eigenvalue comparisons
_SPECTRUM_REL_TOL = 1e-6


def classify_geometry(pack: CurvaturePack, ricci_parallel: bool) -> GeometryClass:
    """Match the Ricci spectrum of a Ricci-parallel metric to a model space.

    In dimension 3, constant sectional curvature k has Ricci spectrum
    {2k, 2k, 2k}; a hyperbolic-plane-times-line product with factor
    curvature k < 0 has {k, k, 0}.  Eigenvalues are compared sorted with
    relative tolerance ``_SPECTRUM_REL_TOL``.
    """
    if not ricci_parallel:
        return GeometryClass(NOT_SYMMETRIC)
    eigs = ricci_spectrum(pack)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    atol = _SPECTRUM_REL_TOL * scale
    lo, mid, hi = spectrum = tuple(eigs.tolist())
    if hi - lo <= atol:
        return GeometryClass(CONSTANT_CURVATURE, (lo + mid + hi) / 6.0, spectrum)
    # {k, k, 0} with k < 0: the zero eigenvalue is the largest of the three.
    if abs(hi) <= atol and abs(mid - lo) <= atol and mid < -atol:
        return GeometryClass(PRODUCT_H2XR, 0.5 * (lo + mid), spectrum)
    return GeometryClass(SYMMETRIC_OTHER, None, spectrum)
