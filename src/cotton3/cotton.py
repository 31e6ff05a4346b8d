"""Cotton tensors of homogeneous 3-frame algebras.

The (0,3) Cotton tensor is the obstruction to conformal flatness in
dimension three:

    C(X, Y, Z) = (nabla_X S)(Y, Z) - (nabla_Y S)(X, Z)
                 - (1/4) (X(r) g(Y, Z) - Y(r) g(X, Z)).

On a frame algebra every curvature invariant is a frame constant, so the
scalar-curvature terms vanish identically and only the skew part of the
Ricci derivative survives.  C is skew in its first two slots and trace
free in every pair.

The equivalent (0,2) form is the dual over the first two slots:

    C(X)_j = (1 / (2 sqrt(det g))) C_{nmi} eps^{nml} g_{lj},

with eps the pure permutation symbol; the result is symmetric and trace
free, and scales as t^(-1/2) C under g -> t g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection_curvature import ConnectionTable, CurvaturePack, curvature, levi_civita
from .connection_curvature import _IDX, _cov_deriv, _gamma, _metric_frame, _ricci
from .errors import SingularMetric
from .frame_algebra import MetricLieAlgebra3, SymBilinear, Tensor3, _wrap

# flat index of c3[a, b, i] at [i, p] for the skew pairs (a, b) = (1, 2), (2, 0), (0, 1)
_DUAL = _IDX[[1, 2, 0], [2, 0, 1]].T


def _cotton3(gamma: np.ndarray, ricci: np.ndarray) -> np.ndarray:
    d = _cov_deriv(gamma, ricci)
    return d - d.transpose(1, 0, 2)


def _cotton2(c3: np.ndarray, g: np.ndarray, det: float) -> np.ndarray:
    """Dual of ``c3`` under metric ``g`` whose determinant is ``det``."""
    if det <= 1e-300:
        raise SingularMetric(
            f"cotton dualization needs a positive metric determinant; det = {det:.6g}"
        )
    # row i is (C_12i, C_20i, C_01i): eps sums each skew pair twice, cancelling the 1/2
    out = c3.reshape(27)[_DUAL] @ g / np.sqrt(det)
    return 0.5 * (out + out.T)


def cotton2_array(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(0,2) Cotton tensor of constants ``c`` under metric ``g``: the chain
    of ``cotton_pack`` on plain arrays, for the flow's per-stage evaluations.

    The connection and det g come from ``_gamma``, which reads g^-1 and
    det g off the metric rule's one Cholesky pass, ``_metric_frame``: it
    raises ``DegenerateMetric`` outside the positive cone and
    ``SingularMetric`` for a singular metric; the dual's determinant rule
    follows.
    """
    gamma, det = _gamma(c, g)
    return _cotton2(_cotton3(gamma, _ricci(c, gamma)), g, det)


@dataclass(frozen=True, eq=False)
class CottonPack:
    """Both Cotton tensors of one algebra, plus the size of the (0,2) form."""

    cotton3: Tensor3
    cotton2: SymBilinear
    norm2: float


def cotton_pack(
    L: MetricLieAlgebra3,
    conn: ConnectionTable | None = None,
    pack: CurvaturePack | None = None,
) -> CottonPack:
    """Compute the (0,3) tensor, its (0,2) dual, and the Frobenius norm.

    The chain of ``_cotton3``, the skew part of the covariant Ricci
    derivative, then ``_cotton2``, its dual over the skew pair of slots
    with det g from the metric rule's pass, ``_metric_frame``: each tensor
    is wrapped once, and the norm is sqrt(x @ x) over the raveled (0,2)
    form, the computation of ``np.linalg.norm``.
    """
    if conn is None:
        conn = levi_civita(L)
    if pack is None:
        pack = curvature(L, conn)
    c3 = _cotton3(conn.gamma, pack.ricci.components)
    c2 = _cotton2(c3, L.metric, _metric_frame(L.metric)[1])
    x = c2.ravel()
    return CottonPack(_wrap(Tensor3, c3), _wrap(SymBilinear, c2), math.sqrt(x @ x))


def cotton2_closed_form(ak) -> SymBilinear:
    """(0,2) Cotton tensor of an adapted frame from the constants alone.

    Components are with respect to (xi, e, phi_e) with f = b^2 + c^2 + 2.
    Each entry is a dual component of the covariant Ricci derivative; with
    lam, b, c frame constants the derivative reduces to connection terms
    against the closed-form Ricci entries, giving:

      C(xi, xi)      = 2 lam (b^2 - c^2)
      C(xi, e)       = 4 lam (c - lam b)
      C(xi, phi_e)   = 4 lam (lam c - b)
      C(e, e)        = 2 lam^3 - f lam + 2 lam c^2
      C(e, phi_e)    = 2 - f + 2 lam b c
      C(phi_e, phi_e)= -2 lam^3 + f lam - 2 lam b^2

    The trace cancels exactly: the diagonal sums to
    2 lam (b^2 - c^2) + 2 lam c^2 - 2 lam b^2 = 0.
    """
    lam, b, c, f = ak.lam, ak.b, ak.c, ak.f
    c11 = 2.0 * lam * (b * b - c * c)
    c12 = 4.0 * lam * (c - lam * b)
    c13 = 4.0 * lam * (lam * c - b)
    c22 = 2.0 * lam**3 - f * lam + 2.0 * lam * c * c
    c23 = 2.0 - f + 2.0 * lam * b * c
    c33 = -2.0 * lam**3 + f * lam - 2.0 * lam * b * b
    return SymBilinear(
        [
            [c11, c12, c13],
            [c12, c22, c23],
            [c13, c23, c33],
        ]
    )
