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

``curvature`` evaluates both once per geometry, as ``CurvaturePack.cotton``,
the dual reading g / sqrt(det g) off the algebra's metric pass; ``cotton_pack``
returns the pack's evaluation, built by its caller, and ``cotton2_array`` runs
the same ``_chain`` on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .connection_curvature import ConnectionTable, CottonPack, CurvaturePack, _chain, _gamma
from .frame_algebra import MetricLieAlgebra3, SymBilinear, _metric_frame


def cotton2_array(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(0,2) Cotton tensor of constants ``c`` under metric ``g``, for the
    flow's per-stage evaluations: ``_chain``, the sequence of ``curvature``.

    g^-1 and g / sqrt(det g) come from one pass of the metric rule,
    ``_metric_frame``: ``DegenerateMetric`` outside the positive cone,
    ``SingularMetric`` for a singular metric.
    """
    ginv, u, _ = _metric_frame(g)
    return _chain(c, _gamma(c, g, ginv), u)[3]


def cotton_pack(
    L: MetricLieAlgebra3, conn: ConnectionTable, pack: CurvaturePack
) -> CottonPack:
    """The (0,3) tensor, its (0,2) dual, and the Frobenius norm of the dual:
    ``pack.cotton``, the evaluation ``curvature`` made from ``L`` and
    ``conn``."""
    return pack.cotton


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
