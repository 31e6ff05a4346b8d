"""Detection and verification of almost Kenmotsu 3-h structures.

An almost Kenmotsu structure on a 3-frame algebra with metric g is a tuple
(phi, xi, eta, g) with

    phi^2 = -I + eta (x) xi,      g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),
    d eta = 0,                    d Phi = 2 eta ^ Phi,   Phi(X, Y) = g(X, phi Y),

and h = (1/2) Lie_xi phi symmetric, trace free, anticommuting with phi;
then nabla_X xi = X - eta(X) xi - phi h X.  The "3-h" class additionally
requires nabla_xi h = 0.

On invariant fields d eta = 0 says that xi is g-orthogonal to [g, g], and
d Phi = 2 eta ^ Phi that tr ad_xi = -2, so xi lies in

    [g, g]^perp  intersected with  {u : tr ad_u = -2}:

* where dim [g, g] = 2, [g, g]^perp is a line, and xi is its unit vector
  with tr ad_xi < 0;
* where dim [g, g] = 1, the unit xi are the at most two points where the
  line tr ad_u = -2 meets the unit ellipse of the plane [g, g]^perp;
* on a unimodular algebra tr ad = 0, and there is no structure (Milnor,
  "Curvatures of left invariant metrics on Lie groups", Adv. Math. 21,
  1976).

With phi = xi x_g (.), all else holds by construction but the shape of
A = ad_xi on xi^perp: A + I = lam S + w J, S symmetric trace free with
eigenvalues +-1 and J = phi, and 3-h is w = 0 unless lam = 0 (the adapted
frame of Pastore and Saltarelli, "Generalized nullity distributions on
almost Kenmotsu manifolds", Int. Electron. J. Geom. 4, 2011).  Detection
scores the candidates in order by these three conditions and accepts the
first that passes; ``structure_residuals`` checks the full invariant list
independently.  Detection makes no LAPACK call: e, the unit lam-eigenvector
of h, is the longest cross product of the rows of h - lam I, and a
candidate where that product is zero is refused, as a non-finite lam is.

Every product detection takes stays on ``ndarray.dot``: its result reaches
the output, and it rounds as BLAS rounds (with fused multiply-adds on most
builds), which Python floats cannot reproduce.  The scalar steps between
the products run on Python floats, each with the operations and in the
summation order of the numpy form it replaced, so the bits do not move:
the argmax of row and column norms, the power-of-two scalings, the cross
products, the traces, P and M, the pairwise sum of lam^2, phi's axis and
the normalisation and sign of e.  Elementwise steps from arrays to arrays
that feed a product (phi h, h, the dim-1 candidates) stay on numpy, where
they cost less than a round trip through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection_curvature import ConnectionTable, CurvaturePack, _jacobi
from .errors import InconsistentStructure, NoStructure
from .frame_algebra import (
    DEFAULT_TOL,
    FrameVector,
    MetricLieAlgebra3,
    SymBilinear,
    _wrap,
)


@dataclass(frozen=True, eq=False)
class AKStructure:
    """A detected almost Kenmotsu 3-h structure in frame components.

    ``adapted_frame`` is the g-orthonormal triple (xi, e, phi_e) where e is
    the unit +lam eigenvector of h (an arbitrary deterministic unit vector
    g-orthogonal to xi when h = 0).  ``b`` and ``c`` are the two remaining
    connection constants of the adapted frame:
    nabla_e e = -xi - b phi_e and nabla_{phi_e} e = lam xi + c phi_e.
    ``f`` abbreviates b^2 + c^2 + 2.  ``connection`` and ``curvature`` are
    the layers of ``algebra`` the structure was built on.  ``h_sides`` is
    the read-only pair of 3x3 matrices nabla_xi h and the curvature
    expression it equals, made from those layers on first read and kept;
    ``structure_residuals`` and ``check_h_parallel`` on the structure's own
    layers share it.
    """

    algebra: MetricLieAlgebra3
    xi: FrameVector
    eta: np.ndarray
    phi: np.ndarray
    h_op: np.ndarray
    lam: float
    b: float
    c: float
    f: float
    adapted_frame: tuple
    kenmotsu: bool
    connection: ConnectionTable
    curvature: CurvaturePack

    @cached_property
    def h_sides(self) -> tuple:
        """``_h_transport_sides`` on the structure's own layers, read-only."""
        sides = _h_transport_sides(self.xi.components, self.h_op, self.phi,
                                   self.connection.gamma, self.curvature.riemann)
        for mat in sides:
            mat.setflags(write=False)
        return sides

    def __post_init__(self):
        for name in ("eta", "phi", "h_op"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


_EYE = np.eye(3)
_EYE.setflags(write=False)
# rows (0, 1), (0, 2), (1, 2), (2, 0), (0, 1) of c.reshape(9, 3): [0:3] span
# [g, g] for the candidates, [2:5] are the cyclic rows of the score
_ROWS = np.array([1, 2, 5, 6, 1])


def adapted_connection_table(lam: float, b: float, c: float) -> np.ndarray:
    """Connection coefficients of the adapted frame (xi, e, phi_e).

    gamma[a, b, c] is the component of nabla_{E_a} E_b along E_c.  The
    nabla_xi row vanishes identically; the remaining rows are forced by the
    structure equations once (lam, b, c) are constants.
    """
    gamma = np.zeros(27)
    # rows gamma[1, 0], gamma[1, 1], gamma[1, 2], then gamma[2, 0], ...
    gamma[9:] = (0.0, 1.0, -lam, -1.0, 0.0, -b, lam, b, 0.0,
                 0.0, -lam, 1.0, lam, 0.0, c, -1.0, -c, 0.0)
    return gamma.reshape(3, 3, 3)


def _hat(u) -> np.ndarray:
    """Cross-product matrix of the three floats u: _hat(u).dot(x) = u x x."""
    u0, u1, u2 = u
    return np.array([0.0, -u2, u1, u2, 0.0, -u0, -u1, u0, 0.0]).reshape(3, 3)


def _fix_sign(v: list) -> list:
    """Deterministic sign of the floats v: the first component beyond 1e-10
    is made positive, by returning v or its negation."""
    for comp in v:
        if abs(comp) > 1e-10:
            return v if comp > 0 else [-x for x in v]
    return v


def _argmax(a: float, b: float, c: float) -> int:
    """``np.argmax`` of three floats: the first largest, or the first nan."""
    k, m = (0, a) if a >= b or a != a else (1, b)
    return k if m >= c or m != m else 2


def _pow2_scaled(v: list) -> list:
    """The floats v divided by the power of two that brings max |v| into
    [1, 2): exact, and the identity on every ratio of them, unless an entry
    leaves the float range (zero, or max |v| not finite: v times 2)."""
    p = 2.0 ** (math.frexp(max(map(abs, v)))[1] - 1)
    return [x / p for x in v]


def _row_crosses(K: list) -> list:
    """Rows K[0] x K[1], K[0] x K[2] and K[1] x K[2] of the row-major 3x3
    floats K, nine floats, with the operations of ``np.cross``."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = K
    return [
        a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0,
        a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0,
        b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0,
    ]


def _longest(rows: list) -> np.ndarray:
    """The longest row of the row-major 3x3 floats ``rows``, as an array: the
    one ``argmax`` picks from einsum's "ij,ij->i" row norms, which sum in
    the order (x0^2 + x2^2) + x1^2."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = rows
    k = 3 * _argmax((a0 * a0 + a2 * a2) + a1 * a1, (b0 * b0 + b2 * b2) + b1 * b1,
                    (c0 * c0 + c2 * c2) + c1 * c1)
    return np.array(rows[k:k + 3])


def _sym_eigvec(M: np.ndarray, mu: float) -> np.ndarray:
    """Eigenvector of M for a known simple eigenvalue mu, not normalised: the
    longest cross product of two rows of M - mu I, which spans its null
    space whether or not M is symmetric.  It takes no length and applies no
    cutoff, so it makes no LAPACK call: where the rows are parallel the
    product is zero, and ``_build_structure`` refuses the candidate."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = M.ravel().tolist()
    z = mu * 0.0  # mu I off its diagonal: -0.0 for mu < 0, nan for mu not finite
    return _longest(_row_crosses([m00 - mu, m01 - z, m02 - z, m10 - z, m11 - mu,
                                  m12 - z, m20 - z, m21 - z, m22 - mu]))


def _candidate_reebs(L: MetricLieAlgebra3, Li: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Unit Reeb candidates: unit u orthogonal to [g, g] with
    tr ad_u = sum_a u_a sum_i c[a, i, i] = -2, found in the orthonormal
    frame of g = L L^T (``Li`` = L^-1, from the one metric pass
    ``L._frame``), where a vector x has components L^T x = L^-1 g x and
    tr ad has L^-1 t; a candidate y there is xi = L^-T y.

    [g, g] is spanned by ``rows``, the brackets c[0, 1], c[0, 2] and
    c[1, 2], which in that frame are scaled by a power of two to max
    |entry| in [1, 2): the scaling is exact and every test below is
    homogeneous in it, so an in-range candidate keeps its bits, and the
    squared cross products (degree 4 in the rows) stay in the float range
    in any frame t e_i.  n, the longest of their cross products, and w, the
    longest row, tell its dimension:

    * |n| > 1e-10 |w|^2 (dim >= 2): the candidate is n/|n|, signed so that
      tr ad < 0, and there is none where tr ad_n is exactly 0.0.  The sign
      takes no cutoff: at large scale -2 is tiny next to |c|.
    * otherwise (dim 1): the line tr ad_u = -2 of the plane w^perp, nearest
      0 at u0, meets the unit circle at u0 +- r v, v its unit direction and
      r = sqrt(1 - |u0|^2).  With r <= 1e-7 (r is known only to about
      sqrt(eps) ~ 1.5e-8) the two merge into a double root, and the one
      candidate is u0/|u0|.  Two are sorted by their frame components, each
      rounded to 12 decimals as ``np.round`` rounds.
    * an abelian algebra, or |tr ad| on w^perp 0.0 or not finite, gives none.

    The normal-form residual decides which candidate, if any, is accepted.
    """
    K = _pow2_scaled(rows.dot(L.metric).dot(Li.T).ravel().tolist())
    w, n = _longest(K), _longest(_row_crosses(K))
    nw, nn = math.sqrt(w.dot(w)), math.sqrt(n.dot(n))
    # t[a] = tr ad of the a-th unit vector, each trace summed as np.trace
    # sums, in sequence from +0.0
    c = L.structure_constants.ravel().tolist()
    t = Li.dot(np.array([0.0 + c[0] + c[4] + c[8], 0.0 + c[9] + c[13] + c[17],
                         0.0 + c[18] + c[22] + c[26]]))
    if nn > 1e-10 * nw * nw:
        tr = t.dot(n)
        if tr == 0.0:
            return []
        return [(n / (nn if tr < 0.0 else -nn)).dot(Li)]
    if nw == 0.0:
        return []
    w = w / nw
    tp = t - t.dot(w) * w
    nt = math.sqrt(tp.dot(tp))
    if not 0.0 < nt < math.inf:
        return []
    d = 2.0 / nt  # |u0|, with u0 = -d tp/|tp|
    r = math.sqrt(max(1.0 - d * d, 0.0))
    if r <= 1e-7:
        return [(tp / -nt).dot(Li)]
    u0 = tp * (-d / nt)
    v = _hat(w.tolist()).dot(tp) / nt
    out = [(u / math.sqrt(u.dot(u))).dot(Li) for u in (u0 + r * v, u0 - r * v)]
    out.sort(key=lambda u: [round(x * 1e12) / 1e12 for x in u.tolist()])
    return out


def _build_structure(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    u: np.ndarray,
    tol: float,
) -> AKStructure:
    """Assemble the structure tensors for a given unit Reeb candidate.

    phi = u x_g (.) = sqrt(det g) g^-1 [u]_x needs no sign check: d Phi -
    2 eta ^ Phi is linear in phi.  sqrt(det g) = 1 / (i00 i11 i22), L^-1's
    diagonal, each divided into u in turn to keep it in range.  phi h and h
    are g-self-adjoint parts (M + g^-1 M^T g) / 2, and lam^2 = |sym|^2 / 2
    sums its nine terms in ``np.add.reduce``'s pairwise order.  e is
    normalised after an exact power-of-two scaling, so that e g e stays in
    range where e is large.  The structure holds ``u`` itself and every
    array built here without a copy.  ``u`` is taken over: it is frozen in
    place, so pass a copy to keep it writable.
    """
    g = L.metric
    ginv, _, ((i00, _, _), (_, i11, _), (_, _, i22)) = L._frame
    gamma = conn.gamma
    eta = g.dot(u)
    u0, u1, u2 = uf = u.tolist()
    e0, e1, e2 = eta.tolist()
    # P = I - u eta^T, and M = P - A with A = (u gamma)^T the candidate for
    # phi h, self-adjoint trace free when u is genuine
    P = [1.0 - u0 * e0, 0.0 - u0 * e1, 0.0 - u0 * e2,
         0.0 - u1 * e0, 1.0 - u1 * e1, 0.0 - u1 * e2,
         0.0 - u2 * e0, 0.0 - u2 * e1, 1.0 - u2 * e2]
    (a00, a10, a20), (a01, a11, a21), (a02, a12, a22) = u.dot(gamma).tolist()
    M = np.array([P[0] - a00, P[1] - a01, P[2] - a02, P[3] - a10, P[4] - a11,
                  P[5] - a12, P[6] - a20, P[7] - a21, P[8] - a22]).reshape(3, 3)
    Msym = 0.5 * (M + ginv.dot(M.T).dot(g))
    # (Msym * Msym.T).sum(): the terms m_k of the flattened product, summed
    # as np.add.reduce sums nine, ((m0 + m1) + (m2 + m3)) + ((m4 + m5) +
    # (m6 + m7)) + m8
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = Msym.ravel().tolist()
    x01, x02, x12 = s01 * s10, s02 * s20, s12 * s21
    lam = math.sqrt(max((((s00 * s00 + x01) + (x02 + x01))
                         + ((s11 * s11 + x12) + (x02 + x12)) + s22 * s22) / 2.0, 0.0))
    kenmotsu = lam <= tol

    phi = ginv.dot(_hat([x / i00 / i11 / i22 for x in uf]))
    h = (-phi).dot(Msym)
    h = 0.5 * (h + ginv.dot(h.T).dot(g))
    if kenmotsu:
        # the longest column of P, as argmax reads einsum("ij,ij->j") norms
        k = _argmax(*[(P[j] * P[j] + P[j + 3] * P[j + 3]) + P[j + 6] * P[j + 6]
                      for j in range(3)])
        e = P[k::3]
    else:
        e = _sym_eigvec(h, lam).tolist()
    e = _pow2_scaled(e)
    ea = np.array(e)
    # e g e > 0 for e != 0: the metric pass accepts no g with w_min <= 1e-12
    # w_max; a zero e (parallel rows of h - lam I) becomes nan, and is refused
    s = math.sqrt(ea.dot(g).dot(ea)) or math.nan
    e = np.array(_fix_sign([x / s for x in e]))
    phi_e = phi.dot(e)
    nab_e = e.dot(gamma).dot(g)  # nab_e[i] = nabla_{E_i} e, lowered by g
    b = -float(e.dot(nab_e).dot(phi_e))
    c = float(phi_e.dot(nab_e).dot(phi_e))
    xi = _wrap(FrameVector, components=u)
    return _wrap(
        AKStructure,
        algebra=L,
        xi=xi,
        eta=eta,
        phi=phi,
        h_op=h,
        lam=lam,
        b=b,
        c=c,
        f=b * b + c * c + 2.0,
        adapted_frame=(
            xi,
            _wrap(FrameVector, components=e),
            _wrap(FrameVector, components=phi_e),
        ),
        kenmotsu=kenmotsu,
        connection=conn,
        curvature=pack,
    )


def _dphi_residual(L: MetricLieAlgebra3, xi: np.ndarray, phi: np.ndarray) -> float:
    """Max component of d Phi - 2 eta ^ Phi for invariant fields.

    Both terms are cyclic sums over the slots (i, j, k): d Phi of
    -Phi([e_i, e_j], e_k), and 2 eta ^ Phi of 2 eta_i Phi_jk.
    """
    Phi = L.metric.dot(phi)
    eta = L.metric.dot(xi)
    t = L.structure_constants.dot(Phi) + 2.0 * eta[:, None, None] * Phi
    t = t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)
    return float(np.abs(t).max())


def _h_transport_sides(xi, h, phi, gamma: np.ndarray, riemann: np.ndarray):
    """nabla_xi h from the connection, and the curvature expression
    -phi - 2h - phi h^2 - phi l (l the Jacobi operator along xi) that it
    equals on an almost Kenmotsu structure."""
    n_xi = xi.dot(gamma.reshape(3, 9)).reshape(3, 3).T
    l = _jacobi(riemann, xi)
    return n_xi.dot(h) - h.dot(n_xi), -phi - 2.0 * h - phi.dot(h).dot(h) - phi.dot(l)


def structure_residuals(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    ak: AKStructure,
) -> dict:
    """Absolute residuals of every defining identity of the structure.

    All entries vanish (to float precision) on a genuine almost Kenmotsu
    3-h algebra.  This is the full check, independent of detection's
    normal-form score, and it evaluates every identity on each call.  The
    3x3 products are one stacked ``matmul``, and the residual matrices are
    reduced together, in one pass.  Given the structure's own
    ``connection`` and ``curvature`` (the same objects), it reads the
    structure's ``h_sides``; any other layers are evaluated afresh.
    """
    g = L.metric
    c = L.structure_constants
    gamma = conn.gamma
    xi = ak.xi.components
    eta, phi, h = ak.eta, ak.phi, ak.h_op
    lam = ak.lam
    # rows xi, e, phi_e; E = F.T has them as columns
    F = np.array([v.components for v in ak.adapted_frame])
    if conn is ak.connection and pack is ak.curvature:
        transport_mat, curv_mat = ak.h_sides
    else:
        transport_mat, curv_mat = _h_transport_sides(xi, h, phi, gamma, pack.riemann)
    xi_eta = xi[:, None] * eta
    adxi = xi.dot(c.reshape(3, 9)).reshape(3, 3).T
    # phi phi, phi^T g, h phi, phi h, adxi phi, phi adxi, h E, g h
    prod = (np.array([phi, phi.T, h, phi, adxi, phi, h, g])
            @ np.array([phi, g, phi, h, phi, adxi, F.T, h]))
    # reduced in segments of the flattened stack: the nine matrices 0-8
    # whole, the three rows of stack[9] one by one, the 27 entries of the
    # adapted connection (stack[10:], non-Kenmotsu only) as one
    stack = np.empty((13, 3, 3))
    segments = [0, 9, 18, 27, 36, 45, 54, 63, 72, 81, 84, 87, 90]
    stack[0] = prod[0] + _EYE - xi_eta
    stack[1] = prod[1].dot(phi) - g + eta[:, None] * eta
    stack[2] = prod[7] - prod[7].T
    stack[3] = prod[2] + prod[3]
    stack[4] = xi.dot(gamma).T - (_EYE - xi_eta - prod[3])
    stack[5] = transport_mat
    stack[6] = curv_mat
    stack[7] = h - 0.5 * (prod[4] - prod[5])
    stack[8] = c @ eta
    # rows: h xi, h e - lam e, h phi_e + lam phi_e
    stack[9] = prod[6].T - F * np.array([[0.0], [lam], [-lam]])
    if ak.kenmotsu:
        stack, segments = stack[:10], segments[:-1]
    else:
        # gamma in the adapted frame: E, E, gamma, then E^-1 = E^T g in the last slot
        ad_gamma = F.dot((F @ gamma @ F.dot(g).T).reshape(3, 9)).reshape(3, 3, 3)
        stack[10:] = ad_gamma - adapted_connection_table(lam, ak.b, ak.c)
    (phi_square, phi_compat, h_symmetric, h_phi_anticommute, reeb_gradient,
     h_transport, curvature_identity, h_lie_oracle, d_eta, h_xi, h_e, h_pe,
     *adapted) = np.maximum.reduceat(np.abs(stack).ravel(), segments).tolist()
    # diagonals of h and h phi, summed in np.trace's order
    hd, hpd = h.ravel().tolist()[::4], prod[2].ravel().tolist()[::4]

    res = {
        "xi_unit": abs(float(xi.dot(g).dot(xi)) - 1.0),
        "phi_square": phi_square,
        "phi_compat": phi_compat,
        "h_xi": h_xi,
        "h_trace": abs(hd[0] + hd[1] + hd[2]),
        "h_symmetric": h_symmetric,
        "h_phi_anticommute": h_phi_anticommute,
        "trace_h_phi": abs(hpd[0] + hpd[1] + hpd[2]),
        "reeb_gradient": reeb_gradient,
        "h_transport": h_transport,
        "curvature_identity": curvature_identity,
        "h_lie_oracle": h_lie_oracle,
        "h_eigen": max(h_e, h_pe),
        "d_eta": d_eta,
        "d_phi": _dphi_residual(L, xi, phi),
    }
    if adapted:
        res["adapted_connection"] = adapted[0]
    return res


def _normal_form_residual(B: list, y: list) -> float:
    """Normal-form score of a unit Reeb candidate y in the orthonormal frame
    whose brackets are the rows of ``B`` (floats): the largest of
    |y . [g, g]| (d eta), |tr ad_y + 2| (d Phi = 2 eta ^ Phi) and
    min(|w|, lam) (nabla_xi h = 0), each of degree one in the constants;
    nan when one is not finite.  N = ad_y + I - y y^T is lam S + w J on
    y^perp, J = [y]_x and |S|^2 = 2: lam^2 = |sym N|^2 / 2, and w is the
    axis of skew N along y."""
    y0, y1, y2 = y
    # row k of ad_y = B^T [y]_x is column k of B crossed with y
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = [
        (q * y2 - r * y1, r * y0 - p * y2, p * y1 - q * y0) for p, q, r in zip(*B)]
    d0, d1, d2 = a00 + 1.0 - y0 * y0, a11 + 1.0 - y1 * y1, a22 + 1.0 - y2 * y2
    s01, s02, s12 = a01 + a10 - 2.0 * y0 * y1, a02 + a20 - 2.0 * y0 * y2, a12 + a21 - 2.0 * y1 * y2
    lam = math.sqrt(0.5 * (d0 * d0 + d1 * d1 + d2 * d2)
                    + 0.25 * (s01 * s01 + s02 * s02 + s12 * s12))
    w = 0.5 * ((a21 - a12) * y0 + (a02 - a20) * y1 + (a10 - a01) * y2)
    d_eta = max(abs(p * y0 + q * y1 + r * y2) for p, q, r in B)
    d_phi = abs(a00 + a11 + a22 + 2.0)
    if not math.isfinite(d_eta + d_phi + w + lam):
        return math.nan
    return max(d_eta, d_phi, min(abs(w), lam))


def detect_structure(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    tol: float = 1e-8,
) -> AKStructure:
    """Find the almost Kenmotsu 3-h structure of an algebra, in any frame.

    Returns the first of the candidates (``_candidate_reebs``), in their
    deterministic order, whose ``_normal_form_residual`` is within ``tol``
    times 1 + |c~|, c~ the constants in the orthonormal frame of the
    metric pass; nan is never within.  The score reads neither ``conn`` nor
    ``pack``: only the accepted candidate is built on them, and refused if
    its structure is not finite.  Where the Reeb field is not unique, as on
    (1, b, b) algebras, the order decides.  Raises ``NoStructure`` when
    there is no candidate (no vector orthogonal to [g, g] has nonzero
    tr ad) or, with the best residual, when none is admissible.
    """
    # L^-1 as an array, and one gather of the bracket rows for both steps
    r0, r1, r2 = L._frame[2]
    Li = np.array(r0 + r1 + r2).reshape(3, 3)
    rows = L.structure_constants.reshape(9, 3).take(_ROWS, axis=0)
    cands = _candidate_reebs(L, Li, rows[:3])
    if not cands:
        raise NoStructure(
            "no vector orthogonal to [g, g] has nonzero tr ad, so there is no "
            "unit Reeb candidate")
    # the rows [f_1, f_2], [f_2, f_0] and [f_0, f_1] of the orthonormal frame
    # f_i = L^-T e_i in f components: f_{i+1} x f_{i+2} = det(L^-1) L e_i, so
    # [f_{i+1}, f_{i+2}] = det(L^-1) sum_m L[m, i] [e_{m+1}, e_{m+2}]
    Lt = Li.dot(L.metric)  # L^T, from frame to f components
    i00, i11, i22 = r0[0], r1[1], r2[2]
    K = rows[2:].dot(Lt.T)
    B = (Lt * (i00 * i11 * i22)).dot(K)
    flat = B.ravel()
    # |c~| counts each bracket twice
    limit = tol * (1.0 + math.sqrt(2.0 * flat.dot(flat)))
    B = B.tolist()
    best_res = math.inf
    for u in cands:
        res = _normal_form_residual(B, Lt.dot(u).tolist())
        if res <= limit:
            ak = _build_structure(L, conn, pack, u, tol)
            if math.isfinite(ak.lam + ak.f):
                return ak
            res = math.nan
        best_res = min(best_res, res)
    raise NoStructure(
        "no unit Reeb candidate satisfies the almost Kenmotsu 3-h "
        f"identities (best residual {best_res:.3e}, tolerance {limit:.3e})"
    )


@dataclass(frozen=True)
class HParallelCheck:
    """Result of the nabla_xi h = 0 verification.

    ``transport`` is the size of nabla_xi h computed from the connection;
    ``curvature_side`` is the size of the equivalent curvature expression
    -phi - 2h - phi h^2 - phi l; ``holds`` requires both to vanish and to
    agree within tolerance.  ``residual`` is the maximum of the three.
    """

    holds: bool
    residual: float
    transport: float
    curvature_side: float


def check_h_parallel(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    ak: AKStructure,
    tol: float = DEFAULT_TOL,
) -> HParallelCheck:
    """Verify nabla_xi h = 0 along two independent routes; the curvature
    route reads ``ak.curvature``, which detection computed from ``conn``.
    On the structure's own ``connection`` it reads ``ak.h_sides``; any
    other connection is evaluated afresh."""
    if conn is ak.connection:
        transport_mat, curv_mat = ak.h_sides
    else:
        transport_mat, curv_mat = _h_transport_sides(
            ak.xi.components, ak.h_op, ak.phi, conn.gamma, ak.curvature.riemann)
    transport, curv, gap = np.abs(
        np.array([transport_mat, curv_mat, transport_mat - curv_mat])
    ).max(axis=(1, 2)).tolist()
    residual = max(transport, curv, gap)
    return HParallelCheck(residual <= tol, residual, transport, curv)


def ricci_closed_form(ak: AKStructure) -> SymBilinear:
    """Ricci form of the adapted frame from the constants alone.

    Components are with respect to (xi, e, phi_e).  Valid because lam, b, c
    are frame constants here; the general formula carries extra frame
    derivatives of lam that vanish identically.
    """
    lam, b, c, f = ak.lam, ak.b, ak.c, ak.f
    return SymBilinear(
        [
            [-2.0 * (lam * lam + 1.0), -2.0 * lam * b, -2.0 * lam * c],
            [-2.0 * lam * b, -f, 2.0 * lam],
            [-2.0 * lam * c, 2.0 * lam, -f],
        ]
    )


@dataclass(frozen=True)
class XiEigenReport:
    """Whether the Reeb field is a Ricci eigenvector, and what that forces.

    When it is, the constants b and c must vanish, f collapses to 2, and
    the adapted brackets reduce to
    [e, xi] = e - lam phi_e, [e, phi_e] = 0, [phi_e, xi] = -lam e + phi_e;
    ``reduced_bracket_residual`` measures that reduction.
    """

    is_eigenvector: bool
    s_xi_e: float
    s_xi_phi_e: float
    forced: dict | None
    reduced_bracket_residual: float | None


def xi_eigenvector_analysis(ak: AKStructure, tol: float = DEFAULT_TOL) -> XiEigenReport:
    """Test S(xi, e) = S(xi, phi_e) = 0 with the Ricci form of ``ak.curvature``.

    Requires a non-Kenmotsu structure (lam > 0).  Raises
    ``InconsistentStructure`` if the eigenvector condition holds but the
    stored constants b, c fail to vanish.
    """
    if ak.kenmotsu:
        raise ValueError("analysis applies to non-Kenmotsu structures (lam > 0)")
    L = ak.algebra
    ricci = ak.curvature.ricci
    xi, e, phi_e = ak.adapted_frame
    s_xi_e = ricci.evaluate(xi, e)
    s_xi_pe = ricci.evaluate(xi, phi_e)
    scale = 1.0 + float(abs(ricci.components).max())
    is_eigen = abs(s_xi_e) <= tol * scale and abs(s_xi_pe) <= tol * scale
    if not is_eigen:
        return XiEigenReport(False, s_xi_e, s_xi_pe, None, None)
    if abs(ak.b) > tol * scale or abs(ak.c) > tol * scale:
        raise InconsistentStructure(
            "Reeb field is a Ricci eigenvector but the adapted constants "
            f"b={ak.b}, c={ak.c} do not vanish"
        )
    lam = ak.lam
    x, e, p = xi.components, e.components, phi_e.components
    # [e, xi], [e, phi_e] and [phi_e, xi] in one contraction, each row
    # bitwise the ``bracket`` of its pair, against the reduced brackets
    got = np.einsum("ijk,ni,nj->nk", L.structure_constants,
                    np.array((e, e, p)), np.array((x, p, x)))
    want = np.array((e - lam * p, np.zeros(3), -lam * e + p))
    residual = float(abs(got - want).max())
    return XiEigenReport(
        True,
        s_xi_e,
        s_xi_pe,
        {"b": 0.0, "c": 0.0, "f": 2.0, "lambda_constant": True},
        residual,
    )
