"""Detection and verification of almost Kenmotsu 3-h structures.

An almost Kenmotsu structure on an orthonormal 3-frame algebra is a tuple
(phi, xi, eta, g) with

    phi^2 = -I + eta (x) xi,      g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),
    d eta = 0,                    d Phi = 2 eta ^ Phi,   Phi(X, Y) = g(X, phi Y),

and h = (1/2) Lie_xi phi symmetric, trace free, anticommuting with phi.  The
covariant derivative of the Reeb field then has the rigid shape

    nabla_X xi = X - eta(X) xi - phi h X,

so xi is recognisable from the connection alone: the bilinear form
B(X, Y) = g(nabla_X xi, Y) must be symmetric with trace 2, and
phi h := (I - nabla xi)|_{xi-perp} symmetric trace free.  The "3-h" class
additionally requires nabla_xi h = 0.

Detection solves for the Reeb direction exactly.  The skew part of B and
its trace are linear in the candidate u, giving the affine system
Sk u = 0, tau u = 2.  In an orthonormal frame B_u is symmetric exactly
when d eta = 0, i.e. u is orthogonal to [g, g], and tau u = div u =
-tr ad_u.  The null space of the system is therefore
[g, g]^perp  intersected with  ker(tr o ad):

* on a non-unimodular algebra ker(tr o ad) is a 2-dimensional ideal that
  contains [g, g] != 0, so the null space has dimension at most one and
  the unit solutions are at most two points on a line; with a trivial null
  space the normalised minimum-norm solution is the one candidate, as a
  best fit;
* on a unimodular algebra tau = 0, the system has no solution and there is
  no structure (Milnor, "Curvatures of left invariant metrics on Lie
  groups", Adv. Math. 21, 1976).

Candidates are verified in that order against the full invariant list,
and the first that passes is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .connection_curvature import ConnectionTable, CurvaturePack, _jacobi
from .errors import InconsistentStructure, NoStructure
from .frame_algebra import (
    DEFAULT_TOL,
    FrameVector,
    MetricLieAlgebra3,
    SymBilinear,
    _svd_lstsq,
    _wrap,
    bracket,
)


@dataclass(frozen=True, eq=False)
class AKStructure:
    """A detected almost Kenmotsu 3-h structure in frame components.

    ``adapted_frame`` is the orthonormal triple (xi, e, phi_e) where e is
    the unit +lam eigenvector of h (an arbitrary deterministic unit vector
    orthogonal to xi when h = 0).  ``b`` and ``c`` are the two remaining
    connection constants of the adapted frame:
    nabla_e e = -xi - b phi_e and nabla_{phi_e} e = lam xi + c phi_e.
    ``f`` abbreviates b^2 + c^2 + 2.  ``connection`` and ``curvature`` are
    the layers of ``algebra`` the structure was verified against, and
    ``residuals`` is the read-only residual dict that ``detect_structure``
    accepted it under; ``structure_residuals`` hands out copies of it
    instead of recomputing.  ``h_sides`` is the read-only pair of 3x3
    matrices detection scored on those layers: nabla_xi h and the
    curvature expression it equals; ``structure_residuals`` and
    ``check_h_parallel`` read it instead of recomputing.  Only detection
    sets the two: they are not constructor arguments, so a structure built
    by hand or derived with ``dataclasses.replace`` has ``None`` and is
    evaluated afresh.
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
    residuals: MappingProxyType | None = field(default=None, init=False, repr=False)
    h_sides: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("eta", "phi", "h_op"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


_EYE = np.eye(3)
_EYE.setflags(write=False)
_EYE_FLAT = tuple(_EYE.ravel().tolist())

# right-hand side of the Reeb-shape system: no skew part, trace 2
_REEB_RHS = np.array([0.0, 0.0, 0.0, 2.0])
_REEB_RHS.setflags(write=False)

# flat indices into gamma.ravel() of the Reeb-shape system, row by row: skew
# row r holds gamma[i, a, j] - gamma[j, a, i] for the r-th pair (i, j); the
# trace row holds gamma[0, a, 0] + gamma[1, a, 1] + gamma[2, a, 2]
_SKEW_FLAT = tuple(
    (9 * i + 3 * a + j, 9 * j + 3 * a + i)
    for i, j in ((0, 1), (0, 2), (1, 2))
    for a in range(3)
)
_TRACE_FLAT = tuple((3 * a, 10 + 3 * a, 20 + 3 * a) for a in range(3))


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


def _hat(u: np.ndarray) -> np.ndarray:
    """Cross-product matrix: _hat(u) @ x = u x x."""
    u0, u1, u2 = u.tolist()
    return np.array([0.0, -u2, u1, u2, 0.0, -u0, -u1, u0, 0.0]).reshape(3, 3)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic sign: the first component beyond 1e-10 is made positive."""
    for comp in v.tolist():
        if abs(comp) > 1e-10:
            return v if comp > 0 else -v
    return v


def _sym_eigvec(M: np.ndarray, mu: float) -> np.ndarray:
    """Unit eigenvector of symmetric M for a known eigenvalue mu: the longest
    cross product of two rows of M - mu I.

    The cross products are taken on the floats of M - mu I, the operations
    of ``np.cross``; their lengths are compared, and the longest one is
    normalised by sqrt(v @ v), as ``np.linalg.norm`` computes it.
    """
    K = M - mu * _EYE
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = K.tolist()
    # rows: K[0] x K[1], K[0] x K[2], K[1] x K[2]
    cands = np.array([
        a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0,
        a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0,
        b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0,
    ]).reshape(3, 3)
    best = cands[int(np.einsum("ij,ij->i", cands, cands).argmax())]
    norm = math.sqrt(best @ best)
    flat = M.ravel()
    if norm <= 1e-10 * (1.0 + math.sqrt(flat @ flat)):
        # (near) repeated eigenvalue: fall back to the smallest singular
        # direction, which is still deterministic
        _, _, Vt = np.linalg.svd(K)
        return Vt[-1] / np.linalg.norm(Vt[-1])
    return best / norm


def _reeb_shape_system(conn: ConnectionTable) -> np.ndarray:
    """Affine system encoding the linear Reeb-shape conditions.

    For a candidate u, the form B_u(X, Y) = g(nabla_X u, Y) is linear in u;
    its three skew components must vanish and trace(nabla u) must equal 2.
    Returns the 4x3 system A, filled from the floats of gamma: the rows
    Sk = A[:3] give the skew components Sk @ u, the row tau = A[3] the trace
    tau @ u.
    """
    f = conn.gamma.ravel().tolist()
    return np.array(
        [f[p] - f[m] for p, m in _SKEW_FLAT] + [f[i] + f[j] + f[k] for i, j, k in _TRACE_FLAT]
    ).reshape(4, 3)


def _candidate_reebs(conn: ConnectionTable) -> list[np.ndarray]:
    """Unit solutions of the affine Reeb-shape system, best-fitting first.

    Every solution is u0 + w with u0 the minimum-norm solution and w in the
    null space, which has at most one dimension (see the module docstring).
    The unit ones are u0 +- r w for a unit null vector w and
    r = sqrt(1 - |u0|^2).  Without a null vector, or with r <= 1e-7 (r is
    known only to about sqrt(eps) ~ 1.5e-8, and the two solutions merge into
    a double root at u0), the one candidate is u0/|u0|, the best fit.
    Otherwise u0/|u0| is not listed: it misses both solutions by r, yet can
    pass the tolerance.  An inconsistent system (u0 = 0) gives none.
    Several candidates are sorted by their squared residual, then by their
    components, each rounded to 12 decimals as ``np.round`` rounds.
    """
    A = _reeb_shape_system(conn)
    u0, s, Vt = _svd_lstsq(A, _REEB_RHS)
    n0 = math.sqrt(u0 @ u0)
    if n0 <= 1e-12:
        return []
    sv = s.tolist()
    cut = 1e-10 * max(sv[0], 1.0)
    null = [w for w, x in zip(Vt, sv) if x <= cut]
    r = math.sqrt(max(1.0 - n0 * n0, 0.0))
    raw = [u0 + sign * r * w for w in null for sign in (1.0, -1.0)] if r > 1e-7 else []
    out = [u / math.sqrt(u @ u) for u in raw or [u0]]
    if len(out) == 1:
        return out
    Sk, tau = A[:3], A[3]

    def key(u):
        d0, d1, d2 = (Sk @ u).tolist()
        score = float(d0 * d0 + d1 * d1 + d2 * d2 + (tau @ u - 2.0) ** 2)
        return (round(score, 12), [round(x * 1e12) / 1e12 for x in u.tolist()])

    out.sort(key=key)
    return out


def _build_structure(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    u: np.ndarray,
    tol: float,
) -> AKStructure:
    """Assemble the structure tensors for a given unit Reeb candidate.

    phi = u x (.) needs no sign check: d Phi - 2 eta ^ Phi is linear in phi.
    The structure holds ``u`` itself and every array built here without a
    copy, with ``h_sides`` evaluated on ``conn`` and ``pack``.  ``u`` is
    taken over: it is frozen in place, so pass a copy to keep it writable.
    """
    gamma = conn.gamma
    A = (u @ gamma).T
    P = _EYE - u[:, None] * u
    M = P - A  # candidate for phi h; symmetric trace free when u is genuine
    Msym = 0.5 * (M + M.T)
    lam = math.sqrt(max(float(np.sum(Msym * Msym)) / 2.0, 0.0))
    kenmotsu = lam <= tol

    phi = _hat(u)
    h = -phi @ Msym
    h = 0.5 * (h + h.T)
    if kenmotsu:
        e = P[:, int(np.argmax(np.einsum("ij,ij->j", P, P)))]
        e = _fix_sign(e / np.linalg.norm(e))
    else:
        e = _fix_sign(_sym_eigvec(h, lam))
    phi_e = phi @ e
    nab_e = e @ gamma  # nab_e[i] = nabla_{E_i} e
    b = -float(e @ nab_e @ phi_e)
    c = float(phi_e @ nab_e @ phi_e)
    sides = _h_transport_sides(u, h, phi, gamma, pack.riemann)
    for mat in sides:
        mat.setflags(write=False)
    xi = _wrap(FrameVector, components=u)
    return _wrap(
        AKStructure,
        algebra=L,
        xi=xi,
        eta=L.metric @ u,
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
        residuals=None,
        h_sides=sides,
    )


def _dphi_residual(L: MetricLieAlgebra3, xi: np.ndarray, phi: np.ndarray) -> float:
    """Max component of d Phi - 2 eta ^ Phi for invariant fields.

    Both terms are cyclic sums over the slots (i, j, k): d Phi of
    -Phi([e_i, e_j], e_k), and 2 eta ^ Phi of 2 eta_i Phi_jk.
    """
    Phi = L.metric @ phi
    eta = L.metric @ xi
    t = L.structure_constants @ Phi + 2.0 * eta[:, None, None] * Phi
    t = t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)
    return float(np.abs(t).max())


def _h_transport_sides(xi, h, phi, gamma: np.ndarray, riemann: np.ndarray):
    """nabla_xi h from the connection, and the curvature expression
    -phi - 2h - phi h^2 - phi l (l the Jacobi operator along xi) that it
    equals on an almost Kenmotsu structure; the four first-level 3x3
    products are one stacked ``matmul``."""
    n_xi = (xi @ gamma.reshape(3, 9)).reshape(3, 3).T
    l = _jacobi(riemann, xi)
    prod = np.array([n_xi, h, phi, phi]) @ np.array([h, n_xi, h, l])
    return prod[0] - prod[1], -phi - 2.0 * h - prod[2] @ h - prod[3]


def structure_residuals(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    ak: AKStructure,
) -> dict:
    """Absolute residuals of every defining identity of the structure.

    All entries vanish (to float precision) on a genuine almost Kenmotsu
    3-h algebra; the largest one is the acceptance score for detection.
    The 3x3 products are one stacked ``matmul``, and the residual matrices
    are reduced together, in one pass.  Given the structure's own
    ``algebra``, ``connection`` and ``curvature`` (the same objects), a
    detected structure returns a fresh copy of the dict it was accepted
    under, and a structure detection has built reads its ``h_sides``; any
    other layers are evaluated afresh.
    """
    own = conn is ak.connection and pack is ak.curvature
    if ak.residuals is not None and own and L is ak.algebra:
        return dict(ak.residuals)
    g = L.metric
    c = L.structure_constants
    gamma = conn.gamma
    xi = ak.xi.components
    eta, phi, h = ak.eta, ak.phi, ak.h_op
    lam = ak.lam
    # rows xi, e, phi_e; E = F.T has them as columns
    F = np.array([v.components for v in ak.adapted_frame])
    if own and ak.h_sides is not None:
        transport_mat, curv_mat = ak.h_sides
    else:
        transport_mat, curv_mat = _h_transport_sides(xi, h, phi, gamma, pack.riemann)
    xi_eta = xi[:, None] * eta
    adxi = (xi @ c.reshape(3, 9)).reshape(3, 3).T
    # phi phi, phi^T g, h phi, phi h, adxi phi, phi adxi, h E
    prod = (np.array([phi, phi.T, h, phi, adxi, phi, h])
            @ np.array([phi, g, phi, h, phi, adxi, F.T]))
    # reduced in segments of the flattened stack: the nine matrices 0-8
    # whole, the three rows of stack[9] one by one, the 27 entries of the
    # adapted connection (stack[10:], non-Kenmotsu only) as one
    stack = np.empty((13, 3, 3))
    segments = [0, 9, 18, 27, 36, 45, 54, 63, 72, 81, 84, 87, 90]
    stack[0] = prod[0] + _EYE - xi_eta
    stack[1] = prod[1] @ phi - g + eta[:, None] * eta
    stack[2] = h - h.T
    stack[3] = prod[2] + prod[3]
    stack[4] = (xi @ gamma).T - (_EYE - xi_eta - prod[3])
    stack[5] = transport_mat
    stack[6] = curv_mat
    stack[7] = h - 0.5 * (prod[4] - prod[5])
    stack[8] = c @ eta
    # rows: h xi, h e - lam e, h phi_e + lam phi_e
    stack[9] = prod[6].T - F * np.array([[0.0], [lam], [-lam]])
    if ak.kenmotsu:
        stack, segments = stack[:10], segments[:-1]
    else:
        # gamma in the adapted frame: sum_ijk E[i, a] E[j, b] gamma[i, j, k] E[k, c]
        ad_gamma = (F @ (F @ gamma @ F.T).reshape(3, 9)).reshape(3, 3, 3)
        stack[10:] = ad_gamma - adapted_connection_table(lam, ak.b, ak.c)
    (phi_square, phi_compat, h_symmetric, h_phi_anticommute, reeb_gradient,
     h_transport, curvature_identity, h_lie_oracle, d_eta, h_xi, h_e, h_pe,
     *adapted) = np.maximum.reduceat(np.abs(stack).ravel(), segments).tolist()
    # diagonals of h and h phi, summed in np.trace's order
    hd, hpd = h.ravel().tolist()[::4], prod[2].ravel().tolist()[::4]

    res = {
        "xi_unit": abs(float(xi @ g @ xi) - 1.0),
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


def _orthonormal(L: MetricLieAlgebra3) -> bool:
    """Whether the frame metric is the identity to within 1e-9, as structure
    detection requires."""
    return all(abs(x - y) <= 1e-9 for x, y in zip(L.metric.ravel().tolist(), _EYE_FLAT))


def detect_structure(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    tol: float = 1e-8,
) -> AKStructure:
    """Find the almost Kenmotsu 3-h structure of an orthonormal algebra.

    Returns the first candidate, in the deterministic order of
    ``_candidate_reebs``, whose largest structure residual is within ``tol``
    (scaled by the connection size); later candidates are never built.  Where
    the Reeb field is not unique, as on (1, b, b) algebras, every admissible
    candidate is a genuine structure and their residuals differ only by
    rounding, so the order decides.  Each candidate is scored by one
    ``structure_residuals`` call, and the accepted structure keeps that dict
    as ``residuals``, next to the ``h_sides`` it was scored with.  Raises
    ``NoStructure``, reporting the best residual, when no candidate is
    admissible.
    """
    if not _orthonormal(L):
        raise ValueError("structure detection requires an orthonormal frame metric")
    flat = conn.gamma.ravel()
    scale = 1.0 + math.sqrt(flat @ flat)
    best_res = math.inf
    for u in _candidate_reebs(conn):
        ak = _build_structure(L, conn, pack, u, tol)
        residuals = structure_residuals(L, conn, pack, ak)
        res = max(residuals.values())
        if res <= tol * scale:
            # the structure is frozen once it leaves detection
            object.__setattr__(ak, "residuals", MappingProxyType(residuals))
            return ak
        best_res = min(best_res, res)
    raise NoStructure(
        "no unit Reeb candidate satisfies the almost Kenmotsu 3-h "
        f"identities (best residual {best_res:.3e}, tolerance "
        f"{tol * scale:.3e})"
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
    On the structure's own ``connection``, a detected structure reads the
    ``h_sides`` it was scored with; any other connection is evaluated
    afresh."""
    if conn is ak.connection and ak.h_sides is not None:
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
    scale = 1.0 + float(np.max(np.abs(ricci.components)))
    is_eigen = abs(s_xi_e) <= tol * scale and abs(s_xi_pe) <= tol * scale
    if not is_eigen:
        return XiEigenReport(False, s_xi_e, s_xi_pe, None, None)
    if abs(ak.b) > tol * scale or abs(ak.c) > tol * scale:
        raise InconsistentStructure(
            "Reeb field is a Ricci eigenvector but the adapted constants "
            f"b={ak.b}, c={ak.c} do not vanish"
        )
    lam = ak.lam
    ex = bracket(L, e, xi).components - (e.components - lam * phi_e.components)
    ep = bracket(L, e, phi_e).components
    px = bracket(L, phi_e, xi).components - (
        -lam * e.components + phi_e.components
    )
    residual = float(max(np.max(np.abs(ex)), np.max(np.abs(ep)), np.max(np.abs(px))))
    return XiEigenReport(
        True,
        s_xi_e,
        s_xi_pe,
        {"b": 0.0, "c": 0.0, "f": 2.0, "lambda_constant": True},
        residual,
    )
