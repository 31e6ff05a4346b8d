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
    instead of recomputing.  Only detection sets it: it is not a
    constructor argument, so a structure built by hand or derived with
    ``dataclasses.replace`` has ``None`` and is evaluated afresh.
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

    def __post_init__(self):
        for name in ("eta", "phi", "h_op"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def adapted_connection_table(lam: float, b: float, c: float) -> np.ndarray:
    """Connection coefficients of the adapted frame (xi, e, phi_e).

    gamma[a, b, c] is the component of nabla_{E_a} E_b along E_c.  The
    nabla_xi row vanishes identically; the remaining rows are forced by the
    structure equations once (lam, b, c) are constants.
    """
    gamma = np.zeros((3, 3, 3))
    gamma[1, 0] = (0.0, 1.0, -lam)
    gamma[1, 1] = (-1.0, 0.0, -b)
    gamma[1, 2] = (lam, b, 0.0)
    gamma[2, 0] = (0.0, -lam, 1.0)
    gamma[2, 1] = (lam, 0.0, c)
    gamma[2, 2] = (-1.0, -c, 0.0)
    return gamma


def _hat(u: np.ndarray) -> np.ndarray:
    """Cross-product matrix: _hat(u) @ x = u x x."""
    return np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )


def _fix_sign(v: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Deterministic sign: first component beyond tol is made positive."""
    for comp in v:
        if abs(comp) > tol:
            return v if comp > 0 else -v
    return v


def _sym_eigvec(M: np.ndarray, mu: float) -> np.ndarray:
    """Unit eigenvector of symmetric M for a known eigenvalue mu: the longest
    cross product of two rows of M - mu I (componentwise, as np.cross)."""
    K = M - mu * np.eye(3)
    a, b = K[[0, 0, 1]], K[[1, 2, 2]]
    cands = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
    best = cands[int(np.argmax(np.einsum("ij,ij->i", cands, cands)))]
    norm = np.linalg.norm(best)
    if norm <= 1e-10 * (1.0 + np.linalg.norm(M)):
        # (near) repeated eigenvalue: fall back to the smallest singular
        # direction, which is still deterministic
        _, _, Vt = np.linalg.svd(K)
        return Vt[-1] / np.linalg.norm(Vt[-1])
    return best / norm


def _reeb_shape_system(conn: ConnectionTable):
    """Affine system encoding the linear Reeb-shape conditions.

    For a candidate u, the form B_u(X, Y) = g(nabla_X u, Y) is linear in u;
    its three skew components must vanish and trace(nabla u) must equal 2.
    Returns (Sk, tau): Sk @ u = skew components, tau @ u = trace.
    """
    gamma = conn.gamma
    i, j = [0, 0, 1], [1, 2, 2]
    Sk = gamma[i, :, j] - gamma[j, :, i]
    tau = np.einsum("iai->a", gamma)
    return Sk, tau


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
    """
    Sk, tau = _reeb_shape_system(conn)
    A_sys = np.vstack([Sk, tau])
    u0, s, Vt = _svd_lstsq(A_sys, np.array([0.0, 0.0, 0.0, 2.0]))
    n0 = float(np.linalg.norm(u0))
    if n0 <= 1e-12:
        return []
    null = Vt[s <= 1e-10 * max(s[0], 1.0)]
    r = math.sqrt(max(1.0 - n0 * n0, 0.0))
    raw = [u0 + sign * r * w for w in null for sign in (1.0, -1.0)] if r > 1e-7 else []
    out = [u / np.linalg.norm(u) for u in raw or [u0]]
    if len(out) == 1:
        return out

    def key(u):
        score = float(np.sum((Sk @ u) ** 2) + (tau @ u - 2.0) ** 2)
        return (round(score, 12), tuple(np.round(u, 12)))

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
    """
    gamma = conn.gamma
    A = (u @ gamma).T
    P = np.eye(3) - np.outer(u, u)
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
    return AKStructure(
        algebra=L,
        xi=FrameVector(u),
        eta=L.metric @ u,
        phi=phi,
        h_op=h,
        lam=lam,
        b=b,
        c=c,
        f=b * b + c * c + 2.0,
        adapted_frame=(FrameVector(u), FrameVector(e), FrameVector(phi_e)),
        kenmotsu=kenmotsu,
        connection=conn,
        curvature=pack,
    )


def _dphi_residual(L: MetricLieAlgebra3, xi: np.ndarray, phi: np.ndarray) -> float:
    """Max component of d Phi - 2 eta ^ Phi for invariant fields.

    Both terms are cyclic sums over the slots (i, j, k): d Phi of
    -Phi([e_i, e_j], e_k), and 2 eta ^ Phi of 2 eta_i Phi_jk.
    """
    Phi = L.metric @ phi
    eta = L.metric @ xi
    t = L.structure_constants @ Phi + 2.0 * eta[:, None, None] * Phi
    return float(np.max(np.abs(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))))


def _h_transport_sides(ak: AKStructure, gamma: np.ndarray, riemann: np.ndarray):
    """nabla_xi h from the connection, and the curvature expression
    -phi - 2h - phi h^2 - phi l (l the Jacobi operator along xi) that it
    equals on an almost Kenmotsu structure."""
    xi, h, phi = ak.xi.components, ak.h_op, ak.phi
    n_xi = (xi @ gamma.reshape(3, 9)).reshape(3, 3).T
    l = _jacobi(riemann, xi)
    return n_xi @ h - h @ n_xi, -phi - 2.0 * h - phi @ h @ h - phi @ l


def structure_residuals(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    ak: AKStructure,
) -> dict:
    """Absolute residuals of every defining identity of the structure.

    All entries vanish (to float precision) on a genuine almost Kenmotsu
    3-h algebra; the largest one is the acceptance score for detection.
    The 3x3 residual matrices are reduced together, in one stack.  Given
    the structure's own ``algebra``, ``connection`` and ``curvature`` (the
    same objects), a detected structure returns a fresh copy of the dict it
    was accepted under; any other layers are evaluated afresh.
    """
    if ak.residuals is not None and (
        L is ak.algebra and conn is ak.connection and pack is ak.curvature
    ):
        return dict(ak.residuals)
    g = L.metric
    c = L.structure_constants
    gamma = conn.gamma
    xi = ak.xi.components
    eta, phi, h = ak.eta, ak.phi, ak.h_op
    lam = ak.lam
    E = np.column_stack([v.components for v in ak.adapted_frame])
    ident = np.eye(3)
    xi_eta = np.outer(xi, eta)
    transport_mat, curv_mat = _h_transport_sides(ak, gamma, pack.riemann)
    adxi = (xi @ c.reshape(3, 9)).reshape(3, 3).T
    mats = np.array([
        phi @ phi + ident - xi_eta,
        phi.T @ g @ phi - g + np.outer(eta, eta),
        h - h.T,
        h @ phi + phi @ h,
        (xi @ gamma).T - (ident - xi_eta - phi @ h),
        transport_mat,
        curv_mat,
        h - 0.5 * (adxi @ phi - phi @ adxi),
        c @ eta,
    ])
    (phi_square, phi_compat, h_symmetric, h_phi_anticommute, reeb_gradient,
     h_transport, curvature_identity, h_lie_oracle, d_eta) = (
        np.abs(mats).max(axis=(1, 2)).tolist()
    )
    # columns: h xi, h e - lam e, h phi_e + lam phi_e
    h_xi, h_e, h_pe = np.abs(h @ E - E * (0.0, lam, -lam)).max(axis=0).tolist()

    res = {
        "xi_unit": abs(float(xi @ g @ xi) - 1.0),
        "phi_square": phi_square,
        "phi_compat": phi_compat,
        "h_xi": h_xi,
        "h_trace": abs(float(np.trace(h))),
        "h_symmetric": h_symmetric,
        "h_phi_anticommute": h_phi_anticommute,
        "trace_h_phi": abs(float(np.trace(h @ phi))),
        "reeb_gradient": reeb_gradient,
        "h_transport": h_transport,
        "curvature_identity": curvature_identity,
        "h_lie_oracle": h_lie_oracle,
        "h_eigen": max(h_e, h_pe),
        "d_eta": d_eta,
        "d_phi": _dphi_residual(L, xi, phi),
    }
    if not ak.kenmotsu:
        # gamma in the adapted frame: sum_ijk E[i, a] E[j, b] gamma[i, j, k] E[k, c]
        ad_gamma = (E.T @ (E.T @ gamma @ E).reshape(3, 9)).reshape(3, 3, 3)
        res["adapted_connection"] = float(
            np.max(np.abs(ad_gamma - adapted_connection_table(lam, ak.b, ak.c)))
        )
    return res


def _orthonormal(L: MetricLieAlgebra3) -> bool:
    """Whether the frame metric is the identity to within 1e-9, as structure
    detection requires."""
    return float(np.max(np.abs(L.metric - np.eye(3)))) <= 1e-9


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
    as ``residuals``.  Raises ``NoStructure``, reporting the best residual,
    when no candidate is admissible.
    """
    if not _orthonormal(L):
        raise ValueError("structure detection requires an orthonormal frame metric")
    scale = 1.0 + float(np.linalg.norm(conn.gamma))
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
    route reads ``ak.curvature``, which detection computed from ``conn``."""
    transport_mat, curv_mat = _h_transport_sides(ak, conn.gamma, ak.curvature.riemann)
    transport = float(np.max(np.abs(transport_mat)))
    curv = float(np.max(np.abs(curv_mat)))
    gap = float(np.max(np.abs(transport_mat - curv_mat)))
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
