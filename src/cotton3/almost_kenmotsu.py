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
  the unit solutions are at most two points on a line, plus the normalised
  minimum-norm solution as a best fit: at most three candidates;
* on a unimodular algebra tau = 0, the system has no solution and there is
  no structure (Milnor, "Curvatures of left invariant metrics on Lie
  groups", Adv. Math. 21, 1976).

Every candidate is verified against the full invariant list before
acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection_curvature import ConnectionTable, CurvaturePack
from .errors import InconsistentStructure, NoStructure
from .frame_algebra import (
    DEFAULT_TOL,
    FrameVector,
    MetricLieAlgebra3,
    SymBilinear,
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
    the layers of ``algebra`` the structure was verified against.
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
    """Unit eigenvector of symmetric M for a known eigenvalue mu."""
    K = M - mu * np.eye(3)
    cands = [
        np.cross(K[0], K[1]),
        np.cross(K[0], K[2]),
        np.cross(K[1], K[2]),
    ]
    norms = [np.linalg.norm(v) for v in cands]
    best = int(np.argmax(norms))
    if norms[best] <= 1e-10 * (1.0 + np.linalg.norm(M)):
        # (near) repeated eigenvalue: fall back to the smallest singular
        # direction, which is still deterministic
        _, _, Vt = np.linalg.svd(K)
        return Vt[-1] / np.linalg.norm(Vt[-1])
    return cands[best] / norms[best]


def _reeb_shape_system(conn: ConnectionTable):
    """Affine system encoding the linear Reeb-shape conditions.

    For a candidate u, the form B_u(X, Y) = g(nabla_X u, Y) is linear in u;
    its three skew components must vanish and trace(nabla u) must equal 2.
    Returns (Sk, tau): Sk @ u = skew components, tau @ u = trace.
    """
    gamma = conn.gamma
    Sk = np.empty((3, 3))
    for a in range(3):
        Ba = gamma[:, a, :]
        Sk[:, a] = (
            Ba[0, 1] - Ba[1, 0],
            Ba[0, 2] - Ba[2, 0],
            Ba[1, 2] - Ba[2, 1],
        )
    tau = np.einsum("iai->a", gamma)
    return Sk, tau


def _candidate_reebs(conn: ConnectionTable) -> list[np.ndarray]:
    """Unit solutions of the affine Reeb-shape system, best-fitting first.

    Every solution is u0 + w with u0 the minimum-norm solution and w in the
    null space, which has at most one dimension (see the module docstring).
    The unit ones are u0 +- r w for a unit null vector w and
    r = sqrt(1 - |u0|^2); u0/|u0| is listed too, as the best fit when the
    null space is trivial.  An inconsistent system (u0 = 0) gives none.
    """
    Sk, tau = _reeb_shape_system(conn)
    A_sys = np.vstack([Sk, tau])
    u0, *_ = np.linalg.lstsq(A_sys, np.array([0.0, 0.0, 0.0, 2.0]), rcond=None)
    n0 = float(np.linalg.norm(u0))
    if n0 <= 1e-12:
        return []
    _, s, Vt = np.linalg.svd(A_sys)
    null = Vt[s <= 1e-10 * max(s[0], 1.0)]
    r = math.sqrt(max(1.0 - n0 * n0, 0.0))
    raw = [u0 / n0] + [u0 + sign * r * w for w in null for sign in (1.0, -1.0)]

    out: list[np.ndarray] = []
    for u in raw:
        n = np.linalg.norm(u)
        if not np.isfinite(n) or n < 1e-12:
            continue
        u = u / n
        if any(float(u @ v) > 1.0 - 1e-9 for v in out):
            continue
        out.append(u)

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
    A = np.einsum("a,iak->ki", u, gamma)
    P = np.eye(3) - np.outer(u, u)
    M = P - A  # candidate for phi h; symmetric trace free when u is genuine
    Msym = 0.5 * (M + M.T)
    lam = math.sqrt(max(float(np.sum(Msym * Msym)) / 2.0, 0.0))
    kenmotsu = lam <= tol

    phi = _hat(u)
    h = -phi @ Msym
    h = 0.5 * (h + h.T)
    if kenmotsu:
        norms = [np.linalg.norm(P[:, k]) for k in range(3)]
        e = P[:, int(np.argmax(norms))]
        e = _fix_sign(e / np.linalg.norm(e))
    else:
        e = _fix_sign(_sym_eigvec(h, lam))
    phi_e = phi @ e
    nab_ee = np.einsum("i,j,ijk->k", e, e, gamma)
    nab_pe = np.einsum("i,j,ijk->k", phi_e, e, gamma)
    b = -float(nab_ee @ phi_e)
    c = float(nab_pe @ phi_e)
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
    """Max component of d Phi - 2 eta ^ Phi for invariant fields."""
    c = L.structure_constants
    g = L.metric
    eta = g @ xi
    Phi = g @ phi
    term = np.einsum("ijm,mk->ijk", c, Phi)
    dphi = -(term + np.transpose(term, (1, 2, 0)) + np.transpose(term, (2, 0, 1)))
    wedge = (
        np.einsum("i,jk->ijk", eta, Phi)
        + np.einsum("j,ki->ijk", eta, Phi)
        + np.einsum("k,ij->ijk", eta, Phi)
    )
    return float(np.max(np.abs(dphi - 2.0 * wedge)))


def _h_transport_sides(ak: AKStructure, gamma: np.ndarray, riemann: np.ndarray):
    """nabla_xi h from the connection, and the curvature expression
    -phi - 2h - phi h^2 - phi l (l the Jacobi operator along xi) that it
    equals on an almost Kenmotsu structure."""
    xi, h, phi = ak.xi.components, ak.h_op, ak.phi
    n_xi = np.einsum("a,ajk->kj", xi, gamma)
    l = np.einsum("ijkl,j,k->li", riemann, xi, xi)
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
    """
    g = L.metric
    c = L.structure_constants
    gamma = conn.gamma
    xi = ak.xi.components
    eta, phi, h = ak.eta, ak.phi, ak.h_op
    lam = ak.lam
    e = ak.adapted_frame[1].components
    phi_e = ak.adapted_frame[2].components
    ident = np.eye(3)

    res = {}
    res["xi_unit"] = abs(float(xi @ g @ xi) - 1.0)
    res["phi_square"] = float(np.max(np.abs(phi @ phi + ident - np.outer(xi, eta))))
    res["phi_compat"] = float(np.max(np.abs(phi.T @ g @ phi - g + np.outer(eta, eta))))
    res["h_xi"] = float(np.max(np.abs(h @ xi)))
    res["h_trace"] = abs(float(np.trace(h)))
    res["h_symmetric"] = float(np.max(np.abs(h - h.T)))
    res["h_phi_anticommute"] = float(np.max(np.abs(h @ phi + phi @ h)))
    res["trace_h_phi"] = abs(float(np.trace(h @ phi)))

    A = np.einsum("a,iak->ki", xi, gamma)
    shape = A - (ident - np.outer(xi, eta) - phi @ h)
    res["reeb_gradient"] = float(np.max(np.abs(shape)))

    transport_mat, curv_mat = _h_transport_sides(ak, gamma, pack.riemann)
    res["h_transport"] = float(np.max(np.abs(transport_mat)))
    res["curvature_identity"] = float(np.max(np.abs(curv_mat)))

    adxi = np.einsum("a,ajk->kj", xi, c)
    res["h_lie_oracle"] = float(np.max(np.abs(h - 0.5 * (adxi @ phi - phi @ adxi))))

    res["h_eigen"] = max(
        float(np.max(np.abs(h @ e - lam * e))),
        float(np.max(np.abs(h @ phi_e + lam * phi_e))),
    )

    res["d_eta"] = float(np.max(np.abs(np.einsum("ijk,k->ij", c, eta))))
    res["d_phi"] = _dphi_residual(L, xi, phi)

    if not ak.kenmotsu:
        E = np.column_stack([xi, e, phi_e])
        ad_gamma = np.einsum("ia,jb,ijk,kc->abc", E, E, gamma, E)
        res["adapted_connection"] = float(
            np.max(np.abs(ad_gamma - adapted_connection_table(lam, ak.b, ak.c)))
        )
    return res


def detect_structure(
    L: MetricLieAlgebra3,
    conn: ConnectionTable,
    pack: CurvaturePack,
    tol: float = 1e-8,
) -> AKStructure:
    """Find the almost Kenmotsu 3-h structure of an orthonormal algebra.

    Raises ``NoStructure`` when no unit Reeb candidate satisfies all
    structure identities within ``tol`` (scaled by the connection size).
    The search is deterministic; among multiple admissible candidates the
    one with the smallest total residual (ties broken lexicographically)
    is returned.
    """
    if float(np.max(np.abs(L.metric - np.eye(3)))) > 1e-9:
        raise ValueError("structure detection requires an orthonormal frame metric")
    scale = 1.0 + float(np.linalg.norm(conn.gamma))
    best = None
    best_res = math.inf
    for u in _candidate_reebs(conn):
        ak = _build_structure(L, conn, pack, u, tol)
        res = max(structure_residuals(L, conn, pack, ak).values())
        if res < best_res:
            best, best_res = ak, res
    if best is None or best_res > tol * scale:
        raise NoStructure(
            "no unit Reeb candidate satisfies the almost Kenmotsu 3-h "
            f"identities (best residual {best_res:.3e}, tolerance "
            f"{tol * scale:.3e})"
        )
    return best


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
