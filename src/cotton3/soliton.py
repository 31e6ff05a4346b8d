"""Cotton soliton equation over invariant vector-field ansatz spaces.

A metric g on a frame algebra is a Cotton soliton for a vector field V and
constant sigma when

    (Lie_V g) + C - sigma g = 0,

with C the (0,2) Cotton tensor.  For V invariant (constant frame
coefficients) the Lie derivative is linear in the coefficients, so over a
chosen ansatz space the equation is a linear least-squares system in the
coefficients and sigma.  The system stacks the six upper-triangle
components of the symmetric equation; a solution family is the null space
of the stacked matrix.

Because C is trace free, V = 0 forces sigma = 0 and C = 0: a soliton with
vanishing potential exists only on conformally flat algebras, and such
solutions are called trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection_curvature import ConnectionTable, CurvaturePack
from .frame_algebra import FrameVector, MetricLieAlgebra3, SymBilinear, _svd, _wrap

UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

INFEASIBLE = "infeasible"
TRIVIAL_ONLY = "trivial_only"
STEADY = "steady"
SHRINKING = "shrinking"
EXPANDING = "expanding"


# flat (row-major) indices of the UPPER entries of a 3x3 array and of
# their mirror images below the diagonal
_UPPER_FLAT = np.array([3 * i + j for i, j in UPPER])
_LOWER_FLAT = np.array([3 * j + i for i, j in UPPER])

# the standard frame (e1, e2, e3), the ansatz basis of ``SolitonProblem.build``
_FRAME = tuple(FrameVector(row) for row in np.eye(3))


def _lie_blocks(g: np.ndarray, gamma: np.ndarray, V: np.ndarray) -> np.ndarray:
    """B_n = (V_n gamma) g, B_n[i, j] = g(nabla_{e_i} V_n, e_j), for each
    row V_n of ``V``, so that Lie_{V_n} g = B_n + B_n^T; computed one field
    at a time, so a block does not depend on the fields stacked with it."""
    # gamma_by_field[a, (i, k)] = gamma[i, a, k]
    gamma_by_field = gamma.transpose(1, 0, 2).reshape(3, 9)
    return (V[:, None, :] @ gamma_by_field).reshape(-1, 3, 3).dot(g)


def lie_derivative_metric(
    L: MetricLieAlgebra3, conn: ConnectionTable, v: FrameVector
) -> SymBilinear:
    """Lie derivative of the metric along an invariant field.

    (Lie_V g)(X, Y) = g(nabla_X V, Y) + g(X, nabla_Y V) for the
    Levi-Civita connection; with constant coefficients v_a the derivative
    of V along e_i is v_a nabla_{e_i} e_a.  This is the solve's column
    formula: its upper triangle is bitwise the column of ``v`` in the
    stacked system.
    """
    B = _lie_blocks(L.metric, conn.gamma, v.components[None])[0]
    return SymBilinear(B + B.T)


@dataclass(frozen=True, eq=False)
class SolitonProblem:
    """The soliton equation of one geometry restricted to one ansatz space.

    ``curvature`` is the geometry's ``CurvaturePack``, which holds the
    metric (on its ``algebra``), the connection and the Cotton tensor the
    equation reads.  ``basis`` spans the space of candidate potentials V, a
    tuple of ``FrameVector``; the unknowns are the coefficients of V in that
    basis together with sigma.
    """

    curvature: CurvaturePack
    basis: tuple

    @classmethod
    def build(cls, L, conn, pack):
        """The problem of ``pack``, the curvature of ``L`` under ``conn``,
        over the standard frame (e1, e2, e3); ``ValueError`` when ``L`` is
        not ``pack.algebra`` or ``conn`` is not ``pack.connection``.  For
        another ansatz basis, call the constructor:
        ``SolitonProblem(pack, basis)``.
        """
        if L is not pack.algebra or conn is not pack.connection:
            raise ValueError("pack is not the curvature of L under conn")
        return cls(pack, _FRAME)


def _assemble_system(problem: SolitonProblem):
    """Stack the equation into matrix form A z = k with z = (coeffs, sigma).

    Columns of A are the upper-triangle Lie derivatives of the metric along
    each basis field followed by -vec(g); k = -vec(C) moves the Cotton term
    to the right-hand side.  All basis fields go through one ``_lie_blocks``
    product, so the columns of a sub-basis are bitwise those of the full
    system, and each column is ``lie_derivative_metric`` of its field.
    """
    pack = problem.curvature
    g = pack.algebra.metric
    V = np.array([b.components for b in problem.basis]).reshape(-1, 3)
    n = V.shape[0]
    B = _lie_blocks(g, pack.connection.gamma, V).reshape(n, 9)
    A = np.empty((6, n + 1))
    # the upper triangle of B + B^T, one column per field
    A[:, :n] = (B.take(_UPPER_FLAT, axis=1) + B.take(_LOWER_FLAT, axis=1)).T
    A[:, n] = -g.take(_UPPER_FLAT)
    k = -pack.cotton.cotton2.components.take(_UPPER_FLAT)
    return A, k


def soliton_residual(
    problem: SolitonProblem, v: FrameVector, sigma: float
) -> SymBilinear:
    """Left-hand side Lie_V g + C - sigma g for an explicit candidate."""
    pack = problem.curvature
    lie = lie_derivative_metric(pack.algebra, pack.connection, v).components
    return SymBilinear(lie + pack.cotton.cotton2.components - sigma * pack.algebra.metric)


@dataclass(frozen=True, eq=False)
class SolitonSolution:
    """Least-squares solution of one ansatz problem.

    ``v`` and ``sigma`` come from the minimum-norm solution;
    ``family_basis`` rows span the null space of the stacked system in
    (coeffs, sigma) coordinates, so the full solution set is the min-norm
    point plus that span.  ``residual`` is the Euclidean norm of the six
    stacked equation components at the optimum.
    """

    classification: str
    v: FrameVector
    coefficients: np.ndarray
    sigma: float
    residual: float
    family_dim: int
    family_basis: np.ndarray
    rank: int
    feasible: bool

    def __post_init__(self):
        for name in ("coefficients", "family_basis"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def solve(problem: SolitonProblem, tol: float = 1e-8) -> SolitonSolution:
    """Solve one ansatz problem and classify the outcome.

    Feasibility compares the least-squares residual against
    tol * (1 + |C|_F), |C|_F the pack's ``cotton.norm2``.  One SVD of the
    stacked system (``_svd``, the LAPACK call of ``np.linalg.svd`` without
    its Python dispatch) gives the rank, at the one cutoff 1e-10 s_0, and
    from the same directions the minimum-norm solution and the null space.
    A feasible problem is ``trivial_only`` when the minimum-norm potential
    vanishes and no null-space direction moves the potential; otherwise the
    sign of sigma picks steady, shrinking (sigma > 0) or expanding
    (sigma < 0).  ``soliton_existence_survey`` shares the solve below, so
    one problem gives the same solution on every route.
    """
    A, k = _assemble_system(problem)
    return _solve(A, k, problem.basis, 1.0 + problem.curvature.cotton.norm2, tol)


def _solve(A, k, basis, c_scale: float, tol: float) -> SolitonSolution:
    """Solve and classify the assembled system A z = k (see ``solve``).

    One ``_svd``, ``np.linalg.svd``'s LAPACK call bit for bit, decides
    everything: singular values above 1e-10 s_0 give the rank, the
    minimum-norm solution z runs along exactly those directions of V^T and
    the remaining rows span the null space, so z has no component along the
    family the solution reports.  Vector norms are taken as sqrt(r.dot(r)),
    ``np.linalg.norm``'s own vector form; the norms of the family rows'
    potential parts, read only when the solution is feasible, are summed on
    floats in ``np.add.reduce``'s order.  The potential is summed on the
    floats of the coefficients and the basis, from 0 as ``sum`` starts, and
    the solution holds the arrays built here without a copy.
    """
    U, s, Vt = _svd(A)
    sv = s.tolist()
    cut = 1e-10 * max(sv[0], 1e-300)
    rank = sum(x > cut for x in sv)
    # .dot on this column slice of U rounds differently from @
    z = ((k @ U[:, :s.size])[:rank] / s[:rank]).dot(Vt[:rank])
    r = A.dot(z) - k
    residual = math.sqrt(r.dot(r))
    family = Vt[rank:]
    family_dim = family.shape[0]

    coeffs = z[:-1]
    sigma = float(z[-1])
    v = [0.0, 0.0, 0.0]
    for c, b in zip(coeffs.tolist(), basis):
        v = [x + c * y for x, y in zip(v, b.components.tolist())]

    feasible = residual <= tol * c_scale
    if not feasible:
        kind = INFEASIBLE
    else:
        v_moves = any(math.sqrt(sum(x * x for x in row[:-1])) > 1e-10
                      for row in family.tolist())
        if math.sqrt(coeffs.dot(coeffs)) <= 1e-8 and not v_moves:
            kind = TRIVIAL_ONLY
        elif abs(sigma) <= tol * c_scale:
            kind = STEADY
        elif sigma > 0:
            kind = SHRINKING
        else:
            kind = EXPANDING
    return _wrap(
        SolitonSolution,
        classification=kind,
        v=_wrap(FrameVector, components=np.array(v)),
        coefficients=coeffs,
        sigma=sigma,
        residual=residual,
        family_dim=family_dim,
        family_basis=family,
        rank=rank,
        feasible=feasible,
    )


# columns of the (xi, e, phi_e) system, with sigma last, used by each ansatz
_ANSATZ_COLUMNS = {
    "collinear": [0, 3],
    "orthogonal": [1, 2, 3],
    "general": [0, 1, 2, 3],
}


def _solve_ansatze(problem: SolitonProblem, names, tol: float) -> dict:
    """Solve the named ansatz spaces of ``_ANSATZ_COLUMNS`` over the
    three-field basis of ``problem``, keyed by name.

    The full system is assembled once; each ansatz system is a column subset
    of it, bitwise equal to assembling that sub-basis on its own.  The subset
    is taken in C order, the layout of a separately assembled system, so
    that ``A.dot(z) - k`` rounds the same and each solution, residual included,
    is exactly that of ``solve`` on the ansatz problem.
    """
    A, k = _assemble_system(problem)
    c_scale = 1.0 + problem.curvature.cotton.norm2
    out = {}
    for name in names:
        cols = _ANSATZ_COLUMNS[name]
        basis = tuple(problem.basis[i] for i in cols[:-1])
        out[name] = _solve(A.take(cols, axis=1), k, basis, c_scale, tol)
    return out


def soliton_existence_survey(ak, tol: float = 1e-8):
    """Solve the standard ansatz spaces of an adapted structure.

    Runs the potential collinear with the Reeb field, orthogonal to it
    (span of e and phi_e), and the general three-dimensional span,
    returning a dict of ``SolitonSolution`` keyed by ansatz name.  The
    Cotton tensor is the one of the structure's curvature, and the three
    ansatz systems are column subsets of one assembled system, so each
    solution is exactly that of ``solve`` on the ansatz problem.
    """
    problem = SolitonProblem(ak.curvature, ak.adapted_frame)
    return _solve_ansatze(problem, _ANSATZ_COLUMNS, tol)


def _frame_solutions(pack: CurvaturePack, tol: float) -> dict:
    """The collinear and orthogonal ansatz solutions of ``pack``'s geometry
    over the frame (e1, e2, e3), the adapted frame of every (lam, 0, 0)
    member, as column subsets of one assembled system."""
    problem = SolitonProblem(pack, _FRAME)
    return _solve_ansatze(problem, ("collinear", "orthogonal"), tol)
