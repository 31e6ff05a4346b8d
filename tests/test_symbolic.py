"""The paper's existence picture, proved symbolically.

On the Kenmotsu family with b = c = 0 and g = I, the soliton system A z = k
is derived here in sympy from the defining formulas (Koszul, the curvature
operator, the Ricci trace, the Cotton tensor and its dual, the Lie
derivative of the metric), with lam > 0 a symbol.  A z = k is consistent
exactly where every maximal minor of [A | k] vanishes, so the gcd of those
minors locates the lam that carry a soliton: lam = 1 is its only positive
root, for the Reeb-collinear and the Reeb-orthogonal ansatz alike.  The
engine's own system is the same matrix at sample values of lam.
"""

from functools import reduce
from itertools import combinations

import numpy as np
import pytest
import sympy as sp

from conftest import layers
from cotton3 import SolitonProblem, from_kenmotsu_params
from cotton3.soliton import _assemble_system

LAM = sp.Symbol("lam", positive=True)
UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
# columns of the (xi, e, phi_e, sigma) system used by each ansatz
COLLINEAR = [0, 3]
ORTHOGONAL = [1, 2, 3]
R3 = range(3)


def kenmotsu_constants(lam):
    """c[i][j][k], the e_k component of [e_i, e_j], in the frame (xi, e, phi_e):
    [e, xi] = e - lam phi_e, [phi_e, xi] = -lam e + phi_e, [e, phi_e] = 0."""
    c = [[[sp.Integer(0)] * 3 for _ in R3] for _ in R3]
    c[1][0] = [0, 1, -lam]
    c[0][1] = [0, -1, lam]
    c[2][0] = [0, -lam, 1]
    c[0][2] = [0, lam, -1]
    return c


def soliton_system(lam):
    """A and k of the soliton system over the frame basis, at g = I."""
    c = kenmotsu_constants(lam)
    # 2 g(nabla_i e_j, e_l) = g([e_i, e_j], e_l) - g([e_j, e_l], e_i) + g([e_l, e_i], e_j)
    G = [[[sp.Rational(1, 2) * (c[i][j][l] - c[j][l][i] + c[l][i][j]) for l in R3]
          for j in R3] for i in R3]
    # R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i, e_j] e_k
    R = [[[[sum(G[j][k][m] * G[i][m][l] - G[i][k][m] * G[j][m][l]
                - c[i][j][m] * G[m][k][l] for m in R3)
            for l in R3] for k in R3] for j in R3] for i in R3]
    # S(e_j, e_k) = trace of Z -> R(Z, e_j) e_k
    S = [[sum(R[i][j][k][i] for i in R3) for k in R3] for j in R3]
    # (nabla_i S)(e_j, e_k), then the Cotton tensor, skew in its first two slots
    DS = [[[-sum(G[i][j][m] * S[m][k] + G[i][k][m] * S[j][m] for m in R3)
            for k in R3] for j in R3] for i in R3]
    C3 = [[[DS[i][j][k] - DS[j][i][k] for k in R3] for j in R3] for i in R3]
    # the dual over the skew pair, C(e_i)_j = (1/2) C_nmi eps^nmj, at det g = 1
    C2 = sp.Matrix(3, 3, lambda i, j: sp.Rational(1, 2) * sum(
        C3[n][m][i] * sp.LeviCivita(n, m, j) for n in R3 for m in R3))
    # (Lie_{e_a} g)(e_i, e_j) = g(nabla_i e_a, e_j) + g(e_i, nabla_j e_a)
    cols = [[G[i][a][j] + G[j][a][i] for i, j in UPPER] for a in R3]
    cols.append([-sp.eye(3)[i, j] for i, j in UPPER])
    A = sp.Matrix(cols).T.applyfunc(sp.expand)
    k = sp.Matrix([-C2[i, j] for i, j in UPPER]).applyfunc(sp.expand)
    return A, k, C2.applyfunc(sp.expand)


@pytest.fixture(scope="module")
def system():
    return soliton_system(LAM)


def minors_gcd(M):
    """gcd of the maximal minors of M (more rows than columns)."""
    n = M.shape[1]
    minors = [M.extract(list(rows), list(range(n))).det()
              for rows in combinations(range(M.shape[0]), n)]
    return sp.factor(reduce(sp.gcd, minors))


def positive_roots(p):
    """Distinct positive real roots of the polynomial p in lam."""
    return sorted({r for r in sp.real_roots(sp.Poly(p, LAM)) if r > 0})


def test_cotton_tensor_closed_form(system):
    _, _, C2 = system
    assert C2 == C2.T
    w = 2 * LAM * (LAM**2 - 1)
    assert C2 == sp.diag(0, w, -w).applyfunc(sp.expand)


@pytest.mark.parametrize("cols, expected", [
    pytest.param(COLLINEAR, 4 * LAM * (LAM - 1) * (LAM + 1), id="collinear"),
    pytest.param(ORTHOGONAL, 2 * LAM * (LAM - 1) ** 2 * (LAM + 1) ** 2, id="orthogonal"),
])
def test_consistent_only_at_lam_one(system, cols, expected):
    A, k, _ = system
    d = minors_gcd(A[:, cols].row_join(k))
    assert sp.expand(d - expected) == 0 or sp.expand(d + expected) == 0
    assert positive_roots(d) == [1]


def test_rank_at_lam_one(system):
    A, k, _ = system
    A1, k1 = A.subs(LAM, 1), k.subs(LAM, 1)
    assert k1 == sp.zeros(6, 1)
    # collinear: as many independent columns as unknowns, so only z = 0
    assert A1[:, COLLINEAR].rank() == len(COLLINEAR)
    # orthogonal: one null direction, V = e + phi_e with sigma = 0
    orth = A1[:, ORTHOGONAL]
    assert orth.rank() == 2
    (null,) = orth.nullspace()
    assert null / null[0] == sp.Matrix([1, 1, 0])


@pytest.mark.parametrize("lam", ["1/2", "2", "3"])
def test_engine_system_matches(system, lam):
    A, k, _ = system
    lam = sp.Rational(lam)
    L = from_kenmotsu_params(float(lam), 0.0, 0.0)
    A_num, k_num = _assemble_system(SolitonProblem.build(*layers(L)))
    assert np.array_equal(A_num, np.array(A.subs(LAM, lam), dtype=float))
    assert np.array_equal(k_num, np.array(k.subs(LAM, lam), dtype=float).ravel())
