"""Shared corpus generators for the randomized property tests, and the
Jacobi oracle.

Every generator takes a ``numpy.random.Generator`` so each test controls
its own seed; nothing here keeps global state.
"""

import sys

import numpy as np

from cotton3 import (
    MetricLieAlgebra3,
    curvature,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
)


def layers(L: MetricLieAlgebra3) -> tuple:
    """(L, conn, pack): the algebra with its connection and curvature,
    built once, the arguments of ``cotton_pack`` and ``SolitonProblem.build``."""
    conn = levi_civita(L)
    return L, conn, curvature(L, conn)


def patch_engine(monkeypatch, name: str, fn) -> None:
    """Bind ``fn`` over ``name`` in every loaded ``cotton3.*`` module that
    binds it.  A private helper is called through each importing module's
    own binding, so a counter set on its home module alone misses the
    calls made from the others."""
    for modname, mod in sorted(sys.modules.items()):
        if modname.startswith("cotton3.") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, fn)


def brute_jacobi(c) -> np.ndarray:
    """Independent cyclic-sum oracle, written as explicit loops: the rank-4
    array [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]."""
    res = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                term = np.zeros(3)
                for m in range(3):
                    term += c[i, j, m] * c[m, k]
                    term += c[j, k, m] * c[m, i]
                    term += c[k, i, m] * c[m, j]
                res[i, j, k] = term
    return res


def milnor(c1: float, c2: float, c3: float) -> MetricLieAlgebra3:
    """Unimodular algebra in a diagonalizing frame.

    [e2, e3] = c1 e1,  [e3, e1] = c2 e2,  [e1, e2] = c3 e3; the Jacobi
    identity holds for every (c1, c2, c3).
    """
    sc = np.zeros((3, 3, 3))
    sc[1, 2, 0] = c1
    sc[2, 1, 0] = -c1
    sc[2, 0, 1] = c2
    sc[0, 2, 1] = -c2
    sc[0, 1, 2] = c3
    sc[1, 0, 2] = -c3
    return MetricLieAlgebra3(sc)


def semidirect(D) -> MetricLieAlgebra3:
    """R acting on R^2 by the 2x2 matrix D: [e1, e2] = D11 e2 + D21 e3,
    [e1, e3] = D12 e2 + D22 e3.  Every non-unimodular algebra is one of
    these (Milnor 1976); the Jacobi identity holds for every D."""
    D = np.asarray(D, dtype=float)
    c = np.zeros((3, 3, 3))
    c[0, 1, 1:] = D[:, 0]
    c[0, 2, 1:] = D[:, 1]
    c[1, 0] = -c[0, 1]
    c[2, 0] = -c[0, 2]
    return MetricLieAlgebra3(c)


def abelian() -> MetricLieAlgebra3:
    return MetricLieAlgebra3(np.zeros((3, 3, 3)))


def su2_round() -> MetricLieAlgebra3:
    """Equal Milnor constants: the round-sphere geometry (curvature +1)."""
    return milnor(2.0, 2.0, 2.0)


def heisenberg() -> MetricLieAlgebra3:
    return milnor(0.0, 0.0, 1.0)


def hyperbolic() -> MetricLieAlgebra3:
    """Constant curvature -1 as the alpha=1, beta=0 solvable algebra."""
    return from_nonunimodular(1.0, 0.0)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation: QR of a Gaussian matrix, determinant fixed to +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_algebra(L: MetricLieAlgebra3, P: np.ndarray) -> MetricLieAlgebra3:
    """Express the algebra in the rotated frame e'_i = sum_a P[a, i] e_a.

    For orthogonal P the metric stays the identity and the constants
    transform by conjugation in every slot.
    """
    c = np.einsum(
        "ai,bj,abk,kl->ijl", P, P, L.structure_constants, P
    )
    return MetricLieAlgebra3(c, P.T @ L.metric @ P)


def change_basis(L: MetricLieAlgebra3, P: np.ndarray) -> MetricLieAlgebra3:
    """Express the algebra in the frame e'_i = sum_a P[a, i] e_a, for any
    invertible P: the lower indices map by P and the upper one by P^-1,
    c'[i, j, l] = sum P[a, i] P[b, j] c[a, b, k] P^-1[l, k], and the
    metric becomes P^T g P."""
    c = np.einsum(
        "ai,bj,abk,lk->ijl", P, P, L.structure_constants, np.linalg.inv(P)
    )
    return MetricLieAlgebra3(c, P.T @ L.metric @ P)


def random_basis_change(rng: np.random.Generator, max_cond: float = 1e3) -> np.ndarray:
    """A Gaussian 3x3 matrix P with cond(P^T P) <= max_cond, by rejection."""
    while True:
        P = rng.normal(size=(3, 3))
        if np.linalg.cond(P.T @ P) <= max_cond:
            return P


def random_spd(rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random symmetric positive definite 3x3 matrix."""
    B = rng.normal(size=(3, 3))
    return np.eye(3) + 0.4 * (B @ B.T)


def random_kenmotsu(rng: np.random.Generator) -> MetricLieAlgebra3:
    """Random member of the closed-bracket families of the adapted frame."""
    if rng.random() < 0.5:
        lam = float(rng.uniform(0.05, 5.0))
        return from_kenmotsu_params(lam, 0.0, 0.0)
    b = float(rng.uniform(-4.0, 4.0))
    return from_kenmotsu_params(1.0, b, b)


def random_valid_algebra(
    rng: np.random.Generator,
    with_metric: bool = False,
    rotated: bool = False,
) -> MetricLieAlgebra3:
    """A random Jacobi-valid algebra drawn from three closed families."""
    kind = rng.integers(3)
    if kind == 0:
        L = milnor(*rng.uniform(-3.0, 3.0, size=3))
    elif kind == 1:
        L = from_nonunimodular(*rng.uniform(-3.0, 3.0, size=2))
    else:
        L = random_kenmotsu(rng)
    if rotated:
        L = rotate_algebra(L, random_rotation(rng))
    if with_metric:
        L = L.with_metric(random_spd(rng))
    return L


def near_singular_metric(rng: np.random.Generator) -> np.ndarray:
    """A rotated diag(1, 2, -1e-17) that Cholesky accepts and ``eigh`` reads
    as having a negative eigenvalue: two factorizations disagree on it, so
    every layer must take its verdict from the same one, the metric rule's
    Cholesky pass, which reads it as singular."""
    while True:
        R = random_rotation(rng)
        g = R @ np.diag([1.0, 2.0, -1e-17]) @ R.T
        g = 0.5 * (g + g.T)
        if np.linalg.eigh(g)[0][0] < 0:
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                continue
            return g
