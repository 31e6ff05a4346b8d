"""Hypothesis properties of the array Cotton chain ``cotton2_array``."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import milnor, rotate_algebra, semidirect
from cotton3 import from_kenmotsu_params, from_nonunimodular
from cotton3.connection_curvature import _chain, _gamma
from cotton3.cotton import cotton2_array
from cotton3.frame_algebra import _metric_frame

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

coeff = st.floats(-3.0, 3.0)
# ad(e1) on span(e2, e3): a general D, and the two real normal forms a general
# draw almost never hits, complex eigenvalues and a Jordan block
actions = st.one_of(
    st.lists(coeff, min_size=4, max_size=4).map(lambda d: np.reshape(d, (2, 2))),
    st.builds(lambda a, b: np.array([[a, -b], [b, a]]), coeff, coeff),
    st.builds(lambda a: np.array([[a, 1.0], [0.0, a]]), coeff),
)
algebras = st.one_of(
    st.builds(milnor, coeff, coeff, coeff),
    st.builds(from_nonunimodular, coeff, coeff),
    st.builds(semidirect, actions),
    st.builds(lambda lam: from_kenmotsu_params(lam, 0.0, 0.0), st.floats(0.05, 5.0)),
    st.builds(lambda b: from_kenmotsu_params(1.0, b, b), coeff),
)
entries = st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9)


@st.composite
def rotations(draw):
    """Rotation matrix of a unit quaternion."""
    w, x, y, z = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    n = np.sqrt(w * w + x * x + y * y + z * z)
    assume(n > 0.1)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def spd(vals):
    B = np.reshape(vals, (3, 3))
    return np.eye(3) + 0.4 * (B @ B.T)


def tol(c):
    # float64 error of the chain; its terms are cubic in the constants
    return 1e-10 * (1.0 + float(np.max(np.abs(c)))) ** 3


@PROPERTY
@given(algebras, entries)
def test_skew_symmetric_and_trace_free(L, vals):
    c, g = L.structure_constants, spd(vals)
    inv, u, _ = _metric_frame(g)
    c3 = _chain(c, _gamma(c, g, inv), u)[2]
    c2 = cotton2_array(c, g)
    ginv = np.linalg.inv(g)
    t = tol(c)
    # (0,3): skew in the first pair, g-trace free in every pair
    assert np.max(np.abs(c3 + c3.transpose(1, 0, 2))) <= t
    for pair in ("ij,ijk->k", "jk,ijk->i", "ik,ijk->j"):
        assert np.max(np.abs(np.einsum(pair, ginv, c3))) <= t
    # (0,2): the dual is symmetric before symmetrization, and g-trace free
    raw = np.stack((c3[1, 2], c3[2, 0], c3[0, 1]), axis=1) @ g
    assert np.max(np.abs(raw - raw.T)) <= t * float(np.max(np.abs(g)))
    assert np.array_equal(c2, c2.T)
    assert abs(np.einsum("ij,ij->", ginv, c2)) <= t


@PROPERTY
@given(algebras, entries, rotations())
def test_frame_rotation_equivariance(L, vals, P):
    # constants rotated by P and g -> P^T g P give C2 -> P^T C2 P
    L = L.with_metric(spd(vals))
    R = rotate_algebra(L, P)
    c2 = cotton2_array(L.structure_constants, L.metric)
    rotated = cotton2_array(R.structure_constants, R.metric)
    assert np.max(np.abs(rotated - P.T @ c2 @ P)) <= tol(R.structure_constants)


@PROPERTY
@given(algebras, entries, st.floats(0.1, 10.0))
def test_metric_scaling(L, vals, t):
    # g -> t g gives C2 -> t^(-1/2) C2
    c, g = L.structure_constants, spd(vals)
    c2 = cotton2_array(c, g)
    assert np.max(np.abs(cotton2_array(c, t * g) - c2 / np.sqrt(t))) <= tol(c)
