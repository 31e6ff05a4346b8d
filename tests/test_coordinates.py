"""The Lie derivative of the metric in a coordinate chart.

The diagonal (lam, 0, 0) frame, [E1, E2] = (lam - 1) E2 and
[E1, E3] = -(lam + 1) E3, is realised on R^3 with coordinates (t, x, y) by
E1 = d_t, E2 = e^{(lam-1)t} d_x, E3 = e^{-(lam+1)t} d_y, orthonormal for
g = dt^2 + e^{-2(lam-1)t} dx^2 + e^{2(lam+1)t} dy^2.  A field with constant
frame coefficients has the coordinate Lie derivative
V^r d_r g_mn + g_rn d_m V^r + g_mr d_n V^r, computed here in sympy; read in
the frame it is constant and must equal ``lie_derivative_metric``.
"""

import numpy as np
import pytest
import sympy as sp

from cotton3 import FrameVector, MetricLieAlgebra3
from cotton3.soliton import lie_derivative_metric

T, X, Y = COORDS = sp.symbols("t x y", real=True)
FIELDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, sp.Rational(1, 2)),
          (sp.Rational(-3, 4), sp.Rational(5, 2), -1))


def chart(lam):
    """The frame E_a as rows of coordinate components, and the metric g_mn."""
    frame = sp.diag(1, sp.exp((lam - 1) * T), sp.exp(-(lam + 1) * T))
    metric = sp.diag(1, sp.exp(-2 * (lam - 1) * T), sp.exp(2 * (lam + 1) * T))
    return frame, metric


def coordinate_lie(lam, v):
    """Lie_V g read in the frame, (Lie_V g)(E_a, E_b), for V = v_a E_a."""
    frame, g = chart(lam)
    V = frame.T * sp.Matrix(v)
    lie = sp.Matrix(3, 3, lambda m, n: sum(
        V[r] * sp.diff(g[m, n], COORDS[r])
        + g[r, n] * sp.diff(V[r], COORDS[m])
        + g[m, r] * sp.diff(V[r], COORDS[n]) for r in range(3)))
    return (frame * lie * frame.T).applyfunc(sp.simplify)


def algebra(lam):
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = lam - 1, 1 - lam
    c[0, 2, 2], c[2, 0, 2] = -(lam + 1), lam + 1
    return MetricLieAlgebra3(c, np.eye(3))


@pytest.mark.parametrize("lam", [sp.Rational(1, 2), sp.Integer(1), sp.Integer(2)])
def test_matches_the_coordinate_lie_derivative(lam):
    L = algebra(float(lam))
    for v in FIELDS:
        want = coordinate_lie(lam, v)
        assert not want.free_symbols
        got = lie_derivative_metric(L, FrameVector([float(x) for x in v])).components
        # dyadic constants and coefficients: the engine is exact here
        assert np.array_equal(got, np.array(want, dtype=float))


def test_e2_is_killing_at_one():
    # at lam = 1, E2 = d_x and g does not depend on x
    assert coordinate_lie(sp.Integer(1), (0, 1, 0)) == sp.zeros(3, 3)
    lie = lie_derivative_metric(algebra(1.0), FrameVector([0.0, 1.0, 0.0])).components
    assert not lie.any()
