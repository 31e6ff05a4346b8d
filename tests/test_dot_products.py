"""``ndarray.dot`` rounds as the ``@`` operator does, on every operand pair
the engine multiplies with it.

The engine takes its small products with ``a.dot(b)``, which hands 1-D and
2-D pairs straight to BLAS, where ``@`` first goes through the matmul
ufunc's dispatch.  The two give the same bits on the numpy and BLAS builds
this package is tested with; a build where they differ fails here, by
operand shape, before any output digest moves.  The same holds for the
float sums the engine takes in place of numpy reductions: ``_solve``'s in
place of ``np.linalg.norm`` over rows, and detection's in place of
``np.einsum`` row and column norms, ``np.trace`` and the nine-term
``np.add.reduce`` of lam^2, each summed in the order that reduction takes.
"""

import math

import numpy as np
import pytest

from conftest import random_spd, random_valid_algebra
from cotton3.frame_algebra import FrameVector
from cotton3.soliton import STEADY, TRIVIAL_ONLY, _solve
from cotton3.connection_curvature import _DUAL, _KOSZUL, _ROLL, _SWAP, _TRACE
from cotton3.cotton import cotton2_array
from cotton3.frame_algebra import _metric_frame

# (shape of a, shape of b) of every product the engine takes with .dot
DOT_SHAPES = [
    ((9, 3), (3, 3)),  # _koszul, _gamma
    ((27,), (27, 27)),  # _koszul
    ((9, 3), (3, 9)),  # _riemann: bracket term
    ((27,), (27, 3)),  # _ricci: the trace t
    ((9, 3), (3,)),  # _ricci
    ((3, 9), (9, 3)),  # _ricci
    ((3, 3, 3), (3, 3)),  # _cov_deriv, _dphi_residual, _assemble_system
    ((2, 3, 3), (3, 3)),  # _assemble_system on smaller bases
    ((1, 3, 3), (3, 3)),
    ((3, 3), (3, 3)),  # _cotton2, curvature, ricci_spectrum, cli; detection: L^T
    # and the orthonormal brackets, and in _build_structure the self-adjoint
    # parts and phi
    ((3,), (3, 3, 3, 3)),  # _jacobi
    ((3,), (3, 3, 3)),  # _jacobi, structure_residuals, _build_structure (u gamma, e gamma)
    ((3,), (3, 9)),  # _h_transport_sides, structure_residuals
    ((3, 3), (3, 9)),  # structure_residuals: the adapted connection
    ((3, 3), (3,)),  # _dphi_residual; _candidate_reebs (w x t), _build_structure
    # (eta, phi e)
    ((3,), (3, 3)),  # structure_residuals, evaluate, _solve; detect_structure (a
    # candidate to the input frame), _build_structure (e g, nabla_e e and phi_e)
    ((3,), (3,)),  # structure_residuals; _longest, _candidate_reebs (tr ad of n and
    # w), _build_structure (e g e, b and c)
    ((6, 2), (2,)),  # _solve: A z for each ansatz width
    ((6, 3), (3,)),
    ((6, 4), (4,)),
    ((2,), (2, 2)),  # _solve: (y / s) Vt at full rank, for each ansatz width
    ((4,), (4, 4)),
    ((1,), (1, 2)),  # _solve: (y / s) Vt over the leading rank rows of Vt
    ((1,), (1, 3)),
    ((2,), (2, 3)),
    ((1,), (1, 4)),
    ((2,), (2, 4)),
    ((3,), (3, 4)),
]
# not listed: _solve keeps k @ U[:, :n] on @, because on that column slice
# of U, .dot gave other bits for about 40% of random 6 x n systems

# lengths of the vectors x whose norm the engine takes as sqrt(x.dot(x));
# for one entry .dot returns the product itself where @ sums it from +0,
# which tells -0 from +0 for two operands but never for x x
NORM_LENGTHS = [1, 2, 3, 6, 9, 27]


def _operand(rng, shape, fortran):
    """Normal entries at one of the scales 1, 1e150, 1e-150 or 10^U(-3, 3),
    with about a fifth exact +0 and a tenth exact -0; a 2-D operand in
    Fortran order when ``fortran``, as a transposed view is."""
    scale = 10.0 ** rng.choice([0.0, 150.0, -150.0, rng.uniform(-3.0, 3.0)])
    x = rng.normal(size=shape) * scale
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return np.asfortranarray(x) if fortran else x


@pytest.mark.parametrize("shapes", DOT_SHAPES, ids=lambda s: "x".join(
    ".".join(map(str, shape)) for shape in s))
def test_dot_rounds_as_matmul(shapes):
    sa, sb = shapes
    rng = np.random.default_rng(sum(sa) * 31 + sum(sb))
    # C and Fortran order for every 2-D operand
    layouts = [(fa, fb) for fa in (False, True)[:1 + (len(sa) == 2)]
               for fb in (False, True)[:1 + (len(sb) == 2)]]
    for fa, fb in layouts:
        for _ in range(500):
            a, b = _operand(rng, sa, fa), _operand(rng, sb, fb)
            got, want = a.dot(b), a @ b
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (sa, sb, fa, fb)


@pytest.mark.parametrize("n", NORM_LENGTHS)
def test_norm_dot_rounds_as_matmul(n):
    rng = np.random.default_rng(n)
    for _ in range(500):
        x = _operand(rng, (n,), False)
        assert x.dot(x).tobytes() == (x @ x).tobytes()


def test_row_slice_operands_round_as_copies():
    # a 3x3 operand that is a view offset into a larger buffer, as
    # structure_residuals' prod[1] is, rounds as its contiguous copy
    rng = np.random.default_rng(2030)
    for _ in range(500):
        rows = _operand(rng, (5, 3), False)
        b = _operand(rng, (3, 3), bool(rng.integers(2)))
        for view in (rows[:3], rows[2:]):
            assert view.dot(b).tobytes() == np.array(view).dot(b).tobytes()


def test_detection_float_sums_round_as_numpy_reductions():
    # each float sum in the order numpy reduces: einsum row norms as
    # (x0^2 + x2^2) + x1^2, einsum column norms and np.trace in sequence
    # (the trace from +0.0), and nine terms pairwise, ((m0 + m1) + (m2 + m3)) + ((m4 + m5) +
    # (m6 + m7)) + m8
    rng = np.random.default_rng(2031)
    for _ in range(500):
        X = _operand(rng, (3, 3), False)
        x = X.tolist()
        rows = [(a * a + c * c) + b * b for a, b, c in x]
        cols = [(x[0][j] * x[0][j] + x[1][j] * x[1][j]) + x[2][j] * x[2][j] for j in range(3)]
        assert np.array(rows).tobytes() == np.einsum("ij,ij->i", X, X).tobytes()
        assert np.array(cols).tobytes() == np.einsum("ij,ij->j", X, X).tobytes()
        C = _operand(rng, (3, 3, 3), False)
        c = C.ravel().tolist()
        trace = [0.0 + c[9 * a] + c[9 * a + 4] + c[9 * a + 8] for a in range(3)]
        assert np.array(trace).tobytes() == C.trace(axis1=1, axis2=2).tobytes()
        m = (X * X.T).ravel().tolist()
        pairwise = ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7])) + m[8]
        assert np.float64(pairwise).tobytes() == (X * X.T).sum().tobytes()


def cotton2_matmul(c, g):
    """``cotton2_array`` composed with the ``@`` operator, product for
    product: the engine's earlier form of the Cotton chain."""
    ginv, u, _ = _metric_frame(g)
    koszul = ((c.reshape(9, 3) @ g).reshape(27) @ _KOSZUL).reshape(3, 3, 3)
    gamma = (koszul.reshape(9, 3) @ ginv).reshape(3, 3, 3)
    f = gamma.reshape(27)
    gs = f[_SWAP]
    s = (gamma.reshape(9, 3) @ (f @ _TRACE)).reshape(3, 3)
    s -= (gs + c.reshape(27)[_ROLL]) @ gs.reshape(9, 3)
    ricci = 0.5 * (s + s.T)
    p = gamma @ ricci
    d = -(p + p.transpose(0, 2, 1))
    c3 = d - d.transpose(1, 0, 2)
    out = c3.reshape(27)[_DUAL] @ u
    return 0.5 * (out + out.T)


def test_cotton_chain_matches_matmul_composition():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        c = random_valid_algebra(rng, rotated=True).structure_constants
        g = random_spd(rng)
        assert cotton2_array(c, g).tobytes() == cotton2_matmul(c, g).tobytes()


def v_moves_rows(family):
    """Per family row, whether its potential part moves V: ``_solve``'s
    float form."""
    return [math.sqrt(sum(x * x for x in row[:-1])) > 1e-10 for row in family.tolist()]


def test_v_moves_float_sum_equals_row_norms():
    # the float sum rounds as np.linalg.norm(..., axis=1) does, on null-space
    # rows of rank-deficient systems and on rows whose potential part is
    # 1e-10 to within a few ulp, on either side
    rng = np.random.default_rng(2028)
    families = []
    for n in (2, 3, 4):
        for _ in range(200):
            # the last column a sum of the others, or zero: rank n - 1
            A = rng.integers(-4, 5, size=(6, n)).astype(float)
            A[:, -1] = A[:, :-1].sum(axis=1) if rng.integers(2) else 0.0
            _, sv, Vt = np.linalg.svd(A)
            family = Vt[int(np.sum(sv > 1e-10 * sv[0])):]
            assert family.shape[0] >= 1
            families.append(family)
        for _ in range(200):
            row = rng.normal(size=n)
            row[:-1] *= 1e-10 / np.linalg.norm(row[:-1])
            steps = rng.integers(-4, 5)
            for _ in range(abs(steps)):
                row[0] = np.nextafter(row[0], math.copysign(math.inf, steps * row[0]))
            families.append(row[None, :])
    decided = set()
    for family in families:
        norms = np.linalg.norm(family[:, :-1], axis=1)
        floats = [math.sqrt(sum(x * x for x in row[:-1])) for row in family.tolist()]
        assert [x.hex() for x in floats] == [float(x).hex() for x in norms]
        assert v_moves_rows(family) == (norms > 1e-10).tolist()
        decided.update(v_moves_rows(family))
    assert decided == {True, False}


def test_solve_decides_v_moves_as_row_norms():
    # A z = 0 with a one-dimensional null space along (t w, 1), |w| = 1 and
    # t near 1e-10: the family row's potential part straddles the cutoff, and
    # the solution is steady exactly where the row norm moves V
    rng = np.random.default_rng(2029)
    seen = set()
    for n in (2, 3, 4):
        for _ in range(300):
            pot = rng.normal(size=(6, n - 1))
            w = rng.normal(size=n - 1)
            w /= np.linalg.norm(w)
            t = 1e-10 * (1.0 + rng.uniform(-1e-5, 1e-5))
            A = np.column_stack([pot, -t * pot.dot(w)])
            sol = _solve(A, np.zeros(6), tuple(FrameVector(e) for e in np.eye(3)[: n - 1]),
                         2.0, 1e-8)
            assert sol.family_dim == 1
            family = sol.family_basis
            moves = bool(np.any(np.linalg.norm(family[:, :-1], axis=1) > 1e-10))
            assert sol.classification == (STEADY if moves else TRIVIAL_ONLY)
            seen.add(moves)
    assert seen == {True, False}
