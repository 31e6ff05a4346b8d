"""Detection's float-side steps, bit for bit against the numpy forms they
replace.

Detection takes its products with ``ndarray.dot`` and every other step on
Python floats: the argmax of row norms, the power-of-two scaling, the cross
products, the traces, the elementwise sums and the pairwise sum of lam^2.
Each test here keeps the numpy expression a step replaced as its reference
and compares bits on one corpus: rotated ``random_valid_algebra`` draws,
the (1, b, b) family (two candidates), the eight verify-paper members (rows
of exactly equal length), the members in the frames t I at t = 2^+-300 and
1e+-30, and rotated (lam, 0, 0) up to lam = 1e14.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import change_basis, random_rotation, random_valid_algebra, rotate_algebra
from cotton3 import NoStructure, almost_kenmotsu, curvature, detect_structure, levi_civita
from cotton3.almost_kenmotsu import (
    _argmax,
    _build_structure,
    _candidate_reebs,
    _fix_sign,
    _longest,
    _normal_form_residual,
    _pow2_scaled,
    _row_crosses,
    _sym_eigvec,
)
from cotton3.cli import _KENMOTSU_MEMBERS, _SOLVABLE_MEMBERS
from cotton3.frame_algebra import from_kenmotsu_params, from_nonunimodular


def _members():
    return ([from_kenmotsu_params(*p) for p in _KENMOTSU_MEMBERS]
            + [from_nonunimodular(*p) for p in _SOLVABLE_MEMBERS])


def corpus():
    rng = np.random.default_rng(36)
    members = _members()
    out = list(members)
    out += [random_valid_algebra(rng, with_metric=i % 3 == 0, rotated=True) for i in range(120)]
    for _ in range(40):
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        out.append(rotate_algebra(from_kenmotsu_params(1.0, b, b), random_rotation(rng)))
    for t in (2.0 ** 300, 2.0 ** -300, 1e30, 1e-30):
        out += [change_basis(L, t * np.eye(3)) for L in members]
    for lam in (1e-3, 0.5, 2.0, 1e3, 1e6, 1e10, 1e14):
        out += [rotate_algebra(from_kenmotsu_params(lam, 0.0, 0.0), random_rotation(rng))
                for _ in range(4)]
    # h = 0 with xi' = P^T xi of two components of equal size: two columns
    # of I - xi eta of equal length, where rounding decides the longest
    for _ in range(150):
        a = rng.uniform(0.2, 0.7)
        v = rng.permutation(np.array([a, a, math.sqrt(1.0 - 2.0 * a * a)]) * rng.choice([-1, 1], 3))
        Q = np.linalg.qr(np.column_stack([v, rng.normal(size=(3, 2))]))[0]
        Q *= np.sign(Q[:, 0] @ v) * np.sign(np.linalg.det(Q))
        out.append(rotate_algebra(from_nonunimodular(1.0, 0.0), Q.T))
    return out


CORPUS = corpus()


def layers(L):
    """The connection and curvature; the Cotton norm overflows in the
    frames 2^300 I."""
    conn = levi_civita(L)
    with np.errstate(over="ignore"):
        return conn, curvature(L, conn)


def frame_inputs(L):
    """L^-1 and the bracket rows c[0, 1], c[0, 2], c[1, 2], as detection
    passes them to ``_candidate_reebs``."""
    return np.array(L._frame[2]), L.structure_constants[(0, 0, 1), (1, 2, 2)]


# ---------------------------------------------------------------------------
# the numpy forms


def numpy_longest(rows):
    best = rows[int(np.einsum("ij,ij->i", rows, rows).argmax())]
    return best, math.sqrt(best.dot(best))


def numpy_crosses(K):
    return np.cross(K[[0, 0, 1]], K[[1, 2, 2]])


def numpy_scaled(K):
    return np.ldexp(K, 1 - math.frexp(float(abs(K).max()))[1])


def numpy_candidate_reebs(L):
    c = L.structure_constants
    Li = np.array(L._frame[2])
    K = numpy_scaled(c[(0, 0, 1), (1, 2, 2)].dot(L.metric).dot(Li.T))
    w, nw = numpy_longest(K)
    n, nn = numpy_longest(numpy_crosses(K))
    t = Li.dot(c.trace(axis1=1, axis2=2))
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
    d = 2.0 / nt
    r = math.sqrt(max(1.0 - d * d, 0.0))
    if r <= 1e-7:
        return [(tp / -nt).dot(Li)]
    u0 = tp * (-d / nt)
    v = numpy_hat(w).dot(tp) / nt
    out = [(u / math.sqrt(u.dot(u))).dot(Li) for u in (u0 + r * v, u0 - r * v)]
    out.sort(key=lambda u: [round(x * 1e12) / 1e12 for x in u.tolist()])
    return out


def numpy_hat(u):
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def numpy_sym_eigvec(M, mu):
    return numpy_longest(numpy_crosses(M - mu * np.eye(3)))[0]


def numpy_fix_sign(v):
    for comp in v.tolist():
        if abs(comp) > 1e-10:
            return v if comp > 0 else -v
    return v


def numpy_fields(L, conn, u, tol=1e-8):
    """``_build_structure``'s fields, each step in its numpy form."""
    g = L.metric
    ginv, _, ((i00, _, _), (_, i11, _), (_, _, i22)) = L._frame
    gamma = conn.gamma
    A = u.dot(gamma).T
    eta = g.dot(u)
    P = np.eye(3) - u[:, None] * eta
    M = P - A
    Msym = 0.5 * (M + ginv.dot(M.T).dot(g))
    lam = math.sqrt(max(float((Msym * Msym.T).sum()) / 2.0, 0.0))
    phi = ginv.dot(numpy_hat(u / i00 / i11 / i22))
    h = (-phi).dot(Msym)
    h = 0.5 * (h + ginv.dot(h.T).dot(g))
    if lam <= tol:
        e = P[:, int(np.argmax(np.einsum("ij,ij->j", P, P)))]
    else:
        e = numpy_sym_eigvec(h, lam)
    s = np.sqrt(e.dot(g).dot(e))
    # a zero e (parallel rows of h - lam I) is refused as non-finite
    e = numpy_fix_sign(e / s if s else np.full(3, np.nan))
    phi_e = phi.dot(e)
    nab_e = e.dot(gamma).dot(g)
    b = -float(e.dot(nab_e).dot(phi_e))
    c = float(phi_e.dot(nab_e).dot(phi_e))
    return {"xi": u, "eta": eta, "phi": phi, "h_op": h, "lam": lam, "b": b, "c": c,
            "f": b * b + c * c + 2.0, "e": e, "phi_e": phi_e, "kenmotsu": lam <= tol}


def fields(ak):
    return {"xi": ak.xi.components, "eta": ak.eta, "phi": ak.phi, "h_op": ak.h_op,
            "lam": ak.lam, "b": ak.b, "c": ak.c, "f": ak.f,
            "e": ak.adapted_frame[1].components, "phi_e": ak.adapted_frame[2].components,
            "kenmotsu": ak.kenmotsu}


def bits(values: dict) -> dict:
    return {k: v if isinstance(v, bool) else np.asarray(v, dtype=float).tobytes()
            for k, v in values.items()}


def numpy_detect(L, conn, tol=1e-8):
    """Detection with the numpy candidates and fields: the fields of the
    accepted candidate, or the ``NoStructure`` message."""
    cands = numpy_candidate_reebs(L)
    if not cands:
        return "no candidate"
    Li = np.array(L._frame[2])
    (i00, _, _), (_, i11, _), (_, _, i22) = L._frame[2]
    Lt = Li.dot(L.metric)
    B = (Lt * (i00 * i11 * i22)).dot(L.structure_constants.reshape(9, 3)[[5, 6, 1]].dot(Lt.T))
    flat = B.ravel()
    limit = tol * (1.0 + math.sqrt(2.0 * flat.dot(flat)))
    best = math.inf
    for u in cands:
        res = _normal_form_residual(B.tolist(), Lt.dot(u).tolist())
        if res <= limit:
            f = numpy_fields(L, conn, u, tol)
            if math.isfinite(f["lam"] + f["f"]):
                return bits(f)
            res = math.nan
        best = min(best, res)
    return f"best residual {best:.3e}, tolerance {limit:.3e}"


# ---------------------------------------------------------------------------
# the steps


def test_argmax_is_numpy_argmax():
    rng = np.random.default_rng(361)
    pool = [0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]
    triples = [tuple(rng.choice(pool, 3)) for _ in range(500)]
    triples += [tuple(rng.normal(size=3)) for _ in range(100)]
    for x in triples:
        assert _argmax(*x) == int(np.argmax(x)), x
    # ties go to the first
    assert [_argmax(1.0, 1.0, 0.0), _argmax(0.0, 1.0, 1.0), _argmax(1.0, 0.0, 1.0)] == [0, 1, 0]


def test_row_norm_steps_equal_numpy_forms():
    # _longest against einsum row norms and argmax; _row_crosses against
    # np.cross; _pow2_scaled against ldexp, on the bracket rows of the
    # corpus, their cross products and rows of equal length
    rows = []
    for L in CORPUS:
        Li, R = frame_inputs(L)
        K = R.dot(L.metric).dot(Li.T)
        rows += [K, numpy_scaled(K), numpy_crosses(numpy_scaled(K))]
    # rows of one length in exact arithmetic, whose einsum norms round
    # apart: the order of the sum decides the longest
    rng = np.random.default_rng(363)
    for x in rng.normal(size=(200, 3)):
        rows.append(np.array([x, x[[0, 2, 1]], x[[2, 1, 0]]]))
    ties = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for K in rows:
            k = K.ravel().tolist()
            assert _longest(k).tobytes() == numpy_longest(K)[0].tobytes()
            assert np.array(_pow2_scaled(k)).tobytes() == numpy_scaled(K).tobytes()
            assert np.array(_row_crosses(k)).tobytes() == numpy_crosses(K).tobytes()
            norms = np.einsum("ij,ij->i", K, K)
            ties += int(np.sum(norms == norms.max()) > 1)
    assert ties >= 8


def test_pow2_scaled_at_the_float_range_ends():
    for K in ([5e-324, -1e-320, 0.0], [1.7e308, -1e308, 3.0], [math.inf, 1e308, -1.0],
              [0.0, -0.0, 0.0], [math.nan, 1.0, 2.0], [1.0, 1.5, -2.0 ** -1074]):
        with np.errstate(over="ignore"):
            want = numpy_scaled(np.array(K))
        assert np.array(_pow2_scaled(K)).tobytes() == want.tobytes()


def test_candidates_equal_numpy_form():
    branches = set()
    for L in CORPUS:
        got, want = _candidate_reebs(L, *frame_inputs(L)), numpy_candidate_reebs(L)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        branches.add(len(got))
    assert branches == {1, 2}


def test_sym_eigvec_equals_numpy_form():
    seen = 0
    for L in CORPUS:
        conn = levi_civita(L)
        for u in numpy_candidate_reebs(L):
            f = numpy_fields(L, conn, u)
            if not f["kenmotsu"]:
                got = _sym_eigvec(f["h_op"], f["lam"])
                assert got.tobytes() == numpy_sym_eigvec(f["h_op"], f["lam"]).tobytes()
                seen += 1
    assert seen >= 100
    # any mu: off the diagonal, M - mu I subtracts mu * 0.0, which is -0.0
    # for mu < 0 and nan for mu not finite
    # rows of M - mu I all parallel give the zero vector on both sides
    rng = np.random.default_rng(364)
    zeros = 0
    with np.errstate(invalid="ignore"):
        for _ in range(200):
            M = rng.choice([0.0, -0.0, 1.0, -2.0, 0.5], size=(3, 3))
            mu = float(rng.choice([-1.0, -0.0, 0.0, 2.0, -0.5, math.inf, math.nan]))
            got = _sym_eigvec(M, mu)
            assert got.tobytes() == numpy_sym_eigvec(M, mu).tobytes()
            zeros += not got.any()
    assert zeros


def test_fix_sign_equals_numpy_form():
    rng = np.random.default_rng(362)
    for v in [rng.normal(size=3) * 10.0 ** rng.integers(-12, 3) for _ in range(300)]:
        assert np.array(_fix_sign(v.tolist())).tobytes() == numpy_fix_sign(v).tobytes()


def test_built_fields_equal_numpy_form():
    # every candidate, accepted or not, with either lam branch
    kinds = set()
    for L in CORPUS:
        conn, pack = layers(L)
        for u in numpy_candidate_reebs(L):
            want = bits(numpy_fields(L, conn, u))
            assert bits(fields(_build_structure(L, conn, pack, u.copy(), 1e-8))) == want
            kinds.add(want["kenmotsu"])
    assert kinds == {True, False}


def test_detection_equals_numpy_form():
    found = 0
    for L in CORPUS:
        conn, pack = layers(L)
        want = numpy_detect(L, conn)
        try:
            got = bits(fields(detect_structure(L, conn, pack)))
            found += 1
        except NoStructure as exc:
            got = "no candidate" if "nonzero tr ad" in str(exc) else str(exc)
            assert isinstance(want, str) and want in got
            continue
        assert got == want
    assert found >= 150


@pytest.mark.parametrize("lam", [1e77, 1e100])
def test_normalisation_scale_changes_only_what_overflowed(lam):
    # e g e of the unscaled e overflows here, and the numpy form returns the
    # zero frame; every other field keeps its bits
    L = from_kenmotsu_params(lam, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        conn, pack = layers(L)
        (u,) = numpy_candidate_reebs(L)
        want = bits(numpy_fields(L, conn, u))
        got = bits(fields(_build_structure(L, conn, pack, u.copy(), 1e-8)))
    assert np.frombuffer(want["e"]).tolist() == [0.0, 0.0, 0.0]
    assert np.frombuffer(got["e"]).tolist() == [0.0, 1.0, 0.0]
    for key in ("xi", "eta", "phi", "h_op", "lam", "kenmotsu"):
        assert got[key] == want[key]



@pytest.mark.parametrize("lam", [1e77, 1e100, 1e150])
def test_large_lambda_takes_no_eigenvector_length(lam):
    # the cross product's squared length overflowed here, with a warning;
    # no length is taken, and e keeps unit g-length
    L = from_kenmotsu_params(lam, 0.0, 0.0)
    with np.errstate(invalid="ignore"):  # the curvature's terms overflow at 1e150
        conn, pack = layers(L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ak = detect_structure(L, conn, pack)
    e = ak.adapted_frame[1].components
    assert e.tolist() == [0.0, 1.0, 0.0]
    assert e.dot(L.metric).dot(e) == 1.0


def test_zero_eigenvector_is_refused(monkeypatch):
    # parallel rows of h - lam I give a zero cross product: e is nan on both
    # sides, and detection refuses the candidate instead of dividing by zero
    def zero(M, mu):
        return np.zeros(3)
    monkeypatch.setattr(almost_kenmotsu, "_sym_eigvec", zero)
    monkeypatch.setitem(globals(), "numpy_sym_eigvec", zero)
    L = from_kenmotsu_params(2.0, 0.0, 0.0)
    conn, pack = layers(L)
    (u,) = numpy_candidate_reebs(L)
    got = fields(_build_structure(L, conn, pack, u.copy(), 1e-8))
    assert np.isnan(got["e"]).all() and math.isnan(got["f"])
    assert bits(got) == bits(numpy_fields(L, conn, u))
    with pytest.raises(NoStructure, match="no unit Reeb candidate satisfies"):
        detect_structure(L, conn, pack)
