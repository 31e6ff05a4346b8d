"""Cotton tensors: invariants, dual identities, and closed-form values."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    abelian,
    hyperbolic,
    layers,
    milnor,
    near_singular_metric,
    random_rotation,
    random_spd,
    random_valid_algebra,
    su2_round,
)
from cotton3 import (
    Cotton3Error,
    DegenerateMetric,
    SingularMetric,
    cotton2_closed_form,
    cotton_pack,
    curvature,
    detect_structure,
    flow_run,
    from_kenmotsu_params,
    levi_civita,
    ricci_spectrum,
)
from cotton3.connection_curvature import _cotton2, _cov_deriv
from cotton3.cotton import cotton2_array
from cotton3.cotton_flow import _state
from cotton3.frame_algebra import _metric_frame


def raw_dual(L, c3):
    """Independent dual over the skew slots, written from scratch.

    C(X)_j = (1 / (2 sqrt(det g))) C_{nmi} eps^{nml} g_{lj}; the loop works
    entry by entry with the permutation symbol spelled out.
    """
    eps = {
        (0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
        (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0,
    }
    g = L.metric
    comps = c3.components
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for (n, m, l), sign in eps.items():
                acc += comps[n, m, i] * sign * g[l, j]
            out[i, j] = acc / (2.0 * math.sqrt(np.linalg.det(g)))
    return out


def metric_divergence(L, conn, c2):
    D = _cov_deriv(conn.gamma, c2.components)
    return np.einsum("ij,ijk->k", np.linalg.inv(L.metric), D)


class TestInvariants:
    def test_skew_trace_divergence_on_random_corpus(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            L = random_valid_algebra(rng, with_metric=bool(rng.integers(2)))
            conn = levi_civita(L)
            pack = curvature(L, conn)
            cp = cotton_pack(L, conn, pack)
            c3t, c2 = cp.cotton3, cp.cotton2
            t = c3t.components
            ginv = np.linalg.inv(L.metric)
            # (0,3) form: skew in the first pair, trace free in every pair
            assert np.max(np.abs(t + np.transpose(t, (1, 0, 2)))) <= 1e-8
            for axes in (("ij,ijk->k"), ("jk,ijk->i"), ("ik,ijk->j")):
                assert np.max(np.abs(np.einsum(axes, ginv, t))) <= 1e-8
            # (0,2) form: symmetric before symmetrization, trace free,
            # divergence free
            raw = raw_dual(L, c3t)
            assert np.max(np.abs(raw - raw.T)) <= 1e-8
            assert np.max(np.abs(raw - c2.components)) <= 1e-8
            assert abs(np.einsum("ij,ij->", ginv, c2.components)) <= 1e-8
            assert np.max(np.abs(metric_divergence(L, conn, c2))) <= 1e-8

    def test_dual_identifications_identity_metric(self):
        rng = np.random.default_rng(42)
        pairs = [
            ((0, 0), (1, 2, 0)),
            ((0, 1), (2, 0, 0)),
            ((0, 2), (0, 1, 0)),
            ((1, 1), (2, 0, 1)),
            ((1, 2), (0, 1, 1)),
            ((2, 2), (0, 1, 2)),
        ]
        for _ in range(50):
            L = random_valid_algebra(rng, with_metric=False)
            cp = cotton_pack(*layers(L))
            c3t, c2 = cp.cotton3, cp.cotton2.components
            for (i, j), (n, m, k) in pairs:
                assert c2[i, j] == pytest.approx(
                    c3t.components[n, m, k], abs=1e-10
                )

    def test_metric_scaling_law(self):
        # Under g -> t g the (0,2) form scales by t^(-1/2), for every scale
        # t = 10^j the metric rule accepts, including those where det g
        # overflows or underflows; one algebra per j, on both routes.
        rng = np.random.default_rng(43)
        for j in range(-300, 301):
            t = 10.0**j
            L = random_valid_algebra(rng, with_metric=True)
            c = L.structure_constants
            for route in (lambda g: cotton_pack(*layers(L.with_metric(g))).cotton2.components,
                          lambda g: cotton2_array(c, g)):
                base = route(L.metric)
                scaled = route(t * L.metric)
                assert np.max(np.abs(scaled * math.sqrt(t) - base)) <= 1e-12 * (
                    1.0 + np.max(np.abs(base))
                ), j

    def test_dual_gather_equals_stacked_rows(self):
        # the dual reads the skew pairs of c3 through one constant gather,
        # bitwise the stack of the rows (C_12i, C_20i, C_01i) times
        # u = g / sqrt(det g)
        rng = np.random.default_rng(49)
        for _ in range(120):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            u = _metric_frame(L.metric)[1]
            for c3 in (cotton_pack(*layers(L)).cotton3.components, rng.normal(size=(3, 3, 3))):
                out = np.stack((c3[1, 2], c3[2, 0], c3[0, 1]), axis=1) @ u
                assert np.array_equal(_cotton2(c3, u), 0.5 * (out + out.T))

    def test_singular_metric_rejected(self):
        L = abelian()
        # positive definite, condition 1e13: past the conditioning rule
        singular = type(L)(L.structure_constants, np.diag([1.0, 1.0, 1e-13]))
        with pytest.raises(SingularMetric):
            cotton_pack(*layers(singular))
        # a zero pivot is outside the positive cone
        degenerate = type(L)(L.structure_constants, np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateMetric):
            cotton_pack(*layers(degenerate))

    def test_norm_matches_components(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        cp = cotton_pack(*layers(L))
        assert cp.norm2 == pytest.approx(
            float(np.linalg.norm(cp.cotton2.components)), abs=0.0
        )


class TestConformallyFlat:
    def test_model_fixtures_vanish(self):
        for L in (
            abelian(),
            su2_round(),
            hyperbolic(),
            from_kenmotsu_params(1.0, 0.0, 0.0),
            from_kenmotsu_params(1.0, 3.0, 3.0),
        ):
            assert cotton_pack(*layers(L)).norm2 <= 1e-9

    def test_flat_with_random_flat_metric(self):
        # Any constant metric on the abelian algebra is flat, hence
        # conformally flat.
        rng = np.random.default_rng(44)
        for _ in range(10):
            L = abelian().with_metric(random_spd(rng))
            assert cotton_pack(*layers(L)).norm2 <= 1e-12


class TestClosedForm:
    def test_matches_oracle_across_family(self):
        rng = np.random.default_rng(45)
        cases = [(0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                 (3.0, 0.0, 0.0), (1.0, 3.0, 3.0), (1.0, -2.0, -2.0)]
        for _ in range(100):
            if rng.random() < 0.5:
                cases.append((float(rng.uniform(0.1, 4.0)), 0.0, 0.0))
            else:
                b = float(rng.uniform(-3.0, 3.0))
                cases.append((1.0, b, b))
        for lam, b, c in cases:
            L = from_kenmotsu_params(lam, b, c)
            conn = levi_civita(L)
            pack = curvature(L, conn)
            ak = detect_structure(L, conn, pack)
            E = np.column_stack([v.components for v in ak.adapted_frame])
            oracle = E.T @ cotton_pack(L, conn, pack).cotton2.components @ E
            closed = cotton2_closed_form(ak).components
            assert np.max(np.abs(closed - oracle)) <= 1e-8 * (
                1.0 + np.max(np.abs(oracle))
            )
            assert abs(np.trace(closed)) <= 1e-10 * (1.0 + np.max(np.abs(closed)))

    def test_frozen_values_diagonal_family(self):
        for lam, c22 in ((2.0, 12.0), (3.0, 48.0), (1.0, 0.0), (0.5, -0.75)):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            c2 = cotton_pack(*layers(L)).cotton2.components
            assert c2[1, 1] == pytest.approx(c22, abs=1e-9)
            assert c2[2, 2] == pytest.approx(-c22, abs=1e-9)
            off = c2 - np.diag(np.diag(c2))
            assert np.max(np.abs(off)) <= 1e-9
            assert c2[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_frozen_norms_diagonal_family(self):
        for lam in (0.5, 1.0, 2.0, 3.0):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            expected = math.sqrt(2.0) * abs(2.0 * lam**3 - 2.0 * lam)
            assert cotton_pack(*layers(L)).norm2 == pytest.approx(expected, abs=1e-8)

    def test_derivative_route_entries(self):
        # Each dual entry is a covariant Ricci derivative component; spot
        # check C(e, e) = (nabla_{phi_e} S)(xi, e) at lam = 2 two ways.
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        D = _cov_deriv(conn.gamma, pack.ricci.components)
        cp = cotton_pack(L, conn, pack)
        c3t = cp.cotton3.components
        assert c3t[2, 0, 1] == pytest.approx(D[2, 0, 1] - D[0, 2, 1], abs=1e-12)
        c2 = cp.cotton2.components
        assert c2[1, 1] == pytest.approx(c3t[2, 0, 1], abs=1e-12)


EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def reference_chain(c, g):
    """The chain as plain einsums: Koszul by index permutation, Ricci as
    the trace of Riemann, both connection contractions of the Ricci
    derivative, and the dual against the permutation symbol."""
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularMetric("reference: singular metric")
    cg = np.einsum("ijm,ml->ijl", c, g)
    K = 0.5 * (cg - np.einsum("jli->ijl", cg) + np.einsum("lij->ijl", cg))
    gamma = np.linalg.solve(g, K.reshape(9, 3).T).T.reshape(3, 3, 3)
    prod = np.einsum("jkm,iml->ijkl", gamma, gamma)
    riemann = (prod - np.transpose(prod, (1, 0, 2, 3))
               - np.einsum("ijm,mkl->ijkl", c, gamma))
    ric = np.einsum("ijki->jk", riemann)
    ricci = 0.5 * (ric + ric.T)
    D = -np.einsum("ijm,mk->ijk", gamma, ricci) - np.einsum("ikm,jm->ijk", gamma, ricci)
    c3 = D - D.transpose(1, 0, 2)
    c2 = np.einsum("nmi,nml,lj->ij", c3, EPS, g) / (2.0 * np.sqrt(np.linalg.det(g)))
    c2 = 0.5 * (c2 + c2.T)
    return {"gamma": gamma, "riemann": riemann, "ricci": ricci, "cotton3": c3,
            "cotton2": c2, "norm2": float(np.linalg.norm(c2))}


def reference_flow(c, g0, dt, steps, normalize):
    """flow_run's RK4 on the reference chain: (metrics, norms, degenerate)."""
    det0 = float(np.linalg.det(g0))
    g = 0.5 * (g0 + g0.T)
    k1 = reference_chain(c, g)["cotton2"]
    metrics, norms = [g], [float(np.linalg.norm(k1))]
    for _ in range(steps):
        try:
            g2 = g + 0.5 * dt * k1
            np.linalg.cholesky(g2)
            k2 = reference_chain(c, g2)["cotton2"]
            g3 = g + 0.5 * dt * k2
            np.linalg.cholesky(g3)
            k3 = reference_chain(c, g3)["cotton2"]
            g4 = g + dt * k3
            np.linalg.cholesky(g4)
            k4 = reference_chain(c, g4)["cotton2"]
            g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            g = 0.5 * (g + g.T)
            np.linalg.cholesky(g)
        except (np.linalg.LinAlgError, SingularMetric):
            return metrics, norms, True
        if normalize:
            g = g * (det0 / float(np.linalg.det(g))) ** (1.0 / 3.0)
        k1 = reference_chain(c, g)["cotton2"]
        metrics.append(g)
        norms.append(float(np.linalg.norm(k1)))
    return metrics, norms, False


def reference_stage(c, g):
    """A flow stage's checks as separate factorizations: Cholesky, then the
    reference chain's conditioning rule.  Returns the exception class a
    stage raises, or the (0,2) tensor."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return DegenerateMetric
    try:
        return reference_chain(c, g)["cotton2"]
    except SingularMetric:
        return SingularMetric


def assert_matches_reference(got, ref):
    # float64 rounding of a few dozen operations, scaled by the reference
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


class TestReferenceEquivalence:
    def test_layers_match_einsum_reference(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            ref = reference_chain(L.structure_constants, L.metric)
            conn = levi_civita(L)
            pack = curvature(L, conn)
            cp = cotton_pack(L, conn, pack)
            assert_matches_reference(conn.gamma, ref["gamma"])
            assert_matches_reference(pack.riemann, ref["riemann"])
            assert_matches_reference(pack.ricci.components, ref["ricci"])
            assert_matches_reference(cp.cotton3.components, ref["cotton3"])
            assert_matches_reference(cp.cotton2.components, ref["cotton2"])
            assert_matches_reference(cp.norm2, ref["norm2"])
            assert_matches_reference(
                cotton2_array(L.structure_constants, L.metric), ref["cotton2"]
            )

    @pytest.mark.parametrize("eigenvalues", [
        (-1.0, -2.0, 3.0),        # indefinite with det > 0
        (-1.0, 2.0, 3.0),         # indefinite with det < 0
        (1.0, 2.0, 1e-11),        # condition 1e11: computes
        (1.0, 2.0, 1e-13),        # condition 1e13: singular
        (1e-101, 2e-101, 3e-101),  # det = 6e-303, well conditioned: computes
        (1e-100, 1e-100, 1e-99),  # det = 1e-299: computes
    ])
    def test_stage_outcome_matches_reference(self, eigenvalues):
        # the same outcome class on the boundaries of every check; values
        # past condition 1e10 are rounding noise in both, so only finiteness
        # is compared there
        rng = np.random.default_rng(48)
        for _ in range(25):
            c = random_valid_algebra(rng, rotated=True).structure_constants
            R = random_rotation(rng)
            g = R @ np.diag(eigenvalues) @ R.T
            g = 0.5 * (g + g.T)
            ref = reference_stage(c, g)
            if isinstance(ref, type):
                with pytest.raises(ref):
                    cotton2_array(c, g)
            else:
                got = cotton2_array(c, g)
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
                if max(eigenvalues) / min(eigenvalues) < 1e10:
                    assert_matches_reference(got, ref)

    def test_flow_matches_einsum_reference(self):
        rng = np.random.default_rng(47)
        outcomes = set()
        for n in range(12):
            L = random_valid_algebra(rng, rotated=True)
            g0 = random_spd(rng)
            normalize = bool(n % 2)
            metrics, norms, degenerate = reference_flow(
                L.structure_constants, g0, 2e-3, 25, normalize
            )
            try:
                states = flow_run(L.with_metric(g0), 2e-3, 25, normalize=normalize).trajectory
                got_degenerate = False
            except DegenerateMetric as exc:
                states, got_degenerate = exc.trajectory, True
            assert got_degenerate == degenerate
            assert len(states) == len(metrics)
            for st, g, norm in zip(states, metrics, norms):
                assert_matches_reference(st.metric, g)
                assert_matches_reference(st.cotton_norm, norm)
            outcomes.add(degenerate)
        assert outcomes == {False, True}


# --------------------------------------------------------------------------
# cotton_pack as the plain chain of its helpers, with g / sqrt(det g) and
# the norm from the library: equal bit for bit.


def composed_pack(L, conn, pack):
    d = _cov_deriv(conn.gamma, pack.ricci.components)
    c3 = d - d.transpose(1, 0, 2)
    c2 = _cotton2(c3, _metric_frame(L.metric)[1])
    return c3, c2, float(np.linalg.norm(c2))


class TestPackComposition:
    def test_pack_equals_public_composition_bitwise(self):
        rng = np.random.default_rng(49)
        for _ in range(60):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            conn = levi_civita(L)
            pack = curvature(L, conn)
            c3, c2, norm2 = composed_pack(L, conn, pack)
            for cp in (cotton_pack(L, conn, pack), cotton_pack(*layers(L))):
                assert np.array_equal(cp.cotton3.components, c3)
                assert np.array_equal(cp.cotton2.components, c2)
                assert cp.norm2 == norm2
                assert not cp.cotton3.components.flags.writeable
                assert not cp.cotton2.components.flags.writeable


# --------------------------------------------------------------------------
# One metric rule: every entry point that needs g^-1 or det g gives the same
# verdict on the same metric, and where they compute, the two Cotton routes
# agree.


def _outcome(fn):
    try:
        return fn()
    except Cotton3Error as exc:
        return type(exc)


# a fixed orthogonal frame change, so the metrics below are not diagonal
_R = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 2)[0]


@pytest.mark.parametrize("metric, expected", [
    pytest.param(np.diag([-1.0, -1.0, 1.0]), DegenerateMetric, id="indefinite-det-positive"),
    pytest.param(np.diag([1.0, -1.0, 1.0]), DegenerateMetric, id="indefinite-det-negative"),
    pytest.param(np.diag([1.0, 1.0, 0.0]), DegenerateMetric, id="zero-eigenvalue"),
    pytest.param(np.diag([1.0, np.nan, 2.0]), DegenerateMetric, id="nan-entry"),
    pytest.param(np.full((3, 3), np.nan), DegenerateMetric, id="eigh-no-convergence"),
    pytest.param(None, SingularMetric, id="near-singular"),
    pytest.param(_R @ np.diag([1.0, 2.0, 1e-13]) @ _R.T, SingularMetric, id="condition-1e13"),
    pytest.param(_R @ np.diag([1.0, 2.0, 3.0]) @ _R.T, None, id="positive-definite"),
])
def test_metric_rule_is_shared(metric, expected):
    if metric is None:
        metric = near_singular_metric(np.random.default_rng(11))
    g = 0.5 * (metric + metric.T)
    L0 = milnor(1.0, 2.0, -0.5)
    L = L0.with_metric(g)
    c = L.structure_constants
    # ricci_spectrum reads only the pack's Ricci form and its algebra's metric pass
    pack = dataclasses.replace(curvature(L0, levi_civita(L0)), algebra=L)
    outcomes = {
        "levi_civita": _outcome(lambda: levi_civita(L)),
        # a connection built under another metric reaches the rule here
        "curvature": _outcome(lambda: curvature(L, levi_civita(L0))),
        "cotton_pack": _outcome(lambda: cotton_pack(*layers(L))),
        "cotton2_array": _outcome(lambda: cotton2_array(c, g)),
        # the flow's state builder, which takes its metric over
        "_state": _outcome(lambda: _state(L0, 0.0, g.copy())),
        "ricci_spectrum": _outcome(lambda: ricci_spectrum(pack)),
    }
    verdicts = {k: v if isinstance(v, type) else None for k, v in outcomes.items()}
    assert verdicts == dict.fromkeys(outcomes, expected)
    if expected is None:
        got, ref = outcomes["cotton_pack"].cotton2.components, outcomes["cotton2_array"]
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
