"""Runge-Kutta Cotton flow: fixed points, blow-up, order, and export."""

import csv
import math

import numpy as np
import pytest

from conftest import (
    abelian,
    hyperbolic,
    layers,
    milnor,
    near_singular_metric,
    patch_engine,
    random_spd,
    random_valid_algebra,
    su2_round,
)
from cotton3 import (
    DegenerateMetric,
    FlowResult,
    SingularMetric,
    cotton_pack,
    export_trajectory,
    flow_run,
    from_kenmotsu_params,
    from_nonunimodular,
)
from cotton3 import frame_algebra
from cotton3.cotton import cotton2_array
from cotton3.cotton_flow import FlowState, _named, _rk4, make_state
from cotton3.frame_algebra import SymBilinear


class TestStateAndStep:
    def test_make_state_attaches_cotton_data(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        st = make_state(L, 0.25, np.eye(3))
        cp = cotton_pack(*layers(L))
        assert st.time == 0.25
        assert np.array_equal(st.metric, np.eye(3))
        assert np.array_equal(st.cotton2.components, cp.cotton2.components)
        assert st.cotton_norm == cp.norm2

    def test_make_state_symmetrizes(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        g = np.eye(3)
        g[0, 1] = 1e-3  # one-sided perturbation
        st = make_state(L, 0.0, g)
        assert np.array_equal(st.metric, st.metric.T)
        assert st.metric[0, 1] == pytest.approx(5e-4, abs=0.0)

    def test_step_advances_time_and_matches_run(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        st0 = make_state(L, 0.0, L.metric)
        st1 = make_state(L, st0.time + 1e-3, _rk4(L, st0, 1e-3))
        assert st1.time == pytest.approx(1e-3, abs=0.0)
        result = flow_run(L, dt=1e-3, steps=1)
        assert np.array_equal(result.final.metric, st1.metric)

    def test_state_metric_is_frozen(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        st = make_state(L, 0.0, np.eye(3))
        with pytest.raises(ValueError):
            st.metric[0, 0] = 2.0

    def test_final_property(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=3)
        assert result.final is result.trajectory[-1]


class TestValidation:
    def test_rejects_bad_parameters(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            flow_run(L, dt=0.0, steps=10)
        with pytest.raises(ValueError):
            flow_run(L, dt=-1e-3, steps=10)
        with pytest.raises(ValueError):
            flow_run(L, dt=1e-3, steps=0)
        with pytest.raises(ValueError):
            flow_run(L, dt=1e-3, steps=10, stride=0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, dt):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            flow_run(L, dt=dt, steps=1)

    def test_rejects_indefinite_start(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        with pytest.raises(DegenerateMetric, match="initial metric"):
            flow_run(L.with_metric(np.diag([1.0, -1.0, 1.0])), dt=1e-3, steps=1)

    def test_initial_metric_under_the_metric_rule(self):
        # Cholesky accepts this metric; the rule reads it as singular
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        g0 = near_singular_metric(np.random.default_rng(11))
        for normalize in (False, True):
            with pytest.raises(DegenerateMetric) as err:
                flow_run(L.with_metric(g0), dt=1e-3, steps=1, normalize=normalize)
            assert str(err.value).startswith(
                "metric became singular in the initial metric: metric is singular"
            )
            assert isinstance(err.value.__cause__, SingularMetric)
        with pytest.raises(DegenerateMetric) as err:
            flow_run(L.with_metric(np.full((3, 3), np.nan)), dt=1e-3, steps=1)
        assert str(err.value) == "metric left the positive cone in the initial metric"
        with pytest.raises(DegenerateMetric) as err:
            flow_run(L.with_metric(np.diag([1.0, 1.0, 1e-13])), dt=1e-3, steps=1)
        assert str(err.value).startswith(
            "metric became singular in the initial metric: metric is singular"
        )
        assert isinstance(err.value.__cause__, SingularMetric)


class TestStageChecks:
    # From g = I at lam = 2, C = diag(0, 12, -12); dt sets where the step
    # first leaves the positive cone.
    L = from_kenmotsu_params(2.0, 0.0, 0.0)

    @pytest.mark.parametrize("dt, where", [
        (0.25, "in the second stage"),
        (0.09, "in the third stage"),
        (0.055, "in the fourth stage"),
        (0.042, "after the step"),
    ])
    def test_leaving_the_cone_is_named(self, dt, where):
        with pytest.raises(DegenerateMetric) as err:
            flow_run(self.L, dt=dt, steps=3)
        assert str(err.value) == (
            f"step 1 (t={dt:g}): metric left the positive cone {where}"
        )
        assert len(err.value.trajectory) == 1

    def test_singular_stage_is_degenerate(self):
        # the second stage metric is diag(1, 1 + 6 dt, 1 - 6 dt), and
        # 1 - 6 dt = 3e-14 is positive but past the conditioning rule
        with pytest.raises(DegenerateMetric) as err:
            flow_run(self.L, dt=(1.0 - 3e-14) / 6.0, steps=3)
        assert str(err.value).startswith(
            "step 1 (t=0.166667): stage metric became singular: metric is singular"
        )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_singular_after_the_step_is_degenerate(self, normalize):
        # g0 = diag(1, 1, 3e-12) passes the conditioning rule; after one step
        # of 1.1e-19 the metric is still positive definite but past the rule
        L = milnor(-2.0, 3.0, 0.5)
        g0 = np.diag([1.0, 1.0, 3e-12])
        with pytest.raises(DegenerateMetric) as err:
            flow_run(L.with_metric(g0), 1.1e-19, 1, normalize=normalize)
        assert str(err.value).startswith(
            "step 1 (t=1.1e-19): metric became singular after the step: "
            "metric is singular"
        )
        assert isinstance(err.value.__cause__, SingularMetric)
        assert len(err.value.trajectory) == 1
        assert len(flow_run(L.with_metric(g0), 1e-19, 1, normalize=normalize).trajectory) == 2

    def test_make_state_requires_positive_definite(self):
        with pytest.raises(DegenerateMetric, match="not positive definite"):
            make_state(self.L, 0.0, np.diag([-1.0, -1.0, 1.0]))
        # the second Cholesky pivot is nan here: nan fails the check too
        with pytest.raises(DegenerateMetric, match="not positive definite"):
            make_state(self.L, 0.0, np.diag([1.0, np.nan, 2.0]))
        with pytest.raises(SingularMetric, match="metric is singular"):
            make_state(self.L, 0.0, np.diag([1.0, 1.0, 1e-13]))


class TestFixedPoint:
    def test_cotton_exactly_zero_at_identity(self):
        # lam = 1 under g = I: every entry of C(g) is exactly 0.0, which is
        # what keeps the fixed point's drift at exactly zero (and verify-paper's
        # "drift 0.000e+00")
        c = from_kenmotsu_params(1.0, 0.0, 0.0).structure_constants
        assert np.all(cotton2_array(c, np.eye(3)) == 0.0)
        # and so is the hyperbolic algebra's, under every constant multiple of I
        c = from_nonunimodular(1.0, 0.0).structure_constants
        for t in (0.25, 0.5, 1.0, 2.0, 3.0, 1e3):
            assert np.all(cotton2_array(c, t * np.eye(3)) == 0.0)

    def test_cotton_flat_metric_never_moves(self):
        # lam = 1 is conformally flat, so the flow is stationary: the
        # metric drift over 1000 steps is exactly zero.
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=1000, fixed_point_tol=1e-9)
        assert len(result.trajectory) == 1001
        drift = max(
            float(np.max(np.abs(st.metric - np.eye(3))))
            for st in result.trajectory
        )
        assert drift == 0.0
        assert result.fixed_point
        assert result.final.time == pytest.approx(1.0, rel=1e-12)

    def test_fixed_point_false_without_tolerance(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=5)
        assert not result.fixed_point

    def test_fixed_point_false_when_moving(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=5, fixed_point_tol=1e-9)
        assert not result.fixed_point
        assert result.final.cotton_norm > 1.0


class TestEvolution:
    def test_frozen_trajectory_values(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=30)
        st = result.final
        assert st.time == pytest.approx(0.03, rel=1e-12)
        assert np.diag(st.metric) == pytest.approx(
            [0.73702484, 2.10553778, 0.67998271], abs=1e-8
        )
        assert st.cotton_norm == pytest.approx(182.89104673662817, rel=1e-10)

    def test_metrics_stay_symmetric(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=30)
        for st in result.trajectory:
            assert np.max(np.abs(st.metric - st.metric.T)) <= 1e-13

    def test_degeneration_carries_partial_trajectory(self):
        # The lam = 2 metric collapses in finite time; the fourth RK stage
        # of step 35 leaves the positive cone.
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        with pytest.raises(DegenerateMetric) as err:
            flow_run(L, dt=1e-3, steps=100)
        assert "step 35" in str(err.value)
        assert "positive cone" in str(err.value)
        states = err.value.trajectory
        assert len(states) == 35
        assert states[-1].time == pytest.approx(0.034, rel=1e-12)
        assert np.diag(states[-1].metric) == pytest.approx(
            [0.48079602, 4.7127263, 0.62808646], abs=1e-7
        )

    def test_stride_records_endpoints(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=30, stride=7)
        times = [st.time for st in result.trajectory]
        assert times == pytest.approx(
            [0.0, 0.007, 0.014, 0.021, 0.028, 0.03], abs=1e-15
        )

    def test_normalized_step_leaving_the_cone_is_named(self):
        # from g = I at lam = 2 this step's result has det g < 0: the
        # rescaling refuses it before taking the cube root
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        with pytest.raises(DegenerateMetric) as err:
            flow_run(L, dt=0.042, steps=3, normalize=True)
        assert str(err.value) == "step 1 (t=0.042): metric left the positive cone after the step"
        assert len(err.value.trajectory) == 1

    def test_normalize_holds_determinant(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=30, normalize=True)
        dets = [float(np.linalg.det(st.metric)) for st in result.trajectory]
        assert max(abs(d - 1.0) for d in dets) <= 1e-12

    def test_normalized_run_matches_manual_steps(self):
        # flow_run rescales the RK4 metric before attaching its Cotton
        # tensor; that equals stepping, rescaling and re-packaging by hand
        rng = np.random.default_rng(81)
        for L in (random_valid_algebra(rng, rotated=True) for _ in range(4)):
            g0 = random_spd(rng)
            result = flow_run(L.with_metric(g0), dt=1e-4, steps=10, normalize=True)
            logdet0 = float(np.linalg.slogdet(g0)[1])
            state = make_state(L, 0.0, g0)
            manual = [state]
            for _ in range(10):
                g = _rk4(L, state, 1e-4)
                g = g * math.exp((logdet0 - float(np.linalg.slogdet(g)[1])) / 3.0)
                state = make_state(L, state.time + 1e-4, g)
                manual.append(state)
            assert len(result.trajectory) == len(manual)
            for got, want in zip(result.trajectory, manual):
                assert got.time == want.time
                assert np.array_equal(got.metric, want.metric)
                assert np.array_equal(got.cotton2.components, want.cotton2.components)
                assert got.cotton_norm == want.cotton_norm

    def test_normalize_from_a_huge_metric(self):
        # det g = 1e330 overflows np.linalg.det; the rescaling works on
        # log det g, so the run completes and holds det g
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        g0 = 1e110 * np.eye(3)
        result = flow_run(L.with_metric(g0), dt=1e-3, steps=30, normalize=True)
        assert len(result.trajectory) == 31
        logdet0 = np.linalg.slogdet(g0)[1]
        for st in result.trajectory:
            sign, logdet = np.linalg.slogdet(st.metric)
            assert sign == 1.0
            assert abs(math.expm1(logdet - logdet0)) <= 1e-12
        assert result.final.cotton_norm > 0.0

    def test_normalized_step_evaluates_cotton_four_times(self, monkeypatch):
        import cotton3.cotton_flow as cf

        calls = []
        real = cf.cotton2_array

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cf, "cotton2_array", counting)
        flow_run(from_kenmotsu_params(2.0, 0.0, 0.0), dt=1e-3, steps=3, normalize=True)
        # the initial state, then three RK4 stages and one state per step
        assert len(calls) == 1 + 3 * 4

    def test_slogdet_only_under_normalize(self, monkeypatch):
        # log det g0 is read only for the rescaling: one call for g0 and one
        # per step with it, none without it
        calls = []
        real = frame_algebra._slogdet

        def counting(a):
            calls.append(1)
            return real(a)

        patch_engine(monkeypatch, "_slogdet", counting)
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        for normalize, expected in ((False, 0), (True, 1 + 3)):
            del calls[:]
            flow_run(L.with_metric(np.diag([1.0, 2.0, 1.5])), dt=1e-3, steps=3,
                     normalize=normalize)
            assert len(calls) == expected

    def test_g0_override(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        g0 = np.diag([1.0, 2.0, 1.5])
        result = flow_run(L.with_metric(g0), dt=1e-4, steps=5)
        assert np.array_equal(result.trajectory[0].metric, g0)
        # The algebra's own metric is untouched.
        assert np.array_equal(L.metric, np.eye(3))

    def test_volume_nearly_conserved_without_normalization(self):
        # The right-hand side is trace free, so det g moves only at
        # second order in dt.
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=10)
        det = float(np.linalg.det(result.final.metric))
        assert abs(det - 1.0) <= 1e-2
        assert det != 1.0

    def test_observed_convergence_order_is_four(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        T = 0.02

        def terminal(dt):
            steps = round(T / dt)
            return flow_run(L, dt=dt, steps=steps).final.metric

        ref = terminal(2.5e-5)
        err_coarse = float(np.max(np.abs(terminal(1e-3) - ref)))
        err_fine = float(np.max(np.abs(terminal(5e-4) - ref)))
        order = math.log2(err_coarse / err_fine)
        assert 3.7 <= order <= 4.3

    def test_stationary_on_conformally_flat_sphere(self):
        result = flow_run(su2_round(), dt=1e-3, steps=50, fixed_point_tol=1e-12)
        assert result.fixed_point
        assert np.array_equal(result.final.metric, np.eye(3))


def _reference_state(L, time, g):
    """``make_state`` with the constructor's copy and ``np.linalg.norm``."""
    g = np.asarray(g, dtype=float)
    g = 0.5 * (g + g.T)
    c2 = cotton2_array(L.structure_constants, g)
    return FlowState(float(time), g, SymBilinear(c2), float(np.linalg.norm(c2)))


def _reference_flow_run(L, dt, steps, stride=1, normalize=False, fixed_point_tol=None):
    """``flow_run`` evaluating every step, with no fixed-point exit."""
    g = np.array(L.metric, dtype=float)
    g = 0.5 * (g + g.T)
    state = _named("in the initial metric", _reference_state, L, 0.0, g)
    logdet0 = float(np.linalg.slogdet(g)[1])
    states = [state]
    for n in range(1, steps + 1):
        try:
            g = _rk4(L, state, dt)
            if normalize:
                sign, logdet = np.linalg.slogdet(g)
                if not (sign > 0 and math.isfinite(logdet)):
                    raise DegenerateMetric("metric left the positive cone after the step")
                g = g * math.exp((logdet0 - float(logdet)) / 3.0)
            state = _named("after the step", _reference_state, L, state.time + dt, g)
        except DegenerateMetric as exc:
            raise DegenerateMetric(
                f"step {n} (t={n * dt:g}): {exc}", trajectory=states
            ) from exc.__cause__
        if n % stride == 0 or n == steps:
            states.append(state)
    fixed = fixed_point_tol is not None and states[-1].cotton_norm <= fixed_point_tol
    return FlowResult(tuple(states), fixed)


def _outcome(run, *args, **kwargs):
    """``(trajectory, fixed_point, error message, cause type)`` of one run."""
    try:
        res = run(*args, **kwargs)
    except DegenerateMetric as exc:
        return exc.trajectory, None, str(exc), type(exc.__cause__)
    return res.trajectory, res.fixed_point, None, None


def _assert_same_outcome(got, want):
    assert got[1:] == want[1:]
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert type(a.time) is float and a.time == b.time
        assert a.metric.tobytes() == b.metric.tobytes()
        assert a.cotton2.components.tobytes() == b.cotton2.components.tobytes()
        assert a.cotton_norm == b.cotton_norm


def _flow_corpus():
    """Flows on both sides of the exact-fixed-point exit: conformally flat
    metrics, steps too small to move the metric, a -0.0 entry, moving
    random flows and flows that degenerate."""
    rng = np.random.default_rng(2008)
    lam1 = from_kenmotsu_params(1.0, 0.0, 0.0)
    neg_zero = np.eye(3)
    neg_zero[0, 1] = neg_zero[1, 0] = -0.0
    one_sided = np.eye(3)
    one_sided[1, 2] = -0.0
    cases = []
    for normalize in (False, True):
        for stride in (1, 2, 3):
            for t in (0.5, 1.0, 3.0):
                cases.append((lam1, 1e-3, 7, t * np.eye(3), stride, normalize))
                cases.append((hyperbolic(), 1e-2, 7, t * np.eye(3), stride, normalize))
            cases.append((su2_round(), 1e-3, 6, None, stride, normalize))
            cases.append((abelian(), 1e-2, 5, random_spd(rng), stride, normalize))
            cases.append((lam1, 1e-3, 6, neg_zero, stride, normalize))
            cases.append((lam1, 1e-3, 6, one_sided, stride, normalize))
            for _ in range(3):
                L = random_valid_algebra(rng, rotated=True)
                g0 = random_spd(rng)
                cases.append((L, 1e-200, 6, g0, stride, normalize))
                cases.append((L, 1e-4, 5, g0, stride, normalize))
            lam2 = from_kenmotsu_params(2.0, 0.0, 0.0)
            cases.append((lam2, 1e-3, 40, None, stride, normalize))
            cases.append((lam2, 0.09, 3, None, stride, normalize))
    return cases


class TestExactFixedPointExit:
    def test_bitwise_equal_to_stepping_on(self):
        exits = moving = degenerate = 0
        for L, dt, steps, g0, stride, normalize in _flow_corpus():
            if g0 is not None:
                L = L.with_metric(g0)
            kwargs = dict(stride=stride, normalize=normalize, fixed_point_tol=1e-9)
            got = _outcome(flow_run, L, dt, steps, **kwargs)
            want = _outcome(_reference_flow_run, L, dt, steps, **kwargs)
            _assert_same_outcome(got, want)
            states = want[0]
            stationary = any(
                a.metric.tobytes() == b.metric.tobytes()
                for a, b in zip(states, states[1:])
            )
            exits += stationary
            moving += not stationary
            degenerate += want[2] is not None
        # the corpus has runs on both sides of the exit, and failing runs
        assert exits >= 30 and moving >= 30 and degenerate >= 6

    @staticmethod
    def _count_cotton(monkeypatch):
        import cotton3.cotton_flow as cf

        calls = []
        real = cf.cotton2_array

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cf, "cotton2_array", counting)
        return calls

    def test_stationary_run_evaluates_cotton_once(self, monkeypatch):
        calls = self._count_cotton(monkeypatch)
        result = flow_run(from_kenmotsu_params(1.0, 0.0, 0.0), dt=1e-3, steps=50)
        # the initial state only: C = 0 there, so every stage of the first
        # step is at the state's own metric, and so is its result
        assert len(calls) == 1
        assert len(result.trajectory) == 51

    def test_stationary_run_builds_only_recorded_states(self, monkeypatch):
        import cotton3.cotton_flow as cf

        built = []
        real = cf._repeat
        monkeypatch.setattr(cf, "_repeat", lambda *args: built.append(1) or real(*args))
        result = flow_run(from_kenmotsu_params(1.0, 0.0, 0.0), dt=1e-3, steps=50, stride=50)
        # the stationary first step, and the final state
        assert len(built) == 2
        t = 0.0
        for _ in range(50):
            t = float(t + 1e-3)
        assert [st.time for st in result.trajectory] == [0.0, t]
        assert np.array_equal(result.final.metric, np.eye(3))

    def test_moving_run_evaluates_cotton_four_times_a_step(self, monkeypatch):
        calls = self._count_cotton(monkeypatch)
        steps = 10
        result = flow_run(from_kenmotsu_params(2.0, 0.0, 0.0), dt=1e-3, steps=steps)
        # the initial state, then three stages and the new state per step
        assert len(calls) == 1 + 4 * steps
        assert len(result.trajectory) == steps + 1


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        result = flow_run(L, dt=1e-3, steps=10, stride=2)
        path = tmp_path / "traj.csv"
        export_trajectory(result.trajectory, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "time", "g11", "g12", "g13", "g22", "g23", "g33", "cotton_norm",
        ]
        assert len(rows) == 1 + len(result.trajectory)
        for row, st in zip(rows[1:], result.trajectory):
            vals = [float(x) for x in row]
            assert vals[0] == st.time
            m = st.metric
            assert vals[1:7] == [
                m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2],
            ]
            assert vals[7] == st.cotton_norm

    def test_accepts_plain_state_list(self, tmp_path):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        states = [make_state(L, 0.0, np.eye(3))]
        path = tmp_path / "one.csv"
        export_trajectory(states, str(path))
        text = path.read_text().splitlines()
        assert len(text) == 2
        assert text[1].startswith("0.0,1.0,")
