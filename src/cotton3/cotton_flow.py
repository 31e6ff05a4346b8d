"""Cotton flow of left-invariant metrics: dg/dt = C(g).

The bracket structure stays fixed while the frame metric evolves by its
own (0,2) Cotton tensor.  Fixed points are exactly the conformally flat
metrics (C = 0).  Since C is trace free the flow preserves volume to
leading order; an optional normalization rescales the metric after each
step to hold det g exactly.

Integration is classical fourth-order Runge-Kutta with symmetrized
stages.  Each stage and each new state evaluates C(g) as
``cotton2_array(c, g)``, ``curvature``'s Cotton chain on plain arrays,
under the library's one metric rule: a single scalar Cholesky pass over g
gives the positive-cone and singularity checks, g^-1 and g / sqrt(det g).
When the initial metric, a stage metric or the step's result fails the
rule, the run aborts with ``DegenerateMetric``, naming where, with the
trajectory computed so far.  The optional rescaling checks det g > 0 and
scales by its cube root from ``_slogdet`` (``np.linalg.slogdet``'s gufunc,
bit for bit), which cannot overflow; without it the run makes no
``_slogdet`` call.

C(g) is a deterministic function of the bytes of g, so a stage whose
metric is bytewise the state's (C = 0, or a dt too small to move any entry)
takes the state's Cotton tensor instead of evaluating it again.  Likewise a
step is a function of the state's metric alone, so once a step returns a
metric bytewise equal to its input (an exact fixed point of the step, as
g = I is for a conformally flat algebra), every later step would return it
again.  The run then stops evaluating and records the remaining states with
that metric and its Cotton data, the time still advancing by dt per step,
building only the states it records: the trajectory is bitwise the one
that stepping on would give.  From an
exact fixed point a run evaluates C once, for its initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cotton import cotton2_array
from .errors import DegenerateMetric, SingularMetric
from .frame_algebra import MetricLieAlgebra3, SymBilinear, _slogdet, _wrap


@dataclass(frozen=True, eq=False)
class FlowState:
    """Snapshot of the flow: time, metric, and its Cotton data."""

    time: float
    metric: np.ndarray
    cotton2: SymBilinear
    cotton_norm: float

    def __post_init__(self):
        arr = np.array(self.metric, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "metric", arr)


@dataclass(frozen=True)
class FlowResult:
    """Recorded trajectory and whether it ended at a fixed point."""

    trajectory: tuple
    fixed_point: bool

    @property
    def final(self) -> FlowState:
        return self.trajectory[-1]


def _named(where: str, fn, *args):
    """``fn(*args)``, with the metric rule's two refusals raised as one
    ``DegenerateMetric`` that names ``where`` the metric was refused."""
    try:
        return fn(*args)
    except DegenerateMetric as exc:
        raise DegenerateMetric(f"metric left the positive cone {where}") from exc
    except SingularMetric as exc:
        what = "stage metric became singular" if where.endswith("stage") else (
            f"metric became singular {where}"
        )
        raise DegenerateMetric(f"{what}: {exc}") from exc


def make_state(L: MetricLieAlgebra3, time: float, g: np.ndarray) -> FlowState:
    """Package a metric as a flow state with its Cotton tensor attached.

    The symmetrized ``g`` must be positive definite: ``cotton2_array`` raises
    ``DegenerateMetric`` outside the positive cone and ``SingularMetric`` for
    a singular metric.
    """
    g = np.asarray(g, dtype=float)
    g = 0.5 * (g + g.T)
    c2 = cotton2_array(L.structure_constants, g)
    flat = c2.ravel()
    # the Frobenius norm as sqrt(flat.dot(flat)), np.linalg.norm's own vector form
    return FlowState(float(time), g, _wrap(SymBilinear, components=c2), math.sqrt(flat.dot(flat)))


def _repeat(state: FlowState, time: float) -> FlowState:
    """``state`` at a later ``time``, at an exact fixed point of the step:
    the same metric and Cotton data, shared."""
    return _wrap(FlowState, time=time, metric=state.metric,
                 cotton2=state.cotton2, cotton_norm=state.cotton_norm)


def _rk4(L: MetricLieAlgebra3, state: FlowState, dt: float) -> np.ndarray:
    """Metric after one classical Runge-Kutta step of dg/dt = C(g).

    The state's ``cotton2`` is the right-hand side at the step's start, so
    it serves as the first stage; ``state`` must therefore carry the
    Cotton tensor of its own metric (as ``make_state`` arranges).  A stage
    metric that fails the metric rule raises ``DegenerateMetric`` naming
    the stage.
    """
    c, g = L.structure_constants, state.metric
    k1 = state.cotton2.components
    here = g.tobytes()

    def stage(where, h):
        # a stage at the state's own metric has the state's Cotton tensor
        return k1 if h.tobytes() == here else _named(where, cotton2_array, c, h)

    k2 = stage("in the second stage", g + 0.5 * dt * k1)
    k3 = stage("in the third stage", g + 0.5 * dt * k2)
    k4 = stage("in the fourth stage", g + dt * k3)
    out = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + out.T)


def flow_run(
    L: MetricLieAlgebra3,
    dt: float,
    steps: int,
    stride: int = 1,
    normalize: bool = False,
    fixed_point_tol: float | None = None,
) -> FlowResult:
    """Integrate the flow for ``steps`` steps from the algebra's metric; to
    start elsewhere, pass ``L.with_metric(g0)``.

    States are recorded every ``stride`` steps (the initial and final
    states always).  With ``normalize`` the metric is rescaled after each
    step to keep its determinant at the initial value.  ``fixed_point`` in
    the result reports whether the final state's Cotton norm is at or
    below ``fixed_point_tol``; it is False when no tolerance is given.
    If the initial metric or a later one fails the metric rule,
    ``DegenerateMetric`` is raised with the states so far as ``trajectory``.
    A stage at the state's own metric reuses the state's Cotton tensor, and
    when a step leaves the metric bytewise unchanged, it and the remaining
    steps are not evaluated: their states repeat that metric and Cotton
    data at the times stepping on would give.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    g = 0.5 * (L.metric + L.metric.T)
    state = _named("in the initial metric", make_state, L, 0.0, g)
    logdet0 = float(_slogdet(g)[1]) if normalize else None
    states = [state]
    for n in range(1, steps + 1):
        try:
            g = _rk4(L, state, dt)
            if normalize:
                sign, logdet = _slogdet(g)
                # the real cube root needs det > 0; slogdet of a nan is (1, nan)
                if not (sign > 0 and math.isfinite(logdet)):
                    raise DegenerateMetric("metric left the positive cone after the step")
                g = g * math.exp((logdet0 - float(logdet)) / 3.0)
            # bytes, so that -0.0 and 0.0 count as different metrics; g is
            # exactly symmetric, so make_state would return the state's data
            stationary = g.tobytes() == state.metric.tobytes()
            state = (
                _repeat(state, float(state.time + dt)) if stationary
                else _named("after the step", make_state, L, state.time + dt, g)
            )
        except DegenerateMetric as exc:
            # the cause stays the metric rule's own refusal
            raise DegenerateMetric(
                f"step {n} (t={n * dt:g}): {exc}", trajectory=states
            ) from exc.__cause__
        if n % stride == 0 or n == steps:
            states.append(state)
        if stationary:
            break
    # the time advances as stepping on would advance it; a state is built
    # only where it is recorded
    time = state.time
    for n in range(n + 1, steps + 1):
        time = float(time + dt)
        if n % stride == 0 or n == steps:
            states.append(_repeat(state, time))
    fixed = (
        fixed_point_tol is not None
        and states[-1].cotton_norm <= fixed_point_tol
    )
    return FlowResult(tuple(states), fixed)


def write_trajectory(states, fh) -> None:
    """Write flow states (a ``FlowResult.trajectory``, or the partial one a
    ``DegenerateMetric`` carries) to a text stream as CSV with
    round-tripping float reprs."""
    fh.write("time,g11,g12,g13,g22,g23,g33,cotton_norm\n")
    for st in states:
        m = st.metric
        vals = (
            st.time,
            m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2],
            st.cotton_norm,
        )
        fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def export_trajectory(states, path: str) -> None:
    """Write flow states to a CSV file (the format of ``write_trajectory``)."""
    with open(path, "w") as fh:
        write_trajectory(states, fh)
