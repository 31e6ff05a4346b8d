"""Cotton flow of left-invariant metrics: dg/dt = C(g).

The bracket structure stays fixed while the frame metric evolves by its
own (0,2) Cotton tensor.  Fixed points are exactly the conformally flat
metrics (C = 0).  Since C is trace free the flow preserves volume to
leading order; an optional normalization rescales the metric after each
step to hold det g exactly, by the cube root of det g from ``_slogdet``
(``np.linalg.slogdet``'s gufunc, bit for bit), which cannot overflow.

Integration is classical fourth-order Runge-Kutta.  Only the initial
metric is symmetrized: C(g) is exactly symmetric, and the stage metrics,
the Runge-Kutta sum and the rescaling act entrywise, so every later metric
is exactly symmetric too.  Each stage and each new state evaluates C(g) as
``cotton2_array(c, g)`` on plain arrays, bitwise ``curvature``'s (0,2)
Cotton tensor: the same connection and Ricci form, then the dual read
straight off gamma S.  The library's one metric rule checks g: a single
scalar Cholesky pass over g gives the positive-cone and singularity checks,
g^-1 and g / sqrt(det g).
A metric that fails the rule ends the run, naming the stage or step.

C(g) is a deterministic function of the bytes of g, so a stage whose
metric is bytewise the state's (C = 0, or a dt too small to move any entry)
takes the state's Cotton tensor instead of evaluating it again.  Likewise,
once a step returns a metric bytewise equal to its input (an exact fixed
point of the step, as g = I is for a conformally flat algebra), every later
step would return it again: the run stops evaluating and records the
remaining states with that metric and its Cotton data, the time still
advancing by dt per step.  The trajectory is bitwise the one that stepping
on would give, and from an exact fixed point a run evaluates C once.
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


@dataclass(frozen=True)
class FlowResult:
    """Recorded trajectory; ``final.cotton_norm`` tells how far its last
    state is from a fixed point."""

    trajectory: tuple

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


def _state(L: MetricLieAlgebra3, time: float, g: np.ndarray) -> FlowState:
    """The flow state at ``time`` on the exactly symmetric metric ``g``, which
    it takes over: ``DegenerateMetric`` or ``SingularMetric`` where
    ``cotton2_array`` refuses ``g``."""
    c2 = cotton2_array(L.structure_constants, g)
    flat = c2.ravel()
    # the Frobenius norm as sqrt(flat.dot(flat)), np.linalg.norm's own vector form
    return _wrap(FlowState, time=float(time), metric=g,
                 cotton2=_wrap(SymBilinear, components=c2),
                 cotton_norm=math.sqrt(flat.dot(flat)))


def _repeat(state: FlowState, time: float) -> FlowState:
    """``state`` at a later ``time``, at an exact fixed point of the step:
    the same metric and Cotton data, shared."""
    return _wrap(FlowState, time=time, metric=state.metric,
                 cotton2=state.cotton2, cotton_norm=state.cotton_norm)


def _rk4(L: MetricLieAlgebra3, state: FlowState, dt: float) -> np.ndarray:
    """Metric after one classical Runge-Kutta step of dg/dt = C(g).

    The state's ``cotton2`` is the right-hand side at the step's start, so
    it serves as the first stage; ``state`` must therefore carry the
    Cotton tensor of its own metric (as ``_state`` arranges).  A stage
    metric that fails the metric rule raises ``DegenerateMetric`` naming
    the stage.
    """
    g = state.metric
    here = g.tobytes()
    k = [state.cotton2.components]
    for where, a in (("in the second stage", 0.5 * dt),
                     ("in the third stage", 0.5 * dt), ("in the fourth stage", dt)):
        h = g + a * k[-1]
        # a stage at the state's own metric has the state's Cotton tensor
        k.append(k[0] if h.tobytes() == here
                 else _named(where, cotton2_array, L.structure_constants, h))
    k1, k2, k3, k4 = k
    return g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_run(
    L: MetricLieAlgebra3,
    dt: float,
    steps: int,
    stride: int = 1,
    normalize: bool = False,
) -> FlowResult:
    """Integrate the flow for ``steps`` steps from the algebra's metric; to
    start elsewhere, pass ``L.with_metric(g0)``.

    States are recorded every ``stride`` steps (the initial and final
    states always).  With ``normalize`` the metric is rescaled after each
    step to keep its determinant at the initial value; a metric whose
    determinant is not positive stays unscaled, for the metric rule to
    refuse "after the step".  The final state's ``cotton_norm`` is the
    distance from a fixed point (C = 0), for the caller to compare with a
    tolerance of its own.  ``ValueError`` when an entry of the initial
    Cotton tensor is not finite (constants and metric whose products
    overflow), before any step.  If the initial metric or a later one fails
    the metric rule, ``DegenerateMetric`` is raised with the states so far
    as ``trajectory``.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    g = 0.5 * (L.metric + L.metric.T)
    state = _named("in the initial metric", _state, L, 0.0, g)
    if not np.isfinite(state.cotton2.components).all():
        raise ValueError(
            "the initial Cotton tensor is not finite: the geometry exceeds double precision")
    logdet0 = float(_slogdet(g)[1]) if normalize else None
    states = [state]
    for n in range(1, steps + 1):
        try:
            g = _rk4(L, state, dt)
            if normalize:
                sign, logdet = _slogdet(g)
                # the real cube root needs det > 0 (slogdet of a nan is
                # (1, nan)); the metric rule refuses any other g, unscaled
                if sign > 0 and math.isfinite(logdet):
                    g = g * math.exp((logdet0 - float(logdet)) / 3.0)
            # bytes, so that -0.0 and 0.0 count as different metrics
            stationary = g.tobytes() == state.metric.tobytes()
            state = (_repeat(state, float(state.time + dt)) if stationary
                     else _named("after the step", _state, L, state.time + dt, g))
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
    return FlowResult(tuple(states))


_FIELDS = ("time", *("metric",) * 6, "cotton_norm")  # the field of each value of a row


def _csv_lines(states) -> list:
    """The CSV lines of ``states``, every row rendered before any is written:
    ``ValueError`` names the field of the first value that is not finite."""
    lines = ["time,g11,g12,g13,g22,g23,g33,cotton_norm\n"]
    for st in states:
        (g11, g12, g13), (_, g22, g23), (_, _, g33) = st.metric.tolist()
        row = (float(st.time), g11, g12, g13, g22, g23, g33, float(st.cotton_norm))
        bad = next((f for f, v in zip(_FIELDS, row) if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"{bad} is not finite: the geometry exceeds double precision")
        lines.append(",".join(map(repr, row)) + "\n")
    return lines


def write_trajectory(states, fh) -> None:
    """Write flow states (a ``FlowResult.trajectory``, or the partial one a
    ``DegenerateMetric`` carries) to a text stream as CSV with
    round-tripping float reprs; a non-finite value raises ``ValueError``
    before anything is written."""
    # line by line: a text stream drops what a short write leaves over, so
    # one large write would hide a reader that closed the stream
    fh.writelines(_csv_lines(states))


def export_trajectory(states, path: str) -> None:
    """Write flow states to a CSV file (the format of ``write_trajectory``);
    a non-finite value raises ``ValueError`` before the file is opened."""
    lines = _csv_lines(states)
    with open(path, "w") as fh:
        fh.writelines(lines)
