"""Cotton flow of left-invariant metrics: dg/dt = C(g).

The bracket structure stays fixed while the frame metric evolves by its
own (0,2) Cotton tensor.  Fixed points are exactly the conformally flat
metrics (C = 0).  Since C is trace free the flow preserves volume to
leading order; an optional normalization rescales the metric after each
step to hold det g exactly.

Integration is classical fourth-order Runge-Kutta with symmetrized
stages.  The metric must stay positive definite: when a stage or a step
leaves the positive cone, or a stage metric or the step's result becomes
singular, the run aborts with ``DegenerateMetric`` carrying the trajectory
computed so far.

Each stage and each recorded state evaluates C(g) as
``cotton2_array(c, g)``: the chain of ``cotton_pack`` on plain arrays,
without value types or the Ricci operator and scalar the flow never reads.
It factors the metric once, with ``eigh``, and reads the positive-cone
check, the singularity checks, the inverse and the determinant off that
one factorization.  Ricci is contracted from the connection; no Riemann
tensor is built on the Cotton path.  A Cholesky check of the step's result
guards the optional rescaling, which takes a real cube root of det g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cotton import cotton2_array
from .errors import DegenerateMetric, SingularMetric
from .frame_algebra import MetricLieAlgebra3, SymBilinear


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


def _require_spd(g: np.ndarray, where: str) -> None:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric left the positive cone {where}") from exc


def _stage(c: np.ndarray, g: np.ndarray, where: str) -> np.ndarray:
    """C(g) of the RK4 stage metric ``g``, naming the stage when it left the
    positive cone."""
    try:
        return cotton2_array(c, g)
    except DegenerateMetric as exc:
        raise DegenerateMetric(f"metric left the positive cone {where}") from exc


def make_state(L: MetricLieAlgebra3, time: float, g: np.ndarray) -> FlowState:
    """Package a metric as a flow state with its Cotton tensor attached.

    The symmetrized ``g`` must be positive definite: ``cotton2_array`` raises
    ``DegenerateMetric`` outside the positive cone and ``SingularMetric`` for
    a singular metric.
    """
    g = np.asarray(g, dtype=float)
    g = 0.5 * (g + g.T)
    c2 = cotton2_array(L.structure_constants, g)
    return FlowState(float(time), g, SymBilinear(c2), float(np.linalg.norm(c2)))


def _rk4(L: MetricLieAlgebra3, state: FlowState, dt: float) -> np.ndarray:
    """Metric after one classical Runge-Kutta step of dg/dt = C(g).

    The state's ``cotton2`` is the right-hand side at the step's start, so
    it serves as the first stage; ``state`` must therefore carry the
    Cotton tensor of its own metric (as ``make_state`` arranges).  Every
    intermediate stage metric is required to stay positive definite and
    nonsingular, as checked by its own evaluation.
    """
    c, g = L.structure_constants, state.metric
    k1 = state.cotton2.components
    try:
        k2 = _stage(c, g + 0.5 * dt * k1, "in the second stage")
        k3 = _stage(c, g + 0.5 * dt * k2, "in the third stage")
        k4 = _stage(c, g + dt * k3, "in the fourth stage")
    except SingularMetric as exc:
        raise DegenerateMetric(f"stage metric became singular: {exc}") from exc
    out = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = 0.5 * (out + out.T)
    _require_spd(out, "after the step")
    return out


def flow_run(
    L: MetricLieAlgebra3,
    dt: float,
    steps: int,
    g0: np.ndarray | None = None,
    stride: int = 1,
    normalize: bool = False,
    fixed_point_tol: float | None = None,
) -> FlowResult:
    """Integrate the flow for ``steps`` steps from ``g0`` (default: the
    algebra's metric).

    States are recorded every ``stride`` steps (the initial and final
    states always).  With ``normalize`` the metric is rescaled after each
    step to keep its determinant at the initial value.  ``fixed_point`` in
    the result reports whether the final state's Cotton norm is at or
    below ``fixed_point_tol``; it is False when no tolerance is given.
    If the metric degenerates, ``DegenerateMetric`` is raised with the
    states recorded so far attached as ``trajectory``.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    g = np.array(L.metric if g0 is None else g0, dtype=float)
    g = 0.5 * (g + g.T)
    _require_spd(g, "in the initial metric")
    det0 = float(np.linalg.det(g))
    state = make_state(L, 0.0, g)
    states = [state]
    for n in range(1, steps + 1):
        try:
            g = _rk4(L, state, dt)
        except DegenerateMetric as exc:
            raise DegenerateMetric(
                f"step {n} (t={n * dt:g}): {exc}", trajectory=states
            ) from exc
        if normalize:
            g = g * (det0 / float(np.linalg.det(g))) ** (1.0 / 3.0)
        try:
            state = make_state(L, state.time + dt, g)
        except SingularMetric as exc:
            raise DegenerateMetric(
                f"step {n} (t={n * dt:g}): metric became singular after the step: {exc}",
                trajectory=states,
            ) from exc
        if n % stride == 0 or n == steps:
            states.append(state)
    fixed = (
        fixed_point_tol is not None
        and states[-1].cotton_norm <= fixed_point_tol
    )
    return FlowResult(tuple(states), fixed)


def write_trajectory(result, fh) -> None:
    """Write a trajectory to a text stream as CSV with round-tripping float
    reprs."""
    rows = result.trajectory if isinstance(result, FlowResult) else result
    fh.write("time,g11,g12,g13,g22,g23,g33,cotton_norm\n")
    for st in rows:
        m = st.metric
        vals = (
            st.time,
            m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2],
            st.cotton_norm,
        )
        fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def export_trajectory(result, path: str) -> None:
    """Write a trajectory CSV file (the format of ``write_trajectory``)."""
    with open(path, "w") as fh:
        write_trajectory(result, fh)
