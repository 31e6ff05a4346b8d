"""One benchmark process: ``python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS``.

``run.py`` starts every worker as a fresh, single-threaded interpreter and
reads the JSON object it prints as its last line.  Modes:

* ``setup``: time ``import cotton3`` (and ``cotton3.cli`` for
  ``verify_paper``) plus the first, cold op, in this fresh interpreter.
* ``measure``: the untraced timed run, whole passes over the input pool
  until the seconds are up.  Calibration slices run between ops, and every
  op's wall time is scaled by the slices around it (``calibrate.py``).
* ``trace``: untraced and traced passes over the pool, in turn, for the
  given seconds.  Gives the per-layer metrics and the tracing overhead, and
  checks that traced and untraced ops give identical outputs.

Numpy is not imported at module level, so ``setup`` sees its import cost.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# op_tail_ms is this percentile on every workload: the highest that leaves at
# least 10 samples beyond it on each of them in a 20-second run (verify_paper
# makes about 100-150 ops); p99 spread up to 11% between runs on a 2-core VM
TAIL_PERCENTILE = 90.0
CAL_SHARE = 0.3  # calibration time per second of op time
CAL_WINDOW = 3  # slices on each side of an op that calibrate it
MAX_ERRORS = 5


def _use_checkout_engine() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _check_engine_origin(cotton3) -> None:
    origin = Path(cotton3.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"cotton3 imported from {origin}, not from this checkout")


class Tally:
    """Attempted and failed op counts, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, ops: int, problems: list) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            if len(self.errors) < MAX_ERRORS:
                self.errors.append("; ".join(problems))


def _timed_op(w, inp, tally: Tally, tracer=None, op_id=None):
    """Run one op and check it; return (raw seconds, ops, result), or None
    if it raised.

    With a tracer, spans are recorded under ``op_id`` during the op only,
    not during its checks.
    """
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter_ns()
    try:
        result, ops = w.run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        tally.record(1, [f"{type(exc).__name__}: {exc}"])
        return None
    finally:
        if tracer is not None:
            tracer.op = None
    dt = (time.perf_counter_ns() - t0) * 1e-9
    tally.record(ops, w.check(inp, result))
    return dt, ops, result


class Runner:
    """Runs ops with calibration slices interleaved between them.

    Each op is recorded with its position among the slices; after the run,
    ``calibrated`` scales each op's wall time by the median speed of the
    ``CAL_WINDOW`` slices on either side of it.
    """

    def __init__(self, w, tally: Tally):
        import calibrate

        self.calibrate = calibrate
        self.w, self.tally = w, tally
        # compact arrays, so the harness's own memory barely grows with the
        # number of ops a run makes
        self.slices = array("d")
        self.dts, self.ops, self.pos = array("d"), array("q"), array("q")
        self.owed = 0.0
        for _ in range(CAL_WINDOW):
            self._slice()

    def _slice(self) -> float:
        dt, per_iter = self.calibrate.timed_slice()
        self.slices.append(per_iter)
        return dt

    def op(self, inp, tracer=None, op_id=None):
        out = _timed_op(self.w, inp, self.tally, tracer, op_id)
        if out is not None:
            dt, ops, _ = out
            self.dts.append(dt)
            self.ops.append(ops)
            self.pos.append(len(self.slices))
            self.owed += CAL_SHARE * dt
            while self.owed > 0:
                self.owed -= self._slice()
        return out

    def finish(self) -> None:
        for _ in range(CAL_WINDOW):
            self._slice()

    def calibrated(self, first: int = 0) -> list:
        """(calibrated seconds, raw seconds, ops) of the ops from ``first`` on."""
        ref = self.calibrate.REF_ITER_S
        out = []
        for dt, ops, pos in zip(self.dts[first:], self.ops[first:], self.pos[first:]):
            window = self.slices[max(0, pos - CAL_WINDOW):pos + CAL_WINDOW]
            out.append((dt * ref / statistics.median(window), dt, ops))
        return out


def _percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q / 100.0 * len(sorted_vals)) - 1
    return sorted_vals[min(max(k, 0), len(sorted_vals) - 1)]


def _setup(wname: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart: it is the yardstick for set-up)

    t_numpy = time.perf_counter() - t0
    import cotton3

    if wname == "verify_paper":
        import cotton3.cli  # noqa: F401  (the CLI's import cost is set-up)
    t_import = time.perf_counter() - t0
    _check_engine_origin(cotton3)
    import calibrate
    import workloads

    w = workloads.WORKLOADS[wname]
    inp = w.make_inputs(seed)[0]
    tally = Tally()
    out = _timed_op(w, inp, tally)
    if out is None:
        raise SystemExit(f"first op raised: {tally.errors}")
    raw_s = t_import + out[0]
    return {"raw_s": raw_s, "cal_s": raw_s * calibrate.REF_NUMPY_IMPORT_S / t_numpy,
            "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}


def _load(wname: str, seed: int):
    import cotton3

    _check_engine_origin(cotton3)
    import workloads

    w = workloads.WORKLOADS[wname]
    inputs = w.make_inputs(seed)
    tally = Tally()
    for inp in inputs:  # one untimed pass: lazy set-up and caches are done
        _timed_op(w, inp, tally)
    return w, inputs, tally


def _measure(wname: str, seed: int, seconds: float) -> dict:
    w, inputs, tally = _load(wname, seed)
    runner = Runner(w, tally)
    passes = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for inp in inputs:
            runner.op(inp)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.finish()
    timed = runner.calibrated()
    ops = sum(n for _, _, n in timed)
    per_op_cal = sorted(c / n for c, _, n in timed)
    per_op_raw = sorted(r / n for _, r, n in timed)
    tail = _percentile(per_op_cal, TAIL_PERCENTILE)
    metrics = {
        "ops_per_s": ops / sum(c for c, _, _ in timed),
        "op_p50_ms": 1e3 * statistics.median(per_op_cal),
        "op_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "ops_per_s": ops / sum(r for _, r, _ in timed),
        "op_p50_ms": 1e3 * statistics.median(per_op_raw),
        "op_tail_ms": 1e3 * _percentile(per_op_raw, TAIL_PERCENTILE),
    }
    info = {"samples": len(per_op_cal), "passes": passes, "tail_percentile": TAIL_PERCENTILE,
            "beyond_tail": sum(1 for v in per_op_cal if v > tail),
            "speed": runner.calibrate.REF_ITER_S / statistics.median(runner.slices)}
    return {"metrics": metrics, "raw": raw, "info": info, "attempted": tally.attempted,
            "failed": tally.failed, "errors": tally.errors}


def _pass(runner: Runner, inputs, tracer=None):
    """Run the pool once; return (calibrated seconds, ops, output digests,
    calibrated-to-raw time ratio of the pass)."""
    first = len(runner.dts)
    digests = []
    for n, inp in enumerate(inputs):
        out = runner.op(inp, tracer, n)
        digests.append(None if out is None else runner.w.digest(out[2]))
    timed = runner.calibrated(first)
    cal = sum(c for c, _, _ in timed)
    return cal, sum(n for _, _, n in timed), digests, cal / sum(r for _, r, _ in timed)


def _trace(wname: str, seed: int, seconds: float) -> dict:
    import tracing

    w, inputs, tally = _load(wname, seed)
    runner = Runner(w, tally)
    tracer = tracing.Tracer()
    plain_s, traced_s, layer_us, first = [], [], {}, None
    reference = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_s:
        cal, ops, digests, _ = _pass(runner, inputs)
        plain_s.append(cal / ops)
        tracer.install()
        try:
            tcal, tops, tdigests, factor = _pass(runner, inputs, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(tcal / tops)
        if reference is None:
            reference = digests
        mismatched = sum(1 for a, b, c in zip(reference, digests, tdigests)
                         if not (a == b == c))
        if mismatched:
            tally.record(mismatched, [f"{mismatched} traced or repeated outputs differ"])
        summary = tracing.summarize(tracer.spans)
        for layer in tracing.LAYERS + (tracing.LINALG_LAYER,):
            layer_us.setdefault(layer, []).append(
                summary["self_ns"][layer] * 1e-3 * factor / tops)
        if first is None:
            first = (summary, tops)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace_{wname}.jsonl")
        tracer.clear()
    summary, ops = first
    calls = summary["calls"]
    n_detect = calls["almost_kenmotsu.detect_structure"]
    n_flow = calls["cotton_flow.flow_run"]
    metrics = {}
    for key in ("frame_algebra.validate", "connection_curvature.levi_civita",
                "connection_curvature.curvature", "cotton.cotton_pack",
                "almost_kenmotsu.detect_structure", "soliton.solve",
                "cotton_flow.flow_step", "numpy_linalg.lstsq", "numpy_linalg.svd",
                "numpy_linalg.solve"):
        metrics[f"{key}.calls_per_op"] = calls[key] / ops
    metrics["almost_kenmotsu.candidates_per_detect"] = (
        summary["candidates"] / n_detect if n_detect else 0.0)
    metrics["cotton_flow.degenerate_frac"] = summary["degenerate"] / n_flow if n_flow else 0.0
    for layer, vals in layer_us.items():
        metrics[f"{layer}.self_us_per_op"] = statistics.median(vals)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    info = {"passes": len(traced_s), "ops_per_pass": ops, "spans_per_pass": sum(calls.values())}
    return {"metrics": metrics, "info": info, "attempted": tally.attempted,
            "failed": tally.failed, "errors": tally.errors}


def main(argv: list) -> int:
    mode, wname, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    _use_checkout_engine()
    if mode == "setup":
        out = _setup(wname, seed)
    elif mode == "measure":
        out = _measure(wname, seed, seconds)
    elif mode == "trace":
        out = _trace(wname, seed, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
