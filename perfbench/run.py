"""cotton3 benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Each call starts fresh single-threaded
interpreters (``worker.py``) that import ``cotton3`` from ``src/``:

* ``--trace 0``: several set-up probes, then the untraced timed run.  Prints
  every end-to-end metric of ``BENCHMARK.json``.
* ``--trace 1``: the traced run.  Prints every per-layer metric.

Timing metrics are in calibrated units (see ``calibrate.py``): ``cal_ms`` and
``1/cal_s`` are milliseconds and a rate on a reference machine, and the raw
wall-clock value is printed next to each, ungated.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 only when every worker finished; no result is printed otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}



class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def call_worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed nothing:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float):
    probes = [call_worker("setup", workload, seed, 0) for _ in range(SETUP_PROBES)]
    run = call_worker("measure", workload, seed, seconds)
    metrics = dict(run["metrics"])
    metrics["setup_s"] = statistics.median(p["cal_s"] for p in probes)
    raw = dict(run["raw"])
    raw["setup_s"] = statistics.median(p["raw_s"] for p in probes)
    info = run["info"]
    notes = {
        "op_tail_ms": f"p{info['tail_percentile']:g} of {info['samples']} samples, "
                      f"{info['beyond_tail']} beyond it",
        "ok_frac": f"{run['failed']} of {run['attempted']} ops failed",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, imports + first op, "
                   "scaled by their numpy import",
    }
    attempted = run["attempted"] + sum(p["attempted"] for p in probes)
    failed = run["failed"] + sum(p["failed"] for p in probes)
    errors = run["errors"] + [e for p in probes for e in p["errors"]]
    for name, value in metrics.items():
        extra = [notes[name]] if name in notes else []
        if name in raw:
            extra.append(f"raw {raw[name]:.6g} {UNITS[name].replace('cal_', '')}")
        print(f"  {name:<14} {value:>12.6g} {UNITS[name]:<8} ({'; '.join(extra)})"
              if extra else f"  {name:<14} {value:>12.6g} {UNITS[name]}")
    print(f"  {info['passes']} passes over the input pool; machine ran at "
          f"{info['speed']:.3g}x the reference speed (calibration loop median)")
    return metrics, attempted, failed, errors


def per_layer(workload: str, seed: int, seconds: float):
    run = call_worker("trace", workload, seed, seconds)
    metrics = run["metrics"]
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:>12.6g} {UNITS[name]}")
    info = run["info"]
    print(f"  {info['passes']} traced passes of {info['ops_per_pass']} ops, "
          f"{info['spans_per_pass']} spans each; spans in .perfbench_out/trace_{workload}.jsonl")
    return metrics, run["attempted"], run["failed"], run["errors"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cotton3" / "__init__.py").is_file():
        print(f"error: no cotton3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, errors = measure(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}",
              file=sys.stderr)
        return 1
    for err in errors:
        print(f"  FAILED: {err}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
