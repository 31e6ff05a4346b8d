"""The benchmark trajectory of one checkout, written as one JSON file.

Run from anywhere; the checkout measured is the one this file sits in::

    python bench/trajectory.py --out BENCH_<n>.json [--repeats 5] [--seconds S] [--workload W ...]
    python bench/trajectory.py --compare A.json B.json
    python bench/trajectory.py --ab PARENT_DIR [--pairs 10] --workload W [--seed 11] [--seconds S]
    python bench/trajectory.py --source

A run reads ``BENCHMARK.json`` and calls its command (``perfbench/run.py``)
as a subprocess, under the interpreter running this script, for each run:

* ``--repeats`` untraced runs (``--trace 0``) per workload, interleaved across
  the workloads, repeat r at seed r + 1; each workload gets the median and
  quartiles of every end-to-end metric, with every run's values and verdict
  (``correct``, ``attempted``, ``failed``) kept;
* one traced run (``--trace 1``) per workload, at seed 1, whose per-layer
  values are copied as printed;
* the environment (python, numpy and its BLAS, CPU count, and the BLAS
  thread pin, read from ``perfbench/run.py``'s ``worker_env``) and the
  source figures below.

``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``.  The file is
written with sorted keys.  ``--compare`` prints, per workload and end-to-end
metric, both medians with their quartiles, the ratio B/A, whether the
difference of the medians exceeds the interquartile range of both sides, the
spread a gain must beat, and whether B's median is worse than A's by more
than the metric's ``BENCHMARK.json`` bound, a share of A's median: the rule
that refuses a change.

``--ab PARENT_DIR`` measures a change against its parent on one machine at
one time: ``--pairs`` pairs of untraced runs of one workload at one seed, one
run of each pair from PARENT_DIR's checkout (A) and one from this one (B),
the side that runs first alternating from pair to pair.  It prints each
pair's ``ops_per_s`` and ``op_p50_ms`` side by side, flagging a pair where
the two move in opposite directions (a stall inside one run moves
``ops_per_s``, ops over the summed op time, and not the median), then per
end-to-end metric both sides' median [q1, q3], B/A, the pairs B wins and
ties, and whether the medians differ by more than A's interquartile range.

``--source`` prints the source figures: the src line count, in total and
per module, the size of ``__all__``, the defaulted parameters of the public
functions and classmethods, the field count of each public dataclass, the
``os.environ`` reads and, per module, the factorization call sites (the
helpers ``_svd``, ``_eigvalsh`` and ``_slogdet``, through which every LAPACK
call goes; their definitions not counted), the metric rule's call sites
(``_metric_frame``, likewise), the products on the ``@`` operator and on
``ndarray.dot`` (parsed with ast, so that docstrings do not count), the
``np.einsum`` call sites, the hand-set cutoffs (nonzero float literals with
|x| <= 1e-5 or |x| >= 1e5, counted and listed) and the ``DEFAULT_TOL`` reads.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cotton3"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def _count_calls(lines: list, name: str, word: bool) -> int:
    """Occurrences of ``name(`` on the lines that do not define it; with
    ``word``, only where a word boundary precedes it."""
    pattern = re.compile((r"\b" if word else "") + re.escape(name + "("))
    return sum(len(pattern.findall(line)) for line in lines if f"def {name}(" not in line)


def source_figures() -> dict:
    """The source figures of ``src/cotton3`` (see the module docstring)."""
    sys.path.insert(0, str(ROOT / "src"))
    import cotton3

    defaulted = 0
    for name in cotton3.__all__:
        obj = getattr(cotton3, name)
        if inspect.isfunction(obj):
            fns = [obj]
        elif inspect.isclass(obj):
            fns = [getattr(obj, k) for k, v in vars(obj).items() if isinstance(v, classmethod)]
        else:
            fns = []
        for fn in fns:
            params = inspect.signature(fn).parameters.values()
            defaulted += sum(p.default is not p.empty for p in params)
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        nodes = list(ast.walk(ast.parse(text)))
        cutoffs = [n.value for n in nodes
                   if isinstance(n, ast.Constant) and type(n.value) is float
                   and n.value and not 1e-5 < abs(n.value) < 1e5]
        modules[path.name] = {
            "lines": text.count("\n"),
            "factorization_call_sites": {
                fn: _count_calls(lines, fn, word=True) for fn in ("_svd", "_eigvalsh", "_slogdet")},
            "metric_frame_call_sites": _count_calls(lines, "_metric_frame", word=False),
            "matmul_sites": sum(isinstance(getattr(n, "op", None), ast.MatMult) for n in nodes),
            "dot_sites": sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                             and n.func.attr == "dot" for n in nodes),
            "einsum_sites": text.count("np.einsum("),
            "os_environ_reads": text.count("os.environ"),
            "cutoff_literal_count": len(cutoffs),
            "cutoff_literals": sorted(set(cutoffs)),
            "default_tol_reads": sum(isinstance(n, ast.Name) and n.id == "DEFAULT_TOL"
                                     and isinstance(n.ctx, ast.Load) for n in nodes),
        }
    return {
        "src_lines": sum(m["lines"] for m in modules.values()),
        "all_names": len(cotton3.__all__),
        "defaulted_public_parameters": defaulted,
        "dataclass_fields": {
            name: len(dataclasses.fields(obj)) for name in cotton3.__all__
            if dataclasses.is_dataclass(obj := getattr(cotton3, name))},
        "os_environ_reads": sum(m["os_environ_reads"] for m in modules.values()),
        "modules": modules,
    }


def print_source(fig: dict) -> None:
    """The source figures as lines."""
    modules = fig["modules"]
    print(f"src/cotton3 lines: {fig['src_lines']}")
    for name, m in modules.items():
        print(f"{m['lines']:>6} src/cotton3/{name}")
    print(f"{fig['src_lines']:>6} total")
    print("__all__ names:", fig["all_names"])
    print("defaulted public parameters:", fig["defaulted_public_parameters"])
    print("public dataclass fields:", ", ".join(
        f"{name} {n}" for name, n in fig["dataclass_fields"].items()))
    print(f"os.environ reads: {fig['os_environ_reads']}")
    for name, m in modules.items():
        sites = " ".join(f"{fn} {n}" for fn, n in m["factorization_call_sites"].items())
        print(f"{name} factorization call sites: {sites}; "
              f"_metric_frame call sites: {m['metric_frame_call_sites']}; "
              f"@ product sites: {m['matmul_sites']}; "
              f".dot( product sites: {m['dot_sites']}; "
              f"np.einsum call sites: {m['einsum_sites']}")
    for name, m in modules.items():
        print(f"{name} cutoff literals: {m['cutoff_literal_count']} "
              f"{m['cutoff_literals']}; DEFAULT_TOL reads: {m['default_tol_reads']}")


def blas_pin() -> dict:
    """The BLAS thread variables of the benchmark's workers, as
    ``perfbench/run.py``'s ``worker_env`` sets them."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return {k: v for k, v in sorted(run.worker_env().items()) if k.endswith("_NUM_THREADS")}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_pin": blas_pin(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  root: Path = ROOT) -> dict:
    """The last stdout line of one benchmark run in the checkout ``root``, a
    JSON object."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    """Median and quartiles, numpy's linear percentiles of the values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def trajectory(workloads: list, repeats: int, seconds: float) -> dict:
    runs = {w: [] for w in workloads}
    for r in range(repeats):
        for w in workloads:
            out = run_benchmark(w, r + 1, seconds, trace=0)
            print(f"{w} seed {r + 1}: correct {out['correct']}, ops_per_s "
                  f"{out['metrics']['ops_per_s']['value']:.6g}", file=sys.stderr)
            runs[w].append({
                "seed": r + 1,
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {name: m["value"] for name, m in out["metrics"].items()},
            })
    result = {}
    for w in workloads:
        traced = run_benchmark(w, 1, seconds, trace=1)
        result[w] = {
            "correct": all(run["correct"] for run in runs[w]),
            "runs": runs[w],
            "end_to_end": {
                m["name"]: {**quartiles([run["metrics"][m["name"]] for run in runs[w]]),
                            "unit": m["unit"], "better": m["better"]}
                for m in SPEC["end_to_end"]},
            "per_layer": {
                "seed": 1,
                "correct": traced["correct"],
                "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
            },
        }
    return {
        "benchmark": {"command": SPEC["command"], "repeats": repeats, "seconds": seconds},
        "environment": environment(),
        "source": source_figures(),
        "workloads": result,
    }


def compare(a: dict, b: dict) -> None:
    """Per workload and end-to-end metric: A and B as median [q1, q3], B/A,
    whether |B - A| exceeds both sides' interquartile range, and whether B
    is worse than A by more than the metric's bound times A's median."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"{'workload':<17} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'B/A':>7}  {'beyond both IQRs':<16}  past bound")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            continue
        for name, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][name]
            diff = mb["median"] - ma["median"]
            beyond = all(abs(diff) > m["q3"] - m["q1"] for m in (ma, mb))
            worse_by = -diff if ma["better"] == "higher" else diff
            verdict = ("yes, " + ("worse" if worse_by > 0 else "better")) if beyond else "no"
            past = "yes" if worse_by > bounds[name] * ma["median"] else "no"
            ratio = mb["median"] / ma["median"] if ma["median"] else float("nan")
            cells = [f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]" for m in (ma, mb)]
            print(f"{w:<17} {name:<12} {cells[0]:<32} {cells[1]:<32} {ratio:>7.4f}  "
                  f"{verdict:<16}  {past}")
        print(f"{w:<17} {'correct':<12} {str(wa['correct']):<32} {str(wb['correct']):<32}")


def ab_pairs(parent: Path, pairs: int, workload: str, seed: int, seconds: float) -> list:
    """``pairs`` interleaved runs of ``workload`` at ``seed`` in the checkout
    ``parent`` (A) and in this one (B), A first in even pairs: per pair the
    side that ran first and each side's verdict and end-to-end values."""
    out = []
    for n in range(pairs):
        order = "AB" if n % 2 == 0 else "BA"
        pair = {"first": order[0]}
        for side in order:
            run = run_benchmark(workload, seed, seconds, trace=0,
                                root=parent if side == "A" else ROOT)
            pair[side] = {"correct": run["correct"],
                          "metrics": {name: m["value"] for name, m in run["metrics"].items()}}
        a, b = (pair[side]["metrics"]["ops_per_s"] for side in "AB")
        print(f"{workload} pair {n + 1}/{pairs}: ops_per_s A {a:.6g} B {b:.6g}", file=sys.stderr)
        out.append(pair)
    return out


def _gain(m: dict, a: float, b: float) -> float:
    """How much better B's value is than A's, positive where B is better."""
    return b - a if m["better"] == "higher" else a - b


def ab_report(pairs: list) -> None:
    """The pairs of ``ab_pairs`` side by side, then per end-to-end metric A
    and B as median [q1, q3], B/A, B's wins and ties out of the pairs, and
    whether B's median differs from A's by more than A's interquartile range."""
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    print(f"{'pair':>4} {'first':<5} {'A ops_per_s':>12} {'B ops_per_s':>12} "
          f"{'A op_p50_ms':>12} {'B op_p50_ms':>12}  disagree")
    for n, pair in enumerate(pairs, 1):
        a, b = pair["A"]["metrics"], pair["B"]["metrics"]
        moves = [_gain(spec[k], a[k], b[k]) for k in ("ops_per_s", "op_p50_ms")]
        disagree = "yes" if moves[0] * moves[1] < 0 else ""
        print(f"{n:>4} {pair['first']:<5} {a['ops_per_s']:>12.6g} {b['ops_per_s']:>12.6g} "
              f"{a['op_p50_ms']:>12.6g} {b['op_p50_ms']:>12.6g}  {disagree}".rstrip())
    print(f"{'metric':<12} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} {'B/A':>7}  "
          f"{'B wins':>6}  {'ties':>4}  beyond A's IQR")
    for m in SPEC["end_to_end"]:
        name = m["name"]
        a, b = ([pair[side]["metrics"][name] for pair in pairs] for side in "AB")
        qa, qb = quartiles(a), quartiles(b)
        gains = [_gain(m, x, y) for x, y in zip(a, b)]
        wins, ties = sum(g > 0 for g in gains), sum(g == 0 for g in gains)
        gap = _gain(m, qa["median"], qb["median"])
        verdict = ("yes, " + ("better" if gap > 0 else "worse")
                   if abs(gap) > qa["q3"] - qa["q1"] else "no")
        ratio = qb["median"] / qa["median"] if qa["median"] else float("nan")
        cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]" for q in (qa, qb)]
        print(f"{name:<12} {cells[0]:<32} {cells[1]:<32} {ratio:>7.4f}  "
              f"{f'{wins}/{len(pairs)}':>6}  {ties:>4}  {verdict}")
    correct = [all(pair[side]["correct"] for pair in pairs) for side in "AB"]
    print(f"{'correct':<12} {str(correct[0]):<32} {str(correct[1]):<32}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the trajectory of this checkout here")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    mode.add_argument("--source", action="store_true", help="print the source figures")
    mode.add_argument("--ab", type=Path, metavar="PARENT_DIR",
                      help="interleaved pairs against the checkout PARENT_DIR")
    names = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run (repeatable; default: every workload)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=10, help="--ab pairs")
    ap.add_argument("--seed", type=int, default=11, help="--ab seed")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)
    if args.source:
        print_source(source_figures())
    elif args.compare:
        compare(*(json.loads(p.read_text()) for p in args.compare))
    elif args.ab:
        if args.pairs < 1:
            ap.error("--pairs must be at least 1")
        if len(args.workload or ()) != 1:
            ap.error("--ab needs exactly one --workload")
        ab_report(ab_pairs(args.ab, args.pairs, args.workload[0], args.seed, args.seconds))
    else:
        if args.repeats < 1:
            ap.error("--repeats must be at least 1")
        data = trajectory(args.workload or names, args.repeats, args.seconds)
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
