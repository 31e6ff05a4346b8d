"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _run_bench(workload, trace, seconds=1, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _traced(w, inputs):
    """Digests, span summary and tracer of one traced pass over ``inputs``."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        digests = []
        for n, inp in enumerate(inputs):
            tracer.op = n
            result, _ = w.run(inp)
            tracer.op = None
            digests.append(w.digest(result))
    finally:
        tracer.uninstall()
    return digests, tracing.summarize(tracer.spans), tracer


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert workloads.inputs_digest(w.make_inputs(7)) == workloads.inputs_digest(w.make_inputs(7))
    if name != "verify_paper":  # the reproduction command has no drawn inputs
        assert workloads.inputs_digest(w.make_inputs(7)) != workloads.inputs_digest(w.make_inputs(8))


@pytest.mark.parametrize("name", NAMES)
def test_outputs_pass_their_checks(name):
    w = workloads.WORKLOADS[name]
    for inp in w.make_inputs(5)[:12]:
        result, ops = w.run(inp)
        assert ops >= 1
        assert w.check(inp, result) == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_identical(name):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(4)[:10]
    plain = [w.digest(w.run(inp)[0]) for inp in inputs]
    traced, summary, tracer = _traced(w, inputs)
    assert traced == plain
    assert sum(summary["calls"].values()) > 0
    # uninstall restored the originals: a later run records nothing
    before = len(tracer.spans)
    tracer.op = 0
    w.run(inputs[0])
    assert len(tracer.spans) == before


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(6)
    first = _traced(w, inputs)[1]
    second = _traced(w, inputs)[1]
    for key in ("calls", "candidates", "degenerate"):
        assert first[key] == second[key]


def test_verify_paper_counts():
    w = workloads.VerifyPaper
    summary = _traced(w, w.make_inputs(0))[1]
    calls = summary["calls"]
    assert calls["connection_curvature.levi_civita"] == 226
    assert calls["almost_kenmotsu.detect_structure"] == 11
    assert calls["numpy_linalg.lstsq"] == 551
    assert calls["cli.main"] == 1


def test_linalg_outside_the_engine_is_not_counted():
    import numpy as np

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        np.linalg.solve(np.eye(3), np.ones(3))
        tracer.op = None
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_self_time_excludes_children():
    spans = [("outer", "a", 0, 100, -1, 0, None), ("inner", "b", 10, 40, 0, 0, None),
             ("leaf", "b", 15, 25, 1, 0, None)]
    summary = tracing.summarize(spans)
    assert summary["self_ns"] == {"a": 70, "b": 30}


def test_calibration_never_imports_cotton3():
    code = "import sys, calibrate; calibrate.timed_slice(); assert 'cotton3' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=60)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    proc = _run_bench("cotton_flow", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    every = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for line in lines[1:-1]:
        word = line.split()[0]
        if "_" in word:
            assert word in every, line


def test_trace_counts_repeat_across_runs():
    runs = []
    for _ in range(2):
        proc = _run_bench("verify_paper", 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if not k.endswith(("_us_per_op", "_frac"))}
              for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["connection_curvature.levi_civita.calls_per_op"] == 226


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("curvature_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
