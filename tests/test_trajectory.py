"""bench/trajectory.py: a short run writes the trajectory schema,
``--compare`` applies the interquartile rule and the bound, and ``--ab``'s
report counts wins against the parent's interquartile range."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "trajectory.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULE_KEYS = {
    "lines", "factorization_call_sites", "metric_frame_call_sites", "matmul_sites",
    "dot_sites", "einsum_sites", "os_environ_reads", "cutoff_literal_count",
    "cutoff_literals", "default_tol_reads",
}


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """One workload, one 0.5 s repeat: the file and its text."""
    out = tmp_path_factory.mktemp("trajectory") / "BENCH.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--workload", "curvature_sweep",
         "--seconds", "0.5", "--repeats", "1"],
        check=True, capture_output=True, timeout=120)
    text = out.read_text()
    return json.loads(text), text


def test_short_run_writes_the_schema(short_run):
    data, text = short_run
    assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"
    assert set(data) == {"benchmark", "environment", "source", "workloads"}
    assert data["benchmark"] == {"command": SPEC["command"], "repeats": 1, "seconds": 0.5}
    assert set(data["environment"]) == {
        "python", "numpy", "blas", "cpu_count", "machine", "blas_pin"}
    source = data["source"]
    assert set(source) == {"src_lines", "all_names", "defaulted_public_parameters",
                           "dataclass_fields", "os_environ_reads", "modules"}
    assert sorted(source["modules"]) == sorted(p.name for p in (ROOT / "src/cotton3").glob("*.py"))
    assert all(set(m) == MODULE_KEYS for m in source["modules"].values())
    assert source["src_lines"] == sum(m["lines"] for m in source["modules"].values())

    assert list(data["workloads"]) == ["curvature_sweep"]
    w = data["workloads"]["curvature_sweep"]
    assert set(w) == {"correct", "runs", "end_to_end", "per_layer"}
    assert w["correct"] is True
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    [run] = w["runs"]
    assert set(run) == {"seed", "correct", "attempted", "failed", "metrics"}
    assert run["seed"] == 1 and run["failed"] == 0
    assert sorted(run["metrics"]) == sorted(end_to_end)
    assert sorted(w["end_to_end"]) == sorted(end_to_end)
    for name, stat in w["end_to_end"].items():
        assert set(stat) == {"median", "q1", "q3", "unit", "better"}
        assert stat["median"] == stat["q1"] == stat["q3"] == run["metrics"][name]
    assert set(w["per_layer"]) == {"seed", "correct", "metrics"}
    assert sorted(w["per_layer"]["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_compare_needs_a_difference_beyond_both_spreads(short_run, tmp_path, capsys):
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import trajectory
    finally:
        sys.path.remove(str(SCRIPT.parent))
    a = copy.deepcopy(short_run[0])
    ops = a["workloads"]["curvature_sweep"]["end_to_end"]["ops_per_s"]
    ops.update(median=100.0, q1=95.0, q3=105.0)
    b = copy.deepcopy(a)
    paths = tmp_path / "a.json", tmp_path / "b.json"

    def verdict(b_ops: dict) -> str:
        b["workloads"]["curvature_sweep"]["end_to_end"]["ops_per_s"].update(b_ops)
        for path, data in zip(paths, (a, b)):
            path.write_text(json.dumps(data))
        assert trajectory.main(["--compare", *map(str, paths)]) == 0
        [line] = [ln for ln in capsys.readouterr().out.splitlines() if " ops_per_s " in ln]
        return line.split(maxsplit=1)[1]

    # a gap of 11 beats the spread of A (10) and of B, within the bound (15)
    assert verdict(dict(median=111.0, q1=110.0, q3=112.0)).endswith(
        "1.1100  yes, better       no")
    assert verdict(dict(median=89.0, q1=88.0, q3=90.0)).endswith("0.8900  yes, worse        no")
    # within A's spread
    assert verdict(dict(median=108.0, q1=107.0, q3=109.0)).endswith("1.0800  no                no")
    # beyond A's spread, within B's
    assert verdict(dict(median=111.0, q1=100.0, q3=120.0)).endswith("1.1100  no                no")
    # ops_per_s is worse by more than its bound, 0.15 of A's median
    assert verdict(dict(median=84.0, q1=83.0, q3=85.0)).endswith("0.8400  yes, worse        yes")


def _pair(first, a_ops, b_ops, a_p50, b_p50):
    """One hand-made ``--ab`` pair: the given ops_per_s and op_p50_ms, every
    other end-to-end metric equal on both sides."""
    rest = {"op_tail_ms": 0.1, "ok_frac": 1.0, "peak_rss_mb": 38.0, "setup_s": 0.08}
    return {"first": first,
            "A": {"correct": True, "metrics": {"ops_per_s": a_ops, "op_p50_ms": a_p50, **rest}},
            "B": {"correct": True, "metrics": {"ops_per_s": b_ops, "op_p50_ms": b_p50, **rest}}}


def test_ab_report_counts_wins_and_flags_a_stall(capsys):
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import trajectory
    finally:
        sys.path.remove(str(SCRIPT.parent))
    # B faster in nine pairs; in pair 4 a stall in B's run costs it
    # ops_per_s although its p50 still wins
    pairs = [_pair("AB"[n % 2], 100.0 + n % 3, 110.0 + n % 3, 0.090, 0.082) for n in range(10)]
    pairs[3] = _pair("B", 101.0, 95.0, 0.090, 0.082)
    trajectory.ab_report(pairs)
    out = capsys.readouterr().out.splitlines()
    rows = out[1:11]
    assert [row.split()[:2] for row in rows] == [[str(n), "AB"[(n - 1) % 2]] for n in range(1, 11)]
    assert [row.endswith("yes") for row in rows] == [n == 3 for n in range(10)]
    lines = {line.split()[0]: line for line in out[11:]}
    # wins, ties, and the gap of the medians (10) against A's IQR (2)
    assert lines["ops_per_s"].endswith("9/10     0  yes, better")
    assert lines["op_p50_ms"].endswith("10/10     0  yes, better")
    assert lines["ok_frac"].endswith("0/10    10  no")
    assert lines["correct"].split()[1:] == ["True", "True"]

    # a gap of the medians within A's IQR is no verdict, however many wins
    pairs = [_pair("AB"[n % 2], 100.0 + 4 * (n % 3), 101.0 + 4 * (n % 3), 0.09, 0.09)
             for n in range(10)]
    trajectory.ab_report(pairs)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[11:]}
    assert lines["ops_per_s"].endswith("10/10     0  no")
    assert lines["op_p50_ms"].endswith("0/10    10  no")
    # a worse B beyond A's IQR
    pairs = [_pair("AB"[n % 2], 100.0, 90.0, 0.08, 0.09) for n in range(10)]
    trajectory.ab_report(pairs)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[11:]}
    assert lines["ops_per_s"].endswith("0/10     0  yes, worse")
    assert lines["op_p50_ms"].endswith("0/10     0  yes, worse")
