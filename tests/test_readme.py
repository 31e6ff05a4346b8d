"""The README's Library example runs as printed, its comments hold, and
the public-name count it states is the package's."""

import re
from pathlib import Path

import numpy as np

import cotton3

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_documented():
    ns = {}
    exec(compile(_library_block(), str(README), "exec"), ns)
    L, pack, cp, ak = ns["L"], ns["pack"], ns["cp"], ns["ak"]
    assert np.array_equal(L.metric, np.eye(3))
    assert ns["conn"].gamma.shape == (3, 3, 3)
    # scalar = -14, and cotton_pack returns the Cotton data curvature built
    assert abs(pack.scalar + 14.0) <= 1e-12
    assert pack.algebra is L
    assert cp is pack.cotton
    # lambda = 2, b = c = 0
    assert abs(ak.lam - 2.0) <= 1e-12 and abs(ak.b) <= 1e-12 and abs(ak.c) <= 1e-12
    assert set(ns["survey"]) == {"collinear", "orthogonal", "general"}
    # the standard frame and the adapted frame span the same ansatz space
    assert ns["general"].classification == ns["survey"]["general"].classification
    assert ns["orth"].classification == "infeasible"
    # lam = 1 is conformally flat: a fixed point with the identity metric
    flow = ns["flow"]
    assert ns["at_fixed_point"] and len(flow.trajectory) == 1001
    assert flow.final.cotton_norm <= 1e-9
    assert np.array_equal(flow.final.metric, np.eye(3))
    moved = ns["moved"]
    assert np.array_equal(moved.trajectory[0].metric, np.diag([1.0, 2.0, 1.5]))
    assert len(moved.trajectory) == 11


def test_public_name_count_matches():
    text = re.sub(r"\s+", " ", README.read_text())
    counts = re.findall(r"`cotton3\.__all__` holds (\d+) names", text)
    assert counts == [str(len(cotton3.__all__))]
