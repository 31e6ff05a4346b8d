"""Fixed numpy-plus-Python calibration loop.

Wall-clock time on a shared machine drifts with load, clock speed and which
core the process lands on; on a 2-core VM the same op can take 1.7x longer
from one second to the next.  The benchmark therefore runs short slices of a
fixed loop that looks like the engine's own work (many calls on 3x3 arrays
plus Python bookkeeping) between ops, and scales each op's wall time by the
loop's speed measured right around it.  A calibrated time is
``t * REF_ITER_S / iter_s``: what the op would take on a reference machine on
which one loop iteration takes ``REF_ITER_S``.

This module never imports ``cotton3``: the yardstick must not move when the
engine changes.
"""

from __future__ import annotations

import time

import numpy as np

# One loop iteration on the reference machine: a 2-core x86-64 VM (Xeon,
# 2.1 GHz) with Python 3.11, numpy 2.4 and single-threaded OpenBLAS, on a
# core whose neighbour is idle.
REF_ITER_S = 5e-5

SLICE_ITERATIONS = 2

# ``import numpy`` in a fresh interpreter on the reference machine.  Set-up
# time is calibrated by the numpy import of the same process, timed just
# before ``import cotton3``: both are module imports, run moments apart.
REF_NUMPY_IMPORT_S = 0.06


def _inputs():
    c = np.zeros((3, 3, 3))
    c[0, 1] = (0.0, 1.0, -2.0)
    c[1, 0] = -c[0, 1]
    c[0, 2] = (0.0, -2.0, 1.0)
    c[2, 0] = -c[0, 2]
    g = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.2]])
    return c, g


_C, _G = _inputs()


def run(iterations: int) -> float:
    """Run the loop; return a value so the work cannot be skipped."""
    c, g = _C, _G
    acc = 0.0
    for i in range(iterations):
        cg = np.einsum("ijm,ml->ijl", c, g)
        k = 0.5 * (cg - np.einsum("jli->ijl", cg) + np.einsum("lij->ijl", cg))
        gamma = np.linalg.solve(g, k.reshape(9, 3).T).T.reshape(3, 3, 3)
        prod = np.einsum("jkm,iml->ijkl", gamma, gamma)
        ric = np.einsum("ijki->jk", prod - np.transpose(prod, (1, 0, 2, 3)))
        sv = np.linalg.svd(g, compute_uv=False)
        z, *_ = np.linalg.lstsq(np.vstack([ric, g]), np.arange(6.0), rcond=None)
        row = {"i": i, "sv": float(sv[0]), "z": float(z[0])}
        acc += row["sv"] + row["z"] + float(np.max(np.abs(ric))) * 1e-9
    return acc


def timed_slice() -> tuple:
    """Run one short slice; return (wall seconds, seconds per iteration)."""
    t0 = time.perf_counter()
    run(SLICE_ITERATIONS)
    dt = time.perf_counter() - t0
    return dt, dt / SLICE_ITERATIONS
