"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Every workload exposes

* ``make_inputs(seed)``: a list of plain-data inputs (numpy arrays, floats,
  flags).  The same seed gives byte-identical inputs; family proportions are
  fixed and only the parameters are drawn, so two seeds ask for the same mix
  of work.
* ``run(inp)``: the op itself, through the public ``cotton3`` API only.
  Returns ``(result, ops)``; ``ops`` is 1 except on ``cotton_flow``, where
  one call integrates a whole trajectory and every RK4 step is an op.
* ``check(inp, result)``: a list of failure messages, empty when every
  output check passes.  Checks run outside the timed region.
* ``digest(result)``: exact bytes of the outputs, to compare two runs.

The engine is reached as ``c3.<name>`` at call time, never bound at import,
so the tracer can wrap the public functions after this module is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import cotton3 as c3

# --------------------------------------------------------------------------
# generators


def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Random rotation: QR of a Gaussian matrix, determinant fixed to +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rotate(sc: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Constants in the frame e'_i = sum_a P[a, i] e_a, for orthogonal P."""
    return np.einsum("ai,bj,abk,kl->ijl", P, P, sc, P)


def _spd(rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random symmetric positive definite 3x3 matrix."""
    B = rng.normal(size=(3, 3))
    return np.eye(3) + 0.4 * (B @ B.T)


def _milnor(c1: float, c2: float, c3_: float) -> np.ndarray:
    sc = np.zeros((3, 3, 3))
    sc[1, 2, 0], sc[2, 1, 0] = c1, -c1
    sc[2, 0, 1], sc[0, 2, 1] = c2, -c2
    sc[0, 1, 2], sc[1, 0, 2] = c3_, -c3_
    return sc


def _kenmotsu(lam: float, b: float) -> np.ndarray:
    return np.array(c3.from_kenmotsu_params(lam, b, b).structure_constants)


def _nonunimodular(alpha: float, beta: float) -> np.ndarray:
    return np.array(c3.from_nonunimodular(alpha, beta).structure_constants)


def _lam_off_one(rng: np.random.Generator) -> float:
    """A lambda clearly away from 1, where the orthogonal ansatz fails."""
    if rng.random() < 0.5:
        return float(rng.uniform(0.2, 0.8))
    return float(rng.uniform(1.25, 3.0))


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _sweep_inputs(seed: int) -> list:
    """240 geometries: 60 each of Milnor, non-unimodular, Kenmotsu (lam,0,0)
    and Kenmotsu (1,b,b), each randomly rotated, each with a random SPD
    metric."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(60):
        out.append(("milnor", _milnor(*rng.uniform(-2.0, 2.0, 3))))
        out.append(("nonunimodular",
                    _nonunimodular(rng.uniform(-1.0, 3.0), rng.uniform(-1.5, 1.5))))
        out.append(("kenmotsu", _kenmotsu(float(rng.uniform(0.1, 3.0)), 0.0)))
        out.append(("kenmotsu_one", _kenmotsu(1.0, float(rng.uniform(-2.0, 2.0)))))
    out = [
        {"family": fam, "constants": _rotate(sc, _rotation(rng)), "metric": _spd(rng)}
        for fam, sc in out
    ]
    return _shuffled(rng, out)


def _survey_inputs(seed: int) -> list:
    """72 orthonormal geometries with known (lambda, |b|, |c|).

    21 of the (lam, 0, 0) family (12 with lam = 1 exactly), 24 of the
    (1, b, b) family, 27 non-unimodular (alpha, beta) with lambda =
    hypot(alpha - 1, beta): 6 with h = 0, 12 with lambda = 1, 9 general.
    Op cost falls in three groups of 24: the lambda != 1 members (about
    4 ms on the reference machine), the (1, b, b) family (about 7 ms) and
    the other lambda = 1 members (about 10 ms).  The median op then lies in
    the middle of a group instead of on the edge between two, so it does
    not jump between runs.
    """
    rng = np.random.default_rng([seed, 2])
    raw = []
    for k in range(21):
        lam = 1.0 if k < 12 else _lam_off_one(rng)
        raw.append(("kenmotsu", _kenmotsu(lam, 0.0), lam, 0.0))
    for _ in range(24):
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        raw.append(("kenmotsu_one", _kenmotsu(1.0, b), 1.0, abs(b)))
    for k in range(27):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rho = 0.0 if k < 6 else 1.0 if k < 18 else float(rng.uniform(0.2, 3.0))
        alpha, beta = 1.0 + rho * math.cos(theta), rho * math.sin(theta)
        raw.append(("nonunimodular", _nonunimodular(alpha, beta),
                    math.hypot(alpha - 1.0, beta), 0.0))
    out = [
        {"family": fam, "constants": _rotate(sc, _rotation(rng)), "lam": lam, "bc": bc}
        for fam, sc, lam, bc in raw
    ]
    return _shuffled(rng, out)


FLOW_DT = 2e-3
FLOW_STEPS = 25


def _flow_inputs(seed: int) -> list:
    """24 (algebra, initial metric) pairs; every other one normalizes.

    6 are conformally flat fixed points: a rotated (1, b, b) algebra or the
    hyperbolic (1, 0) algebra with a multiple of the identity metric.  The
    rest are random Milnor, non-unimodular and (lam, 0, 0) algebras with
    random SPD metrics; some of them reach the finite-time singularity.
    """
    rng = np.random.default_rng([seed, 3])
    out = []
    for k in range(24):
        if k < 6:
            sc = (_kenmotsu(1.0, float(rng.uniform(-2.0, 2.0))) if k % 2 == 0
                  else _nonunimodular(1.0, 0.0))
            sc = _rotate(sc, _rotation(rng))
            g0 = float(rng.uniform(0.5, 2.0)) * np.eye(3)
            fixed = True
        else:
            fam = k % 3
            if fam == 0:
                sc = _milnor(*rng.uniform(-2.0, 2.0, 3))
            elif fam == 1:
                sc = _nonunimodular(rng.uniform(-1.0, 3.0), rng.uniform(-1.5, 1.5))
            else:
                sc = _kenmotsu(float(rng.uniform(0.1, 3.0)), 0.0)
            g0 = _spd(rng)
            fixed = False
        out.append({"constants": sc, "metric": g0, "fixed_point": fixed,
                    "normalize": k % 2 == 1})
    return _shuffled(rng, out)


# --------------------------------------------------------------------------
# checks shared by several workloads


def _close(a: float, b: float, scale: float = 1.0, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(scale))


def _upper_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M[np.triu_indices(3)]))


def _hash(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.digest()


# --------------------------------------------------------------------------
# curvature_sweep


class CurvatureSweep:
    name = "curvature_sweep"
    make_inputs = staticmethod(_sweep_inputs)

    @staticmethod
    def run(inp):
        L = c3.MetricLieAlgebra3(inp["constants"], inp["metric"])
        report = c3.validate(L)
        conn = c3.levi_civita(L)
        pack = c3.curvature(L, conn)
        parallel = c3.ricci_parallel_check(L, conn, pack)
        geo = c3.classify_geometry(pack, parallel.is_parallel)
        cp = c3.cotton_pack(L, conn, pack)
        problem = c3.SolitonProblem.build(L, conn=conn, pack=pack)
        sol = c3.solve(problem)
        return (L, report, conn, pack, parallel, geo, cp, problem, sol), 1

    @staticmethod
    def check(inp, result):
        L, report, conn, pack, parallel, geo, cp, problem, sol = result
        bad = []
        if not report.is_valid:
            bad.append(f"validate rejected a valid algebra: {report.violations}")
        g = L.metric
        gi = np.linalg.inv(g)
        gscale = float(np.max(np.abs(gi)))
        C = cp.cotton3.components
        cmax = float(np.max(np.abs(C)))
        if not np.all(np.isfinite(C)):
            bad.append("cotton3 not finite")
        if float(np.max(np.abs(C + C.transpose(1, 0, 2)))) > 1e-9 * (1 + cmax):
            bad.append("cotton3 not skew in its first two slots")
        tr = max(float(np.max(np.abs(np.einsum("ik,ijk->j", gi, C)))),
                 float(np.max(np.abs(np.einsum("jk,ijk->i", gi, C)))))
        if tr > 1e-9 * (1 + cmax * gscale):
            bad.append(f"cotton3 not trace free ({tr:.3e})")
        C2 = cp.cotton2.components
        c2max = float(np.max(np.abs(C2)))
        if float(np.max(np.abs(C2 - C2.T))) > 1e-9 * (1 + c2max):
            bad.append("cotton2 not symmetric")
        tr2 = abs(float(np.trace(gi @ C2)))
        if tr2 > 1e-9 * (1 + c2max * gscale):
            bad.append(f"cotton2 not g-trace free ({tr2:.3e})")
        if not _close(cp.norm2, float(np.linalg.norm(C2)), cp.norm2):
            bad.append("cotton norm does not match the (0,2) form")
        S = pack.ricci.components
        smax = float(np.max(np.abs(S)))
        if float(np.max(np.abs(S - S.T))) > 1e-9 * (1 + smax):
            bad.append("ricci not symmetric")
        trace = float(np.sum(gi * S))
        if not _close(pack.scalar, trace, smax * gscale):
            bad.append(f"scalar {pack.scalar!r} is not the metric trace {trace!r}")
        lhs = c3.soliton_residual(problem, sol.v, sol.sigma).components
        res = _upper_norm(lhs)
        if not _close(res, sol.residual, c2max):
            bad.append(f"soliton residual {sol.residual!r} recomputes to {res!r}")
        return bad

    @staticmethod
    def digest(result):
        L, report, conn, pack, parallel, geo, cp, problem, sol = result
        return _hash(report.is_valid, conn.gamma, pack.riemann, pack.ricci.components,
                     pack.scalar, parallel.max_component, geo.kind, geo.curvature,
                     cp.cotton3.components, cp.cotton2.components, cp.norm2,
                     sol.classification, sol.coefficients, sol.sigma, sol.residual,
                     sol.family_dim)


# --------------------------------------------------------------------------
# structure_survey


class StructureSurvey:
    name = "structure_survey"
    make_inputs = staticmethod(_survey_inputs)

    @staticmethod
    def run(inp):
        L = c3.MetricLieAlgebra3(inp["constants"], np.eye(3))
        conn = c3.levi_civita(L)
        pack = c3.curvature(L, conn)
        ak = c3.detect_structure(L, conn, pack)
        residuals = c3.structure_residuals(L, conn, pack, ak)
        hpar = c3.check_h_parallel(L, conn, ak)
        xi_rep = None if ak.kenmotsu else c3.xi_eigenvector_analysis(ak)
        survey = c3.soliton_existence_survey(ak)
        return (ak, residuals, hpar, xi_rep, survey), 1

    @staticmethod
    def check(inp, result):
        ak, residuals, hpar, xi_rep, survey = result
        bad = []
        lam, bc = inp["lam"], inp["bc"]
        if not _close(ak.lam, lam, lam, 1e-8):
            bad.append(f"lambda {ak.lam!r}, generated {lam!r}")
        for name, got in (("b", ak.b), ("c", ak.c)):
            if not _close(abs(got), bc, bc, 1e-8):
                bad.append(f"|{name}| = {abs(got)!r}, generated {bc!r}")
        if ak.kenmotsu != (lam == 0.0):
            bad.append(f"kenmotsu flag {ak.kenmotsu} for lambda {lam!r}")
        coll = survey["collinear"].classification
        if coll not in (c3.INFEASIBLE, c3.TRIVIAL_ONLY):
            bad.append(f"collinear ansatz is nontrivially feasible ({coll})")
        if inp["family"] == "kenmotsu":
            at_one = lam == 1.0
            if survey["orthogonal"].feasible != at_one:
                bad.append(f"orthogonal feasibility {survey['orthogonal'].feasible} "
                           f"at lambda {lam!r}")
        if (xi_rep is None) != ak.kenmotsu:
            bad.append("Reeb eigenvector analysis run on the wrong branch")
        return bad

    @staticmethod
    def digest(result):
        ak, residuals, hpar, xi_rep, survey = result
        parts = [ak.xi.components, ak.phi, ak.h_op, ak.lam, ak.b, ak.c, ak.kenmotsu,
                 sorted(residuals.items()), hpar]
        if xi_rep is not None:
            parts += [xi_rep.is_eigenvector, xi_rep.s_xi_e, xi_rep.s_xi_phi_e,
                      xi_rep.reduced_bracket_residual]
        for name in sorted(survey):
            sol = survey[name]
            parts += [name, sol.classification, sol.coefficients, sol.sigma,
                      sol.residual, sol.family_dim]
        return _hash(*parts)


# --------------------------------------------------------------------------
# cotton_flow


class CottonFlow:
    name = "cotton_flow"
    make_inputs = staticmethod(_flow_inputs)

    @staticmethod
    def run(inp):
        L = c3.MetricLieAlgebra3(inp["constants"], inp["metric"])
        try:
            res = c3.flow_run(L, FLOW_DT, FLOW_STEPS, normalize=inp["normalize"])
            states, degenerate = res.trajectory, False
        except c3.DegenerateMetric as exc:
            # the finite-time singularity is a result; the failed step
            # counts as an op
            states, degenerate = tuple(exc.trajectory), True
        return (states, degenerate), len(states) - 1 + int(degenerate)

    @staticmethod
    def check(inp, result):
        states, degenerate = result
        bad = []
        g0 = inp["metric"]
        det0 = float(np.linalg.det(g0))
        if not states:
            return ["no state recorded"]
        for st in states:
            g = st.metric
            if not (np.all(np.isfinite(g)) and math.isfinite(st.cotton_norm)):
                bad.append(f"non-finite state at t={st.time!r}")
                break
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                bad.append(f"metric not SPD at t={st.time!r}")
                break
            if inp["normalize"] and abs(float(np.linalg.det(g)) / det0 - 1.0) > 1e-9:
                bad.append(f"normalized flow lost det g at t={st.time!r}")
                break
        if inp["fixed_point"]:
            drift = max(float(np.max(np.abs(st.metric - g0))) for st in states)
            if degenerate or len(states) != FLOW_STEPS + 1 or drift > 1e-9 * (1 + float(np.max(g0))):
                bad.append(f"fixed point drifted by {drift:.3e}")
        return bad

    @staticmethod
    def digest(result):
        states, degenerate = result
        return _hash(degenerate, *[p for st in states
                                   for p in (st.time, st.metric, st.cotton_norm)])


# --------------------------------------------------------------------------
# verify_paper

VERIFY_ARGV = ("verify-paper", "--format", "machine")
# sha256 of the machine output, recorded from the unmodified engine
_VERIFY_DIGEST = Path(__file__).with_name("verify_paper.sha256").read_text().split()[0]


class VerifyPaper:
    name = "verify_paper"

    @staticmethod
    def make_inputs(seed):
        # the reproduction command has no inputs to draw; the seed is unused
        return [{"argv": list(VERIFY_ARGV)}]

    @staticmethod
    def run(inp):
        from cotton3 import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp["argv"]))
        return (code, buf.getvalue()), 1

    @staticmethod
    def check(inp, result):
        code, out = result
        bad = []
        if code != 0:
            bad.append(f"verify-paper exited {code}")
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != _VERIFY_DIGEST:
            bad.append(f"verify-paper output digest {got} differs from {_VERIFY_DIGEST}")
        return bad

    @staticmethod
    def digest(result):
        return _hash(*result)


WORKLOADS = {w.name: w for w in (CurvatureSweep, StructureSurvey, CottonFlow, VerifyPaper)}


def inputs_digest(inputs: list) -> str:
    """Hex digest of a generated input list, for reproducibility checks."""
    parts = []
    for inp in inputs:
        for key in sorted(inp):
            parts += [key, inp[key]]
    return _hash(*parts).hex()
