"""Acceptance gate: one check per release criterion, one report line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
for every criterion.
"""

import contextlib
import io
import math

import numpy as np

from conftest import abelian, audit, hyperbolic, layers, random_valid_algebra, su2_round
from cotton3 import (
    adapted_connection_table,
    classify_geometry,
    cotton2_closed_form,
    cotton_pack,
    curvature,
    detect_structure,
    flow_run,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    ricci_parallel_check,
    ricci_spectrum,
    xi_eigenvector_analysis,
)
from cotton3.cli import main as cli_main
from cotton3.connection_curvature import PRODUCT_H2XR, _cov_deriv
from cotton3.soliton import SolitonProblem, solve

FIXTURES = ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 3.0, 3.0))


def report(number, ok, name, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {tag}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_connection_table():
    worst = 0.0
    for lam, b, c in FIXTURES:
        L = from_kenmotsu_params(lam, b, c)
        gap = np.max(np.abs(levi_civita(L).gamma - adapted_connection_table(lam, b, c)))
        worst = max(worst, float(gap))
    report(1, worst <= 1e-12, "Levi-Civita connection matches the adapted table",
           f"max gap {worst:.3e} on {len(FIXTURES)} fixtures")


def test_criterion_02_ricci_closed_form():
    worst = 0.0
    scalar_gap = 0.0
    for lam, b, c in FIXTURES:
        L = from_kenmotsu_params(lam, b, c)
        pack = curvature(L, levi_civita(L))
        f = b * b + c * c + 2.0
        expected = np.array([
            [-2.0 * (lam * lam + 1.0), -2.0 * lam * b, -2.0 * lam * c],
            [-2.0 * lam * b, -f, 2.0 * lam],
            [-2.0 * lam * c, 2.0 * lam, -f],
        ])
        gap = np.max(np.abs(pack.ricci.components - expected))
        worst = max(worst, float(gap))
        scalar_gap = max(
            scalar_gap, abs(pack.scalar - (-2.0 * (lam * lam + 1.0) - 2.0 * f))
        )
    ok = worst <= 1e-10 and scalar_gap <= 1e-10
    report(2, ok, "Ricci tensor and scalar match their closed forms",
           f"max component gap {worst:.3e}, max scalar gap {scalar_gap:.3e}")


def test_criterion_03_cotton_closed_form():
    worst = 0.0
    for lam, b, c in FIXTURES + ((3.0, 0.0, 0.0), (1.0, -2.0, -2.0)):
        L = from_kenmotsu_params(lam, b, c)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ak = detect_structure(L, conn, pack)
        E = np.column_stack([v.components for v in ak.adapted_frame])
        oracle = E.T @ cotton_pack(L, conn, pack).cotton2.components @ E
        gap = np.max(np.abs(cotton2_closed_form(ak).components - oracle))
        worst = max(worst, float(gap))
    c2_two = cotton_pack(*layers(from_kenmotsu_params(2.0, 0.0, 0.0))).cotton2.components
    c2_one = cotton_pack(*layers(from_kenmotsu_params(1.0, 0.0, 0.0))).cotton2.components
    values_ok = (
        abs(c2_two[1, 1] - 12.0) <= 1e-8
        and np.max(np.abs(c2_one)) <= 1e-8
        and np.max(np.abs(c2_two - np.diag(np.diag(c2_two)))) <= 1e-8
    )
    ok = worst <= 1e-8 and values_ok
    report(3, ok, "Cotton tensor closed form matches the derivative route",
           f"max gap {worst:.3e}, C(e,e) at lam=2: {c2_two[1, 1]:.6g}")


def test_criterion_04_cotton_invariants_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        L = random_valid_algebra(rng, with_metric=bool(rng.integers(2)))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        cp = cotton_pack(L, conn, pack)
        c3t, c2 = cp.cotton3, cp.cotton2
        ginv = np.linalg.inv(L.metric)
        t = c3t.components
        worst = max(
            worst,
            float(np.max(np.abs(t + np.transpose(t, (1, 0, 2))))),
            float(np.max(np.abs(np.einsum("ij,ijk->k", ginv, t)))),
            float(np.max(np.abs(np.einsum("jk,ijk->i", ginv, t)))),
            float(np.max(np.abs(np.einsum("ik,ijk->j", ginv, t)))),
            abs(float(np.einsum("ij,ij->", ginv, c2.components))),
            float(np.max(np.abs(np.einsum(
                "ij,ijk->k", ginv, _cov_deriv(conn.gamma, c2.components)
            )))),
        )
    report(4, worst <= 1e-8,
           "Cotton tensors are skew, trace free, and divergence free",
           f"max violation {worst:.3e} over 200 random algebras")


def test_criterion_05_conformally_flat_fixtures():
    worst = max(
        cotton_pack(*layers(L)).norm2 for L in (abelian(), su2_round(), hyperbolic())
    )
    report(5, worst <= 1e-9, "Constant-curvature model spaces have zero Cotton tensor",
           f"max norm {worst:.3e}")


def test_criterion_06_collinear_ansatz():
    outcomes = {}
    for lam in (0.5, 1.0, 2.0, 3.0):
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ak = detect_structure(L, conn, pack)
        sol = solve(SolitonProblem(pack, ak.adapted_frame[:1]))
        outcomes[lam] = sol.classification
    ok = (
        outcomes[0.5] == outcomes[2.0] == outcomes[3.0] == "infeasible"
        and outcomes[1.0] == "trivial_only"
    )
    report(6, ok, "Reeb-collinear potentials never give a soliton",
           ", ".join(f"lam={k:g}: {v}" for k, v in sorted(outcomes.items())))


def test_criterion_07_orthogonal_ansatz_and_geometry():
    ok = True
    details = []
    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ak = detect_structure(L, conn, pack)
        sol = solve(SolitonProblem(pack, ak.adapted_frame[1:]))
        ok = ok and (sol.feasible == (lam == 1.0))
        if lam == 1.0:
            d = sol.family_basis[0]
            ok = ok and (
                abs(sol.sigma) <= 1e-10
                and sol.family_dim == 1
                and abs(d[0] - d[1]) <= 1e-10
            )
            par = ricci_parallel_check(L, conn, pack)
            cls = classify_geometry(pack, par.is_parallel)
            eigs = sorted(ricci_spectrum(pack))
            ok = ok and (
                cls.kind == PRODUCT_H2XR
                and abs((cls.curvature or 0.0) + 4.0) <= 1e-8
                and abs(eigs[0] + 4.0) <= 1e-8
                and abs(eigs[1] + 4.0) <= 1e-8
                and abs(eigs[2]) <= 1e-8
                and par.max_component <= 1e-10
            )
            details.append(
                f"lam=1: steady sigma={sol.sigma:.1e}, {cls.kind}"
                f"({cls.curvature:.6g})"
            )
        else:
            details.append(f"lam={lam:g}: {sol.classification}")
    report(7, ok, "Orthogonal potentials work exactly on the product geometry",
           "; ".join(details))


def test_criterion_08_reeb_eigenvector_dichotomy():
    ok = True
    details = []
    for lam in (0.5, 2.0, 3.0):
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        rep = xi_eigenvector_analysis(detect_structure(L, conn, pack))
        ok = ok and rep.is_eigenvector and rep.forced is not None
        ok = ok and abs(rep.forced["f"] - 2.0) <= 1e-10
        details.append(f"lam={lam:g}: eigenvector")
    L = from_kenmotsu_params(1.0, 3.0, 3.0)
    conn = levi_civita(L)
    pack = curvature(L, conn)
    rep = xi_eigenvector_analysis(detect_structure(L, conn, pack))
    ok = ok and not rep.is_eigenvector
    details.append(f"b=c=3: S(xi,e)={rep.s_xi_e:.6g}")
    report(8, ok, "Reeb field is a Ricci eigenvector exactly when b=c=0",
           "; ".join(details))


def test_criterion_09_structure_detection():
    ok = True
    details = []
    L = from_nonunimodular(1.0, 0.0)
    ak = detect_structure(L, levi_civita(L), curvature(L, levi_civita(L)))
    h_norm = float(np.max(np.abs(ak.h_op)))
    ok = ok and ak.kenmotsu and h_norm <= 1e-10
    details.append(f"(1,0): kenmotsu, |h|={h_norm:.1e}")
    for (alpha, beta), lam_expect in (
        ((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0), ((2.0, 0.5), math.sqrt(1.25))
    ):
        L = from_nonunimodular(alpha, beta)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ak = detect_structure(L, conn, pack)
        residual = max(audit(L, conn, pack, ak).values())
        ok = ok and ak.lam > 0 and abs(ak.lam - lam_expect) <= 1e-8
        ok = ok and residual <= 1e-8
        details.append(f"({alpha:g},{beta:g}): lam={ak.lam:.6g}, res={residual:.1e}")
    report(9, ok, "Structure detection recovers the adapted frame",
           "; ".join(details))


def test_criterion_10_flow_fixed_point_and_order():
    L1 = from_kenmotsu_params(1.0, 0.0, 0.0)
    result = flow_run(L1, dt=1e-3, steps=1000)
    drift = max(
        float(np.max(np.abs(st.metric - np.eye(3)))) for st in result.trajectory
    )

    L2 = from_kenmotsu_params(2.0, 0.0, 0.0)
    T = 0.02

    def terminal(dt):
        return flow_run(L2, dt=dt, steps=round(T / dt)).final.metric

    ref = terminal(2.5e-5)
    err_coarse = float(np.max(np.abs(terminal(1e-3) - ref)))
    err_fine = float(np.max(np.abs(terminal(5e-4) - ref)))
    order = math.log2(err_coarse / err_fine)
    ok = drift <= 1e-9 and abs(order - 4.0) <= 0.3
    report(10, ok, "Flow is stationary on flat metrics and fourth-order accurate",
           f"drift {drift:.3e}, observed order {order:.3f}")


def test_criterion_11_reference_checks_deterministic():
    runs = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli_main(["verify-paper", "--format", "machine"]))
        runs.append(buf.getvalue())
    ok = codes == [0, 0] and runs[0] == runs[1] and len(runs[0]) > 0
    report(11, ok, "Reference verification passes and is byte-stable",
           f"exit codes {codes}, {len(runs[0])} bytes per run")
