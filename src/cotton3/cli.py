"""Command line interface.

Subcommands operate on a geometry description file (JSON) holding one of

    {"kenmotsu": {"lambda": L, "b": B, "c": C}}
    {"nonunimodular": {"alpha": A, "beta": B}}
    {"brackets": [{"i": 1, "j": 2, "coeffs": [x, y, z]}, ...]}

with 1-indexed frame labels in the bracket form, plus an optional
"metric" entry (3x3 nested list, symmetric positive definite).  Output is
a human-readable report by default or, with --format machine, a single
deterministic JSON document carrying all computed values and the tool
version.  The tolerance is 1e-8 unless --tolerance gives another (flow has
no --tolerance: its one verdict takes --fixed-point-tol); it must be
positive and finite, as must every number in the geometry file.

Exit codes: 0 on success, 1 on input or structure errors, 2 when
verify-paper finds a reference value that does not reproduce.

The argument parser is built once, when this module is imported, and every
``main`` call parses with it; parsing leaves no state on it, so successive
in-process calls behave as separate runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .almost_kenmotsu import (
    adapted_connection_table,
    check_h_parallel,
    detect_structure,
    structure_residuals,
    xi_eigenvector_analysis,
)
from .connection_curvature import (
    PRODUCT_H2XR,
    _jacobi,
    classify_geometry,
    curvature,
    levi_civita,
    ricci_parallel_check,
    ricci_spectrum,
)
from .cotton import cotton2_closed_form
from .cotton_flow import export_trajectory, flow_run, write_trajectory
from .errors import Cotton3Error, DegenerateMetric, NoStructure
from .frame_algebra import (
    FrameVector,
    MetricLieAlgebra3,
    from_kenmotsu_params,
    from_nonunimodular,
    validate,
)
from .soliton import (
    INFEASIBLE,
    STEADY,
    TRIVIAL_ONLY,
    SolitonProblem,
    _frame_solutions,
    lie_derivative_metric,
    solve as solve_soliton,
    soliton_existence_survey,
)
from . import __version__

class CLIError(Exception):
    """Input that cannot be turned into a valid geometry."""


def _number(x, what) -> float:
    """``x`` as a double, naming ``what`` when it is not a JSON number (a
    bool is not one), not finite or, for an int (JSON integers have no size
    limit), too large for a double."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CLIError(f"{what} must be a number, got {x!r}")
    if not abs(x) <= sys.float_info.max:
        if isinstance(x, float):
            raise CLIError(f"{what} must be finite, got {x!r}")
        raise CLIError(f"{what} is too large for a double")
    return float(x)


def _params(obj, context, required, optional=()) -> list:
    """The number fields of a parameter object: each ``required`` one, then
    each ``optional`` one (0 when absent)."""
    if not isinstance(obj, dict):
        raise CLIError(f"{context}: expected an object")
    for field in required:
        if field not in obj:
            raise CLIError(f"{context}: missing field '{field}'")
    return [_number(obj.get(field, 0.0), f"{context}: field '{field}'")
            for field in (*required, *optional)]


def _parse_metric(data, context):
    if "metric" not in data:
        return None
    raw = data["metric"]
    if not (isinstance(raw, list) and len(raw) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in raw)):
        raise CLIError(f"{context}: 'metric' must be 3x3: three rows of three numbers")
    return np.array([[_number(x, f"{context}: 'metric' entry [{i}][{j}]")
                      for j, x in enumerate(row)] for i, row in enumerate(raw)])


def _parse_brackets(items, context):
    if not isinstance(items, list) or not items:
        raise CLIError(f"{context}: 'brackets' must be a non-empty list")
    c = np.zeros((3, 3, 3))
    seen = set()
    for pos, entry in enumerate(items):
        where = f"{context}: brackets[{pos}]"
        if not isinstance(entry, dict):
            raise CLIError(f"{where}: expected an object")
        i = entry.get("i")
        j = entry.get("j")
        for name, val in (("i", i), ("j", j)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise CLIError(f"{where}: field '{name}' must be an integer frame index")
            if not 1 <= val <= 3:
                raise CLIError(f"{where}: field '{name}' must be 1, 2, or 3, got {val}")
        if i == j:
            raise CLIError(f"{where}: i and j must differ")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise CLIError(f"{where}: duplicate bracket for pair ({key[0]},{key[1]})")
        seen.add(key)
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != 3:
            raise CLIError(f"{where}: 'coeffs' must be a list of three numbers")
        coeffs = [_number(x, f"{where}: 'coeffs' entry [{k}]") for k, x in enumerate(coeffs)]
        c[i - 1, j - 1] = coeffs
        c[j - 1, i - 1] = [-x for x in coeffs]
    return c


def load_geometry(path: str) -> MetricLieAlgebra3:
    """Read, parse, and validate a geometry description file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise CLIError(f"{path}: invalid JSON: nested too deeply to parse")
    if not isinstance(data, dict):
        raise CLIError(f"{path}: top level must be an object")
    forms = [k for k in ("kenmotsu", "nonunimodular", "brackets") if k in data]
    if len(forms) != 1:
        raise CLIError(
            f"{path}: need exactly one of 'kenmotsu', 'nonunimodular', "
            f"'brackets' (found {forms or 'none'})"
        )
    form = forms[0]
    extra = set(data) - {form, "metric"}
    if extra:
        raise CLIError(f"{path}: unknown fields {sorted(extra)}")
    context = f"{path}: {form}"
    if form == "kenmotsu":
        L = from_kenmotsu_params(*_params(data[form], context, ("lambda",), ("b", "c")))
    elif form == "nonunimodular":
        L = from_nonunimodular(*_params(data[form], context, ("alpha", "beta")))
    else:
        c = _parse_brackets(data[form], path)
        L = MetricLieAlgebra3(c)
    metric = _parse_metric(data, path)
    if metric is not None:
        L = L.with_metric(metric)
    report = validate(L)
    if not report.is_valid:
        worst = max(report.violations, key=lambda v: v.magnitude)
        size = f"{worst.magnitude:.3e}"
        if worst.kind == "jacobi" and not worst.magnitude:
            size = "below the double range"  # scaled back, the sum underflowed
        raise CLIError(f"{path}: invalid geometry: {worst.kind} violation of size {size} "
                       f"at indices {worst.indices}")
    return L


def _tolerance(args) -> float:
    tol = args.tolerance
    if not (math.isfinite(tol) and tol > 0):
        raise CLIError(f"--tolerance must be a positive finite number, got {tol!r}")
    return tol


def _non_finite(obj, key=""):
    """Keys of the non-finite numbers in a payload; a list or tuple item
    goes by the key of its container."""
    if isinstance(obj, (dict, list, tuple)):
        pairs = obj.items() if isinstance(obj, dict) else ((key, v) for v in obj)
        for k, v in pairs:
            yield from _non_finite(v, k)
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield key


def _require_finite(payload) -> None:
    bad = next(_non_finite(payload), None)
    if bad is not None:
        raise CLIError(f"{bad} is not finite: the geometry exceeds double precision")


def _emit(payload: dict, args, human) -> None:
    """Print the payload as the machine document or the human report.  A
    non-finite number is refused, naming its key; the machine format lets
    ``json`` find it and walks the payload only then, for the key."""
    if args.format == "machine":
        try:
            text = json.dumps(dict(payload, version=__version__), sort_keys=True,
                              indent=2, allow_nan=False)
        except ValueError:
            _require_finite(payload)
            raise
        print(text)
    else:
        _require_finite(payload)
        human(payload)


def _num(x) -> float:
    # + 0.0 folds negative zero into plain zero for stable output
    return float(x) + 0.0


def _mat(M) -> list:
    return [[_num(x) for x in row] for row in np.asarray(M)]


def _print_matrix(M, indent="  "):
    width = max(len(f"{x: .10g}") for row in M for x in row)
    for row in M:
        print(indent + "[" + "  ".join(f"{x: .10g}".rjust(width) for x in row) + "]")


def _layers(L: MetricLieAlgebra3):
    """The curvature pack of ``L``, which keeps ``L`` and its connection:
    the one builder of every geometry command and reference member.  A
    connection that overflowed is refused here, with the same line for
    every command: read on, it fails the later layers with errors that do
    not name the cause."""
    conn = levi_civita(L)
    if not np.isfinite(conn.gamma).all():
        raise CLIError("connection is not finite: the geometry exceeds double precision")
    return curvature(L, conn)


def cmd_curvature(args) -> int:
    L = load_geometry(args.geometry)
    tol = _tolerance(args)
    pack = _layers(L)
    par = ricci_parallel_check(L, pack.connection, pack, tol=tol)
    cls = classify_geometry(pack, par.is_parallel)
    # a Ricci-parallel class has read the spectrum already
    eigs = ricci_spectrum(pack) if cls.spectrum is None else cls.spectrum
    payload = {
        "scalar_curvature": pack.scalar,
        "ricci": _mat(pack.ricci.components),
        "ricci_eigenvalues": [float(x) for x in eigs],
        "ricci_parallel": par.is_parallel,
        "ricci_parallel_residual": par.max_component,
        "geometry_class": {"kind": cls.kind, "curvature": cls.curvature},
        "connection": [_mat(pack.connection.gamma[i]) for i in range(3)],
    }

    def human(p):
        print(f"scalar curvature: {p['scalar_curvature']: .10g}")
        print("ricci tensor (frame components):")
        _print_matrix(p["ricci"])
        eigs = ", ".join(f"{x: .10g}" for x in p["ricci_eigenvalues"])
        print(f"ricci eigenvalues: {eigs}")
        print(f"ricci parallel: {'yes' if p['ricci_parallel'] else 'no'}"
              f" (residual {p['ricci_parallel_residual']:.3e})")
        kind = p["geometry_class"]["kind"]
        curv = p["geometry_class"]["curvature"]
        if curv is None:
            print(f"geometry class: {kind}")
        else:
            print(f"geometry class: {kind} (curvature {curv: .10g})")
        for i, block in enumerate(p["connection"], start=1):
            print(f"connection along e{i} (row j: nabla_e{i} e_j in frame components):")
            _print_matrix(block)

    _emit(payload, args, human)
    return 0


def cmd_structure(args) -> int:
    L = load_geometry(args.geometry)
    tol = _tolerance(args)
    pack = _layers(L)
    ak = detect_structure(L, pack.connection, pack, tol=tol)
    residuals = structure_residuals(L, pack.connection, pack, ak)
    hpar = check_h_parallel(L, pack.connection, ak, tol=tol)
    eig = None
    if not ak.kenmotsu:
        rep = xi_eigenvector_analysis(ak, tol=tol)
        eig = {
            "is_eigenvector": rep.is_eigenvector,
            "s_xi_e": rep.s_xi_e,
            "s_xi_phi_e": rep.s_xi_phi_e,
            "forced": rep.forced,
            "reduced_bracket_residual": rep.reduced_bracket_residual,
        }
    payload = {
        "xi": [_num(x) for x in ak.xi.components],
        "e": [_num(x) for x in ak.adapted_frame[1].components],
        "phi_e": [_num(x) for x in ak.adapted_frame[2].components],
        "lambda": _num(ak.lam),
        "b": _num(ak.b),
        "c": _num(ak.c),
        "f": _num(ak.f),
        "kenmotsu": ak.kenmotsu,
        "h": _mat(ak.h_op),
        "max_residual": max(residuals.values()),
        "h_parallel": {"holds": hpar.holds, "residual": hpar.residual},
        "xi_ricci_eigenvector": eig,
    }

    def human(p):
        for label in ("xi", "e", "phi_e"):
            comps = ", ".join(f"{x: .10g}" for x in p[label])
            print(f"{label}: ({comps})")
        print(f"lambda: {p['lambda']: .10g}   b: {p['b']: .10g}   c: {p['c']: .10g}")
        print(f"kenmotsu (h = 0): {'yes' if p['kenmotsu'] else 'no'}")
        print(f"structure residual: {p['max_residual']:.3e}")
        print(f"h parallel along xi: {'yes' if p['h_parallel']['holds'] else 'no'}"
              f" (residual {p['h_parallel']['residual']:.3e})")
        if p["xi_ricci_eigenvector"] is not None:
            e = p["xi_ricci_eigenvector"]
            tag = "yes" if e["is_eigenvector"] else "no"
            print(f"xi is a ricci eigenvector: {tag}"
                  f" (S(xi,e)={e['s_xi_e']: .10g}, S(xi,phi_e)={e['s_xi_phi_e']: .10g})")

    _emit(payload, args, human)
    return 0


def _gap(x, expect) -> float:
    """The largest |x - expect| over the entries, nan when any entry is
    nan, so that a nan fails its check as each comparison would."""
    return float(np.abs(np.subtract(x, expect)).max())


def _closed_form_gap(ak) -> tuple:
    """The closed-form (0,2) Cotton tensor of ``ak``'s adapted frame, and
    its largest gap against the structure's own Cotton tensor read in that
    frame (E^T C E, the derivative route)."""
    closed = cotton2_closed_form(ak).components
    E = np.column_stack([v.components for v in ak.adapted_frame])
    return closed, _gap(closed, E.T.dot(ak.curvature.cotton.cotton2.components).dot(E))


def cmd_cotton(args) -> int:
    L = load_geometry(args.geometry)
    tol = _tolerance(args)
    pack = _layers(L)
    cp = pack.cotton
    try:
        closed, gap = _closed_form_gap(detect_structure(L, pack.connection, pack, tol=tol))
        adapted = {"closed_form": _mat(closed), "max_gap": gap}
    except NoStructure:
        adapted = None
    payload = {
        "cotton2": _mat(cp.cotton2.components),
        "cotton2_norm": cp.norm2,
        "cotton2_trace": float(
            np.trace(L._frame[0].dot(cp.cotton2.components))
        ),
        "cotton3": [_mat(cp.cotton3.components[i]) for i in range(3)],
        "conformally_flat": cp.norm2 <= tol,
        "adapted_frame_values": adapted,
    }

    def human(p):
        print("cotton tensor, (0,2) form (frame components):")
        _print_matrix(p["cotton2"])
        print(f"norm: {p['cotton2_norm']: .10g}")
        print(f"conformally flat: {'yes' if p['conformally_flat'] else 'no'}")
        if p["adapted_frame_values"] is not None:
            print("adapted-frame values (xi, e, phi_e), from the constants:")
            _print_matrix(p["adapted_frame_values"]["closed_form"])
            print(f"gap against the derivative route: "
                  f"{p['adapted_frame_values']['max_gap']:.3e}")

    _emit(payload, args, human)
    return 0


def _solution_payload(sol) -> dict:
    return {
        "classification": sol.classification,
        "feasible": sol.feasible,
        "v": [float(x) for x in sol.v.components],
        "coefficients": [float(x) for x in sol.coefficients],
        "sigma": sol.sigma,
        "residual": sol.residual,
        "family_dim": sol.family_dim,
        "family_basis": [[float(x) for x in row] for row in sol.family_basis],
        "rank": sol.rank,
    }


def _print_solution(name, p):
    print(f"{name}: {p['classification']}")
    comps = ", ".join(f"{x: .10g}" for x in p["v"])
    print(f"  potential V = ({comps})   sigma = {p['sigma']: .10g}")
    print(f"  residual {p['residual']:.6g}   solution family dimension {p['family_dim']}")


def cmd_soliton(args) -> int:
    L = load_geometry(args.geometry)
    tol = _tolerance(args)
    pack = _layers(L)
    if args.ansatz == "general":
        # The general ansatz spans the whole frame, so it needs no
        # adapted structure and applies to any valid algebra.
        problem = SolitonProblem.build(L, conn=pack.connection, pack=pack)
        payload = {"general": _solution_payload(solve_soliton(problem, tol=tol))}
    else:
        ak = detect_structure(L, pack.connection, pack, tol=tol)
        survey = soliton_existence_survey(ak, tol=tol)
        if args.ansatz == "all":
            payload = {k: _solution_payload(v) for k, v in survey.items()}
        else:
            payload = {args.ansatz: _solution_payload(survey[args.ansatz])}

    def human(p):
        for name in sorted(p):
            _print_solution(name, p[name])

    _emit(payload, args, human)
    return 0


def _export(states, path: str) -> None:
    try:
        export_trajectory(states, path)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_flow(args) -> int:
    fp_tol = args.fixed_point_tol
    if fp_tol is not None and not (math.isfinite(fp_tol) and fp_tol >= 0):
        raise CLIError(
            f"--fixed-point-tol must be a non-negative finite number, got {fp_tol!r}"
        )
    L = load_geometry(args.geometry)
    try:
        result = flow_run(
            L,
            dt=args.dt,
            steps=args.steps,
            stride=args.stride,
            normalize=args.normalize,
        )
    except DegenerateMetric as exc:
        if args.output and exc.trajectory:
            _export(exc.trajectory, args.output)
            print(
                f"wrote {len(exc.trajectory)} states to {args.output} before failure",
                file=sys.stderr,
            )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        _export(result.trajectory, args.output)
        final = result.final
        payload = {
            "output": args.output,
            "states": len(result.trajectory),
            "final_time": final.time,
            "final_cotton_norm": final.cotton_norm,
            "final_metric": _mat(final.metric),
            "fixed_point": fp_tol is not None and final.cotton_norm <= fp_tol,
        }

        def human(p):
            print(f"wrote {p['states']} states to {p['output']}")
            print(f"final time: {p['final_time']: .10g}")
            print(f"final cotton norm: {p['final_cotton_norm']: .10g}")
            print("final metric:")
            _print_matrix(p["final_metric"])
            if p["fixed_point"]:
                print("ended at a fixed point")

        _emit(payload, args, human)
    else:
        write_trajectory(result.trajectory, sys.stdout)
    return 0


# the reference members: Kenmotsu (lam, b, c), then the solvable (alpha, beta)
_KENMOTSU_MEMBERS = ((2.0, 0.0, 0.0), (1.0, 3.0, 3.0), (1.0, 0.0, 0.0), (0.5, 0.0, 0.0),
                     (3.0, 0.0, 0.0), (1.0, -2.0, -2.0))
_SOLVABLE_MEMBERS = ((2.0, 0.5), (1.0, 0.0))
# the paper's Ricci form at lam=1, b=c=3 and Cotton form at lam=2, adapted frame
_RICCI_133 = np.array([[-4.0, -6.0, -6.0], [-6.0, -20.0, 2.0], [-6.0, 2.0, -20.0]])
_COTTON_2 = np.diag([0.0, 12.0, -12.0])


def _geometry_class(pack):
    """The geometry class of ``pack``'s geometry, Ricci-parallel or not at
    the default tolerance."""
    par = ricci_parallel_check(pack.algebra, pack.connection, pack)
    return classify_geometry(pack, par.is_parallel)


def _theorem_checks(lam: float, pack, sols: dict, geo, tol: float) -> list:
    """The soliton existence rows at one grid lam, from the curvature
    ``pack`` of its (lam, 0, 0) geometry and ``sols``, its collinear and
    orthogonal ansatz solutions over (e1, e2, e3).  The collinear potential
    stays trivial, the orthogonal ansatz is feasible exactly when
    |lam - 1| <= tol, and there the soliton is steady on a metric splitting
    as a curvature -4 hyperbolic plane times a line.  ``geo`` is the
    geometry class of ``pack`` when the caller has it, else None.  Every
    row's residual is refused when not finite, before any row is written."""
    coll, orth = sols["collinear"], sols["orthogonal"]
    at_one = abs(lam - 1.0) <= tol
    rows = [
        ("collinear potential stays trivial",
         coll.classification in (INFEASIBLE, TRIVIAL_ONLY), coll.residual,
         f"classification = {coll.classification}"),
        ("orthogonal ansatz feasible only at lam = 1", orth.feasible == at_one,
         orth.residual, f"feasible = {orth.feasible}, expected {at_one}"),
    ]
    if at_one:
        rows.append(("orthogonal soliton is steady", orth.classification == STEADY,
                     abs(orth.sigma),
                     f"classification = {orth.classification}, sigma = {orth.sigma:.3e}"))
        if geo is None:
            geo = _geometry_class(pack)
        if geo.curvature is not None:
            gap = abs(geo.curvature + 4.0)
        else:
            # no model matched: how far the Ricci spectrum is from {-4, -4, 0}
            gap = _gap(ricci_spectrum(pack), (-4.0, -4.0, 0.0))
        rows.append(("metric splits as hyperbolic plane (curvature -4) times line",
                     geo.kind == PRODUCT_H2XR and geo.curvature is not None and gap <= 1e-6,
                     gap, f"kind = {geo.kind}, factor curvature = {geo.curvature}"))
    _require_finite({"residual": [row[2] for row in rows]})
    return [{"name": f"{name}, lambda={lam:g}", "ok": bool(ok),
             "detail": f"{detail}; residual {residual:.3e}"}
            for name, ok, residual, detail in rows]


def _verify_checks(tol: float, grid: list) -> list:
    """The fixed reference checks, then the soliton existence checks at
    each lam of ``grid``.  Each value check compares one gap, the largest
    |value - reference| over its values, with one tolerance: ``tol``,
    ``100*tol`` or ``1e-6``.  Every (lam, 0, 0) geometry the soliton checks
    read, lam = 2 and 1 and each grid lam, has one record: the curvature
    pack of its member, or a fresh one when lam is not a member (no
    structure detection), with its collinear and orthogonal ansatz
    solutions over (e1, e2, e3), solved once.  The reference checks and the
    grid rows read that record, and the lam = 1 member is classified once,
    for its reference check and its grid row."""
    checks = []
    packs = {p: _layers(from_kenmotsu_params(*p)) for p in _KENMOTSU_MEMBERS}
    packs.update((p, _layers(from_nonunimodular(*p))) for p in _SOLVABLE_MEMBERS)
    members = {p: detect_structure(pk.algebra, pk.connection, pk) for p, pk in packs.items()}
    ak2, ak133, ak1 = members[2.0, 0.0, 0.0], members[1.0, 3.0, 3.0], members[1.0, 0.0, 0.0]
    pack2, p133, pack1 = ak2.curvature, ak133.curvature, ak1.curvature
    records = {}
    for lam in dict.fromkeys((2.0, 1.0, *grid)):
        ak = members.get((lam, 0.0, 0.0))
        pack = _layers(from_kenmotsu_params(lam, 0.0, 0.0)) if ak is None else ak.curvature
        records[lam] = pack, _frame_solutions(pack, tol)

    def add(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # adapted connection table of the lambda=2 diagonal family
    gap = _gap(ak2.connection.gamma, adapted_connection_table(2.0, 0.0, 0.0))
    add("connection table, lambda=2", gap <= tol, f"max gap {gap:.3e}")

    # jacobi operator along the reeb direction, lambda=2
    jac = _jacobi(pack2.riemann, np.array([1.0, 0.0, 0.0]))
    gap = _gap(jac, [[0.0, 0.0, 0.0], [0.0, -5.0, 4.0], [0.0, 4.0, -5.0]])
    add("jacobi operator, lambda=2", gap <= tol, f"max gap {gap:.3e}")

    # ricci values of the lambda=1, b=c=3 family
    S = p133.ricci.components
    gap = _gap(np.append(S, p133.scalar), np.append(_RICCI_133, -44.0))
    add("ricci values, lambda=1 b=c=3", gap <= tol,
        f"scalar {p133.scalar:.6g}, S(xi,e) {S[0, 1]:.6g}")

    # scalar curvature of the lambda=2 family
    gap = _gap([pack2.scalar, pack2.ricci.components[0, 0]], (-14.0, -10.0))
    add("scalar curvature, lambda=2", gap <= tol, f"scalar {pack2.scalar:.6g}")

    # cotton closed form against the derivative route on the Kenmotsu members
    worst = float(np.max([_closed_form_gap(members[p])[1] for p in _KENMOTSU_MEMBERS]))
    add("cotton closed form vs derivative route", worst <= 100 * tol,
        f"max gap {worst:.3e}")

    # cotton components of the lambda=2 family
    c2 = pack2.cotton.cotton2.components
    add("cotton components, lambda=2", _gap(c2, _COTTON_2) <= tol, f"C(e,e) {c2[1, 1]:.6g}")

    # the lambda=1, b=c=3 family is conformally flat
    norm = p133.cotton.norm2
    add("cotton vanishes, lambda=1 b=c=3", norm <= tol, f"norm {norm:.3e}")

    # conformal flatness happens exactly at lambda=1 in the diagonal family
    lams = (0.5, 1.0, 2.0, 3.0)
    norms = [members[lam, 0.0, 0.0].curvature.cotton.norm2 for lam in lams]
    gap = _gap(norms, [math.sqrt(2.0) * abs(2.0 * lam**3 - 2.0 * lam) for lam in lams])
    add("cotton norm across the diagonal family", gap <= 100 * tol,
        "; ".join(f"lambda={lam:g}: {norm:.6g}" for lam, norm in zip(lams, norms)))

    # reeb-collinear soliton: infeasible at lambda=2 with residual 12*sqrt(2)
    sols2 = records[2.0][1]
    sol = sols2["collinear"]
    ok = (sol.classification == INFEASIBLE
          and abs(sol.residual - 12.0 * math.sqrt(2.0)) <= 100 * tol)
    add("reeb-collinear soliton, lambda=2", ok,
        f"{sol.classification}, residual {sol.residual:.6g}")

    # at lambda=1 the collinear problem admits only the trivial solution
    sols1 = records[1.0][1]
    sol = sols1["collinear"]
    add("reeb-collinear soliton, lambda=1", sol.classification == TRIVIAL_ONLY,
        sol.classification)

    # at lambda=1 the orthogonal problem has a steady one-parameter family
    # along e2 + e3 (e + phi_e), whose Lie derivative of the metric vanishes
    sol = sols1["orthogonal"]
    ok = sol.classification == STEADY and sol.family_dim == 1
    if ok:
        d = sol.family_basis[0]
        witness = lie_derivative_metric(
            pack1.algebra, pack1.connection, FrameVector((0.0, 1.0, 1.0))
        ).components
        gap = _gap(np.append(witness, [d[-1], abs(d[0]) - abs(d[1])]), 0.0)
        ok = gap <= tol and np.sign(d[0]) == np.sign(d[1])
    add("orthogonal soliton, lambda=1", ok,
        f"{sol.classification}, family dim {sol.family_dim}")

    # at lambda=2 the orthogonal problem is infeasible
    sol = sols2["orthogonal"]
    add("orthogonal soliton, lambda=2", sol.classification == INFEASIBLE,
        sol.classification)

    # lambda=1 geometry is the product of the hyperbolic plane and a line;
    # it is Ricci-parallel, so its class carries the spectrum it was read from
    cls1 = _geometry_class(pack1)
    eigs = cls1.spectrum
    gap = _gap([cls1.curvature or 0.0, *eigs], (-4.0, -4.0, -4.0, 0.0))
    add("geometry class, lambda=1", cls1.kind == PRODUCT_H2XR and gap <= 1e-6,
        f"{cls1.kind}, eigenvalues {[round(float(x), 6) for x in eigs]}")

    # detection on the rank-two solvable family, alpha=2 beta=0.5
    aknu = members[2.0, 0.5]
    gap = _gap([aknu.lam, aknu.b, aknu.c, aknu.xi.components[0]],
               (math.sqrt(1.25), 0.0, 0.0, -1.0))
    add("detection on the solvable family, alpha=2 beta=1/2", gap <= 100 * tol,
        f"lambda {aknu.lam:.6g}, reeb ({aknu.xi.components[0]:.3g}, ...)")

    # alpha=1 beta=0 is hyperbolic space: h = 0 and S = -2 g
    akh = members[1.0, 0.0]
    ricci_gap = _gap(akh.curvature.ricci.components, -2.0 * akh.algebra.metric)
    add("hyperbolic detection, alpha=1 beta=0",
        akh.kenmotsu and _gap(np.append(akh.h_op, ricci_gap), 0.0) <= tol,
        f"kenmotsu {akh.kenmotsu}, |S + 2g| {ricci_gap:.3e}")

    # reeb field is a ricci eigenvector exactly when b = c = 0
    rep = xi_eigenvector_analysis(ak2, tol=tol)
    ok = (
        rep.is_eigenvector
        and rep.forced is not None
        and (rep.reduced_bracket_residual or 0.0) <= tol
    )
    add("reeb ricci-eigenvector analysis, lambda=2", ok,
        f"eigenvector {rep.is_eigenvector}")
    rep133 = xi_eigenvector_analysis(ak133)
    add("reeb not an eigenvector when b=c=3", not rep133.is_eigenvector,
        f"S(xi,e) {rep133.s_xi_e:.6g}")

    # conformally flat metrics are flow fixed points
    # only the final state is read: record no other
    res = flow_run(ak1.algebra, dt=1e-3, steps=50, stride=50)
    drift = _gap(res.final.metric, np.eye(3))
    add("flow fixed point, lambda=1", drift <= tol, f"drift {drift:.3e}")

    # the soliton existence picture across the grid
    for lam in grid:
        checks += _theorem_checks(lam, *records[lam], cls1 if lam == 1.0 else None, tol)
    return checks


def _parse_grid(raw: str) -> list:
    try:
        grid = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise CLIError(f"--grid must be comma-separated numbers, got {raw!r}")
    if not grid:
        raise CLIError("--grid must contain at least one value")
    if not all(math.isfinite(lam) and lam > 0 for lam in grid):
        raise CLIError("--grid values must be positive and finite")
    return grid


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    grid = _parse_grid(args.grid)
    checks = _verify_checks(tol, grid)
    all_ok = all(c["ok"] for c in checks)

    def human(p):
        for c in p["checks"]:
            tag = "ok  " if c["ok"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"{tag}  {c['name']}{detail}")
        n_ok = sum(1 for c in p["checks"] if c["ok"])
        print(f"{n_ok}/{len(p['checks'])} reference checks passed")

    _emit({"checks": checks, "all_ok": all_ok, "grid": grid}, args, human)
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotton3",
        description="Curvature, Cotton tensors, solitons, and Cotton flow "
                    "on homogeneous 3-geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, geometry=True, tolerance=True):
        if geometry:
            p.add_argument("geometry", help="path to a geometry description (JSON)")
        p.add_argument("--format", choices=("human", "machine"), default="human",
                       help="output format (default: human)")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-8,
                           help="numerical tolerance (default: 1e-8)")

    p = sub.add_parser("curvature", help="connection, Ricci data, geometry class")
    common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("structure", help="detect the almost Kenmotsu 3-h structure")
    common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("cotton", help="Cotton tensors and conformal flatness")
    common(p)
    p.set_defaults(func=cmd_cotton)

    p = sub.add_parser("soliton", help="solve the Cotton soliton equation")
    common(p)
    p.add_argument("--ansatz",
                   choices=("all", "collinear", "orthogonal", "general"),
                   default="all",
                   help="potential ansatz space (default: all of them)")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("flow", help="integrate the Cotton flow of the metric")
    # the flow's one verdict has its own --fixed-point-tol
    common(p, tolerance=False)
    p.add_argument("--dt", type=float, required=True, help="step size")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    p.add_argument("--stride", type=int, default=1,
                   help="record every N-th step (default: 1)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale after each step to preserve the volume")
    p.add_argument("--fixed-point-tol", type=float, default=None,
                   help="report a fixed point when the final Cotton norm "
                        "is at or below this")
    p.add_argument("--output", default=None, help="write the trajectory CSV here")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify-paper",
                       help="recompute the published reference values")
    common(p, geometry=False)
    p.add_argument("--grid", default="0.5,1,2",
                   help="comma-separated lam values for the soliton existence "
                        "checks (default: 0.5,1,2)")
    p.set_defaults(func=cmd_verify)

    return parser


# a build (argparse's message lookups, terminal-size queries) costs more than
# a parse; build_parser() still returns a fresh parser to change
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # numpy overflow shows as a non-finite result, which _emit rejects
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except (CLIError, Cotton3Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot raise again (a stream with no descriptor needs none)
        with contextlib.suppress(AttributeError, OSError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: standard output was closed before all of it was written",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
