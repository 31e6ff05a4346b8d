"""Soliton equation assembly, classification, and the existence survey."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    layers,
    patch_engine,
    random_kenmotsu,
    random_rotation,
    random_spd,
    random_valid_algebra,
    rotate_algebra,
    su2_round,
)
from cotton3 import (
    FrameVector,
    cotton_pack,
    curvature,
    detect_structure,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    soliton_existence_survey,
)
from cotton3 import frame_algebra, soliton
from cotton3.frame_algebra import _EPS, _svd_lstsq, bracket
from cotton3.soliton import (
    SolitonProblem,
    _assemble_system,
    _frame_solutions,
    _solve,
    lie_derivative_metric,
    solve,
    soliton_residual,
)

UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def vec_upper(M):
    return np.array([M[i, j] for i, j in UPPER])


def detect(L):
    conn = levi_civita(L)
    pack = curvature(L, conn)
    return conn, pack, detect_structure(L, conn, pack)


class TestLieDerivative:
    def test_matches_bracket_route(self):
        # For invariant fields (Lie_V g)(X, Y) = -g([V,X], Y) - g(X, [V,Y])
        # because g(X, Y) is constant.
        rng = np.random.default_rng(51)
        basis = np.eye(3)
        for _ in range(100):
            L = random_valid_algebra(rng, with_metric=bool(rng.integers(2)))
            conn = levi_civita(L)
            v = rng.normal(size=3)
            vf = FrameVector(v)
            got = lie_derivative_metric(L, conn, vf).components
            want = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    vx = bracket(L, vf, FrameVector(basis[i]))
                    vy = bracket(L, vf, FrameVector(basis[j]))
                    want[i, j] = -float(
                        vx.components @ L.metric @ basis[j]
                        + basis[i] @ L.metric @ vy.components
                    )
            assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))

    def test_frozen_reeb_derivative(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        conn = levi_civita(L)
        lie = lie_derivative_metric(L, conn, FrameVector([1.0, 0.0, 0.0])).components
        assert np.allclose(
            lie, [[0.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]], atol=1e-12
        )

    def test_off_diagonal_scales_with_lambda(self):
        # Along v1 * xi the (e, phi_e) entry is -2 lam v1 while the diagonal
        # block is lam-independent; that mismatch is what kills the
        # collinear ansatz away from the Cotton-flat case.
        for lam in (0.5, 2.0, 3.0):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            conn = levi_civita(L)
            for v1 in (1.0, -0.3, 1.7):
                lie = lie_derivative_metric(
                    L, conn, FrameVector([v1, 0.0, 0.0])
                ).components
                assert lie[1, 2] == pytest.approx(-2.0 * lam * v1, abs=1e-12)
                assert lie[1, 1] == pytest.approx(2.0 * v1, abs=1e-12)
                assert lie[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestAssembly:
    def test_system_shape(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        conn = levi_civita(L)
        cotton2 = curvature(L, conn).cotton.cotton2
        for n in (1, 2, 3):
            basis = tuple(FrameVector(np.eye(3)[a]) for a in range(n))
            A, k = _assemble_system(SolitonProblem(L, conn, cotton2, basis))
            assert A.shape == (6, n + 1)
            assert k.shape == (6,)

    def test_solution_consistent_with_residual_map(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            L = random_valid_algebra(rng, with_metric=bool(rng.integers(2)))
            problem = SolitonProblem.build(*layers(L))
            sol = solve(problem)
            direct = vec_upper(
                soliton_residual(problem, sol.v, sol.sigma).components
            )
            assert float(np.linalg.norm(direct)) == pytest.approx(
                sol.residual, abs=1e-12 * (1 + sol.residual)
            )

    def test_null_space_moves_do_not_change_residual(self):
        rng = np.random.default_rng(53)
        seen_family = 0
        for _ in range(80):
            L = random_valid_algebra(rng, with_metric=bool(rng.integers(2)))
            problem = SolitonProblem.build(*layers(L))
            sol = solve(problem)
            if sol.family_dim == 0:
                continue
            seen_family += 1
            z = np.concatenate([sol.coefficients, [sol.sigma]])
            for row in sol.family_basis:
                z2 = z + 0.7 * row
                v2 = sum(
                    c * b.components for c, b in zip(z2[:-1], problem.basis)
                )
                direct = vec_upper(
                    soliton_residual(problem, FrameVector(v2), float(z2[-1])).components
                )
                assert float(np.linalg.norm(direct)) == pytest.approx(
                    sol.residual, abs=1e-9 * (1 + sol.residual)
                )
        assert seen_family >= 5

    def test_default_basis_is_full_frame(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        problem = SolitonProblem.build(*layers(L))
        assert len(problem.basis) == 3
        stacked = np.column_stack([b.components for b in problem.basis])
        assert np.array_equal(stacked, np.eye(3))

    def test_sweep_chain_evaluates_cotton_once(self, monkeypatch):
        # connection, curvature, cotton_pack, build and solve, the chain of
        # one geometry: one Cotton sequence, in curvature, which build and
        # cotton_pack read, and one metric pass, kept on the algebra for the
        # connection and the curvature
        import sys

        counts = dict.fromkeys(("_chain", "_metric_frame"), 0)
        for modname, mod in sorted(sys.modules.items()):
            if modname != "cotton3" and not modname.startswith("cotton3."):
                continue
            for name in counts:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue

                def counting(*args, _fn=fn, _name=name):
                    counts[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(mod, name, counting)
        rng = np.random.default_rng(54)
        for _ in range(5):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            conn = levi_civita(L)
            pack = curvature(L, conn)
            cp = cotton_pack(L, conn, pack)
            problem = SolitonProblem.build(L, conn=conn, pack=pack)
            solve(problem)
            assert cp is pack.cotton and problem.cotton2 is cp.cotton2
        assert counts == {"_chain": 5, "_metric_frame": 5}


class TestCollinearAnsatz:
    def test_infeasible_away_from_one(self):
        for lam, norm in ((0.5, 0.75 * math.sqrt(2)), (2.0, 12 * math.sqrt(2)),
                          (3.0, 48 * math.sqrt(2))):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            conn, pack, ak = detect(L)
            sol = solve(SolitonProblem(L, conn, pack.cotton.cotton2, ak.adapted_frame[:1]))
            assert sol.classification == "infeasible"
            assert not sol.feasible
            # The Cotton term cannot be matched at all, so the best residual
            # is the full Cotton norm.
            assert sol.residual == pytest.approx(norm, rel=1e-10)

    def test_trivial_only_at_one(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        conn, pack, ak = detect(L)
        sol = solve(SolitonProblem(L, conn, pack.cotton.cotton2, ak.adapted_frame[:1]))
        assert sol.classification == "trivial_only"
        assert sol.feasible
        assert sol.rank == 2
        assert sol.family_dim == 0
        assert np.max(np.abs(sol.v.components)) <= 1e-12
        assert abs(sol.sigma) <= 1e-12


class TestOrthogonalAnsatz:
    def test_feasible_exactly_at_one(self):
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            conn, pack, ak = detect(L)
            sol = solve(SolitonProblem(L, conn, pack.cotton.cotton2, ak.adapted_frame[1:]))
            assert sol.feasible == (lam == 1.0)
            if lam != 1.0:
                assert sol.classification == "infeasible"

    def test_steady_family_at_one(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        conn, pack, ak = detect(L)
        sol = solve(SolitonProblem(L, conn, pack.cotton.cotton2, ak.adapted_frame[1:]))
        assert sol.classification == "steady"
        assert abs(sol.sigma) <= 1e-10
        assert sol.family_dim == 1
        # Null direction: equal weight on e and phi_e, sigma fixed at zero.
        direction = sol.family_basis[0]
        assert abs(direction[-1]) <= 1e-10
        assert direction[0] == pytest.approx(direction[1], abs=1e-10)
        # Witness potential e + phi_e is a genuine isometry direction.
        e, phi_e = ak.adapted_frame[1], ak.adapted_frame[2]
        witness = FrameVector(e.components + phi_e.components)
        assert np.max(np.abs(lie_derivative_metric(L, conn, witness).components)) == 0.0


class TestGeneralAnsatz:
    def test_bi_invariant_sphere_is_all_killing(self):
        L = su2_round()
        sol = solve(SolitonProblem.build(*layers(L)))
        assert sol.classification == "steady"
        assert sol.family_dim == 3
        assert np.max(np.abs(sol.v.components)) <= 1e-12
        assert abs(sol.sigma) <= 1e-12

    def test_matches_orthogonal_outcome_at_one(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        sol = solve(SolitonProblem.build(*layers(L)))
        assert sol.classification == "steady"
        assert sol.family_dim == 1

    def test_infeasible_at_two(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        sol = solve(SolitonProblem.build(*layers(L)))
        assert sol.classification == "infeasible"
        assert sol.residual == pytest.approx(12 * math.sqrt(2), rel=1e-10)


class TestSurvey:
    def test_keys_and_agreement(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        _, _, ak = detect(L)
        survey = soliton_existence_survey(ak)
        assert set(survey) == {"collinear", "orthogonal", "general"}
        assert survey["collinear"].classification == "trivial_only"
        assert survey["orthogonal"].classification == "steady"
        assert survey["general"].classification == "steady"

    def test_no_raise_when_feasible(self):
        L = from_kenmotsu_params(1.0, 0.0, 0.0)
        _, _, ak = detect(L)
        survey = soliton_existence_survey(ak)
        assert survey["orthogonal"].feasible

    def test_matches_fresh_layers(self):
        # the survey reads the structure's connection and curvature; the
        # result is exactly that of problems built on freshly computed ones
        # wide enough that a column subset solved in Fortran order shows a
        # last-digit residual difference
        rng = np.random.default_rng(61)
        algebras = [random_kenmotsu(rng) for _ in range(40)]
        algebras += [from_nonunimodular(*rng.uniform(-3.0, 3.0, size=2)) for _ in range(40)]
        for L in algebras:
            L = rotate_algebra(L, random_rotation(rng))
            _, _, ak = detect(L)
            conn = levi_civita(L)
            pack = curvature(L, conn)
            spaces = {
                "collinear": ak.adapted_frame[:1],
                "orthogonal": ak.adapted_frame[1:],
                "general": ak.adapted_frame,
            }
            survey = soliton_existence_survey(ak)
            for name, basis in spaces.items():
                got = survey[name]
                want = solve(SolitonProblem(L, conn, pack.cotton.cotton2, basis))
                assert got.classification == want.classification
                assert np.array_equal(got.coefficients, want.coefficients)
                assert got.sigma == want.sigma
                assert got.residual == want.residual
                assert np.array_equal(got.family_basis, want.family_basis)


class TestFrameSolutions:
    def test_matches_separately_assembled_ansatze(self):
        # the two ansatz systems of a (lam, 0, 0) member are column subsets
        # of one frame system, bitwise those assembled and solved on their own
        frame = tuple(FrameVector(row) for row in np.eye(3))
        for lam in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            L, conn, pack = layers(from_kenmotsu_params(lam, 0.0, 0.0))
            sols = _frame_solutions(pack, 1e-8)
            for name, basis in (("collinear", frame[:1]), ("orthogonal", frame[1:])):
                got = sols[name]
                want = solve(SolitonProblem(L, conn, pack.cotton.cotton2, basis))
                assert got.classification == want.classification
                assert np.array_equal(got.coefficients, want.coefficients)
                assert got.sigma == want.sigma
                assert got.residual.hex() == want.residual.hex()
                assert np.array_equal(got.family_basis, want.family_basis)


# --------------------------------------------------------------------------
# Reference formulas: the solve as it was written before it shared one SVD,
# with one Lie derivative per basis field, lstsq for the minimum-norm point
# and a second svd for rank and null space.


def reference_solve(problem, tol=1e-8):
    L, conn = problem.algebra, problem.connection
    cols = [vec_upper(lie_derivative_metric(L, conn, b).components) for b in problem.basis]
    A = np.column_stack(cols + [-vec_upper(L.metric)])
    k = -vec_upper(problem.cotton2.components)
    z, *_ = np.linalg.lstsq(A, k, rcond=None)
    residual = float(np.linalg.norm(A @ z - k))
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    family = Vt[rank:]
    coeffs, sigma = z[:-1], float(z[-1])
    c_scale = 1.0 + float(np.linalg.norm(problem.cotton2.components))
    feasible = residual <= tol * c_scale
    if not feasible:
        kind = "infeasible"
    elif float(np.linalg.norm(coeffs)) <= 1e-8 and not (
        family.shape[0] > 0 and np.any(np.linalg.norm(family[:, :-1], axis=1) > 1e-10)
    ):
        kind = "trivial_only"
    elif abs(sigma) <= tol * c_scale:
        kind = "steady"
    else:
        kind = "shrinking" if sigma > 0 else "expanding"
    return {"A": A, "k": k, "coefficients": coeffs, "sigma": sigma,
            "residual": residual, "rank": rank, "family_dim": family.shape[0],
            "classification": kind, "feasible": feasible}


def assert_close(got, ref, rel):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref), initial=0.0) <= rel * (1.0 + np.max(np.abs(ref), initial=0.0))


class TestReferenceEquivalence:
    def test_solve_matches_reference(self):
        rng = np.random.default_rng(91)
        problems = []
        for _ in range(40):
            for L in (random_kenmotsu(rng), from_nonunimodular(*rng.uniform(-3.0, 3.0, 2))):
                _, _, ak = detect(rotate_algebra(L, random_rotation(rng)))
                cotton2 = cotton_pack(ak.algebra, ak.connection, ak.curvature).cotton2
                frame = ak.adapted_frame
                for basis in (frame[:1], frame[1:], frame):
                    problems.append(SolitonProblem(ak.algebra, ak.connection, cotton2, basis))
            L = random_valid_algebra(rng, rotated=True)
            problems.append(SolitonProblem.build(*layers(L.with_metric(random_spd(rng)))))
        kinds = set()
        for problem in problems:
            ref = reference_solve(problem)
            A, k = _assemble_system(problem)
            assert_close(A, ref["A"], 1e-12)
            assert_close(k, ref["k"], 1e-12)
            sol = solve(problem)
            assert sol.classification == ref["classification"]
            assert sol.feasible == ref["feasible"]
            assert sol.rank == ref["rank"]
            assert sol.family_dim == ref["family_dim"]
            assert_close(sol.coefficients, ref["coefficients"], 1e-10)
            assert_close(sol.sigma, ref["sigma"], 1e-10)
            assert_close(sol.residual, ref["residual"], 1e-10)
            kinds.add(sol.classification)
        assert {"infeasible", "trivial_only", "steady"} <= kinds


# --------------------------------------------------------------------------
# Reference survey: each ansatz assembled on its own with one einsum over
# its basis fields, as before the survey shared one assembled system, and
# solved with lstsq then svd.


def reference_assemble(L, conn, cotton2, basis):
    V = np.array([b.components for b in basis]).reshape(-1, 3)
    B = np.einsum("na,iak->nik", V, conn.gamma) @ L.metric
    lie = B + B.transpose(0, 2, 1)
    A = np.column_stack([np.array([vec_upper(M) for M in lie]).T, -vec_upper(L.metric)])
    return A, -vec_upper(cotton2.components)


def reference_survey(ak, tol=1e-8):
    L, conn = ak.algebra, ak.connection
    cotton2 = cotton_pack(L, conn, ak.curvature).cotton2
    c_scale = 1.0 + float(np.linalg.norm(cotton2.components))
    xi, e, phi_e = ak.adapted_frame
    out = {}
    for name, basis in (("collinear", (xi,)), ("orthogonal", (e, phi_e)),
                        ("general", (xi, e, phi_e))):
        A, k = reference_assemble(L, conn, cotton2, basis)
        z, *_ = np.linalg.lstsq(A, k, rcond=None)
        _, sv, Vt = np.linalg.svd(A)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
        family = Vt[rank:]
        coeffs, sigma = z[:-1], float(z[-1])
        residual = float(np.linalg.norm(A @ z - k))
        feasible = residual <= tol * c_scale
        if not feasible:
            kind = "infeasible"
        elif float(np.linalg.norm(coeffs)) <= 1e-8 and not (
            np.any(np.linalg.norm(family[:, :-1], axis=1) > 1e-10)
        ):
            kind = "trivial_only"
        elif abs(sigma) <= tol * c_scale:
            kind = "steady"
        else:
            kind = "shrinking" if sigma > 0 else "expanding"
        out[name] = {"coefficients": coeffs, "sigma": sigma, "residual": residual,
                     "rank": rank, "family": family, "feasible": feasible,
                     "classification": kind}
    return out


class TestSurveyReference:
    def test_matches_per_ansatz_einsum_assembly(self):
        rng = np.random.default_rng(111)
        algebras = []
        for _ in range(20):
            algebras.append(random_kenmotsu(rng))
            algebras.append(from_nonunimodular(*rng.uniform(-3.0, 3.0, size=2)))
        algebras += [from_kenmotsu_params(1.0, b, b) for b in rng.uniform(-3.0, 3.0, 6)]
        algebras += [from_kenmotsu_params(1.0, 0.0, 0.0), from_nonunimodular(1.0, 0.0),
                     from_nonunimodular(2.0, 0.0)]
        kinds = set()
        for L in algebras:
            _, _, ak = detect(rotate_algebra(L, random_rotation(rng)))
            survey = soliton_existence_survey(ak)
            ref = reference_survey(ak)
            assert list(survey) == list(ref)
            for name, sol in survey.items():
                want = ref[name]
                assert sol.classification == want["classification"]
                assert sol.feasible == want["feasible"]
                assert sol.rank == want["rank"]
                assert sol.family_dim == want["family"].shape[0]
                assert_close(sol.coefficients, want["coefficients"], 1e-12)
                assert_close(sol.sigma, want["sigma"], 1e-12)
                assert_close(sol.residual, want["residual"], 1e-12)
                # the null-space basis is fixed only up to sign or rotation
                F, G = sol.family_basis, want["family"]
                assert np.max(np.abs(F.T @ F - G.T @ G), initial=0.0) <= 1e-12
                kinds.add((name, sol.classification))
        assert {("collinear", "infeasible"), ("collinear", "trivial_only"),
                ("orthogonal", "infeasible"), ("orthogonal", "steady")} <= kinds

    def test_tolerance_scaled_by_cotton_norm(self):
        # feasibility flips where the residual crosses tol * (1 + |C|_F)
        L = rotate_algebra(from_kenmotsu_params(2.0, 0.0, 0.0),
                           random_rotation(np.random.default_rng(112)))
        _, _, ak = detect(L)
        cotton2 = cotton_pack(ak.algebra, ak.connection, ak.curvature).cotton2
        c_scale = 1.0 + float(np.linalg.norm(cotton2.components))
        assert c_scale > 2.0
        for name, sol in soliton_existence_survey(ak).items():
            assert not sol.feasible
            edge = sol.residual / c_scale
            assert soliton_existence_survey(ak, tol=edge * (1 + 1e-9))[name].feasible
            assert not soliton_existence_survey(ak, tol=edge * (1 - 1e-9))[name].feasible


# --------------------------------------------------------------------------
# The assembly and solve as written before the system was filled in place
# through one flat index: column_stack over 2-D fancy indexing, the rank as
# np.sum over the singular values, the potential summed over the numpy
# coefficients.  Equal bit for bit.


def column_stack_solve(problem):
    L, conn = problem.algebra, problem.connection
    rows, cols = np.array(UPPER).T
    V = np.array([b.components for b in problem.basis]).reshape(-1, 3)
    gamma_by_field = conn.gamma.transpose(1, 0, 2).reshape(3, 9)
    B = (V[:, None, :] @ gamma_by_field).reshape(-1, 3, 3) @ L.metric
    lie = B + B.transpose(0, 2, 1)
    A = np.column_stack([lie[:, rows, cols].T, -L.metric[rows, cols]])
    k = -problem.cotton2.components[rows, cols]
    z, sv, Vt = _svd_lstsq(A, k)
    r = A @ z - k
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    coeffs = z[:-1]
    v = (sum(c * b.components for c, b in zip(coeffs, problem.basis))
         if len(coeffs) else np.zeros(3))
    return {"A": A, "k": k, "coefficients": coeffs, "sigma": float(z[-1]),
            "residual": math.sqrt(r @ r), "rank": rank, "family": Vt[rank:], "v": v}


class TestColumnStackReference:
    def test_solve_equals_column_stack_form_bitwise(self):
        rng = np.random.default_rng(121)
        problems = []
        for _ in range(30):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            conn = levi_civita(L)
            pack = curvature(L, conn)
            problems.append(SolitonProblem.build(L, conn=conn, pack=pack))
            for m in (1, 2, 4):
                basis = tuple(FrameVector(b) for b in rng.normal(size=(m, 3)))
                problems.append(SolitonProblem(L, conn, pack.cotton.cotton2, basis))
            _, _, ak = detect(rotate_algebra(random_kenmotsu(rng), random_rotation(rng)))
            cotton2 = cotton_pack(ak.algebra, ak.connection, ak.curvature).cotton2
            frame = ak.adapted_frame
            for basis in (frame[:1], frame[1:], frame):
                problems.append(SolitonProblem(ak.algebra, ak.connection, cotton2, basis))
        kinds = set()
        for problem in problems:
            ref = column_stack_solve(problem)
            A, k = _assemble_system(problem)
            assert np.array_equal(A, ref["A"]) and A.flags.c_contiguous
            assert np.array_equal(k, ref["k"])
            sol = solve(problem)
            assert np.array_equal(sol.coefficients, ref["coefficients"])
            assert sol.sigma == ref["sigma"]
            assert sol.residual == ref["residual"]
            assert sol.rank == ref["rank"] and type(sol.rank) is int
            assert np.array_equal(sol.family_basis, ref["family"])
            assert sol.family_dim == ref["family"].shape[0]
            assert np.array_equal(sol.v.components, ref["v"])
            for arr in (sol.v.components, sol.coefficients, sol.family_basis):
                assert not arr.flags.writeable
            kinds.add(sol.classification)
        assert {"infeasible", "trivial_only", "steady"} <= kinds


# --------------------------------------------------------------------------
# The least-squares solve as written with boolean masks on every call, before
# it skipped them when every singular value is kept.  Equal bit for bit.


def masked_svd_lstsq(A, rhs):
    U, s, Vt = np.linalg.svd(A)
    keep = s > _EPS * max(A.shape) * s[0]
    z = ((rhs @ U[:, : s.size])[keep] / s[keep]) @ Vt[: s.size][keep]
    return z, s, Vt


class TestMaskedLstsqReference:
    @staticmethod
    def systems(rng):
        out = []
        for m, n in ((4, 3), (6, 2), (6, 3), (6, 4)):
            for _ in range(25):
                A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
                out.append((A, rng.normal(size=m), True))
                # integer entries with the last column a sum of the others,
                # or a zero column: rank n - 1 exactly
                B = rng.integers(-4, 5, size=(m, n)).astype(float)
                B[:, -1] = B[:, :-1].sum(axis=1) if rng.integers(2) else 0.0
                out.append((B, rng.normal(size=m), False))
        return out

    def test_svd_lstsq_equals_masked_form_bitwise(self):
        masked_used = 0
        for A, rhs, _ in self.systems(np.random.default_rng(151)):
            z, s, Vt = _svd_lstsq(A, rhs)
            ref = masked_svd_lstsq(A, rhs)
            assert z.tobytes() == ref[0].tobytes()
            assert s.tobytes() == ref[1].tobytes() and Vt.tobytes() == ref[2].tobytes()
            masked_used += bool(s[-1] <= _EPS * max(A.shape) * s[0])
        assert masked_used >= 80

    def test_solve_equals_masked_form_bitwise(self, monkeypatch):
        rng = np.random.default_rng(152)
        systems = self.systems(rng)
        fields = [FrameVector(v) for v in rng.normal(size=(3, 3))]
        got = [_solve(A, k, fields[: A.shape[1] - 1], 2.0, 1e-8) for A, k, _ in systems]
        monkeypatch.setattr(soliton, "_svd_lstsq", masked_svd_lstsq)
        ranks = set()
        for sol, (A, k, full) in zip(got, systems):
            ref = _solve(A, k, fields[: A.shape[1] - 1], 2.0, 1e-8)
            assert sol.classification == ref.classification
            assert sol.coefficients.tobytes() == ref.coefficients.tobytes()
            assert sol.v.components.tobytes() == ref.v.components.tobytes()
            assert (sol.sigma, sol.residual, sol.rank) == (ref.sigma, ref.residual, ref.rank)
            assert sol.family_basis.tobytes() == ref.family_basis.tobytes()
            ranks.add((A.shape, sol.rank == A.shape[1]))
        # every shape, full rank and rank deficient
        assert len(ranks) == 8


class TestWrappedFields:
    def test_solution_fields_are_exactly_the_dataclass_fields(self):
        L = rotate_algebra(from_kenmotsu_params(1.0, 0.4, 0.4),
                           random_rotation(np.random.default_rng(154)))
        _, _, ak = detect(L)
        names = {f.name for f in dataclasses.fields(soliton.SolitonSolution)}
        for sol in soliton_existence_survey(ak).values():
            assert set(vars(sol)) == names
            assert set(vars(sol.v)) == {"components"}
            for arr in (sol.v.components, sol.coefficients, sol.family_basis):
                assert not arr.flags.writeable


class TestSurveyCallCounts:
    def test_survey_makes_three_svd_calls(self, monkeypatch):
        L = rotate_algebra(from_kenmotsu_params(1.0, 0.4, 0.4),
                           random_rotation(np.random.default_rng(153)))
        _, _, ak = detect(L)
        calls = []
        svd = frame_algebra._svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        patch_engine(monkeypatch, "_svd", counting)
        survey = soliton_existence_survey(ak)
        assert list(survey) == ["collinear", "orthogonal", "general"]
        assert len(calls) == 3
