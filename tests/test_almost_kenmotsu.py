"""Detection and verification of the adapted contact-type structure."""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import (
    abelian,
    change_basis,
    heisenberg,
    milnor,
    patch_engine,
    random_basis_change,
    random_kenmotsu,
    random_rotation,
    random_valid_algebra,
    rotate_algebra,
    semidirect,
    su2_round,
)
from cotton3 import (
    AKStructure,
    InconsistentStructure,
    MetricLieAlgebra3,
    NoStructure,
    adapted_connection_table,
    check_h_parallel,
    curvature,
    detect_structure,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    soliton_existence_survey,
    structure_residuals,
    validate,
    xi_eigenvector_analysis,
)
from cotton3 import almost_kenmotsu, connection_curvature, frame_algebra
from cotton3.cli import _KENMOTSU_MEMBERS, _SOLVABLE_MEMBERS
from cotton3.almost_kenmotsu import (
    _build_structure,
    _dphi_residual,
    _fix_sign,
    _h_transport_sides,
    _hat,
    _orthonormal_brackets,
    _sym_eigvec,
    ricci_closed_form,
)
from cotton3.frame_algebra import bracket


def scored_candidates(L):
    """Every candidate y that ``detect_structure`` scores on ``L``, in its
    order and in the orthonormal frame, as floats: the score is patched to
    record y and refuse it, so that no candidate is accepted."""
    seen = []

    def record(B, y):
        seen.append(y)
        return math.nan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(almost_kenmotsu, "_normal_form_residual", record)
        with pytest.raises(NoStructure):
            detect_structure(L, None, None)
    return seen


def candidates(L):
    """Detection's candidates in its order, each moved to the input frame
    as detection moves the accepted one: u = y L^-1."""
    Li = np.array(L._frame[2])
    return [np.array(y).dot(Li) for y in scored_candidates(L)]


def detect(L, tol=1e-8):
    conn = levi_civita(L)
    pack = curvature(L, conn)
    return conn, pack, detect_structure(L, conn, pack, tol=tol)


class TestDerivedAlgebraCandidates:
    """The candidates from the structure constants: unit vectors orthogonal
    to [g, g] with tr ad < 0, one or two off the unimodular case; on a
    unimodular algebra tr ad vanishes and detection finds no structure."""

    def test_non_unimodular_gives_one_or_two_candidates(self):
        rng = np.random.default_rng(34)
        algebras = []
        for _ in range(20):
            algebras.append(random_kenmotsu(rng))
            algebras.append(from_nonunimodular(*map(float, rng.uniform(-3.0, 3.0, 2))))
            # aff(R) + R: [e1, e2] = a e2, e3 central
            algebras.append(semidirect(np.diag([rng.uniform(0.2, 3.0), 0.0])))
            algebras.append(semidirect(rng.normal(size=(2, 2))))
        for L in algebras:
            Lr = rotate_algebra(L, random_rotation(rng))
            assert validate(Lr).is_valid
            c = Lr.structure_constants
            trace = np.einsum("aii->a", c)
            assert np.linalg.norm(trace) > 1e-6
            cands = candidates(Lr)
            assert 1 <= len(cands) <= 2
            for u in cands:
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
                # d eta = 0: u annihilates every bracket
                assert np.max(np.abs(c @ u)) <= 1e-12 * (1.0 + np.max(np.abs(c)))
                assert trace @ u < 0.0

    def test_tr_ad_too_large_to_square_gives_none(self):
        # in the orthonormal frame of 1e-200 I, the (1, b, b) constants
        # times 1e60 are about 1e160, finite, and |tr ad|^2 overflows
        L = from_kenmotsu_params(1.0, 0.5, 0.5)
        L = MetricLieAlgebra3(1e60 * L.structure_constants, 1e-200 * np.eye(3))
        assert validate(L).is_valid
        with np.errstate(over="ignore"):
            assert candidates(L) == []

    def test_unimodular_has_no_structure(self):
        rng = np.random.default_rng(35)
        algebras = [su2_round(), heisenberg()]
        algebras += [milnor(*rng.uniform(-3.0, 3.0, 3)) for _ in range(20)]
        for L in algebras:
            Lr = rotate_algebra(L, random_rotation(rng))
            assert np.max(np.abs(np.einsum("aii->a", Lr.structure_constants))) <= 1e-12
            with pytest.raises(NoStructure):
                detect(Lr)


class TestDetection:
    def test_round_trip_diagonal_family(self):
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            conn, pack, ak = detect(L)
            assert ak.lam == pytest.approx(lam, abs=1e-10)
            assert abs(ak.b) <= 1e-10 and abs(ak.c) <= 1e-10
            assert np.allclose(ak.xi.components, [1.0, 0.0, 0.0], atol=1e-10)
            assert not ak.kenmotsu
            assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-8

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 2.0, 1e3, 1e6, 1e8, 1e14, 1e16, 1e30])
    def test_round_trip_rotated_diagonal_family(self, lam):
        # lam is recovered to a relative 1e-9 at every scale, also where
        # tr ad_xi = -2 is tiny next to |c|.  The 24 signed permutations of
        # determinant +1 rotate the constants exactly; a generic rotation
        # leaves rounding of order eps |c|^2 in the curvature-level
        # residuals, which the tolerance tol (1 + |gamma|) admits only up to
        # lam ~ 1e7
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        frames = [np.eye(3)[list(p)] * s for p in itertools.permutations(range(3))
                  for s in itertools.product((1.0, -1.0), repeat=3)]
        frames = [P for P in frames if np.linalg.det(P) > 0.0]
        assert len(frames) == 24
        if lam <= 1e6:
            rng = np.random.default_rng(36)
            frames += [random_rotation(rng) for _ in range(10)]
        for P in frames:
            _, _, ak = detect(rotate_algebra(L, P))
            assert abs(ak.lam - lam) <= 1e-9 * lam
            assert np.max(np.abs(ak.xi.components - P[0])) <= 1e-9
            assert not ak.kenmotsu

    def test_round_trip_lam_one_family(self):
        # With lam = 1 and b = c the Reeb direction is not unique, so only
        # the invariants are compared (b, c up to a simultaneous sign).
        for b in (3.0, -2.0, 0.5):
            L = from_kenmotsu_params(1.0, b, b)
            conn, pack, ak = detect(L)
            assert ak.lam == pytest.approx(1.0, abs=1e-10)
            assert abs(abs(ak.b) - abs(b)) <= 1e-8
            assert ak.b == pytest.approx(ak.c, abs=1e-8)
            assert ak.f == pytest.approx(2.0 * b * b + 2.0, abs=1e-8)
            assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-8

    def test_adapted_frame_orthonormal(self):
        for params in ((2.0, 0.0, 0.0), (1.0, 3.0, 3.0)):
            _, _, ak = detect(from_kenmotsu_params(*params))
            E = np.column_stack([v.components for v in ak.adapted_frame])
            assert np.allclose(E.T @ E, np.eye(3), atol=1e-10)

    def test_structure_operator_identities(self):
        _, _, ak = detect(from_kenmotsu_params(2.0, 0.0, 0.0))
        xi = ak.xi.components
        phi, h = ak.phi, ak.h_op
        assert np.allclose(phi @ xi, 0.0, atol=1e-12)
        assert np.allclose(
            phi @ phi, -np.eye(3) + np.outer(xi, ak.eta), atol=1e-12
        )
        assert np.allclose(h @ phi, -(phi @ h), atol=1e-12)
        assert abs(np.trace(h)) <= 1e-12
        # h eigen-decomposition along the adapted frame
        e = ak.adapted_frame[1].components
        phi_e = ak.adapted_frame[2].components
        assert np.allclose(h @ e, ak.lam * e, atol=1e-10)
        assert np.allclose(h @ phi_e, -ak.lam * phi_e, atol=1e-10)

    def test_reeb_divergence_is_two(self):
        for params in ((0.5, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 3.0, 3.0)):
            L = from_kenmotsu_params(*params)
            conn, _, ak = detect(L)
            div = float(np.einsum("iji,j->", conn.gamma, ak.xi.components))
            assert div == pytest.approx(2.0, abs=1e-10)

    def test_rotation_equivariance_diagonal_family(self):
        rng = np.random.default_rng(31)
        for lam in (0.5, 2.0, 3.5):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            _, _, ak0 = detect(L)
            P = random_rotation(rng)
            Lr = rotate_algebra(L, P)
            assert validate(Lr).is_valid
            connr, packr, akr = detect(Lr)
            assert akr.lam == pytest.approx(lam, abs=1e-8)
            assert np.allclose(
                akr.xi.components, P.T @ ak0.xi.components, atol=1e-8
            )
            assert max(structure_residuals(Lr, connr, packr, akr).values()) <= 1e-7

    def test_rotation_equivariance_invariants(self):
        rng = np.random.default_rng(32)
        for b in (3.0, -1.5):
            L = from_kenmotsu_params(1.0, b, b)
            Lr = rotate_algebra(L, random_rotation(rng))
            _, _, akr = detect(Lr)
            assert akr.lam == pytest.approx(1.0, abs=1e-8)
            assert abs(abs(akr.b) - abs(b)) <= 1e-7
            assert akr.b == pytest.approx(akr.c, abs=1e-7)

    def test_nonunimodular_detections(self):
        expected = {
            (0.0, 0.0): 1.0,
            (1.0, 1.0): 1.0,
            (2.0, 0.5): math.sqrt(1.25),
        }
        for (alpha, beta), lam in expected.items():
            L = from_nonunimodular(alpha, beta)
            conn, pack, ak = detect(L)
            assert ak.lam == pytest.approx(lam, abs=1e-8)
            assert not ak.kenmotsu
            assert np.allclose(ak.xi.components, [-1.0, 0.0, 0.0], atol=1e-8)
            assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-8

    def test_nonunimodular_random_family(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            alpha, beta = rng.uniform(-3.0, 3.0, size=2)
            L = from_nonunimodular(float(alpha), float(beta))
            conn, pack, ak = detect(L)
            lam = math.hypot(1.0 - alpha, beta)
            assert ak.lam == pytest.approx(lam, abs=1e-7)
            assert abs(ak.b) <= 1e-7 and abs(ak.c) <= 1e-7
            assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-7

    def test_kenmotsu_case(self):
        L = from_nonunimodular(1.0, 0.0)
        conn, pack, ak = detect(L)
        assert ak.kenmotsu
        assert ak.lam == 0.0
        assert np.max(np.abs(ak.h_op)) <= 1e-10
        assert np.allclose(ak.xi.components, [-1.0, 0.0, 0.0], atol=1e-10)
        E = np.column_stack([v.components for v in ak.adapted_frame])
        assert np.allclose(E.T @ E, np.eye(3), atol=1e-10)
        assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-10

    def test_no_structure_cases(self):
        for L in (su2_round(), abelian(), heisenberg()):
            conn = levi_civita(L)
            pack = curvature(L, conn)
            with pytest.raises(NoStructure):
                detect_structure(L, conn, pack)

    def test_raw_constants_under_a_scaled_metric_have_no_structure(self):
        # the unit Reeb candidate under 2 I is e1 / sqrt(2), where
        # tr ad = -sqrt(2), not -2: detection runs and refuses
        L = from_kenmotsu_params(2.0, 0.0, 0.0).with_metric(2.0 * np.eye(3))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        with pytest.raises(NoStructure, match="no unit Reeb candidate satisfies"):
            detect_structure(L, conn, pack)

    def test_nan_residual_refuses_the_candidate(self):
        # under 1e-238 I the candidate's g^-1 M^T g overflows, and its h and
        # e are nan; max() over the residuals would pass over those nans
        L = from_kenmotsu_params(2.0, 0.0, 0.0).with_metric(1e-238 * np.eye(3))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        with np.errstate(all="ignore"), pytest.raises(NoStructure):
            detect_structure(L, conn, pack)

    def test_adapted_connection_residual_key(self):
        L = from_kenmotsu_params(1.0, 3.0, 3.0)
        conn, pack, ak = detect(L)
        res = structure_residuals(L, conn, pack, ak)
        assert "adapted_connection" in res
        assert res["adapted_connection"] <= 1e-8
        # Kenmotsu structures skip the adapted-table comparison.
        Lh = from_nonunimodular(1.0, 0.0)
        connh, packh, akh = detect(Lh)
        assert "adapted_connection" not in structure_residuals(
            Lh, connh, packh, akh
        )


class TestBasisChange:
    """Detection is a statement about the metric, not about the frame it is
    written in: every verify-paper reference member, in 100 seeded frames
    with cond(P^T P) <= 1e3 and metric P^T P, gives its (lam, |b|, |c|), its
    Reeb field and its soliton classifications."""

    MEMBERS = ([(p, from_kenmotsu_params(*p)) for p in _KENMOTSU_MEMBERS]
               + [(p, from_nonunimodular(*p)) for p in _SOLVABLE_MEMBERS])

    def test_reference_members_in_general_frames(self):
        rng = np.random.default_rng(271)
        for params, L in self.MEMBERS:
            _, _, ak0 = detect(L)
            want = {name: sol.classification
                    for name, sol in soliton_existence_survey(ak0).items()}
            scale = ak0.lam + abs(ak0.b) + abs(ak0.c)
            # lam = 1, b = c = 0 is a double root, resolved to about sqrt(eps)
            rel = 1e-6 if params == (1.0, 0.0, 0.0) else 1e-9
            for _ in range(100):
                P = random_basis_change(rng)
                _, _, ak = detect(change_basis(L, P))
                got = np.array([ak.lam, abs(ak.b), abs(ak.c)])
                ref = np.array([ak0.lam, abs(ak0.b), abs(ak0.c)])
                assert np.max(np.abs(got - ref)) <= rel * (1.0 + scale)
                if abs(ak0.lam - 1.0) > 1e-3:
                    # the Reeb field is unique: its components are P^-1 xi_0
                    xi = np.linalg.solve(P, ak0.xi.components)
                    assert np.allclose(ak.xi.components, xi, rtol=0.0, atol=1e-9)
                survey = soliton_existence_survey(ak)
                assert {name: sol.classification for name, sol in survey.items()} == want


def reference_normal_form(L, u):
    """The three normal-form terms of the unit Reeb candidate ``u`` (frame
    components): the constants c~ in the orthonormal frame of numpy's
    Cholesky factor, and ad_y, y = u there, read on an explicit orthonormal
    basis (p, q) of y^perp, where A + I = lam S + w J plus a trace part."""
    M = np.linalg.inv(np.linalg.cholesky(L.metric)).T  # f_i = sum_a M[a, i] e_a
    ct = np.einsum("ai,bj,abk,lk->ijl", M, M, L.structure_constants, np.linalg.inv(M))
    y = np.linalg.solve(M, u)
    A = np.einsum("i,ijk->kj", y, ct)
    p = np.cross(y, np.eye(3)[np.argmin(np.abs(y))])
    p /= np.linalg.norm(p)
    E = np.column_stack([p, np.cross(y, p)])
    N = E.T @ A @ E + np.eye(2)
    sym = 0.5 * (N + N.T) - 0.5 * np.trace(N) * np.eye(2)
    terms = {"d_eta": float(np.abs(np.einsum("ijk,k->ij", ct, y)).max()),
             "d_phi": abs(float(np.trace(A)) + 2.0),
             "w": 0.5 * float(N[1, 0] - N[0, 1]),
             "lam": float(np.linalg.eigvalsh(sym)[1])}
    return terms, ct


class TestNormalForm:
    """Detection scores each candidate by the bracket normal form in the
    orthonormal frame of the metric pass, so its verdict does not depend on
    the scale of the constants or of the frame they are written in."""

    def test_residual_matches_reference(self):
        rng = np.random.default_rng(151)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        algebras = []
        for _ in range(30):
            # 3-h, near 3-h (w = 1e-3), lam < |w| and generic brackets
            S = np.diag([1.0, -1.0]) * rng.uniform(0.1, 2.0) + np.eye(2)
            K = np.diag([1.0, -1.0]) * rng.uniform(0.01, 0.4) + np.eye(2)
            for D in (S, S + 1e-3 * J, K + rng.uniform(0.5, 3.0) * J, rng.normal(size=(2, 2))):
                algebras.append(change_basis(semidirect(D), random_basis_change(rng)))
            P = random_basis_change(rng)
            algebras.append(random_valid_algebra(rng, rotated=True).with_metric(P.T @ P))
        for L in algebras:
            units = [u / math.sqrt(u @ L.metric @ u) for u in rng.normal(size=(2, 3))]
            for u in candidates(L) + units:
                ref, ct = reference_normal_form(L, u)
                B = ct[(1, 2, 0), (2, 0, 1)].tolist()
                y = np.linalg.solve(np.linalg.inv(np.linalg.cholesky(L.metric)).T, u)
                got = almost_kenmotsu._normal_form_residual(B, y.tolist())
                want = max(ref["d_eta"], ref["d_phi"], min(abs(ref["w"]), ref["lam"]))
                # the score's lam also holds the trace part and the d eta row
                slack = ref["d_phi"] + 2.0 * ref["d_eta"]
                assert abs(got - want) <= slack + 1e-11 * (1.0 + np.linalg.norm(ct))

    @pytest.mark.parametrize("lam", [1e8, 1e10, 1e14])
    def test_rotated_large_lambda(self, lam):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = rotate_algebra(from_kenmotsu_params(lam, 0.0, 0.0), random_rotation(rng))
            _, _, ak = detect(L)
            assert abs(ak.lam - lam) <= 1e-12 * lam
            assert max(abs(ak.b), abs(ak.c)) <= 1e-12 * lam

    @pytest.mark.parametrize("t", [1e30, 1e-30, 1e40, 1e50])
    def test_lambda_two_in_scaled_frames(self, t):
        # the frame t e_i: constants times t, metric times t^2, xi = e_1 / t
        _, _, ak = detect(change_basis(from_kenmotsu_params(2.0, 0.0, 0.0), t * np.eye(3)))
        assert abs(ak.lam - 2.0) <= 1e-12
        assert max(abs(ak.b), abs(ak.c)) <= 1e-12
        assert np.allclose(ak.xi.components * t, [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("lam", [1e77, 1e100])
    def test_adapted_frame_is_unit_at_huge_lambda(self, lam):
        # e comes from cross products of h's rows, of order lam^2, and its
        # e g e overflowed to inf, which normalised e and phi e to zero
        rng = np.random.default_rng(6)
        for k in range(10):
            L = from_kenmotsu_params(lam, 0.0, 0.0)
            if k:
                L = rotate_algebra(L, random_rotation(rng))
            # the Cotton norm and the squared cross products overflow
            with np.errstate(over="ignore"):
                _, _, ak = detect(L)
            for v in ak.adapted_frame[1:]:
                x = v.components
                assert abs(x @ L.metric @ x - 1.0) <= 1e-15

    @pytest.mark.parametrize("t", [1e50, 1e-50, 1e100])
    def test_never_accepts_a_wrong_structure(self, t):
        # at t = 1e100 the products of constants and metric overflow and the
        # true Reeb field can be lost: what the search returns instead must
        # be refused, not accepted
        L = change_basis(from_kenmotsu_params(2.0, 0.0, 0.0), t * np.eye(3))
        try:
            with np.errstate(all="ignore"):
                _, _, ak = detect(L)
        except NoStructure:
            return
        assert abs(ak.lam - 2.0) <= 1e-8

    @pytest.mark.parametrize("k", [-150, 150])
    def test_exact_relabelling_keeps_the_verdict(self, k):
        # the frame 2^k e_i maps (c, g) to (2^k c, 4^k g) bit for bit: the
        # same geometry, whose verdict and lam may not move
        rng = np.random.default_rng(0)
        s = 2.0 ** k
        for i in range(300):
            L = random_valid_algebra(rng, with_metric=i % 3 == 0)
            scaled = MetricLieAlgebra3(L.structure_constants * s, L.metric * (s * s))
            lams = []
            for M in (L, scaled):
                try:
                    lams.append(detect(M)[2].lam)
                except NoStructure:
                    lams.append(None)
            if lams[0] is None or lams[1] is None:
                assert lams[0] is lams[1] is None, i
            else:
                assert abs(lams[1] - lams[0]) <= 1e-12 * (1.0 + lams[0]), i

    def test_reference_members_in_ill_conditioned_frames(self):
        # detection only, up to cond(P^T P) = 1e6; TestBasisChange keeps its
        # soliton classifications at 1e3
        rng = np.random.default_rng(0)
        for params, L in TestBasisChange.MEMBERS:
            _, _, ak0 = detect(L)
            for _ in range(100):
                _, _, ak = detect(change_basis(L, random_basis_change(rng, 1e6)))
                got = np.array([ak.lam, abs(ak.b), abs(ak.c)])
                ref = np.array([ak0.lam, abs(ak0.b), abs(ak0.c)])
                assert np.max(np.abs(got - ref)) <= 1e-6 * (1.0 + ref.sum())

    @pytest.mark.parametrize("tol, detected", [(1e-8, False), (1e-4, True)])
    def test_degree_one_verdict_in_general_frames(self, tol, detected):
        # w = 1e-6 decides the verdict against tol (1 + |c~|), |c~| = sqrt(5)
        # in every frame: the scale is that of the orthonormal constants
        D = np.diag([1.5, 0.5]) + 1e-6 * np.array([[0.0, -1.0], [1.0, 0.0]])
        rng = np.random.default_rng(152)
        for _ in range(20):
            P = random_basis_change(rng, 1e4) * 10.0 ** rng.uniform(-5.0, 5.0)
            L = change_basis(semidirect(D), P)
            try:
                _, _, ak = detect(L, tol)
            except NoStructure as exc:
                assert not detected
                assert f"tolerance {tol * (1.0 + math.sqrt(5.0)):.3e}" in str(exc)
            else:
                assert detected and abs(ak.lam - 0.5) <= 1e-6


class TestOrthonormalSearch:
    """The Reeb search reads only the orthonormal brackets B, formed once:
    its candidates and their score are those of the algebra written in that
    frame, and a geometry whose B leaves the float range is refused."""

    @staticmethod
    def representative(L):
        """``L`` written in the orthonormal frame of its metric pass:
        [f_1, f_2] = B[0], [f_2, f_0] = B[1], [f_0, f_1] = B[2], metric I."""
        B = _orthonormal_brackets(L)[1]
        c = np.zeros((3, 3, 3))
        for row, (j, k) in zip(B, ((1, 2), (2, 0), (0, 1))):
            c[j, k], c[k, j] = row, -row
        return MetricLieAlgebra3(c, np.eye(3))

    def test_candidates_are_a_function_of_the_brackets(self):
        # every scored candidate, equal as a set (a pair is sorted in the
        # input frame); == lets +0.0 and -0.0 agree, since B I turns a -0.0
        # entry of B into +0.0
        rng = np.random.default_rng(391)
        algebras = []
        for _ in range(20):
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
            algebras += [from_kenmotsu_params(float(rng.uniform(0.2, 4.0)), 0.0, 0.0),
                         from_kenmotsu_params(1.0, b, b),
                         from_nonunimodular(*map(float, rng.uniform(-3.0, 3.0, 2)))]
        sizes = set()
        for L in algebras:
            L = rotate_algebra(L, random_rotation(rng))
            L = change_basis(L, np.eye(3) + 0.4 * rng.normal(size=(3, 3)))
            got = scored_candidates(L)
            want = scored_candidates(self.representative(L))
            assert len(got) == len(want)
            assert set(map(tuple, got)) == set(map(tuple, want))
            sizes.add(len(got))
        assert sizes == {1, 2}

    def test_tiny_frames_find_no_wrong_structure(self):
        # the lam = 2 member relabelled by P = diag(p), p = 10^e (1, 1, r)
        # and its permutations: det(L^-1) = 1 / (p0 p1 p2) multiplies first
        # and overflows where the connection has lost the geometry, so B is
        # not finite there and the geometry is refused rather than detected
        # with a wrong lam
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        found = refused = 0
        for e in range(-108, -97):
            for r in 10.0 ** np.arange(0.0, 5.6, 0.5):
                for p in sorted(set(itertools.permutations((1.0, 1.0, r)))):
                    M = change_basis(L, np.diag(10.0 ** e * np.array(p)))
                    try:
                        with np.errstate(all="ignore"):
                            _, _, ak = detect(M)
                    except NoStructure:
                        refused += 1
                        continue
                    found += 1
                    assert abs(ak.lam - 2.0) <= 1e-6, (e, p)
        assert found and refused

    @pytest.mark.parametrize("t", [1e-105, 1e-110, 1e-150])
    def test_brackets_out_of_range_are_refused_by_name(self, t):
        # det(L^-1) = t^-3 overflows in the frame t I, and the refusal says
        # that the geometry leaves the float range
        L = change_basis(from_kenmotsu_params(2.0, 0.0, 0.0), t * np.eye(3))
        with np.errstate(all="ignore"):
            with pytest.raises(NoStructure, match="exceeds double precision"):
                detect(L)


class TestAdaptedTable:
    def test_matches_computed_connection(self):
        for lam, b, c in ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                          (1.0, 3.0, 3.0)):
            L = from_kenmotsu_params(lam, b, c)
            gap = np.max(
                np.abs(levi_civita(L).gamma - adapted_connection_table(lam, b, c))
            )
            assert gap <= 1e-12

    def test_reeb_row_vanishes(self):
        table = adapted_connection_table(2.0, 1.0, -1.0)
        assert np.max(np.abs(table[0])) == 0.0


class TestRicciClosedForm:
    def test_matches_curvature_route(self):
        for params in ((0.5, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 3.0, 3.0),
                       (1.0, -2.0, -2.0)):
            L = from_kenmotsu_params(*params)
            conn, pack, ak = detect(L)
            E = np.column_stack([v.components for v in ak.adapted_frame])
            adapted = E.T @ pack.ricci.components @ E
            gap = np.max(np.abs(ricci_closed_form(ak).components - adapted))
            assert gap <= 1e-9


class TestHParallel:
    def test_holds_across_family(self):
        for params in ((0.5, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 3.0, 3.0)):
            L = from_kenmotsu_params(*params)
            conn, _, ak = detect(L)
            chk = check_h_parallel(L, conn, ak)
            assert chk.holds
            assert chk.residual <= 1e-9
            assert chk.transport <= 1e-9
            assert chk.curvature_side <= 1e-9

    def test_holds_on_solvable_family(self):
        L = from_nonunimodular(2.0, 0.5)
        conn, _, ak = detect(L)
        assert check_h_parallel(L, conn, ak).holds


class TestXiEigenvector:
    def test_true_on_diagonal_family(self):
        for lam in (0.5, 2.0, 3.0):
            _, _, ak = detect(from_kenmotsu_params(lam, 0.0, 0.0))
            rep = xi_eigenvector_analysis(ak)
            assert rep.is_eigenvector
            assert rep.forced == {
                "b": 0.0, "c": 0.0, "f": 2.0, "lambda_constant": True
            }
            assert rep.reduced_bracket_residual <= 1e-12
            assert abs(rep.s_xi_e) <= 1e-10 and abs(rep.s_xi_phi_e) <= 1e-10
            assert ak.f == pytest.approx(2.0, abs=1e-10)

    def test_false_when_b_c_nonzero(self):
        _, _, ak = detect(from_kenmotsu_params(1.0, 3.0, 3.0))
        rep = xi_eigenvector_analysis(ak)
        assert not rep.is_eigenvector
        assert rep.forced is None and rep.reduced_bracket_residual is None
        assert abs(rep.s_xi_e) == pytest.approx(6.0, abs=1e-9)
        assert abs(rep.s_xi_phi_e) == pytest.approx(6.0, abs=1e-9)

    def test_rejects_kenmotsu_structures(self):
        _, _, ak = detect(from_nonunimodular(1.0, 0.0))
        with pytest.raises(ValueError):
            xi_eigenvector_analysis(ak)

    def test_reduced_residual_equals_bracket_reference(self):
        # the three brackets in one stacked contraction read, bit for bit,
        # as three ``bracket`` calls and one reduction per bracket
        def reference(ak):
            L, lam = ak.algebra, ak.lam
            xi, e, phi_e = ak.adapted_frame
            ex = bracket(L, e, xi).components - (e.components - lam * phi_e.components)
            ep = bracket(L, e, phi_e).components
            px = bracket(L, phi_e, xi).components - (-lam * e.components + phi_e.components)
            return float(max(np.max(np.abs(ex)), np.max(np.abs(ep)), np.max(np.abs(px))))

        rng = np.random.default_rng(74)
        nonzero = 0
        for _ in range(150):
            L = from_kenmotsu_params(float(rng.uniform(0.05, 5.0)), 0.0, 0.0)
            _, _, ak = detect(rotate_algebra(L, random_rotation(rng)))
            rep = xi_eigenvector_analysis(ak)
            assert rep.is_eigenvector
            assert rep.reduced_bracket_residual == reference(ak)
            nonzero += rep.reduced_bracket_residual > 0.0
        # rotation leaves rounding in the brackets, so equality is not 0 == 0
        assert nonzero >= 100

    def test_inconsistent_structure_guard(self):
        # Force the contradiction by doctoring the stored constants: the
        # eigenvector condition holds but b, c are claimed nonzero.
        import dataclasses

        _, _, ak = detect(from_kenmotsu_params(2.0, 0.0, 0.0))
        bad = dataclasses.replace(ak, b=1.0, c=1.0)
        with pytest.raises(InconsistentStructure):
            xi_eigenvector_analysis(bad)


class TestPhiOrientation:
    def test_dphi_residual_is_blind_to_the_sign_of_phi(self):
        # d Phi - 2 eta ^ Phi is linear in phi and float negation is exact,
        # so detection never needs to try the flipped phi
        rng = np.random.default_rng(73)
        for _ in range(200):
            L = random_valid_algebra(rng, rotated=True)
            units = [u / np.linalg.norm(u) for u in rng.normal(size=(3, 3))]
            for u in units + candidates(L):
                phi = _hat(u)
                assert _dphi_residual(L, u, -phi) == _dphi_residual(L, u, phi)


class TestLayerReuse:
    """Detection hands its connection and curvature downstream; what reads
    them matches, bit for bit, freshly computed layers."""

    @staticmethod
    def algebras(rng):
        out = [random_kenmotsu(rng) for _ in range(6)]
        out += [from_nonunimodular(*rng.uniform(-3.0, 3.0, size=2)) for _ in range(6)]
        return [rotate_algebra(L, random_rotation(rng)) for L in out]

    def test_structure_carries_its_layers(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ak = detect_structure(L, conn, pack)
        assert ak.connection is conn
        assert ak.curvature is pack

    def test_h_parallel_matches_fresh_layers(self):
        for L in self.algebras(np.random.default_rng(71)):
            conn, _, ak = detect(L)
            fresh = levi_civita(L)
            res = structure_residuals(L, fresh, curvature(L, fresh), ak)
            chk = check_h_parallel(L, conn, ak)
            assert chk.transport == res["h_transport"]
            assert chk.curvature_side == res["curvature_identity"]

    def test_xi_eigenvector_matches_fresh_layers(self):
        for L in self.algebras(np.random.default_rng(72)):
            _, _, ak = detect(L)
            if ak.kenmotsu:
                continue
            ricci = curvature(L, levi_civita(L)).ricci
            xi, e, phi_e = ak.adapted_frame
            rep = xi_eigenvector_analysis(ak)
            assert rep.s_xi_e == ricci.evaluate(xi, e)
            assert rep.s_xi_phi_e == ricci.evaluate(xi, phi_e)


# --------------------------------------------------------------------------
# Reference formulas: detection as it was written before the structure layer
# reduced its residuals in one stack and read its candidates off the derived
# algebra.  They use lstsq then svd on the affine Reeb-shape system of the
# connection (its skew part vanishes, its trace is 2), three np.cross calls,
# per-field einsums and one reduction per residual entry; the candidate list
# lists u0/|u0| only when the two unit solutions are not resolved.


def reference_candidates(conn):
    gamma = conn.gamma
    Sk = np.empty((3, 3))
    for a in range(3):
        Ba = gamma[:, a, :]
        Sk[:, a] = (Ba[0, 1] - Ba[1, 0], Ba[0, 2] - Ba[2, 0], Ba[1, 2] - Ba[2, 1])
    tau = np.einsum("iai->a", gamma)
    A_sys = np.vstack([Sk, tau])
    u0, *_ = np.linalg.lstsq(A_sys, np.array([0.0, 0.0, 0.0, 2.0]), rcond=None)
    n0 = float(np.linalg.norm(u0))
    if n0 <= 1e-12:
        return []
    _, s, Vt = np.linalg.svd(A_sys)
    null = Vt[s <= 1e-10 * max(s[0], 1.0)]
    r = math.sqrt(max(1.0 - n0 * n0, 0.0))
    raw = [u0 + sign * r * w for w in null for sign in (1.0, -1.0)] if r > 1e-7 else []
    out = [u / np.linalg.norm(u) for u in raw or [u0]]
    out.sort(key=lambda u: (
        round(float(np.sum((Sk @ u) ** 2) + (tau @ u - 2.0) ** 2), 12),
        tuple(np.round(u, 12)),
    ))
    return out


def reference_eigvec(M, mu):
    K = M - mu * np.eye(3)
    cands = [np.cross(K[0], K[1]), np.cross(K[0], K[2]), np.cross(K[1], K[2])]
    norms = [np.linalg.norm(v) for v in cands]
    best = int(np.argmax(norms))
    if norms[best] == 0.0:
        # parallel rows: no direction, and detection refuses the candidate
        return np.full(3, np.nan)
    return cands[best] / norms[best]


def reference_fields(L, conn, u, tol):
    gamma = conn.gamma
    A = np.einsum("a,iak->ki", u, gamma)
    P = np.eye(3) - np.outer(u, u)
    M = P - A
    Msym = 0.5 * (M + M.T)
    lam = math.sqrt(max(float(np.sum(Msym * Msym)) / 2.0, 0.0))
    phi = _hat(u)
    h = -phi @ Msym
    h = 0.5 * (h + h.T)
    if lam <= tol:
        norms = [np.linalg.norm(P[:, k]) for k in range(3)]
        e = P[:, int(np.argmax(norms))]
        e = e / np.linalg.norm(e)
    else:
        e = reference_eigvec(h, lam)
    e = np.array(_fix_sign(e.tolist()))
    phi_e = phi @ e
    b = -float(np.einsum("i,j,ijk->k", e, e, gamma) @ phi_e)
    c = float(np.einsum("i,j,ijk->k", phi_e, e, gamma) @ phi_e)
    return {"xi": u, "eta": L.metric @ u, "phi": phi, "h_op": h, "lam": lam,
            "b": b, "c": c, "f": b * b + c * c + 2.0, "e": e, "phi_e": phi_e,
            "kenmotsu": lam <= tol}


def reference_residuals(L, conn, pack, f):
    g, c, gamma = L.metric, L.structure_constants, conn.gamma
    xi, eta, phi, h, lam = f["xi"], f["eta"], f["phi"], f["h_op"], f["lam"]
    e, phi_e = f["e"], f["phi_e"]
    ident = np.eye(3)

    def mx(a):
        return float(np.max(np.abs(a)))

    n_xi = np.einsum("a,ajk->kj", xi, gamma)
    jac = np.einsum("ijkl,j,k->li", pack.riemann, xi, xi)
    adxi = np.einsum("a,ajk->kj", xi, c)
    Phi = g @ phi
    term = np.einsum("ijm,mk->ijk", c, Phi)
    dphi = -(term + np.transpose(term, (1, 2, 0)) + np.transpose(term, (2, 0, 1)))
    wedge = (np.einsum("i,jk->ijk", eta, Phi) + np.einsum("j,ki->ijk", eta, Phi)
             + np.einsum("k,ij->ijk", eta, Phi))
    A = np.einsum("a,iak->ki", xi, gamma)
    res = {
        "xi_unit": abs(float(xi @ g @ xi) - 1.0),
        "phi_square": mx(phi @ phi + ident - np.outer(xi, eta)),
        "phi_compat": mx(phi.T @ g @ phi - g + np.outer(eta, eta)),
        "h_xi": mx(h @ xi),
        "h_trace": abs(float(np.trace(h))),
        "h_symmetric": mx(h - h.T),
        "h_phi_anticommute": mx(h @ phi + phi @ h),
        "trace_h_phi": abs(float(np.trace(h @ phi))),
        "reeb_gradient": mx(A - (ident - np.outer(xi, eta) - phi @ h)),
        "h_transport": mx(n_xi @ h - h @ n_xi),
        "curvature_identity": mx(-phi - 2.0 * h - phi @ h @ h - phi @ jac),
        "h_lie_oracle": mx(h - 0.5 * (adxi @ phi - phi @ adxi)),
        "h_eigen": max(mx(h @ e - lam * e), mx(h @ phi_e + lam * phi_e)),
        "d_eta": mx(np.einsum("ijk,k->ij", c, eta)),
        "d_phi": mx(dphi - 2.0 * wedge),
    }
    if not f["kenmotsu"]:
        E = np.column_stack([xi, e, phi_e])
        ad_gamma = np.einsum("ia,jb,ijk,kc->abc", E, E, gamma, E)
        res["adapted_connection"] = mx(
            ad_gamma - adapted_connection_table(lam, f["b"], f["c"]))
    return res


def reference_detect(L, conn, pack, tol=1e-8):
    """The reference formulas under the first-admissible selection rule."""
    scale = 1.0 + float(np.linalg.norm(conn.gamma))
    for u in reference_candidates(conn):
        f = reference_fields(L, conn, u, tol)
        if max(reference_residuals(L, conn, pack, f).values()) <= tol * scale:
            return f
    return None


def assert_matches_reference(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


class TestReferenceEquivalence:
    @staticmethod
    def algebras(rng):
        out = []
        for _ in range(40):
            out.append(random_kenmotsu(rng))
            out.append(from_nonunimodular(*map(float, rng.uniform(-3.0, 3.0, 2))))
            out.append(random_valid_algebra(rng))
        out += [from_nonunimodular(1.0, 0.0), from_kenmotsu_params(1.0, 0.0, 0.0)]
        return [rotate_algebra(L, random_rotation(rng)) for L in out]

    def test_detection_matches_reference(self):
        found = 0
        for L in self.algebras(np.random.default_rng(81)):
            conn = levi_civita(L)
            pack = curvature(L, conn)
            # the oracle lists no candidate where its system has no
            # well-conditioned solution, as on unimodular algebras, whose
            # rotated trace is rounding; there only the verdicts are compared
            ref_cands = reference_candidates(conn)
            if ref_cands:
                cands = candidates(L)
                assert len(cands) == len(ref_cands)
                for u, ref_u in zip(cands, ref_cands):
                    assert_matches_reference(u, ref_u)
            ref = reference_detect(L, conn, pack)
            try:
                ak = detect_structure(L, conn, pack)
            except NoStructure:
                assert ref is None
                continue
            found += 1
            assert ak.kenmotsu == ref["kenmotsu"]
            got = {"xi": ak.xi.components, "eta": ak.eta, "phi": ak.phi,
                   "h_op": ak.h_op, "lam": ak.lam, "b": ak.b, "c": ak.c, "f": ak.f,
                   "e": ak.adapted_frame[1].components,
                   "phi_e": ak.adapted_frame[2].components}
            for name, value in got.items():
                assert_matches_reference(value, ref[name])
            res = structure_residuals(L, conn, pack, ak)
            ref_res = reference_residuals(L, conn, pack, got | {"kenmotsu": ak.kenmotsu})
            assert list(res) == list(ref_res)
            for name, value in res.items():
                assert_matches_reference(value, ref_res[name])
        assert found >= 80

    def test_first_admissible_candidate_on_lam_one_family(self):
        # two genuine Reeb fields with rounding-level residuals: detection
        # returns the first in candidate order, not the smaller residual,
        # and the normalised minimum-norm point between them is no candidate
        rng = np.random.default_rng(82)
        for _ in range(30):
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
            L = rotate_algebra(from_kenmotsu_params(1.0, b, b), random_rotation(rng))
            _, _, ak = detect(L)
            cands = candidates(L)
            assert len(cands) == 2
            assert np.array_equal(ak.xi.components, cands[0])


class TestCandidateList:
    """On a (1, b, b) algebra u0/|u0| lies between the two unit Reeb fields,
    off each by r ~ b, yet passes the tolerance for small b; it is listed
    only when the two merge (r <= 1e-7)."""

    def test_small_b_is_resolved(self):
        rng = np.random.default_rng(83)
        for b in (1e-6, -1e-5, 1e-4, -1e-3):
            L = rotate_algebra(from_kenmotsu_params(1.0, b, b), random_rotation(rng))
            _, _, ak = detect(L)
            assert abs(abs(ak.b) - abs(b)) <= 1e-8
            assert abs(abs(ak.c) - abs(b)) <= 1e-8

    def test_frame_where_min_norm_point_would_sort_first(self):
        # first frame axis along -u0 and the second along the null vector w:
        # u0/|u0| = (-1, 0, 0) would lead the sort, ahead of the two
        # solutions (-|u0|, +-r, 0), and pass with a residual about r^2
        b = 1e-4
        L = from_kenmotsu_params(1.0, b, b)
        # the affine Reeb-shape system of the connection: the skew part of
        # nabla u vanishes (rows Sk) and its trace is 2 (row tau)
        gamma = levi_civita(L).gamma
        Sk = np.array([gamma[i, :, j] - gamma[j, :, i] for i, j in ((0, 1), (0, 2), (1, 2))])
        A_sys = np.vstack([Sk, np.einsum("iai->a", gamma)])
        u0, *_ = np.linalg.lstsq(A_sys, [0.0, 0.0, 0.0, 2.0], rcond=None)
        w = np.linalg.svd(A_sys)[2][-1]
        a = -u0 / np.linalg.norm(u0)
        Lr = rotate_algebra(L, np.column_stack([a, w, np.cross(a, w)]))
        _, _, ak = detect(Lr)
        assert len(candidates(Lr)) == 2
        assert abs(abs(ak.b) - b) <= 1e-8


class TestResidualReuse:
    """``structure_residuals`` is the full check, independent of detection:
    it evaluates on every call, and the structure's ``h_sides`` are made
    from its own layers on first read and shared by ``structure_residuals``
    and ``check_h_parallel`` on those layers; other layers are evaluated
    afresh."""

    @staticmethod
    def algebras(rng):
        out = [random_kenmotsu(rng) for _ in range(8)]
        out += [from_nonunimodular(*map(float, rng.uniform(-3.0, 3.0, 2))) for _ in range(8)]
        out += [from_kenmotsu_params(1.0, b, b) for b in rng.uniform(0.3, 3.0, 4)]
        out += [from_nonunimodular(1.0, 0.0), from_kenmotsu_params(1.0, 0.0, 0.0)]
        return [rotate_algebra(L, random_rotation(rng)) for L in out]

    def test_own_layers_equal_fresh_layers(self):
        for L in self.algebras(np.random.default_rng(101)):
            conn, pack, ak = detect(L)
            fresh = levi_civita(L)
            want = structure_residuals(L, fresh, curvature(L, fresh), ak)
            got = structure_residuals(L, conn, pack, ak)
            assert type(got) is dict
            assert got == want
            assert list(got) == list(want)

    def test_returned_dict_is_a_copy(self):
        L = rotate_algebra(from_kenmotsu_params(1.0, 0.8, 0.8),
                           random_rotation(np.random.default_rng(102)))
        conn, pack, ak = detect(L)
        first = structure_residuals(L, conn, pack, ak)
        want = dict(first)
        first["h_trace"] = 1.0
        first["extra"] = 2.0
        del first["d_phi"]
        assert structure_residuals(L, conn, pack, ak) == want
        assert structure_residuals(L, conn, pack, ak) is not structure_residuals(L, conn, pack, ak)
        assert not hasattr(ak, "residuals")

    def test_other_layers_are_evaluated(self):
        rng = np.random.default_rng(103)
        L = rotate_algebra(from_kenmotsu_params(2.0, 0.0, 0.0), random_rotation(rng))
        conn, pack, ak = detect(L)
        # the same structure read against another algebra's layers
        L2 = rotate_algebra(from_nonunimodular(0.5, 1.0), random_rotation(rng))
        conn2 = levi_civita(L2)
        other = structure_residuals(L2, conn2, curvature(L2, conn2), ak)
        assert max(other.values()) > 1e-3
        assert max(structure_residuals(L, conn, pack, ak).values()) <= 1e-10

    def test_hand_built_structure_recomputes(self):
        L = rotate_algebra(from_nonunimodular(1.5, -0.7),
                           random_rotation(np.random.default_rng(104)))
        conn, pack, ak = detect(L)
        bare = AKStructure(**{f.name: getattr(ak, f.name) for f in fields(AKStructure)})
        assert "h_sides" not in vars(bare)
        assert structure_residuals(L, conn, pack, bare) == structure_residuals(L, conn, pack, ak)
        with pytest.raises(TypeError):
            AKStructure(**{f.name: getattr(ak, f.name) for f in fields(AKStructure)},
                        h_sides=ak.h_sides)

    def test_replaced_structure_recomputes(self):
        # a structure derived from a detected one makes its own h_sides,
        # even on the same layers
        import dataclasses

        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        conn, pack, ak = detect(L)
        ak.h_sides
        bad = dataclasses.replace(ak, b=1.0, c=1.0)
        assert "h_sides" not in vars(bad)
        assert structure_residuals(L, conn, pack, bad)["adapted_connection"] > 0.1
        for name in ("residuals", "h_sides"):
            with pytest.raises(TypeError):
                dataclasses.replace(ak, **{name: None})

    def test_accepts_first_admissible_candidate(self):
        # detection accepts the candidate that the full residual list on
        # freshly computed layers accepts first, in candidate order, and
        # that list holds on the structure it returns
        for L in self.algebras(np.random.default_rng(105)):
            conn, pack, ak = detect(L)
            fresh = levi_civita(L)
            fresh_pack = curvature(L, fresh)
            scale = 1.0 + float(np.linalg.norm(fresh.gamma))
            for u in candidates(L):
                cand = _build_structure(L, fresh, fresh_pack, u, 1e-8)
                res = structure_residuals(L, fresh, fresh_pack, cand)
                if max(res.values()) <= 1e-8 * scale:
                    break
            else:
                pytest.fail("no admissible candidate on fresh layers")
            assert np.array_equal(ak.xi.components, u)
            got = structure_residuals(L, conn, pack, ak)
            assert got == res
            assert max(got.values()) <= 1e-8 * scale

    @staticmethod
    def fresh_h_parallel(ak):
        # the two matrices evaluated afresh, outside the structure
        transport, curv = _h_transport_sides(ak.xi.components, ak.h_op, ak.phi,
                                             ak.connection.gamma, ak.curvature.riemann)
        gap = transport - curv
        return (float(np.max(np.abs(transport))), float(np.max(np.abs(curv))),
                float(np.max(np.abs(gap))))

    def test_h_parallel_reads_the_scored_sides(self):
        # check_h_parallel and structure_residuals on the structure's own
        # layers read its h_sides, made once, read-only; the result is that
        # of a fresh evaluation
        for L in self.algebras(np.random.default_rng(106)):
            conn, pack, ak = detect(L)
            assert "h_sides" not in vars(ak)
            transport, curv = sides = ak.h_sides
            assert ak.h_sides is sides
            assert not transport.flags.writeable and not curv.flags.writeable
            transport_max, curv_max, gap = self.fresh_h_parallel(ak)
            res = structure_residuals(L, conn, pack, ak)
            assert res["h_transport"] == transport_max
            assert res["curvature_identity"] == curv_max
            chk = check_h_parallel(L, conn, ak)
            assert chk.transport == transport_max
            assert chk.curvature_side == curv_max
            assert chk.residual == max(transport_max, curv_max, gap)
            # another connection object of the same algebra is evaluated afresh
            assert check_h_parallel(L, levi_civita(L), ak) == chk

    def test_hand_built_and_replaced_structures_recompute_h_sides(self, monkeypatch):
        import dataclasses

        L = rotate_algebra(from_kenmotsu_params(1.0, 0.6, 0.6),
                           random_rotation(np.random.default_rng(107)))
        conn, pack, ak = detect(L)
        want_res = structure_residuals(L, conn, pack, ak)
        want = check_h_parallel(L, conn, ak)
        bare = AKStructure(**{f.name: getattr(ak, f.name) for f in fields(AKStructure)})
        replaced = dataclasses.replace(ak)
        calls = []

        def counting(*args):
            calls.append(1)
            return _h_transport_sides(*args)

        monkeypatch.setattr(almost_kenmotsu, "_h_transport_sides", counting)
        assert check_h_parallel(L, conn, ak) == want
        assert structure_residuals(L, conn, pack, ak) == want_res
        assert calls == []
        # each other structure makes its own pair once, for both readers
        for other in (bare, replaced):
            assert "h_sides" not in vars(other)
            assert check_h_parallel(L, conn, other) == want
            assert structure_residuals(L, conn, pack, other) == want_res
        assert len(calls) == 2


class TestScalarEigenvector:
    """``_sym_eigvec`` takes its cross products on floats and ``_hat`` builds
    its matrix from floats; both are bit for bit the array forms."""

    @staticmethod
    def corpus(rng):
        out = []
        for _ in range(150):
            Q = random_rotation(rng)
            lam = float(rng.uniform(0.01, 5.0))
            # an h operator: eigenvalues lam, -lam, 0
            M = Q @ np.diag([lam, -lam, 0.0]) @ Q.T
            out.append((0.5 * (M + M.T), lam))
            # a general symmetric matrix and one of its eigenvalues
            B = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)
            M = 0.5 * (B + B.T)
            out.append((M, float(np.linalg.eigvalsh(M)[rng.integers(3)])))
            # near-repeated eigenvalues: M - mu I has rank one up to rounding
            mu = float(rng.uniform(0.1, 3.0))
            delta = float(rng.choice([0.0, 1e-14, 1e-12])) * mu
            M = Q @ np.diag([mu, mu + delta, -mu]) @ Q.T
            out.append((0.5 * (M + M.T), mu))
        return out

    def test_sym_eigvec_equals_cross_product_form_bitwise(self):
        zeros = 0
        corpus = self.corpus(np.random.default_rng(131))
        # M - mu I of rank one or zero: every cross product is exactly zero
        corpus += [(np.diag([mu, mu, -mu]), mu) for mu in (0.5, 1.0, 3.0)]
        corpus += [(mu * np.eye(3), mu) for mu in (0.0, 2.0)]
        for M, mu in corpus:
            # the null vector comes back unnormalised; detection normalises it
            got = _sym_eigvec(M, mu)
            norm = np.linalg.norm(got)
            got = got / norm if norm else np.full(3, np.nan)
            assert got.tobytes() == reference_eigvec(M, mu).tobytes()
            zeros += not norm
        assert zeros == 5

    def test_hat_equals_array_form_bitwise(self):
        rng = np.random.default_rng(132)
        units = [np.eye(3)[k] for k in range(3)] + [-np.eye(3)[k] for k in range(3)]
        for u in units + list(rng.normal(size=(200, 3))):
            u = np.asarray(u, dtype=float)
            want = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
            assert _hat(u).tobytes() == want.tobytes()
            # column k is u x e_k
            assert np.array_equal(_hat(u), np.column_stack([np.cross(u, e) for e in np.eye(3)]))


class TestWrappedFields:
    """``_build_structure`` builds its structure and frame vectors past the
    constructors: each carries exactly its class's fields, frozen."""

    @pytest.mark.parametrize("L", [from_nonunimodular(1.0, 0.0),
                                   from_kenmotsu_params(2.0, 0.0, 0.0),
                                   from_kenmotsu_params(1.0, 0.7, 0.7)])
    def test_fields_are_exactly_the_dataclass_fields(self, L):
        L = rotate_algebra(L, random_rotation(np.random.default_rng(142)))
        conn, pack, ak = detect(L)
        u = ak.xi.components.copy()
        built = _build_structure(L, conn, pack, u, 1e-8)
        assert built.xi.components is u and not u.flags.writeable
        assert set(vars(built)) == {f.name for f in fields(AKStructure)}
        for v in built.adapted_frame:
            assert set(vars(v)) == {"components"}
            assert not v.components.flags.writeable
        for name in ("eta", "phi", "h_op"):
            assert not getattr(built, name).flags.writeable
        # h_sides is made on first read, read-only, and kept
        sides = built.h_sides
        assert built.h_sides is sides
        assert all(not m.flags.writeable for m in sides)


class TestDetectionCallCounts:
    """One detection makes no ``_svd`` call, since its candidates
    come from the structure constants in closed form, no
    ``structure_residuals`` call and no Riemann tensor, since it scores
    each candidate by the bracket normal form."""

    def counted(self, monkeypatch):
        counts = {"_svd": 0, "structure_residuals": 0, "_riemann": 0}
        for owner, name in ((frame_algebra, "_svd"), (almost_kenmotsu, "structure_residuals"),
                            (connection_curvature, "_riemann")):
            def counting(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            patch_engine(monkeypatch, name, counting)
        return counts

    @pytest.mark.parametrize("params", [(2.0, 0.0, 0.0), (1.0, 0.7, 0.7)])
    def test_no_svd_no_residuals_and_no_riemann(self, params, monkeypatch):
        L = rotate_algebra(from_kenmotsu_params(*params),
                           random_rotation(np.random.default_rng(141)))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        n_candidates = len(candidates(L))
        counts = self.counted(monkeypatch)
        ak = detect_structure(L, conn, pack)
        assert abs(ak.lam - params[0]) <= 1e-8
        assert counts == {"_svd": 0, "structure_residuals": 0, "_riemann": 0}
        assert "riemann" not in vars(pack)
        assert n_candidates == (1 if params[1] == 0.0 else 2)
