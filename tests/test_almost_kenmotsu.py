"""Detection and verification of the adapted contact-type structure."""

import math

import numpy as np
import pytest

from conftest import (
    abelian,
    heisenberg,
    milnor,
    random_kenmotsu,
    random_rotation,
    random_valid_algebra,
    rotate_algebra,
    su2_round,
)
from cotton3 import (
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
    ricci_closed_form,
    structure_residuals,
    validate,
    xi_eigenvector_analysis,
)
from cotton3.almost_kenmotsu import (
    _candidate_reebs,
    _dphi_residual,
    _hat,
    _reeb_shape_system,
)


def detect(L, tol=1e-8):
    conn = levi_civita(L)
    pack = curvature(L, conn)
    return conn, pack, detect_structure(L, conn, pack, tol=tol)


def semidirect(D):
    """R acting on R^2 by D: [e1, e2] = D11 e2 + D21 e3, [e1, e3] = D12 e2 + D22 e3."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1:] = D[:, 0]
    c[0, 2, 1:] = D[:, 1]
    c[1, 0] = -c[0, 1]
    c[2, 0] = -c[0, 2]
    return MetricLieAlgebra3(c)


class TestReebShapeSystem:
    """The affine system behind detection: null space [g,g]^perp meet
    ker(tr o ad), of dimension at most one off the unimodular case, where
    the trace row tau vanishes instead."""

    def test_null_space_at_most_one_dimensional(self):
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
            conn = levi_civita(Lr)
            Sk, tau = _reeb_shape_system(conn)
            s = np.linalg.svd(np.vstack([Sk, tau]), compute_uv=False)
            assert int(np.sum(s <= 1e-10 * max(s[0], 1.0))) <= 1
            assert np.linalg.norm(tau) > 1e-6
            assert 1 <= len(_candidate_reebs(conn)) <= 3

    def test_trace_row_vanishes_on_unimodular(self):
        rng = np.random.default_rng(35)
        algebras = [su2_round(), heisenberg()]
        algebras += [milnor(*rng.uniform(-3.0, 3.0, 3)) for _ in range(20)]
        for L in algebras:
            Lr = rotate_algebra(L, random_rotation(rng))
            conn = levi_civita(Lr)
            _, tau = _reeb_shape_system(conn)
            assert np.max(np.abs(tau)) <= 1e-12
            assert _candidate_reebs(conn) == []


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

    def test_requires_orthonormal_frame(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0).with_metric(2.0 * np.eye(3))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        with pytest.raises(ValueError):
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
            for u in units + _candidate_reebs(levi_civita(L)):
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
