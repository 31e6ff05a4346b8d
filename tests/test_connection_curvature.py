"""Levi-Civita connection, curvature tensors, and geometry classification."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    abelian,
    heisenberg,
    hyperbolic,
    milnor,
    patch_engine,
    random_rotation,
    random_spd,
    random_valid_algebra,
    rotate_algebra,
    su2_round,
)
from cotton3 import (
    CONSTANT_CURVATURE,
    NOT_SYMMETRIC,
    PRODUCT_H2XR,
    Cotton3Error,
    DegenerateMetric,
    MetricLieAlgebra3,
    SingularMetric,
    SolitonProblem,
    SymBilinear,
    adapted_connection_table,
    classify_geometry,
    cotton_pack,
    curvature,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    ricci_parallel_check,
    ricci_spectrum,
    solve,
    validate,
)
from cotton3.connection_curvature import (
    _cov_deriv,
    _gamma,
    _jacobi,
    _koszul,
    _ricci,
    _riemann,
)
from cotton3.frame_algebra import _metric_frame

FAMILY_GRID = ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 3.0, 3.0))


def lower_riemann(pack):
    return np.einsum("ijkm,ml->ijkl", pack.riemann, pack.algebra.metric)


class TestLeviCivita:
    def test_torsion_free(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            L = random_valid_algebra(rng, with_metric=True)
            gamma = levi_civita(L).gamma
            torsion = gamma - np.transpose(gamma, (1, 0, 2)) - L.structure_constants
            assert np.max(np.abs(torsion)) <= 1e-10

    def test_metric_compatible(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            L = random_valid_algebra(rng, with_metric=True)
            gamma = levi_civita(L).gamma
            # K[i, j, l] = g(nabla_i e_j, e_l) must be skew in (j, l):
            # frame-constant inner products have zero derivative.
            K = np.einsum("ijm,ml->ijl", gamma, L.metric)
            assert np.max(np.abs(K + np.transpose(K, (0, 2, 1)))) <= 1e-10

    def test_adapted_connection_table_on_family_grid(self):
        for lam, b, c in FAMILY_GRID:
            L = from_kenmotsu_params(lam, b, c)
            gap = np.max(
                np.abs(levi_civita(L).gamma - adapted_connection_table(lam, b, c))
            )
            assert gap <= 1e-12

    def test_singular_metric_rejected(self):
        # positive definite, condition 1e13: past the conditioning rule
        L = abelian().with_metric(np.diag([1.0, 1.0, 1e-13]))
        with pytest.raises(SingularMetric):
            levi_civita(L)
        # a zero pivot is outside the positive cone
        with pytest.raises(DegenerateMetric):
            levi_civita(L.with_metric(np.diag([1.0, 1.0, 0.0])))

    def test_metric_is_parallel(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            L = random_valid_algebra(rng, with_metric=True)
            conn = levi_civita(L)
            d = _cov_deriv(conn.gamma, L.metric)
            assert np.max(np.abs(d)) <= 1e-12


class TestCurvature:
    def test_first_bianchi(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            L = random_valid_algebra(rng, with_metric=True)
            R = curvature(L, levi_civita(L)).riemann
            cyc = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
            assert np.max(np.abs(cyc)) <= 1e-9

    def test_lowered_symmetries(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            L = random_valid_algebra(rng, with_metric=True)
            pack = curvature(L, levi_civita(L))
            Rl = lower_riemann(pack)
            assert np.max(np.abs(Rl + np.transpose(Rl, (1, 0, 2, 3)))) <= 1e-9
            assert np.max(np.abs(Rl + np.transpose(Rl, (0, 1, 3, 2)))) <= 1e-9
            assert np.max(np.abs(Rl - np.transpose(Rl, (2, 3, 0, 1)))) <= 1e-9

    def test_ricci_closed_form_on_family(self):
        for lam, b, c in FAMILY_GRID:
            L = from_kenmotsu_params(lam, b, c)
            pack = curvature(L, levi_civita(L))
            f = b * b + c * c + 2.0
            expected = np.array(
                [
                    [-2.0 * (lam * lam + 1.0), -2.0 * lam * b, -2.0 * lam * c],
                    [-2.0 * lam * b, -f, 2.0 * lam],
                    [-2.0 * lam * c, 2.0 * lam, -f],
                ]
            )
            assert np.max(np.abs(pack.ricci.components - expected)) <= 1e-10
            assert pack.scalar == pytest.approx(
                -2.0 * (lam * lam + 1.0) - 2.0 * f, abs=1e-10
            )

    def test_frozen_ricci_values(self):
        L = from_kenmotsu_params(1.0, 3.0, 3.0)
        pack = curvature(L, levi_civita(L))
        S = pack.ricci.components
        assert S[0, 1] == pytest.approx(-6.0, abs=1e-10)
        assert S[1, 1] == pytest.approx(-20.0, abs=1e-10)
        assert S[1, 2] == pytest.approx(2.0, abs=1e-10)
        assert pack.scalar == pytest.approx(-44.0, abs=1e-10)

        L2 = from_kenmotsu_params(2.0, 0.0, 0.0)
        pack2 = curvature(L2, levi_civita(L2))
        assert pack2.ricci.components[0, 0] == pytest.approx(-10.0, abs=1e-10)
        assert pack2.scalar == pytest.approx(-14.0, abs=1e-10)

    def test_ricci_divergence_identity(self):
        # Contracted second Bianchi: div S = dr / 2 = 0 since the scalar
        # curvature is a frame constant.
        rng = np.random.default_rng(26)
        for _ in range(100):
            L = random_valid_algebra(rng, with_metric=True)
            conn = levi_civita(L)
            pack = curvature(L, conn)
            D = _cov_deriv(conn.gamma, pack.ricci.components)
            div = np.einsum("ij,ijk->k", np.linalg.inv(L.metric), D)
            assert np.max(np.abs(div)) <= 1e-9

    def test_jacobi_operator_values(self):
        L = from_kenmotsu_params(2.0, 0.0, 0.0)
        xi = np.array([1.0, 0.0, 0.0])
        jac = _jacobi(curvature(L, levi_civita(L)).riemann, xi)
        expected = np.array([[0.0, 0.0, 0.0], [0.0, -5.0, 4.0], [0.0, 4.0, -5.0]])
        assert np.allclose(jac, expected, atol=1e-12)
        # The operator annihilates the Reeb direction itself.
        assert np.max(np.abs(jac @ xi)) <= 1e-12

    def test_ricci_operator_consistency(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            L = random_valid_algebra(rng, with_metric=True)
            pack = curvature(L, levi_civita(L))
            # g^-1 S by an independent route, the solve g q = S
            q = np.linalg.solve(L.metric, pack.ricci.components)
            assert pack.scalar == pytest.approx(float(np.trace(q)), abs=1e-10)


# --------------------------------------------------------------------------
# The metric rule's one Cholesky pass: what it returns, and its verdicts on a
# robustness corpus against np.linalg.cholesky (the cone) and the SVD
# condition number (the 1e-12 rule).


def rule_outcome(g):
    try:
        _metric_frame(g)
    except Cotton3Error as exc:
        return type(exc)
    return None


def reference_outcome(g):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return DegenerateMetric
    sv = np.linalg.svd(g, compute_uv=False)
    return SingularMetric if sv[-1] <= 1e-12 * sv[0] else None


def rotated(rng, eigenvalues):
    R = random_rotation(rng)
    g = (R * np.asarray(eigenvalues)) @ R.T
    return 0.5 * (g + g.T)


class TestMetricFrame:
    def test_identity_is_exact(self):
        ginv, u, linv = _metric_frame(np.eye(3))
        assert ginv.tobytes() == np.eye(3).tobytes()
        assert u.tobytes() == np.eye(3).tobytes()
        assert np.array(linv).tobytes() == np.eye(3).tobytes()
        # -0.0 off the diagonal still gives +0.0 entries
        g = np.where(np.eye(3) > 0, 1.0, -0.0)
        assert _metric_frame(g)[0].tobytes() == np.eye(3).tobytes()

    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 0.3, 1.0, 3.0, 1e20, 1e100])
    def test_inverse_determinant_and_frame(self, scale):
        rng = np.random.default_rng(30)
        for _ in range(40):
            g = scale * random_spd(rng)
            ginv, u, linv = _metric_frame(g)
            linv = np.array(linv)
            ref = np.linalg.inv(g)
            assert np.max(np.abs(ginv - ref)) <= 1e-13 * np.max(np.abs(ref))
            ref = g / np.sqrt(np.linalg.det(g))
            assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(linv, np.tril(linv))
            assert np.max(np.abs(linv @ g @ linv.T - np.eye(3))) <= 1e-13

    @pytest.mark.parametrize("pattern", [
        pytest.param(lambda k: (1.0 / k, 1.0 / k, 1.0), id="double-smallest"),
        pytest.param(lambda k: (1.0, 1.0, 1.0 / k), id="double-largest"),
        pytest.param(lambda k: (2.0 / k, 1.0, 2.0), id="spread"),
    ])
    @pytest.mark.parametrize("cond, expected", [
        (1e10, None), (1e11, None), (1e13, SingularMetric), (1e15, SingularMetric),
    ])
    def test_condition_verdicts_at_every_scale(self, pattern, cond, expected):
        rng = np.random.default_rng(31)
        for j in range(-150, 151):
            g = rotated(rng, np.multiply(10.0**j, pattern(cond)))
            assert reference_outcome(g) is expected, j
            assert rule_outcome(g) is expected, j

    @pytest.mark.parametrize("g, expected", [
        (np.diag([1.0, np.nan, 2.0]), DegenerateMetric),
        (np.full((3, 3), np.nan), DegenerateMetric),
        (np.where(np.eye(3) > 0, 1.0, np.nan), DegenerateMetric),
        (np.diag([np.inf, 1.0, 1.0]), DegenerateMetric),
        (np.diag([1.0, 1.0, np.inf]), DegenerateMetric),
        (np.diag([-np.inf, 1.0, 1.0]), DegenerateMetric),
        (np.where(np.eye(3) > 0, 1.0, np.inf), DegenerateMetric),
        (np.where(np.eye(3) > 0, 1.0, -np.inf), DegenerateMetric),
        (np.zeros((3, 3)), DegenerateMetric),
        (np.diag([1.0, 1.0, -0.0]), DegenerateMetric),
        (np.diag([-0.0, 1.0, 1.0]), DegenerateMetric),
        (np.diag([0.0, -1.0, 1.0]), DegenerateMetric),
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), DegenerateMetric),
        (np.where(np.eye(3) > 0, 1.0, 1e300), DegenerateMetric),
        (np.diag([1e300, 2e300, 3e300]), None),
        (np.diag([1.7e308, 1.0, 1.0]), SingularMetric),
    ])
    def test_special_entries(self, g, expected):
        assert rule_outcome(g) is expected

    @pytest.mark.parametrize("g", [
        pytest.param(np.zeros((3, 3)), id="zeros"),
        pytest.param(np.diag([1.0, 1.0, 0.0]), id="diag-1-1-0"),
        pytest.param(np.diag([1.0, 1.0, -0.0]), id="diag-1-1-negzero"),
        pytest.param(np.diag([-0.0, 1.0, 1.0]), id="diag-negzero-1-1"),
        # v v^T with v = (1, 2, 3): the second pivot is 4 - 2 * 2 = 0 exactly
        pytest.param(np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), id="rank-one"),
    ])
    def test_zero_pivot_reads_no_spectrum(self, g, monkeypatch):
        # the Cholesky pass alone decides the positive cone, as the
        # reference does: an exact zero pivot is degenerate, with no
        # eigvalsh call for a second verdict
        assert reference_outcome(g) is DegenerateMetric

        def refuse(a):
            raise AssertionError("the metric rule read a spectrum")
        patch_engine(monkeypatch, "_eigvalsh", refuse)
        with pytest.raises(DegenerateMetric, match=r"\(Cholesky pivot -?0\)$"):
            _metric_frame(g)
        with pytest.raises(DegenerateMetric, match=r"\(Cholesky pivot -?0\)$"):
            levi_civita(abelian().with_metric(g))

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_at_a_zero_pivot(self, x):
        # the zero first pivot is refused before the entry is read:
        # degenerate, as a non-finite entry is everywhere else
        g = np.array([[0.0, x, 0.0], [x, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert rule_outcome(g) is DegenerateMetric

    def test_huge_entries(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            g = rotated(rng, (1e300, 2e300, 3e300))
            assert reference_outcome(g) is None
            ginv, u, _ = _metric_frame(g)
            ref = np.linalg.inv(g)
            assert np.max(np.abs(ginv - ref)) <= 1e-13 * np.max(np.abs(ref))
            # det g = 6e900 overflows, but u = g / sqrt(det g) follows the
            # scale law u(t g) = t^(-1/2) u(g) from g / 1e300
            ref = 1e-150 * _metric_frame(g / 1e300)[1]
            assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert rule_outcome(rotated(rng, (1e300, 2e300, 3e287))) is SingularMetric


class TestAlgebraPass:
    """The metric rule's pass is made once per algebra object and kept on it
    as ``_frame``, which the connection and the curvature both read."""

    @pytest.fixture
    def passes(self, monkeypatch):
        from cotton3 import frame_algebra

        seen = []

        def counting(g):
            seen.append(g)
            return _metric_frame(g)
        monkeypatch.setattr(frame_algebra, "_metric_frame", counting)
        return seen

    def test_second_call_makes_no_pass(self, passes):
        rng = np.random.default_rng(70)
        L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        assert len(passes) == 1
        again = curvature(L, levi_civita(L))
        assert len(passes) == 1
        assert again.cotton.cotton2.components.tobytes() == pack.cotton.cotton2.components.tobytes()
        # the kept pass is bitwise a fresh one, and read-only
        for got, ref in zip(L._frame, _metric_frame(L.metric)):
            assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert not L._frame[0].flags.writeable and not L._frame[1].flags.writeable

    def test_each_algebra_makes_its_own_pass(self, passes):
        # equal constants and metrics in distinct objects: a pass kept by
        # value would be made once here, and a pass kept by the constants
        # alone would be stale after the metric changes
        rng = np.random.default_rng(71)
        L = random_valid_algebra(rng, rotated=True)
        g, h = random_spd(rng), random_spd(rng)
        for M in (L.with_metric(g), dataclasses.replace(L, metric=g)):
            curvature(M, levi_civita(M))
        assert len(passes) == 2
        M = dataclasses.replace(M, metric=h)
        conn = levi_civita(M)
        assert len(passes) == 3
        assert M._frame[0].tobytes() == _metric_frame(h)[0].tobytes()
        ref = levi_civita(MetricLieAlgebra3(L.structure_constants, h))
        assert conn.gamma.tobytes() == ref.gamma.tobytes()

    def test_refused_metric_raises_on_every_access(self, passes):
        conn = levi_civita(milnor(1.0, 2.0, -0.5))
        L = milnor(1.0, 2.0, -0.5).with_metric(np.diag([1.0, 1.0, 0.0]))
        del passes[:]
        for _ in range(3):
            with pytest.raises(DegenerateMetric):
                levi_civita(L)
            with pytest.raises(DegenerateMetric):
                curvature(L, conn)
        # a pass that raises keeps nothing, so each access tries again
        assert len(passes) == 6
        assert "_frame" not in vars(L)

    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 0.3, 1.0, 3.0, 1e20, 1e100])
    def test_ricci_spectrum_reads_the_pack_algebra(self, monkeypatch, scale):
        # the spectrum reads L^-1 off the pass the pack's algebra kept, with
        # no pass of its own, and equals a spectrum from a fresh pass bitwise
        from cotton3 import connection_curvature, frame_algebra

        calls = []

        def counting(g):
            calls.append(g)
            return _metric_frame(g)
        for mod in (frame_algebra, connection_curvature):
            if hasattr(mod, "_metric_frame"):
                monkeypatch.setattr(mod, "_metric_frame", counting)
        rng = np.random.default_rng(72)
        for _ in range(10):
            L = random_valid_algebra(rng, rotated=True).with_metric(scale * random_spd(rng))
            pack = curvature(L, levi_civita(L))
            assert pack.algebra is L
            del calls[:]
            got = ricci_spectrum(pack)
            assert calls == []
            Li = np.array(_metric_frame(L.metric)[2])
            W = Li @ pack.ricci.components @ Li.T
            ref = np.linalg.eigvalsh(W)
            assert got.tobytes() == ref.tobytes()


class TestUnreadWork:
    """A geometry's chain computes only what its readers read: the Riemann
    tensor on first read and validate's eigenvalues only for a refused
    metric."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from cotton3 import connection_curvature, frame_algebra

        seen = dict.fromkeys(("_eigvalsh", "_riemann", "_metric_frame", "_svd"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in ("_eigvalsh", "_svd", "_metric_frame"):
            patch_engine(monkeypatch, name, counting(name, getattr(frame_algebra, name)))
        monkeypatch.setattr(connection_curvature, "_riemann",
                            counting("_riemann", connection_curvature._riemann))
        return seen

    def test_sweep_op_makes_no_unread_work(self, counts):
        # one geometry through validate, the connection, the curvature, the
        # parallel check and classification, the Cotton pack and the general
        # soliton solve, as the benchmark's sweep runs it
        rng = np.random.default_rng(72)
        for n in range(1, 21):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            assert validate(L).is_valid
            conn = levi_civita(L)
            pack = curvature(L, conn)
            parallel = ricci_parallel_check(L, conn, pack)
            classify_geometry(pack, parallel.is_parallel)
            cotton_pack(L, conn, pack)
            solve(SolitonProblem.build(L, conn=conn, pack=pack))
            assert counts == {"_eigvalsh": 0, "_riemann": 0, "_metric_frame": n, "_svd": n}

    def test_riemann_built_once_on_first_read(self, counts):
        rng = np.random.default_rng(73)
        for n in range(1, 11):
            L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
            conn = levi_civita(L)
            pack = curvature(L, conn)
            assert counts["_riemann"] == n - 1
            R = pack.riemann
            assert pack.riemann is R and counts["_riemann"] == n
            ref = _riemann(L.structure_constants, conn.gamma)
            assert R.tobytes() == ref.tobytes()
            assert pack.connection is conn
            assert not R.flags.writeable
            with pytest.raises(ValueError):
                R[0, 0, 0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                pack.riemann = ref
            assert pack.riemann is R

    def test_built_arrays_are_frozen(self):
        rng = np.random.default_rng(74)
        L = random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        ref = _gamma(L.structure_constants, L.metric, _metric_frame(L.metric)[0])
        assert conn.gamma.tobytes() == ref.tobytes() and not conn.gamma.flags.writeable
        for arr in (pack.ricci.components, pack.cotton.cotton3.components,
                    pack.cotton.cotton2.components):
            assert not arr.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            pack.cotton.norm2 = 0.0


class TestEigenvalues:
    def test_ricci_spectrum_general_metric(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            L = random_valid_algebra(rng, with_metric=True)
            pack = curvature(L, levi_civita(L))
            got = ricci_spectrum(pack)
            want = np.sort(
                np.linalg.eigvals(
                    np.linalg.solve(L.metric, pack.ricci.components)
                ).real
            )
            assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
    def test_ricci_spectrum_of_kenmotsu_members(self, lam):
        # exactly {-2 - 2 lam^2, -2 - 2 lam, 2 lam - 2}
        L = from_kenmotsu_params(lam, 0.0, 0.0)
        got = ricci_spectrum(curvature(L, levi_civita(L)))
        assert got.tolist() == sorted([-2.0 - 2.0 * lam * lam, -2.0 - 2.0 * lam, 2.0 * lam - 2.0])


class TestClassification:
    def test_model_fixtures(self):
        cases = [
            (abelian(), CONSTANT_CURVATURE, 0.0),
            (su2_round(), CONSTANT_CURVATURE, 1.0),
            (hyperbolic(), CONSTANT_CURVATURE, -1.0),
            (from_kenmotsu_params(1.0, 0.0, 0.0), PRODUCT_H2XR, -4.0),
        ]
        for L, kind, curv in cases:
            conn = levi_civita(L)
            pack = curvature(L, conn)
            par = ricci_parallel_check(L, conn, pack)
            cls = classify_geometry(pack, par.is_parallel)
            assert cls.kind == kind
            assert cls.curvature == pytest.approx(curv, abs=1e-8)

    def test_not_symmetric_fixtures(self):
        for L in (from_kenmotsu_params(2.0, 0.0, 0.0), heisenberg()):
            conn = levi_civita(L)
            pack = curvature(L, conn)
            par = ricci_parallel_check(L, conn, pack)
            assert not par.is_parallel
            assert classify_geometry(pack, par.is_parallel).kind == NOT_SYMMETRIC

    def test_parallel_residual_values(self):
        L1 = from_kenmotsu_params(1.0, 0.0, 0.0)
        conn1 = levi_civita(L1)
        par1 = ricci_parallel_check(L1, conn1, curvature(L1, conn1))
        assert par1.is_parallel and par1.max_component <= 1e-10

        L2 = from_kenmotsu_params(2.0, 0.0, 0.0)
        conn2 = levi_civita(L2)
        par2 = ricci_parallel_check(L2, conn2, curvature(L2, conn2))
        assert not par2.is_parallel
        assert par2.max_component == pytest.approx(12.0, abs=1e-9)

    def test_round_metric_scaling(self):
        # Scaling the metric rescales constant curvature by 1/t.
        L = su2_round().with_metric(4.0 * np.eye(3))
        conn = levi_civita(L)
        pack = curvature(L, conn)
        par = ricci_parallel_check(L, conn, pack)
        cls = classify_geometry(pack, par.is_parallel)
        assert cls.kind == CONSTANT_CURVATURE
        assert cls.curvature == pytest.approx(0.25, abs=1e-10)


def within_rounding(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


class TestConstantMaps:
    # the private helpers contract through constant maps and gathers; each
    # must agree with the index formula it replaces
    def test_koszul_matches_transposition_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(120):
            c = random_valid_algebra(rng, rotated=True).structure_constants
            g = random_spd(rng)
            cg = np.einsum("ijm,ml->ijl", c, g)
            ref = 0.5 * (cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0))
            assert within_rounding(_koszul(c, g), ref)

    def test_ricci_matches_trace_of_riemann(self):
        rng = np.random.default_rng(62)
        for _ in range(120):
            c = random_valid_algebra(rng, rotated=True).structure_constants
            # the Levi-Civita connection, and any other: curvature() takes
            # whatever ConnectionTable it is given
            g = random_spd(rng)
            for gamma in (_gamma(c, g, _metric_frame(g)[0]), rng.normal(size=(3, 3, 3))):
                s = np.einsum("ijki->jk", _riemann(c, gamma))
                assert within_rounding(_ricci(c, gamma), 0.5 * (s + s.T))


# --------------------------------------------------------------------------
# Results as they were composed through the public value types, before
# curvature and ricci_parallel_check used the array helpers directly:
# equal bit for bit.


class TestPublicComposition:
    def cases(self, rng):
        for _ in range(60):
            yield random_valid_algebra(rng, rotated=True).with_metric(random_spd(rng))
        # Ricci-parallel members, so the verdict is true as well as false
        for L in (su2_round(), hyperbolic(), from_kenmotsu_params(1.0, 0.0, 0.0)):
            yield rotate_algebra(L, random_rotation(rng))

    def test_ricci_form_equals_constructor_route(self):
        for L in self.cases(np.random.default_rng(63)):
            conn = levi_civita(L)
            pack = curvature(L, conn)
            ricci = SymBilinear(_ricci(L.structure_constants, conn.gamma)).components
            assert np.array_equal(pack.ricci.components, ricci)
            assert not pack.ricci.components.flags.writeable
            q = _metric_frame(L.metric)[0] @ ricci
            assert pack.scalar == float(np.trace(q))
            solved = np.linalg.solve(L.metric, ricci)
            assert np.max(np.abs(q - solved)) <= 1e-12 * (1.0 + np.max(np.abs(q)))

    def test_scalar_is_np_trace_bitwise(self):
        # the scalar curvature is summed on floats in np.trace's order from
        # +0.0: the same bits, the sign of a zero included
        cases = [*self.cases(np.random.default_rng(65)), abelian(), heisenberg(),
                 milnor(1.0, 1.0, 0.0), milnor(1.0, 1.0, 0.0).with_metric(np.diag([2.0, 3.0, 5.0]))]
        for L in cases:
            pack = curvature(L, levi_civita(L))
            assert type(pack.scalar) is float
            q = _metric_frame(L.metric)[0] @ pack.ricci.components
            assert np.float64(pack.scalar).tobytes() == np.trace(q).tobytes()

    def test_parallel_check_equals_cov_deriv_route(self):
        default_verdicts = set()
        for L in self.cases(np.random.default_rng(64)):
            conn = levi_civita(L)
            pack = curvature(L, conn)
            d = _cov_deriv(conn.gamma, pack.ricci.components)
            assert pack.ricci_derivative.components.tobytes() == d.tobytes()
            assert not pack.ricci_derivative.components.flags.writeable
            mx = float(np.max(np.abs(d)))
            check = ricci_parallel_check(L, conn, pack)
            assert check.max_component == mx
            assert check.is_parallel == (mx <= 1e-9)
            default_verdicts.add(check.is_parallel)
            # either side of the edge
            assert ricci_parallel_check(L, conn, pack, mx).is_parallel
            assert not ricci_parallel_check(L, conn, pack, np.nextafter(mx, 0.0)).is_parallel
        assert default_verdicts == {True, False}
