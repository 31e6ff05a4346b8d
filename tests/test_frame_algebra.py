"""Value types, algebra builders, and validity checking."""

import numpy as np
import pytest

from conftest import abelian, milnor, random_spd, random_valid_algebra
from cotton3 import (
    DEFAULT_TOL,
    FrameVector,
    JacobiViolation,
    MetricLieAlgebra3,
    SymBilinear,
    Tensor3,
    bracket,
    from_kenmotsu_params,
    from_nonunimodular,
    validate,
)
from cotton3.frame_algebra import _jacobi_residual, _svd_lstsq


def brute_jacobi(c):
    """Independent cyclic-sum oracle, written as explicit loops."""
    res = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                term = np.zeros(3)
                for m in range(3):
                    term += c[i, j, m] * c[m, k]
                    term += c[j, k, m] * c[m, i]
                    term += c[k, i, m] * c[m, j]
                res[i, j, k] = term
    return res


class TestValueTypes:
    def test_frame_vector_shape_and_freeze(self):
        v = FrameVector([1.0, 2.0, 3.0])
        assert v.components.shape == (3,)
        with pytest.raises(ValueError):
            v.components[0] = 5.0
        with pytest.raises(ValueError):
            FrameVector([1.0, 2.0])

    def test_sym_bilinear_symmetrizes(self):
        s = SymBilinear([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert s.components[0, 1] == s.components[1, 0] == 1.0
        x = FrameVector([1.0, 0.0, 0.0])
        y = FrameVector([0.0, 1.0, 0.0])
        assert s.evaluate(x, y) == 1.0
        with pytest.raises(ValueError):
            SymBilinear(np.zeros((2, 2)))

    def test_sym_bilinear_keeps_finite_input_finite(self):
        # the sum of a large entry and its mirror overflows before halving
        s = SymBilinear(np.diag([1e308, 1.0, 1.0]))
        assert s.components[0, 0] == 1e308
        a = np.zeros((3, 3))
        a[0, 1], a[1, 0] = 1.5e308, 1.7e308
        assert SymBilinear(a).components[0, 1] == 1.6e308

    def test_sym_bilinear_matches_sum_then_halve(self):
        # bitwise the form 0.5 * (a + a^T) wherever that sum is finite and
        # every entry is zero or at least 2**-1021 in magnitude
        rng = np.random.default_rng(5)
        for lo, hi in ((-3, 3), (-300, 300), (-1021, -1000), (1000, 1023)):
            for _ in range(200):
                a = np.ldexp(rng.uniform(-2.0, 2.0, size=(3, 3)),
                             rng.integers(lo, hi, size=(3, 3)))
                a[rng.random((3, 3)) < 0.1] = 0.0
                a[np.abs(a) < 2.0**-1021] = 0.0
                assert np.array_equal(SymBilinear(a).components, 0.5 * (a + a.T))

    def test_tensor3_shape_and_freeze(self):
        T = Tensor3(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            T.components[0, 1, 2] = 4.0
        with pytest.raises(ValueError):
            Tensor3(np.zeros((3, 3)))

    def test_algebra_defaults_and_with_metric(self):
        L = abelian()
        assert np.array_equal(L.metric, np.eye(3))
        g = np.diag([1.0, 2.0, 3.0])
        L2 = L.with_metric(g)
        assert np.array_equal(L2.metric, g)
        assert np.array_equal(L2.structure_constants, L.structure_constants)
        with pytest.raises(ValueError):
            L.structure_constants[0, 0, 0] = 1.0


class TestJacobi:
    def test_residual_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = rng.normal(size=(3, 3, 3))
            c = c - np.transpose(c, (1, 0, 2))
            assert np.allclose(_jacobi_residual(c), brute_jacobi(c), atol=1e-12)

    def test_residual_zero_on_closed_families(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            L = milnor(*rng.uniform(-5.0, 5.0, size=3))
            assert np.max(np.abs(_jacobi_residual(L.structure_constants))) == 0.0

    def test_residual_scale_aware_tolerance(self):
        # Large constants inflate the float error of the double
        # contraction; the default tolerance must scale with them.
        L = milnor(1.0e3, -2.0e3, 3.0e3)
        assert validate(L).is_valid


class TestValidate:
    def test_antisymmetry_violation_reported(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = 1.0  # should be -1
        rep = validate(MetricLieAlgebra3(c))
        assert not rep.is_valid
        assert any(v.kind == "antisymmetry" for v in rep.violations)
        assert max(v.magnitude for v in rep.violations) >= 1.0

    def test_jacobi_violation_reported(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        c[0, 2, 1] = 1.0
        c[2, 0, 1] = -1.0
        c[1, 2, 1] = 1.0
        c[2, 1, 1] = -1.0
        rep = validate(MetricLieAlgebra3(c))
        assert any(v.kind == "jacobi" for v in rep.violations)

    def test_metric_violations_reported(self):
        L = abelian()
        bad_sym = np.eye(3).copy()
        bad_sym[0, 1] = 0.5
        rep = validate(MetricLieAlgebra3(L.structure_constants, bad_sym))
        assert any(v.kind == "metric_asymmetric" for v in rep.violations)
        rep = validate(
            MetricLieAlgebra3(L.structure_constants, np.diag([1.0, 1.0, -1.0]))
        )
        assert any(v.kind == "metric_not_positive" for v in rep.violations)

    def test_non_finite_entries_reported(self):
        rep = validate(from_nonunimodular(float("nan"), 0.0))
        assert not rep.is_valid
        assert {v.kind for v in rep.violations} == {"non_finite"}
        # alpha enters [e1, e2] and, as 2 - alpha, [e1, e3]
        assert {v.indices for v in rep.violations} == {
            ("structure_constants", 0, 1, 1),
            ("structure_constants", 1, 0, 1),
            ("structure_constants", 0, 2, 2),
            ("structure_constants", 2, 0, 2),
        }
        g = np.eye(3)
        g[2, 2] = np.inf
        rep = validate(abelian().with_metric(g))
        assert [v.indices for v in rep.violations] == [("metric", 2, 2)]

    def test_large_constants_reported_not_raised(self):
        L = from_kenmotsu_params(1e200, 0.0, 0.0)
        for tol in (None, 1e-8):
            rep = validate(L, tol=tol)
            assert [v.kind for v in rep.violations] == ["overflow"]

    def test_non_finite_jacobi_residual_reported(self):
        # c[0, 1, 1] * c[1, 2, 0] and c[1, 2, 2] * c[2, 0, 0] overflow to
        # +inf and -inf, so a residual component would be NaN, which a
        # tolerance comparison lets through; the overflow bound rejects
        # such constants before the residual is formed
        c = np.zeros((3, 3, 3))
        c[0, 1, 1], c[1, 0, 1] = 1e160, -1e160
        c[1, 2, 0], c[2, 1, 0] = 1e160, -1e160
        c[1, 2, 2], c[2, 1, 2] = -1e160, 1e160
        c[2, 0, 0], c[0, 2, 0] = 1e160, -1e160
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_jacobi_residual(c)).any()
        rep = validate(MetricLieAlgebra3(c), tol=1e300)
        assert [v.kind for v in rep.violations] == ["overflow"]

    def test_explicit_tolerance_used(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1e-6
        c[1, 0, 2] = 0.0  # antisymmetry broken at the 1e-6 level
        assert not validate(MetricLieAlgebra3(c)).is_valid
        assert validate(MetricLieAlgebra3(c), tol=1e-3).is_valid

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12])
    def test_rejects_tolerance_not_finite_or_negative(self, tol):
        # [e_0, e_1] = e_2 with no antisymmetric partner: a nan tolerance
        # compares false with every magnitude and would report it valid
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        with pytest.raises(ValueError, match="tolerance"):
            validate(MetricLieAlgebra3(c), tol=tol)

    def test_zero_tolerance_allowed(self):
        # the Milnor residual and antisymmetry cancel exactly
        assert validate(milnor(1.0, -1.0, 2.0), tol=0.0).is_valid
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        rep = validate(MetricLieAlgebra3(c), tol=0.0)
        assert [(v.kind, v.indices) for v in rep.violations] == [
            ("antisymmetry", (0, 1, 2)),
        ]


def reference_violations(L, tol=None):
    """validate's finite-input rules as loops over every index, the form
    they had before each rule became one whole-array comparison."""
    c, g = L.structure_constants, L.metric
    scale = 1.0 + float(np.max(np.abs(c)))
    gscale = 1.0 + float(np.max(np.abs(g)))
    cube = scale * scale * scale
    anti_tol, jac_tol = (1e-12 * scale, 1e-12 * cube) if tol is None else (tol, tol)
    out = []
    anti = c + np.transpose(c, (1, 0, 2))
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                mag = abs(anti[i, j, k])
                if mag > anti_tol:
                    out.append(("antisymmetry", (i, j, k), mag))
    jac = _jacobi_residual(c)
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(j + 1, 3):
                mag = float(np.max(np.abs(jac[i, j, k])))
                if mag > jac_tol:
                    out.append(("jacobi", (i, j, k), mag))
    gsym_tol = 1e-12 * gscale
    for i in range(3):
        for j in range(i + 1, 3):
            mag = abs(g[i, j] - g[j, i])
            if mag > gsym_tol:
                out.append(("metric_asymmetric", (i, j), mag))
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    if eigs[0] <= gsym_tol:
        out.append(("metric_not_positive", (), float(eigs[0])))
    return out


class TestValidateReference:
    def test_violations_match_loop_form(self):
        # several rules broken at several indices at once, entries just
        # above and below each tolerance, and valid algebras
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(40):
            cases.append(MetricLieAlgebra3(rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3))))
            L = random_valid_algebra(rng, rotated=True, with_metric=True)
            c = L.structure_constants.copy()
            g = L.metric.copy()
            scale = 1.0 + np.max(np.abs(c))
            for _ in range(rng.integers(1, 5)):
                c[tuple(rng.integers(3, size=3))] += rng.choice([1e-3, 3e-12, 0.3e-12]) * scale
            for _ in range(rng.integers(0, 3)):
                i, j = rng.choice(3, size=2, replace=False)
                g[i, j] += rng.choice([1e-6, 0.5e-12])
            if rng.random() < 0.3:
                g = g - (np.linalg.eigvalsh(0.5 * (g + g.T))[0] + 0.1) * np.eye(3)
            cases.append(MetricLieAlgebra3(c, g))
            cases.append(L)
        kinds = set()
        for L in cases:
            for tol in (None, 1e-3, 0.0):
                got = [(v.kind, v.indices, v.magnitude) for v in validate(L, tol).violations]
                want = reference_violations(L, tol)
                assert got == want
                assert [type(m) for *_, m in got] == [type(m) for *_, m in want]
                kinds.update(kind for kind, *_ in got)
        assert kinds == {"antisymmetry", "jacobi", "metric_asymmetric", "metric_not_positive"}
        assert max(len(reference_violations(L)) for L in cases) > 10


class TestBracket:
    def test_matches_structure_constants_on_basis(self):
        rng = np.random.default_rng(9)
        L = milnor(*rng.uniform(-2.0, 2.0, size=3))
        basis = [FrameVector(np.eye(3)[i]) for i in range(3)]
        for i in range(3):
            for j in range(3):
                got = bracket(L, basis[i], basis[j]).components
                assert np.allclose(got, L.structure_constants[i, j])

    def test_bilinear_and_antisymmetric(self):
        rng = np.random.default_rng(10)
        L = from_nonunimodular(1.4, -0.3)
        for _ in range(20):
            x = FrameVector(rng.normal(size=3))
            y = FrameVector(rng.normal(size=3))
            xy = bracket(L, x, y).components
            yx = bracket(L, y, x).components
            assert np.allclose(xy, -yx, atol=1e-12)


class TestBuilders:
    def test_kenmotsu_brackets(self):
        lam, b, c = 1.0, 2.5, 2.5
        L = from_kenmotsu_params(lam, b, c)
        e1, e2, e3 = (FrameVector(np.eye(3)[i]) for i in range(3))
        assert np.allclose(bracket(L, e2, e1).components, [0.0, 1.0, -lam])
        assert np.allclose(bracket(L, e2, e3).components, [0.0, b, -c])
        assert np.allclose(bracket(L, e3, e1).components, [0.0, -lam, 1.0])

    def test_kenmotsu_random_diagonal_family_is_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = float(rng.uniform(1e-3, 5.0))
            assert validate(from_kenmotsu_params(lam, 0.0, 0.0)).is_valid

    def test_kenmotsu_lam_one_family_is_valid(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            b = float(rng.uniform(-4.0, 4.0))
            assert validate(from_kenmotsu_params(1.0, b, b)).is_valid

    def test_kenmotsu_rejects_open_brackets(self):
        with pytest.raises(JacobiViolation):
            from_kenmotsu_params(2.0, 1.0, 0.0)
        with pytest.raises(JacobiViolation):
            from_kenmotsu_params(0.5, 2.0, 2.0)
        with pytest.raises(ValueError):
            from_kenmotsu_params(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            from_kenmotsu_params(0.0, 0.0, 0.0)

    def test_nonunimodular_always_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            alpha, beta = rng.uniform(-5.0, 5.0, size=2)
            L = from_nonunimodular(float(alpha), float(beta))
            assert validate(L).is_valid

    def test_nonunimodular_brackets(self):
        alpha, beta = 2.0, 0.5
        L = from_nonunimodular(alpha, beta)
        e1, e2, e3 = (FrameVector(np.eye(3)[i]) for i in range(3))
        assert np.allclose(bracket(L, e1, e2).components, [0.0, alpha, beta])
        assert np.allclose(bracket(L, e2, e3).components, [0.0, 0.0, 0.0])
        assert np.allclose(
            bracket(L, e1, e3).components, [0.0, beta, 2.0 - alpha]
        )

    def test_random_metric_stays_valid(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            L = milnor(*rng.uniform(-2.0, 2.0, size=3)).with_metric(random_spd(rng))
            assert validate(L).is_valid

    def test_default_tol_is_small(self):
        assert 0.0 < DEFAULT_TOL <= 1e-8


class TestSvdLstsq:
    def test_matches_lstsq(self):
        # the minimum-norm solution of lstsq(rcond=None), and the SVD of A:
        # full rank, rank deficient, spectra graded across the cutoff, zero
        rng = np.random.default_rng(12)
        cases = [np.zeros((6, 3))]
        for k in range(1, 5):
            cases.append(rng.normal(size=(6, k)))
            cases.append(rng.normal(size=(6, 2)) @ rng.normal(size=(2, k)))
        for exponent in (-8.0, -15.5, -17.0):
            U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cases.append(U[:, :3] @ np.diag(np.logspace(0.0, exponent, 3)) @ V.T)
        for A in cases:
            b = rng.normal(size=A.shape[0])
            z, s, Vt = _svd_lstsq(A, b)
            want, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.max(np.abs(z - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
            assert np.allclose((Vt.T * s * s) @ Vt, A.T @ A, rtol=0, atol=1e-12)
