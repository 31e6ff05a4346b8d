"""Value types, algebra builders, and validity checking."""

import ast
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian,
    brute_jacobi,
    milnor,
    patch_engine,
    random_rotation,
    random_spd,
    random_valid_algebra,
)
import cotton3
from cotton3 import (
    DEFAULT_TOL,
    DegenerateMetric,
    FrameVector,
    MetricLieAlgebra3,
    SingularMetric,
    SymBilinear,
    Tensor3,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    validate,
)
from cotton3 import frame_algebra
from cotton3.frame_algebra import bracket
from cotton3.soliton import _solve


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
    def test_magnitude_matches_brute_force(self):
        # validate sums the cyclic products in the oracle's order: the
        # reported magnitude is the oracle's, bit for bit, at every scale
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
            c = c - np.transpose(c, (1, 0, 2))
            rep = validate(MetricLieAlgebra3(c))
            assert [(v.kind, v.indices, v.magnitude) for v in rep.violations] == [
                ("jacobi", (0, 1, 2), float(np.max(np.abs(brute_jacobi(c)[0, 1, 2])))),
            ]

    def test_valid_on_closed_families(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            L = milnor(*rng.uniform(-5.0, 5.0, size=3))
            assert np.max(np.abs(brute_jacobi(L.structure_constants))) == 0.0
            assert validate(L).is_valid

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
        rep = validate(from_kenmotsu_params(1e200, 0.0, 0.0))
        assert [v.kind for v in rep.violations] == ["overflow"]

    @pytest.mark.parametrize("g, kinds", [
        (1e308 * np.eye(3), []),
        (1.7e308 * np.eye(3), []),
        (np.diag([1.7e308, 1e300, 1e300]), []),
        # indefinite, eigenvalues 1 - 1.7e308, 1, 1 + 1.7e308
        ([[1.0, 1.7e308, 0.0], [1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]],
         ["metric_not_positive"]),
        (np.full((3, 3), 1.7e308), ["metric_not_positive"]),
        # g - g^T overflows: an inf magnitude
        ([[1.0, 1.7e308, 0.0], [-1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]],
         ["metric_asymmetric", "metric_not_positive"]),
        ([[1.7e308, 1.7e308, 0.0], [1.6e308, 1.7e308, 0.0], [0.0, 0.0, 1e308]],
         ["metric_asymmetric"]),
    ])
    def test_large_metric_reported_not_raised(self, g, kinds):
        # a report, no LinAlgError and no numpy warning, also where g - g^T
        # overflows
        L = abelian().with_metric(np.array(g, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate(L)
        assert [v.kind for v in rep.violations] == kinds
        assert not any(np.isnan(v.magnitude) for v in rep.violations)

    @pytest.mark.parametrize("g", [
        [[5e-324, 5e-324, 0.0], [1.5e-323, 5e-324, 0.0], [0.0, 0.0, 5e-324]],
        [[1.5e-323, 5e-324, 0.0], [5e-324, 1.5e-323, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_subnormal_metric_matches_reference(self, g):
        L = abelian().with_metric(np.array(g))
        got = [(v.kind, v.indices, v.magnitude) for v in validate(L).violations]
        assert got == reference_violations(L)
        assert got[-1][0] == "metric_not_positive"

    @pytest.mark.parametrize("g, valid", [
        (1e-200 * np.eye(3), True),
        (1e-13 * np.eye(3), True),
        (1e300 * np.eye(3), True),
        # lambda_min 2.5e-12, lambda_max 3 + 2.5e-12: condition above 1e12
        (np.ones((3, 3)) + 2.5e-12 * np.eye(3), False),
        # condition 1e10, but g^-1 = diag(1e300, 1e300, 1e310) overflows
        (np.diag([1e-300, 1e-300, 1e-310]), False),
    ])
    def test_positivity_is_scale_free(self, g, valid):
        # the verdict is levi_civita's, whatever the metric's scale
        L = abelian().with_metric(g)
        assert validate(L).is_valid is valid
        if valid:
            levi_civita(L)
        else:
            with pytest.raises(SingularMetric):
                levi_civita(L)

    def test_non_finite_jacobi_residual_reported(self):
        # c[0, 1, 1] * c[1, 2, 0] and c[1, 2, 2] * c[2, 0, 0] overflow to
        # +inf and -inf, so a cyclic-sum component would be NaN, which a
        # cutoff comparison lets through; the overflow bound rejects such
        # constants before the sum is formed
        c = np.zeros((3, 3, 3))
        c[0, 1, 1], c[1, 0, 1] = 1e160, -1e160
        c[1, 2, 0], c[2, 1, 0] = 1e160, -1e160
        c[1, 2, 2], c[2, 1, 2] = -1e160, 1e160
        c[2, 0, 0], c[0, 2, 0] = 1e160, -1e160
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(brute_jacobi(c)).any()
        rep = validate(MetricLieAlgebra3(c))
        assert [v.kind for v in rep.violations] == ["overflow"]


def reference_violations(L):
    """validate's finite-input rules as loops over every index, the form
    they had before each rule became one whole-array comparison."""
    c, g = L.structure_constants, L.metric
    m = float(np.max(np.abs(c)))
    gscale = 1.0 + float(np.max(np.abs(g)))
    anti_tol, jac_tol = 1e-12 * (1.0 + m), 1e-12 * m * m
    out = []
    anti = c + np.transpose(c, (1, 0, 2))
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                mag = abs(anti[i, j, k])
                if mag > anti_tol:
                    out.append(("antisymmetry", (i, j, k), mag))
    jac = brute_jacobi(c)
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
    # the metric rule: positive, with condition number below 1e12 and a
    # finite inverse (tr g^-1 = sum 1 / lambda_i below the largest float)
    lo, mid, hi = np.linalg.eigvalsh(g).tolist()
    if not (lo > 0 and hi < 1e12 * lo and 1.0 / lo + 1.0 / mid + 1.0 / hi < math.inf):
        out.append(("metric_not_positive", (), lo))
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
            got = [(v.kind, v.indices, v.magnitude) for v in validate(L).violations]
            want = reference_violations(L)
            assert got == want
            assert [type(m) for *_, m in got] == [type(m) for *_, m in want]
            kinds.update(kind for kind, *_ in got)
        assert kinds == {"antisymmetry", "jacobi", "metric_asymmetric", "metric_not_positive"}
        assert max(len(reference_violations(L)) for L in cases) > 10


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def near_cutoff_metric(seed: int, ratio: float, cond: float) -> np.ndarray:
    """An exactly symmetric rotated metric with condition ``cond`` whose
    smallest eigenvalue is ``ratio`` times 1e-12 (1 + lambda_max), the
    region where an absolute positivity cutoff and the scale-free metric
    rule part for small metrics."""
    x = 1e-12 * ratio * cond
    lam_max = x / (1.0 - x)
    lam_min = lam_max / cond
    return spectrum_metric(seed, lam_min, lam_max)


def spectrum_metric(seed: int, lam_min: float, lam_max: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mid = lam_min * (lam_max / lam_min) ** rng.random()
    R = random_rotation(rng)
    g = (R * [lam_min, mid, lam_max]) @ R.T
    return 0.5 * (g + g.T)


near_cutoff = st.builds(near_cutoff_metric, st.integers(0, 2**32 - 1),
                        st.floats(0.5, 4.0), st.floats(0.0, 11.0).map(lambda e: 10.0**e))
# largest eigenvalue 10^-300 .. 10^300, condition 1 .. 1e14 outside the
# factor-2 band around the rule's 1e12, and smallest eigenvalue outside the
# factor-2 band around [1, 3] / 1.8e308, where tr g^-1 may overflow: in
# both bands rounding may decide
scaled = st.builds(
    lambda seed, ek: spectrum_metric(seed, 10.0 ** (ek[0] - ek[1]), 10.0 ** ek[0]),
    st.integers(0, 2**32 - 1),
    st.tuples(st.floats(-300.0, 300.0),
              st.one_of(st.floats(0.0, 11.69), st.floats(12.31, 14.0)))
    .filter(lambda ek: not -308.56 < ek[0] - ek[1] < -307.47),
)
# smallest eigenvalue 10^-314 .. 10^-300 outside that band and condition
# 1 .. 1e11: only the finite inverse decides
tiny = st.builds(
    lambda seed, lo, k: spectrum_metric(seed, 10.0**lo, 10.0 ** (lo + k)),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(-314.0, -308.56), st.floats(-307.47, -300.0)), st.floats(0.0, 11.0),
)


def near_jacobi_cutoff(seed: int, rho: float):
    """Rotated, rescaled Jacobi-valid constants with one bracket entry moved,
    antisymmetry kept, so that the cyclic sum is about ``rho`` times the
    Jacobi cutoff."""
    rng = np.random.default_rng(seed)
    c = random_valid_algebra(rng, rotated=True).structure_constants * 10.0 ** rng.uniform(-2, 4)
    # the cutoff is 1e-12 m^2 (m = max|c|), and the sum is linear in the
    # move, with coefficients of size m
    step = 1e-12 * float(np.max(np.abs(c)))
    i, j = rng.choice(3, size=2, replace=False)
    k = rng.integers(3)
    c[i, j, k] += rho * step * rng.choice([-1.0, 1.0])
    c[j, i, k] = -c[i, j, k]
    return c


class TestValidateRules:
    """Positivity is the metric rule, and the Jacobi rule is the oracle's
    cyclic sum against its cutoff."""

    @PROPERTY
    @given(st.one_of(near_cutoff, scaled, tiny))
    def test_positivity_is_the_metric_rule(self, g):
        L = MetricLieAlgebra3(np.zeros((3, 3, 3)), g)
        got = [(v.kind, v.indices, v.magnitude) for v in validate(L).violations]
        assert got == reference_violations(L)
        try:
            levi_civita(L)
            refused = False
        except (DegenerateMetric, SingularMetric):
            refused = True
        assert refused == ("metric_not_positive" in [kind for kind, *_ in got])

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 2.0).map(lambda e: 10.0**e))
    def test_jacobi_rule_matches_reference(self, seed, rho):
        L = MetricLieAlgebra3(near_jacobi_cutoff(seed, rho))
        got = [(v.kind, v.indices, v.magnitude) for v in validate(L).violations]
        assert got == reference_violations(L)

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
           st.integers(-900, 250))
    def test_rule_is_scale_free(self, seed, rho, j):
        # the cyclic sum is quadratic in c: under c -> 2^j c the verdict
        # stays and the magnitude moves by 2^(2j) exactly, also where the
        # products of the scaled constants would underflow
        c = near_jacobi_cutoff(seed, rho)
        want = [(v.kind, v.indices, math.ldexp(v.magnitude, 2 * j))
                for v in validate(MetricLieAlgebra3(c)).violations]
        got = [(v.kind, v.indices, v.magnitude)
               for v in validate(MetricLieAlgebra3(np.ldexp(c, j))).violations]
        assert got == want

    def test_draws_decide_both_ways(self):
        # the metric draws above reach both verdicts, and so do the
        # constant draws
        rng = np.random.default_rng(15)
        pos, jac = set(), set()
        for _ in range(400):
            e = rng.uniform(-300.0, 300.0)
            k = rng.choice([rng.uniform(0.0, 11.69), rng.uniform(12.31, 14.0)])
            g = spectrum_metric(int(rng.integers(2**32)), 10.0 ** (e - k), 10.0**e)
            pos.add(validate(MetricLieAlgebra3(np.zeros((3, 3, 3)), g)).is_valid)
            c = near_jacobi_cutoff(int(rng.integers(2**32)), 10.0 ** rng.uniform(-3, 2))
            jac.add(validate(MetricLieAlgebra3(c)).is_valid)
        assert pos == {True, False}
        assert jac == {True, False}

    @pytest.mark.parametrize("g, refused", [
        (np.diag([1.0, 2.0, 0.0]), True),  # the pass refuses it as singular
        (np.diag([1.0, -2.0, 3.0]), True),  # and this one as indefinite
        (np.ones((3, 3)) + 2.5e-12 * np.eye(3), True),  # condition above 1e12
        (np.diag([1e-3, 1.0, 1e6]), False),
        (np.diag([1e308, 1e307, 1e307]), False),
        (1e-200 * np.eye(3), False),
        # asymmetric within tolerance: the pass reads the lower triangle
        (np.eye(3) + np.diag([1e-14, 0.0], 1), False),
    ])
    def test_eigvalsh_only_for_refused_metrics(self, g, refused, monkeypatch):
        # validate's own call, for the magnitude; the metric pass calls
        # eigvalsh too, in its condition branch alone
        callers = []
        real = frame_algebra._eigvalsh

        def counting(a):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(a)
        patch_engine(monkeypatch, "_eigvalsh", counting)
        rep = validate(MetricLieAlgebra3(np.zeros((3, 3, 3)), g))
        assert rep.is_valid is not refused
        assert callers.count("validate") == refused


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
        # the builder keeps no closure cutoff of its own: it builds brackets
        # far from closing and brackets within any affine cutoff alike, and
        # validate refuses each with its one violation, sized by the oracle
        for params in ((2.0, 1.0, 0.0), (0.5, 2.0, 2.0), (1.0, 1.0, 1.0 + 1e-10)):
            L = from_kenmotsu_params(*params)
            rep = validate(L)
            assert [(v.kind, v.indices) for v in rep.violations] == [("jacobi", (0, 1, 2))]
            size = np.max(np.abs(brute_jacobi(L.structure_constants)[0, 1, 2]))
            assert rep.violations[0].magnitude == pytest.approx(size, rel=1e-12)
        # lam > 0 is a domain check on the parameter, not a Jacobi rule
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
        # the soliton solve's minimum-norm solution is lstsq(rcond=None)'s,
        # and its rank and null space are the SVD's: full rank, rank
        # deficient, spectra graded across the cutoff, zero
        rng = np.random.default_rng(12)
        cases = [np.zeros((6, 3))]
        for k in range(1, 5):
            cases.append(rng.normal(size=(6, k)))
            cases.append(rng.normal(size=(6, 2)) @ rng.normal(size=(2, k)))
        for exponent in (-8.0, -15.5, -17.0):
            U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            cases.append(U[:, :3] @ np.diag(np.logspace(0.0, exponent, 3)) @ V.T)
        fields = [FrameVector(v) for v in rng.normal(size=(3, 3))]
        for A in cases:
            b = rng.normal(size=A.shape[0])
            sol = _solve(A, b, fields[: A.shape[1] - 1], 2.0, 1e-8)
            z = np.append(sol.coefficients, sol.sigma)
            want, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.max(np.abs(z - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
            s = np.linalg.svd(A, compute_uv=False)
            assert sol.rank == np.sum(s > 1e-10 * max(s[0], 1e-300))
            F = sol.family_basis
            assert np.allclose(F @ F.T, np.eye(len(F)), rtol=0, atol=1e-12)
            assert np.max(np.abs(A @ F.T), initial=0.0) <= 1e-10 * max(s[0], 1e-300)


class TestLinalgGufuncs:
    """``_svd``, ``_eigvalsh`` and ``_slogdet`` call numpy's LAPACK gufuncs
    directly: the same results as ``np.linalg``, bit for bit, and its
    ``LinAlgError`` where it raises one."""

    @staticmethod
    def same(got, want) -> bool:
        return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   and np.asarray(a).shape == np.asarray(b).shape
                   for a, b in zip(got, want, strict=True))

    def test_svd_equals_numpy_bitwise(self):
        rng = np.random.default_rng(160)
        for shape in ((6, 2), (6, 3), (6, 4), (3, 3)):
            for scale in (1.0, 1e150, 1e-150):
                for _ in range(20):
                    A = rng.normal(size=shape) * scale
                    # integer entries, the last column a sum of the others or
                    # zero: rank n - 1 exactly
                    B = rng.integers(-4, 5, size=shape)
                    B[:, -1] = B[:, :-1].sum(axis=1) if rng.integers(2) else 0
                    for a in (A, B, B * scale):
                        assert self.same(frame_algebra._svd(a), np.linalg.svd(a))

    def test_eigvalsh_and_slogdet_equal_numpy_bitwise(self):
        rng = np.random.default_rng(161)
        kinds = set()
        for _ in range(50):
            Q = random_rotation(rng)
            for w in (rng.uniform(0.1, 5.0, 3), rng.uniform(-5.0, 5.0, 3),
                      np.array([0.0, *rng.uniform(-5.0, 5.0, 2)])):
                M = (Q * w) @ Q.T
                for a in (M, np.diag(w), M.round(0)):
                    assert self.same([frame_algebra._eigvalsh(a)], [np.linalg.eigvalsh(a)])
                    assert self.same(frame_algebra._slogdet(a), np.linalg.slogdet(a))
                    kinds.add(int(np.linalg.slogdet(a)[0]))
        # positive definite, indefinite and exactly singular (diag with a 0)
        assert kinds == {-1, 0, 1}

    def test_nan_input_raises_as_numpy(self):
        # numpy's error state warns where the gufunc fails (np.linalg
        # silences that with a per-call errstate); the error is numpy's
        cases = [(frame_algebra._svd, np.linalg.svd, np.full((6, 4), np.nan)),
                 (frame_algebra._svd, np.linalg.svd, np.where(np.eye(3) > 0, np.nan, 1.0)),
                 (frame_algebra._eigvalsh, np.linalg.eigvalsh, np.full((3, 3), np.nan)),
                 (frame_algebra._eigvalsh, np.linalg.eigvalsh, np.diag([1.0, np.nan, 2.0]))]
        for helper, ref, a in cases:
            with pytest.raises(np.linalg.LinAlgError) as want:
                ref(a)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(np.linalg.LinAlgError) as got:
                    helper(a)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert {w.category for w in seen} == {RuntimeWarning}
            # under np.errstate(all="ignore"), as the CLI runs, no warning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
                    helper(a)

    def test_no_src_module_calls_np_linalg(self):
        # every factorization goes through the helpers above: no module calls
        # an np.linalg function, and numpy.linalg lends only the gufunc
        # module and the error class
        modules = sorted(pathlib.Path(cotton3.__file__).parent.glob("*.py"))
        assert len(modules) >= 9
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = node.func.value
                    assert not (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                                and isinstance(owner.value, ast.Name)
                                and owner.value.id in ("np", "numpy")), (path.name, node.lineno)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    names = {alias.name for alias in node.names}
                    assert names <= {"LinAlgError", "_umath_linalg"}, (path.name, names)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                    assert "linalg" not in {alias.name for alias in node.names}, path.name
