"""Metric Lie algebras on a fixed 3-frame, plus the tensor value types.

Component conventions used everywhere in this package:

* ``structure_constants`` is a rank-3 array ``c`` with
  ``[e_i, e_j] = sum_k c[i, j, k] e_k``.
* ``metric`` stores the inner products ``g[i, j] = g(e_i, e_j)``; the frame
  is orthonormal iff ``metric`` is the identity.
* Vectors, symmetric bilinear forms and rank-3 covariant tensors are plain
  component arrays in this fixed frame, wrapped in ``FrameVector``,
  ``SymBilinear`` and ``Tensor3``.

All value types are immutable (their arrays are frozen); every operation is
a pure function of its inputs, so values can be shared across threads.

Every LAPACK call of the package goes through ``_svd``, ``_eigvalsh`` and
``_slogdet``, which call numpy's gufuncs (numpy 2 names) directly; the
soliton solve reads its rank, minimum-norm solution and null space off one
``_svd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DegenerateMetric, SingularMetric

# Default absolute tolerance for scalar/component comparisons.
DEFAULT_TOL = 1e-9


def _svd(a: np.ndarray):
    """U, s, Vt of the matrix ``a``, full matrices: ``np.linalg.svd(a)`` bit
    for bit, from the LAPACK gufunc it calls, without its Python dispatch.

    Where LAPACK fails (a nan entry, no convergence) the gufunc fills its
    outputs with nan, read here as ``np.linalg.svd``'s ``LinAlgError``.
    numpy's default error state also warns there (``invalid``), which
    ``np.linalg.svd`` silences with a per-call ``np.errstate``, the largest
    part of the dispatch this skips.
    """
    U, s, Vt = _umath_linalg.svd_f(a, signature="d->ddd")
    # nan, the failure fill, is the one value unequal to itself
    if s[0] != s[0]:
        raise LinAlgError("SVD did not converge")
    return U, s, Vt


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose lower triangle is
    ``a``'s: ``np.linalg.eigvalsh(a)`` bit for bit, from its gufunc, with
    its ``LinAlgError`` read off the nan fill as in ``_svd``."""
    w = _umath_linalg.eigvalsh_lo(a, signature="d->d")
    if w[0] != w[0]:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _slogdet(a: np.ndarray) -> tuple:
    """(sign, log |det a|): ``np.linalg.slogdet(a)`` bit for bit, from its
    gufunc, as a plain pair; a nan entry gives (1, nan) and numpy's warning,
    as there."""
    return _umath_linalg.slogdet(a, signature="d->dd")


def _frozen(a, shape) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _wrap(cls, **fields):
    """An instance of the frozen dataclass ``cls`` on values the engine has
    just built, its arrays frozen in place: the constructor's copies and
    checks are skipped, not repeated.

    Every field is given by keyword, each array already of the float type
    and shape the constructor would store (for ``SymBilinear``, exactly
    symmetric).  An array passed here is taken over: nothing else may keep
    it, and a view is frozen but its base is not, so pass a view only of an
    array that nothing else keeps.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class FrameVector:
    """A tangent vector given by its components in the fixed frame."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, (3,)))


@dataclass(frozen=True, eq=False)
class SymBilinear:
    """A symmetric bilinear form; symmetry is enforced on construction."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError(f"expected shape (3, 3), got {arr.shape}")
        # halving before the sum keeps every finite input finite
        arr = 0.5 * arr + 0.5 * arr.T
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    def evaluate(self, x: FrameVector, y: FrameVector) -> float:
        return float(x.components.dot(self.components).dot(y.components))


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A rank-3 covariant tensor, stored as T[i, j, k] = T(e_i, e_j, e_k)."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, (3, 3, 3)))


def _metric_frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The metric rule, in one scalar Cholesky pass g = L L^T over the floats
    of g's lower triangle.  Returns g^-1, u = g / sqrt(det g) and L^-1 (rows
    of floats).

    g is first divided by 2^k, k even, so that its largest diagonal entry
    lies in [1, 4): the scaling and its square root are exact, and g = I is
    not scaled, so that the pass returns exactly I, I and I there.  u is
    (g 2^-k) / (l00 l11 l22 2^(k/2)), finite even where det g overflows.

    ``DegenerateMetric`` exactly when g is not finite or a pivot is not
    positive (negative, zero or nan), the message naming the pivot: the
    Cholesky pass alone decides the positive cone.  ``SingularMetric``
    exactly when every pivot is positive and lambda_max(g) lambda_max(g^-1)
    reaches 1e12, or g^-1 overflows once the scaling is undone.  The
    condition is read from ``_eigenvalues`` only where its bound
    tr g tr g^-1 reaches 1e12, the one branch that reads a spectrum.
    Every layer that needs g^-1, u or positive definiteness reads them off
    this one pass, made once per algebra by ``MetricLieAlgebra3._frame``;
    ``validate`` reports ``metric_not_positive`` exactly where it refuses.
    """
    (a, _, _), (b, d, _), (c, e, f) = g.tolist()
    # on the positive cone the largest diagonal entry bounds every entry;
    # a nan that max passes over fails a pivot below
    m = max(a, d, f)
    k = 0
    if not 1.0 <= m < 4.0:
        if not m < math.inf:
            raise DegenerateMetric("metric is not positive definite (entries not finite)")
        k = max(-1022, (math.frexp(m)[1] - 1) & -2)
        s = math.ldexp(1.0, -k)
        a, b, c, d, e, f = a * s, b * s, c * s, d * s, e * s, f * s
    if not a > 0.0:
        raise DegenerateMetric(f"metric is not positive definite (Cholesky pivot {a:.3g})")
    l00 = math.sqrt(a)
    l10, l20 = b / l00, c / l00
    p1 = d - l10 * l10
    if not p1 > 0.0:
        raise DegenerateMetric(f"metric is not positive definite (Cholesky pivot {p1:.3g})")
    l11 = math.sqrt(p1)
    l21 = (e - l20 * l10) / l11
    p2 = f - l20 * l20 - l21 * l21
    if not p2 > 0.0:
        raise DegenerateMetric(f"metric is not positive definite (Cholesky pivot {p2:.3g})")
    # L^-1 by substitution; 0.0 - x keeps the zeros of a diagonal g positive
    i00, i11, i22 = 1.0 / l00, 1.0 / l11, 1.0 / math.sqrt(p2)
    i10 = 0.0 - l10 * i00 * i11
    i21 = 0.0 - l21 * i11 * i22
    i20 = 0.0 - (l20 * i00 + l21 * i10) * i22
    # g^-1 = L^-T L^-1
    v00 = i00 * i00 + i10 * i10 + i20 * i20
    v10 = i10 * i11 + i20 * i21
    v20 = i20 * i22
    v11 = i11 * i11 + i21 * i21
    v21 = i21 * i22
    v22 = i22 * i22
    # on the positive cone tr g >= lambda_max(g), so this bounds the condition
    if not (a + d + f) * (v00 + v11 + v22) < 1e12:
        rows = ((a, b, c), (b, d, e), (c, e, f))
        inv = ((v00, v10, v20), (v10, v11, v21), (v20, v21, v22))
        cond = _eigenvalues(rows).item(2) * _eigenvalues(inv).item(2)
        # false on nan too, from an inverse that overflowed
        if not cond < 1e12:
            raise SingularMetric(f"metric is singular (condition number {cond:.3g})")
    # 1 / sqrt(det) of the scaled g
    w = i00 * i11 * i22
    if k:
        # undo the scaling: g^-1 by 2^-k, L^-1 and 1 / sqrt(det g) by 2^(-k/2)
        v00, v10, v20, v11, v21, v22 = v00 * s, v10 * s, v20 * s, v11 * s, v21 * s, v22 * s
        h = math.ldexp(1.0, -k // 2)
        i00, i10, i20, i11, i21, i22 = i00 * h, i10 * h, i20 * h, i11 * h, i21 * h, i22 * h
        w = w * h
        # on the positive cone |v_ij| <= sqrt(v_ii v_jj): the trace bounds g^-1
        if not v00 + v11 + v22 < math.inf:
            raise SingularMetric("metric is singular (inverse overflows)")
    a, b, c, d, e, f = a * w, b * w, c * w, d * w, e * w, f * w
    # g^-1 and u from one array
    gu = np.array((v00, v10, v20, v10, v11, v21, v20, v21, v22,
                   a, b, c, b, d, e, c, e, f)).reshape(2, 3, 3)
    return gu[0], gu[1], ((i00, 0.0, 0.0), (i10, i11, 0.0), (i20, i21, i22))


def _eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix ``a`` (an array or rows
    of floats), from ``_eigvalsh``; all nan when an entry is not finite,
    which the metric rule's condition test reads as a refusal and
    ``ricci_spectrum`` returns."""
    M = np.asarray(a, dtype=float)
    if not np.isfinite(M).all():
        return np.full(3, math.nan)
    return _eigvalsh(M)


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra3:
    """A 3-dimensional Lie algebra with an inner product on the frame.

    Construction only checks shapes; ``validate`` performs the actual
    antisymmetry / Jacobi / positive-definiteness checks and reports every
    violation it finds.
    """

    structure_constants: np.ndarray
    metric: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(
            self, "structure_constants", _frozen(self.structure_constants, (3, 3, 3))
        )
        object.__setattr__(self, "metric", _frozen(self.metric, (3, 3)))

    def with_metric(self, metric) -> "MetricLieAlgebra3":
        """Same brackets, different inner product."""
        return MetricLieAlgebra3(self.structure_constants, metric)

    @cached_property
    def _frame(self) -> tuple:
        """``_metric_frame`` of the read-only metric, made on first access and
        kept, frozen; a refused metric raises on every access, as a pass
        that raises keeps nothing."""
        ginv, u, linv = _metric_frame(self.metric)
        ginv.setflags(write=False)
        u.setflags(write=False)
        return ginv, u, linv


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple

    @property
    def is_valid(self) -> bool:
        return not self.violations


def validate(L: MetricLieAlgebra3) -> ValidityReport:
    """Check antisymmetry, the Jacobi identity and metric admissibility.

    Non-finite entries, and constants whose cube overflows, are reported
    alone.  With m = max|c|, the cutoffs are 1e-12 (1 + m) for
    antisymmetry, 1e-12 m^2 for the cyclic Jacobi sum at (0, 1, 2) (the one
    triple of distinct indices, evaluated once on floats; the sum is
    quadratic in c, so the rule is scale-free) and 1e-12 (1 + max|g|) for
    metric asymmetry.  ``metric_not_positive`` is reported exactly when the
    metric pass ``L._frame``, which ``levi_civita`` reuses, refuses g; only
    then is its magnitude, g's smallest ``_eigvalsh`` eigenvalue, computed.
    """
    c, g = L.structure_constants, L.metric
    m = float(np.abs(c).max())
    scale = 1.0 + m
    gscale = 1.0 + float(np.abs(g).max())
    if not (math.isfinite(scale) and math.isfinite(gscale)):
        return ValidityReport(tuple(
            Violation("non_finite", (name, *map(int, idx)), float(arr[tuple(idx)]))
            for name, arr in (("structure_constants", c), ("metric", g))
            for idx in np.argwhere(~np.isfinite(arr))
        ))
    cube = scale * scale * scale  # saturates at inf where ** would raise
    if not math.isfinite(cube):
        return ValidityReport((Violation("overflow", (), scale),))
    anti_tol = 1e-12 * scale
    violations = []

    anti = np.abs(c + c.transpose(1, 0, 2))
    if anti.max() > anti_tol:
        # anti is symmetric in its first two slots: report each pair once
        for i, j, k in np.argwhere(anti > anti_tol).tolist():
            if i <= j:
                violations.append(Violation("antisymmetry", (i, j, k), anti[i, j, k]))

    # [[e0, e1], e2] + [[e1, e2], e0] + [[e2, e0], e1], summed over n in
    # turn.  Below m = 2^-400 its products would underflow, so it is taken on
    # c scaled exactly by 2^-k into [1, 2), and its magnitude scaled back.
    k = math.frexp(m)[1] - 1 if 0.0 < m < 2.0**-400 else 0
    x = (np.ldexp(c, -k) if k else c).tolist()
    s0 = s1 = s2 = 0.0
    for n, ((v0, v1, v2), (w0, w1, w2), (u0, u1, u2)) in enumerate(x):
        a, b, d = x[0][1][n], x[1][2][n], x[2][0][n]
        s0 = s0 + a * u0 + b * v0 + d * w0
        s1 = s1 + a * u1 + b * v1 + d * w1
        s2 = s2 + a * u2 + b * v2 + d * w2
    mag = max(abs(s0), abs(s1), abs(s2))
    mk = math.ldexp(m, -k)
    if mag > 1e-12 * mk * mk:
        violations.append(Violation("jacobi", (0, 1, 2), math.ldexp(mag, 2 * k)))

    gsym_tol = 1e-12 * gscale
    if gscale > 8.9e307:
        # g - g^T may overflow past half the largest float: an inf asymmetry
        with np.errstate(over="ignore"):
            gasym = np.abs(g - g.T)
    else:
        gasym = np.abs(g - g.T)
    if gasym.max() > gsym_tol:
        for i, j in np.argwhere(gasym > gsym_tol).tolist():
            if i < j:
                violations.append(Violation("metric_asymmetric", (i, j), gasym[i, j]))
    try:
        L._frame
    except (DegenerateMetric, SingularMetric):
        violations.append(Violation("metric_not_positive", (), float(_eigvalsh(g)[0])))

    return ValidityReport(tuple(violations))


def bracket(L: MetricLieAlgebra3, x: FrameVector, y: FrameVector) -> FrameVector:
    """Lie bracket [X, Y] of two frame-constant vectors."""
    return FrameVector(
        np.einsum("ijk,i,j->k", L.structure_constants, x.components, y.components)
    )


def from_kenmotsu_params(lam: float, b: float, c: float) -> MetricLieAlgebra3:
    """Orthonormal almost Kenmotsu frame algebra with constants (lam, b, c).

    Frame order is (xi, e, phi_e) with brackets

        [e, xi]     = e - lam*phi_e
        [e, phi_e]  = b*e - c*phi_e
        [phi_e, xi] = -lam*e + phi_e

    The Jacobi identity for these brackets holds exactly when ``b = lam*c``
    and ``c = lam*b`` (b = c = 0, or lam = 1 with b = c).  Like every
    builder, this one builds the brackets it is given; ``validate`` decides
    whether they close.  ``ValueError`` unless ``lam > 0``.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    sc = np.zeros((3, 3, 3))
    sc[1, 0] = (0.0, 1.0, -lam)  # [e, xi]
    sc[0, 1] = -sc[1, 0]
    sc[1, 2] = (0.0, b, -c)  # [e, phi_e]
    sc[2, 1] = -sc[1, 2]
    sc[2, 0] = (0.0, -lam, 1.0)  # [phi_e, xi]
    sc[0, 2] = -sc[2, 0]
    return MetricLieAlgebra3(sc, np.eye(3))


def from_nonunimodular(alpha: float, beta: float) -> MetricLieAlgebra3:
    """Orthonormal non-unimodular solvable algebra with parameters (alpha, beta).

        [e1, e2] = alpha*e2 + beta*e3
        [e2, e3] = 0
        [e1, e3] = beta*e2 + (2 - alpha)*e3

    Jacobi holds for every (alpha, beta).  The detected Reeb direction for
    this family is -e1; the structure is Kenmotsu (h = 0) exactly when
    alpha = 1 and beta = 0.
    """
    sc = np.zeros((3, 3, 3))
    sc[0, 1] = (0.0, alpha, beta)
    sc[1, 0] = -sc[0, 1]
    sc[0, 2] = (0.0, beta, 2.0 - alpha)
    sc[2, 0] = -sc[0, 2]
    return MetricLieAlgebra3(sc, np.eye(3))
