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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, JacobiViolation, SingularMetric

# Default absolute tolerance for scalar/component comparisons.
DEFAULT_TOL = 1e-9

_EPS = np.finfo(float).eps


def _svd_lstsq(A: np.ndarray, rhs: np.ndarray):
    """Minimum-norm least-squares solution of A z = rhs from one SVD.

    Singular values at or below eps * max(A.shape) * s[0] count as zero, the
    cutoff of ``np.linalg.lstsq(..., rcond=None)``.  When none is, the
    masks that drop them would keep everything and are skipped: the solution
    is bitwise the masked one.  Returns (z, s, Vt) so the caller can read
    rank and null space off the same decomposition.
    """
    U, s, Vt = np.linalg.svd(A)
    n = s.size
    y = rhs @ U[:, :n]
    sv = s.tolist()
    cut = _EPS * max(A.shape) * sv[0]
    if sv[-1] > cut:
        # every singular value is kept: the masks would select everything
        z = (y / s) @ Vt[:n]
    else:
        keep = s > cut
        z = (y[keep] / s[keep]) @ Vt[:n][keep]
    return z, s, Vt


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
        return float(x.components @ self.components @ y.components)


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

    ``DegenerateMetric`` when g is not finite or a pivot is negative or nan
    (g outside the positive cone).  ``SingularMetric`` when a pivot is zero
    (unless the closed-form spectrum shows g indefinite) or when
    w_min <= 1e-12 w_max.  That condition is read as
    lambda_max(g) lambda_max(g^-1) from ``_sym3_eigenvalues``, whose largest
    eigenvalue is accurate where a double smallest one is not, and only
    when its upper bound tr g tr g^-1 reaches 1e12.  Every layer that needs
    g^-1, g / sqrt(det g) or positive definiteness reads it off this one
    pass, which ``MetricLieAlgebra3._frame`` makes once per algebra.
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
    rows = ((a, b, c), (b, d, e), (c, e, f))
    if not a > 0.0:
        _refuse(a, rows)
    l00 = math.sqrt(a)
    l10, l20 = b / l00, c / l00
    p1 = d - l10 * l10
    if not p1 > 0.0:
        _refuse(p1, rows)
    l11 = math.sqrt(p1)
    l21 = (e - l20 * l10) / l11
    p2 = f - l20 * l20 - l21 * l21
    if not p2 > 0.0:
        _refuse(p2, rows)
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
        inv = ((v00, v10, v20), (v10, v11, v21), (v20, v21, v22))
        cond = _sym3_eigenvalues(rows)[2] * _sym3_eigenvalues(inv)[2]
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
    a, b, c, d, e, f = a * w, b * w, c * w, d * w, e * w, f * w
    # g^-1 and u from one array
    gu = np.array((v00, v10, v20, v10, v11, v21, v20, v21, v22,
                   a, b, c, b, d, e, c, e, f)).reshape(2, 3, 3)
    return gu[0], gu[1], ((i00, 0.0, 0.0), (i10, i11, 0.0), (i20, i21, i22))


def _refuse(pivot: float, rows: tuple) -> None:
    """Raise the metric rule's refusal for a Cholesky pivot that is not
    positive: a zero pivot is a singular metric unless the closed-form
    spectrum of ``rows`` has a negative eigenvalue."""
    if pivot == 0.0 and _sym3_eigenvalues(rows)[0] >= 0.0:
        raise SingularMetric("metric is singular (zero Cholesky pivot)")
    raise DegenerateMetric(f"metric is not positive definite (Cholesky pivot {pivot:.3g})")


def _sym3_eigenvalues(M) -> list:
    """Closed-form eigenvalues of a symmetric 3x3 matrix, ascending, from
    the upper triangle of its rows (floats, or an array).

    Trigonometric solution of the characteristic cubic; no iterative
    factorization involved.  The largest eigenvalue is accurate to rounding;
    a double smallest one only to about sqrt(eps) times the largest.
    """
    (a, b, c), (_, d, e), (_, _, f) = M
    p1 = b * b + c * c + e * e
    if p1 == 0.0:
        return sorted((a, d, f))
    q = (a + d + f) / 3.0
    a, d, f = a - q, d - q, f - q
    p = math.sqrt((a * a + d * d + f * f + 2.0 * p1) / 6.0)
    # B = (M - q I) / p, and r = det(B) / 2
    a, d, f, b, c, e = a / p, d / p, f / p, b / p, c / p, e / p
    r = (a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return sorted((lam1, 3.0 * q - lam1 - lam3, lam3))


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


def _jacobi_residual(structure_constants: np.ndarray) -> np.ndarray:
    """Cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].

    Returns the rank-4 array of its components; it vanishes identically
    exactly when the constants satisfy the Jacobi identity.
    """
    c = np.asarray(structure_constants, dtype=float)
    t = np.einsum("ijm,mkl->ijkl", c, c)
    return t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))


def validate(L: MetricLieAlgebra3, tol: float | None = None) -> ValidityReport:
    """Check antisymmetry, the Jacobi identity and metric admissibility.

    The Jacobi tolerance defaults to ``1e-12 * (1 + max|c|)**3``, which
    covers the float error of the cyclic double contraction.  An explicit
    ``tol`` must be finite and non-negative (``ValueError`` otherwise: every
    comparison with nan is false, so a nan tolerance would pass anything).
    Inputs the checks cannot evaluate are reported alone: non-finite
    entries, and constants whose cube overflows (below that bound every
    product in the Jacobi residual is finite).  Each rule is one comparison
    over its whole array; only a rule that fails walks its entries to
    report each violation.
    """
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    c = L.structure_constants
    g = L.metric
    scale = 1.0 + float(np.abs(c).max())
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
    if tol is None:
        anti_tol = 1e-12 * scale
        jac_tol = 1e-12 * cube
    else:
        anti_tol = jac_tol = tol
    violations = []

    anti = np.abs(c + c.transpose(1, 0, 2))
    if anti.max() > anti_tol:
        # anti is symmetric in its first two slots: report each pair once
        for i in range(3):
            for j in range(i, 3):
                for k in range(3):
                    mag = anti[i, j, k]
                    if mag > anti_tol:
                        violations.append(Violation("antisymmetry", (i, j, k), mag))

    # in dimension three (0, 1, 2) is the only triple of distinct indices
    mag = float(np.abs(_jacobi_residual(c)[0, 1, 2]).max())
    if mag > jac_tol:
        violations.append(Violation("jacobi", (0, 1, 2), mag))

    gsym_tol = 1e-12 * gscale
    gasym = np.abs(g - g.T)
    if gasym.max() > gsym_tol:
        for i in range(3):
            for j in range(i + 1, 3):
                mag = gasym[i, j]
                if mag > gsym_tol:
                    violations.append(Violation("metric_asymmetric", (i, j), mag))
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    if eigs[0] <= gsym_tol:
        violations.append(Violation("metric_not_positive", (), float(eigs[0])))

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

    The Jacobi identity for these brackets forces ``b = lam*c`` and
    ``c = lam*b`` (equivalently b = c = 0, or lam = 1 with b = c); other
    parameter triples raise ``JacobiViolation``.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    tol = DEFAULT_TOL * (1.0 + abs(lam)) * (1.0 + abs(b) + abs(c))
    if abs(b - lam * c) > tol or abs(c - lam * b) > tol:
        raise JacobiViolation(
            "brackets close only when b = lam*c and c = lam*b; got "
            f"lam={lam}, b={b}, c={c} "
            f"(residuals {b - lam * c:.3g}, {c - lam * b:.3g})"
        )
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
