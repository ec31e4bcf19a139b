"""Derivative bounds on the unit circle for rational functions with fixed poles.

Each supported inequality bounds |r'(z)| for |z| = 1 by an expression in
|B'(z)|, |r(z)|, the Chebyshev norm ||r|| on the unit circle, a minimum
modulus m taken on a designated circle, the zero count t, the pole count
n, and the zero-region radius k.  Upper bounds require the zeros outside
or on |z| = k; lower bounds require them inside or on.  The margin of an
upper bound is RHS - |r'(z)| and of a lower bound |r'(z)| - RHS, so a
nonnegative margin means the inequality held at that point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blaschke import _check_on_unit_circle, _finite
from .circlescan import DEFAULT_GRID_COUNT, CircleGrid, _extremum, _minimum, _pole_circle_guard, min_modulus_on_circle
from .errors import DegenerateBound, HypothesisViolated, ParameterOutOfRange
from .ratfun import (
    PoleSet,
    Polynomial,
    RationalFunction,
    ZeroLocation,
    _pole_sums,
    _zeros_on_circle,
    classify_zeros,
)

# A margin below -MARGIN_TOL * max(1, ||r||) counts as a violation.
MARGIN_TOL = 1e-9
# Norm and min modulus closer than this make the main upper bound ill-posed.
DEGENERATE_GAP = 1e-12


class TheoremId(enum.Enum):
    """Vocabulary of certified inequalities (values are the CLI names)."""

    LI_UPPER = "li-upper"
    LI_LOWER = "li-lower"
    AZIZ_SHAH_UPPER_97 = "aziz-shah-upper-97"
    AZIZ_SHAH_LOWER_97 = "aziz-shah-lower-97"
    AZIZ_ZARGER_99 = "aziz-zarger-99"
    AZIZ_SHAH_04 = "aziz-shah-04"
    AZIZ_SHAH_04_COR = "aziz-shah-04-cor"
    MAIN_UPPER = "main-upper"
    MAIN_UPPER_COR = "main-upper-cor"
    MAIN_LOWER = "main-lower"
    MAIN_LOWER_COR = "main-lower-cor"

    @classmethod
    def from_name(cls, name: str) -> "TheoremId":
        return cls._value2member_map_[name]


@dataclass(frozen=True)
class HypothesisProfile:
    """The formula of one inequality, its pins and its extra hypotheses.

    Every inequality is the general upper or lower formula with some
    ingredients pinned: m -> 0 unless ``uses_m``, k -> 1 when ``k_is_one``
    and t -> n when ``t_is_n``.  The direction fixes the rest: an upper
    bound needs every zero in |z| >= k with finite k >= 1, a lower bound every
    zero in |z| <= k with 0 < k <= 1, and ``k_is_one`` admits only k = 1.
    """

    direction: str
    k_is_one: bool = False
    uses_m: bool = False
    t_is_n: bool = False
    # Not derived: the m -> 0 pin moves the upper RHS in no fixed direction.
    needs_boundary_zero: bool = False

    @property
    def needs_all_zeros(self) -> bool:
        """Exactly n zeros.  Evaluating the formula as if t = n makes its RHS larger:
        a stronger claim for a lower bound, which the general formula grants
        only at t = n, and a weaker one for an upper bound, granted for any t."""
        return self.direction == "lower" and self.t_is_n


_PROFILES = {
    TheoremId.LI_UPPER: HypothesisProfile("upper", k_is_one=True, t_is_n=True),
    TheoremId.LI_LOWER: HypothesisProfile("lower", k_is_one=True),
    TheoremId.AZIZ_SHAH_UPPER_97: HypothesisProfile("upper", k_is_one=True, uses_m=True, t_is_n=True),
    TheoremId.AZIZ_SHAH_LOWER_97: HypothesisProfile("lower", k_is_one=True, uses_m=True, t_is_n=True),
    TheoremId.AZIZ_ZARGER_99: HypothesisProfile("upper", t_is_n=True),
    TheoremId.AZIZ_SHAH_04: HypothesisProfile("lower"),
    TheoremId.AZIZ_SHAH_04_COR: HypothesisProfile("lower", t_is_n=True),
    TheoremId.MAIN_UPPER: HypothesisProfile("upper", uses_m=True),
    TheoremId.MAIN_UPPER_COR: HypothesisProfile("upper", needs_boundary_zero=True),
    TheoremId.MAIN_LOWER: HypothesisProfile("lower", uses_m=True),
    TheoremId.MAIN_LOWER_COR: HypothesisProfile("lower", uses_m=True, t_is_n=True),
}


def profile(theorem: TheoremId) -> HypothesisProfile:
    return _PROFILES[theorem]


def hypothesis_zero_location(theorem: TheoremId, k: float) -> ZeroLocation:
    if _PROFILES[theorem].direction == "upper":
        return ZeroLocation.all_outside_or_on(k)
    return ZeroLocation.all_inside_or_on(k)


def _radius_ok(prof: HypothesisProfile, k: float) -> bool:
    if prof.k_is_one:
        return k == 1.0
    return 1.0 <= k < np.inf if prof.direction == "upper" else 0.0 < k <= 1.0


def check_hypothesis(theorem: TheoremId, r: RationalFunction, k: float):
    """Raise HypothesisViolated unless r satisfies the theorem's hypotheses."""
    prof = _PROFILES[theorem]
    if not _radius_ok(prof, k):
        raise HypothesisViolated(f"{theorem.value} does not admit radius k={k}")
    if prof.needs_all_zeros and r.t != r.n:
        raise HypothesisViolated(f"{theorem.value} needs exactly n={r.n} zeros, instance has t={r.t}")
    if not classify_zeros(r, hypothesis_zero_location(theorem, k)):
        side = "outside" if prof.direction == "upper" else "inside"
        raise HypothesisViolated(f"{theorem.value} needs every zero {side} or on |z|={k}")
    if prof.needs_boundary_zero and not _zeros_on_circle(r, k).size:
        raise HypothesisViolated(f"{theorem.value} needs at least one zero on |z|={k}")


@dataclass(frozen=True)
class BoundContext:
    """Scalars a bound expression needs beyond the evaluation point."""

    norm: float
    m: float
    t: int
    n: int
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.norm) and self.norm > 0):
            raise ValueError("norm must be positive and finite")
        if not (np.isfinite(self.m) and self.m >= 0):
            raise ValueError("m must be nonnegative and finite")
        if not 0 <= self.t <= self.n:
            raise ValueError("need 0 <= t <= n")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")


def _pinned_k(prof: HypothesisProfile, k: float) -> float:
    return 1.0 if prof.k_is_one else k


def rhs_value(theorem: TheoremId, bprime, r_abs, ctx: BoundContext):
    """Bound right-hand side as a pure function of its scalar ingredients.

    The upper bounds are the general formula
    (|B'| - (n(1+k) - 2t)(|r| - m)^2 / ((1+k)(||r|| - m)^2)) (||r|| - m) / 2
    and the lower bounds (|B'| + (2t - n(1+k))/(1+k)) (|r| + m) / 2, each
    with the ingredients its profile pins.  ``bprime`` and ``r_abs`` may
    be scalars or arrays; the result broadcasts, and a point alone takes
    the same arithmetic as its element of an array, so it has the same
    bits.  No hypothesis checking happens here, which is what lets tests
    compare bounds on one shared context.
    """
    prof = _PROFILES[theorem]
    bp = np.asarray(bprime, dtype=np.float64)
    ra = np.asarray(r_abs, dtype=np.float64)
    n, k = ctx.n, _pinned_k(prof, ctx.k)
    m = ctx.m if prof.uses_m else 0.0
    t = n if prof.t_is_n else ctx.t
    if prof.direction == "upper":
        gap = ctx.norm - m
        coef = n * (1.0 + k) - 2.0 * t
        # A zero coefficient drops the term outright: at ||r|| = m it is 0 * 0/0.
        drop = coef * np.square(ra - m) / ((1.0 + k) * np.float64(gap) ** 2) if coef else 0.0
        return 0.5 * (bp - drop) * gap
    return 0.5 * (bp + (2.0 * t - n * (1.0 + k)) / (1.0 + k)) * (ra + m)


def build_context(theorem: TheoremId, r: RationalFunction, k: float, grid_count: int) -> BoundContext:
    """Compute norm and, where the bound uses it, the minimum modulus on |z| = k."""
    return _unit_pass(theorem, r, CircleGrid(k, grid_count))[0]


def _unit_pass(theorem: TheoremId, r: RationalFunction, grid: CircleGrid) -> tuple:
    """Context, the unit grid, and |r|, r' and |B'| on it from one pass over the poles.

    The pass runs on grid's unit points, and a min scan on m's circle |z| = grid.k
    (k != 1) on grid itself, so both circles share one exp(i theta).  The norm scan,
    and the min scan when m's circle is |z| = 1, take their grid moduli from that
    pass.  A min scan on another circle runs first, so its refusals come first.
    """
    prof = _PROFILES[theorem]
    m_k = _pinned_k(prof, grid.k)
    m = 0.0
    with np.errstate(all="ignore"):
        if prof.uses_m and m_k != 1.0:
            m = min_modulus_on_circle(r, m_k, grid).value
        unit = CircleGrid(1.0, grid.count)
        _pole_circle_guard(r, 1.0)
        rv, deriv, bprime = _pole_sums(r, grid._unit_points)
        r_abs = np.abs(rv)
        norm = _extremum(r, unit, r_abs, True).value
        if prof.uses_m and m_k == 1.0:
            m = _minimum(r, unit, r_abs).value
    if not (np.isfinite(norm) and norm > 0 and np.isfinite(m)):
        raise ParameterOutOfRange(f"instance values leave the double range: sup |r| = {norm!r}, min modulus = {m!r}")
    ctx = BoundContext(norm=norm, m=m, t=r.t, n=r.n, k=grid.k)
    _degenerate_guard(theorem, ctx)
    return ctx, unit, r_abs, deriv, bprime


def _degenerate_guard(theorem: TheoremId, ctx: BoundContext):
    prof = _PROFILES[theorem]
    # Only an upper formula that keeps m and the (||r|| - m)^2 divisor can
    # divide by zero; k -> 1 with t -> n drops the divided term.
    keeps_divisor = prof.direction == "upper" and prof.uses_m and not (prof.k_is_one and prof.t_is_n)
    if keeps_divisor and ctx.norm - ctx.m <= DEGENERATE_GAP:
        raise DegenerateBound(f"norm {ctx.norm!r} and min modulus {ctx.m!r} coincide within {DEGENERATE_GAP}")


def _margins(theorem: TheoremId, ctx: BoundContext, r_abs, deriv, bprime):
    """|r'|, RHS and margin from |r|, r' and |B'| at unit-circle points; ParameterOutOfRange unless finite."""
    with np.errstate(all="ignore"):
        deriv_abs = np.abs(deriv)
        rhs = rhs_value(theorem, bprime, r_abs, ctx)
        margin = rhs - deriv_abs if _PROFILES[theorem].direction == "upper" else deriv_abs - rhs
    return deriv_abs, rhs, _finite(margin, "bound margins")


def _point_margins(theorem: TheoremId, r: RationalFunction, ctx: BoundContext, z) -> tuple:
    """|r'|, RHS and margin at one point of the unit circle, as a sweep computes them."""
    with np.errstate(all="ignore"):
        rv, deriv, bprime = _pole_sums(r, z)
    _check_on_unit_circle(z)
    return tuple(float(x) for x in _margins(theorem, ctx, np.abs(rv), deriv, bprime))


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of sweeping one inequality over the unit-circle grid."""

    theorem: TheoremId
    context: BoundContext
    min_margin: float
    worst_theta: float
    violations: int
    skipped_points: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _sweep(theorem: TheoremId, r: RationalFunction, grid: CircleGrid):
    """Context, the unit-circle grid, |r'|, RHS and margins of one grid sweep."""
    check_hypothesis(theorem, r, grid.k)
    ctx, unit, r_abs, deriv, bprime = _unit_pass(theorem, r, grid)
    return (ctx, unit) + _margins(theorem, ctx, r_abs, deriv, bprime)


def certify(theorem: TheoremId, r: RationalFunction, grid: CircleGrid) -> BoundVerdict:
    """Sweep the inequality over the unit circle and report the margins.

    grid.k is the zero-region radius of the hypothesis; margins are
    always evaluated on the unit circle with grid.count points.  Raises
    HypothesisViolated or DegenerateBound rather than certifying junk.
    """
    ctx, unit, _, _, margin = _sweep(theorem, r, grid)
    worst = int(np.argmin(margin))
    tol = MARGIN_TOL * max(1.0, ctx.norm)
    return BoundVerdict(
        theorem=theorem,
        context=ctx,
        min_margin=float(margin[worst]),
        worst_theta=unit.theta(worst),
        violations=int(np.sum(margin < -tol)),
        # The unit pass refuses poles within CLASSIFY_BAND of the circle, so no
        # grid point comes within POLE_PROXIMITY_CUTOFF of one and none is skipped.
        skipped_points=0,
    )


def margin_curve(theorem: TheoremId, r: RationalFunction, grid: CircleGrid):
    """Rows (theta, |r'|, RHS, margin), one per grid point on the unit circle."""
    _, unit, deriv_abs, rhs, margin = _sweep(theorem, r, grid)
    return unit.thetas(), deriv_abs, rhs, margin


def blaschke_offset_family(poles: PoleSet, h: float) -> RationalFunction:
    """The equality family B(z) + h as a rational function."""
    if not (np.isfinite(h) and h >= 0):
        raise ParameterOutOfRange("offset magnitude h must be a nonnegative real")
    # prod_j (1 - conj(a_j) z) is prod_j (z - conj(a_j)) with its coefficients reversed.
    coeffs = Polynomial.from_roots(np.conj(poles.as_array())).coeffs[::-1]
    wpoly = Polynomial.from_roots(poles.as_array(), 1.0)
    # Both expansions have n + 1 coefficients.
    return RationalFunction(Polynomial(coeffs + h * wpoly.coeffs), poles)


def make_extremal(theorem: TheoremId, a: float, k: float, t: int, n: int):
    """Equality-family instance for a theorem, returned with its tight point.

    For the radius-k inequalities this is (z + k)^t / (z - a)^n with an
    n-fold real pole a > 1; equality holds at z = 1.  For the unit-circle
    inequalities the family is B(z) + h with an n-fold pole at a, where
    the k argument is reused as the offset magnitude h (the zero-region
    radius of those theorems is pinned to 1); with a real and the offset
    positive the tight point is again z = 1.
    """
    prof = _PROFILES[theorem]
    if not (np.isreal(a) and 1.0 < float(np.real(a)) < np.inf):
        raise ParameterOutOfRange("pole location a must be a finite real above 1")
    a = float(np.real(a))
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterOutOfRange("need an integer pole count n >= 1")
    if not (isinstance(t, (int, np.integer)) and 0 <= t <= n):
        raise ParameterOutOfRange("need an integer zero count 0 <= t <= n")
    if t != n and (prof.t_is_n or prof.k_is_one):
        # A t -> n formula may admit t < n, but it is tight only at t = n,
        # and the offset family B + h always has n zeros.
        raise ParameterOutOfRange(f"the equality family of {theorem.value} has exactly n zeros")
    poles = PoleSet([complex(a, 0.0)] * int(n))
    if not prof.k_is_one:
        if not _radius_ok(prof, k):
            raise ParameterOutOfRange(f"{theorem.value} does not admit radius k={k}")
        if t < 1:
            raise ParameterOutOfRange("the power family needs at least one zero")
        r = RationalFunction.from_zeros([complex(-k, 0.0)] * int(t), poles, 1.0)
    else:
        if not prof.uses_m and k != 1.0:
            # Without the m term, B + h is tight only at h = 1.
            raise ParameterOutOfRange(f"{theorem.value} admits only k=1")
        if prof.direction == "upper" and k < 1.0:
            raise ParameterOutOfRange("offset magnitude below 1 breaks the zero hypothesis")
        if prof.direction == "lower" and k > 1.0:
            raise ParameterOutOfRange("offset magnitude above 1 breaks the zero hypothesis")
        r = blaschke_offset_family(poles, float(k))
    return r, complex(1.0, 0.0)


def sharpness_gap(theorem: TheoremId, r: RationalFunction, z, k: float = 1.0) -> float:
    """|RHS(z) - |r'(z)|| for one instance on the default grid; small means the bound is tight."""
    k = float(k)
    check_hypothesis(theorem, r, k)
    ctx = build_context(theorem, r, k, DEFAULT_GRID_COUNT)
    return abs(_point_margins(theorem, r, ctx, z)[2])
