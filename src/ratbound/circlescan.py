"""Circle sweeps: modulus extrema, zero counting, and log-derivative values.

Extrema of |r| on a circle |z| = k are located by a coarse uniform grid
followed by a vectorised bracket search seeded with the best sample: each
step evaluates |r| on one array of equally spaced points and narrows the
bracket around the best value seen, the seed included.  The coarse grid is
the safety net against aliasing; refinement only polishes a bracket the
grid already found, so a returned value is never worse than the best grid
sample.  No rule depends on the size of |r|: r -> 2^j r scales every
value by 2^j and leaves every angle alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import _check_on_unit_circle
from .errors import NearZeroOfR, ParameterOutOfRange, PoleOnCircle, ZeroOnContour
from .ratfun import CLASSIFY_BAND, Polynomial, RationalFunction, _pole_sums, _zeros_on_circle, rat_eval

DEFAULT_GRID_COUNT = 1024
REFINE_THETA_TOL = 1e-12
# Points per refinement step; the bracket shrinks by (REFINE_POINTS + 1) / 2 a step.
REFINE_POINTS = 64
WINDING_START = 256
WINDING_MAX = 1 << 22


@dataclass(frozen=True)
class CircleGrid:
    """Uniform angular grid on the circle of radius k.

    The unit points exp(i thetas()) are formed on first use and kept, read-only,
    for the grid's lifetime, so a grid that is used holds 16 * count bytes.  Every
    circle's points are k times them, bit for bit as k * exp(i thetas()).
    """

    k: float
    count: int = DEFAULT_GRID_COUNT

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("grid radius must be a positive finite real")
        if self.count < 64 or self.count & (self.count - 1):
            raise ValueError("grid count must be a power of two, at least 64")

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.count) / self.count

    def theta(self, i: int) -> float:
        """thetas()[i], bit for bit, without building the array."""
        return 2.0 * np.pi * i / self.count

    @functools.cached_property
    def _unit_points(self) -> np.ndarray:
        # Not a field: asdict, equality and hashing see only k and count.
        unit = np.exp(1j * self.thetas())
        unit.flags.writeable = False
        return unit

    def points(self) -> np.ndarray:
        """k * exp(i thetas()), a fresh array."""
        return self.k * self._unit_points

    def _points_at(self, thetas: np.ndarray) -> np.ndarray:
        return self.k * np.exp(1j * thetas)


@dataclass(frozen=True)
class CircleScanResult:
    value: float
    arg_at: float
    refined: bool


def _golden(r: RationalFunction, grid: CircleGrid, theta: float, value: float, maximize: bool):
    """Section search of |r| on the grid's circle from the grid sample (theta, value); returns (theta, value).

    The first bracket is theta plus or minus one grid step.  Each step
    evaluates |r| once, at REFINE_POINTS equally spaced interior angles of
    the bracket; the next bracket is the best sample seen so far, the seed
    included, plus or minus one sub-spacing.  The search stops once the
    bracket is narrower than REFINE_THETA_TOL, so the result is a real
    evaluation no worse than the seed.
    The name is kept because the benchmark's tracer wraps this function as
    its ``circlescan.refine`` span.
    """
    sign = -1.0 if maximize else 1.0
    offsets = np.arange(1, REFINE_POINTS + 1)
    best_t, best_f = theta, sign * value
    step = 2.0 * np.pi / grid.count
    a, b = theta - step, theta + step
    while b - a > REFINE_THETA_TOL:
        h = (b - a) / (REFINE_POINTS + 1)
        ts = a + h * offsets
        fs = sign * np.abs(rat_eval(r, grid._points_at(ts)))
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_t, best_f = float(ts[i]), float(fs[i])
        a, b = best_t - h, best_t + h
    return best_t, sign * best_f


def _pole_circle_guard(r: RationalFunction, k: float):
    """Refuse a scan of |z| = k that passes a pole or where w = prod_j (z - a_j) may overflow.

    prod_j (|a_j| + k) bounds |w| and each partial product on the circle; the
    slack covers the rounding of the bound, of the points and of w's factors.
    """
    moduli = r.poles._by_modulus[0]
    gap = min((abs(m - k) for m in moduli), default=math.inf)
    if gap < CLASSIFY_BAND:
        raise PoleOnCircle(f"pole modulus within {gap:.3g} of the scan radius {k}")
    if not math.isfinite(math.prod(m + k for m in moduli) * (1.0 + 16.0 * (r.n + 1) * 2.0**-52)):
        raise ParameterOutOfRange(f"w(z) = prod_j (z - a_j) may leave the double range on |z| = {k}")


def _circle_grid(r: RationalFunction, k: float, grid: CircleGrid | None) -> CircleGrid:
    """The scan grid on |z| = k (the default grid for None), once the pole guard passed."""
    if grid is None:
        grid = CircleGrid(k)
    elif grid.k != k:
        raise ValueError("grid radius disagrees with the requested circle")
    _pole_circle_guard(r, k)
    return grid


def _extremum(r: RationalFunction, grid: CircleGrid, vals: np.ndarray, maximize: bool) -> CircleScanResult:
    """Extremum of |r| on the grid's circle from ``vals``, |r| at the grid points: the best sample, refined."""
    best = int(np.argmax(vals) if maximize else np.argmin(vals))
    theta, value = _golden(r, grid, grid.theta(best), float(vals[best]), maximize)
    return CircleScanResult(value, theta % (2.0 * np.pi), True)


def sup_modulus_on_circle(r: RationalFunction, k: float, grid: CircleGrid | None = None) -> CircleScanResult:
    """Supremum of |r| on |z| = k (grid scan plus bracket refinement)."""
    grid = _circle_grid(r, float(k), grid)
    return _extremum(r, grid, np.abs(rat_eval(r, grid.points())), True)


def min_modulus_on_circle(r: RationalFunction, k: float, grid: CircleGrid | None = None) -> CircleScanResult:
    """Minimum of |r| on |z| = k.

    A numerator zero lying on the circle (modulus within CLASSIFY_BAND of
    k, the band that also decides the zero's side) forces an exact 0.0,
    reported unrefined; this is what makes the boundary-zero instances
    produce m = 0 rather than a grid-limited small number.  Every other
    minimum is the refined scan value, however small.
    """
    return _minimum(r, _circle_grid(r, float(k), grid))


def _minimum(r: RationalFunction, grid: CircleGrid, vals: np.ndarray | None = None) -> CircleScanResult:
    """min_modulus_on_circle on a guarded grid; ``vals`` is |r| at its points, evaluated here if None."""
    on_circle = _zeros_on_circle(r, grid.k)
    if on_circle.size:
        return CircleScanResult(0.0, float(np.angle(on_circle[0]) % (2.0 * np.pi)), False)
    if vals is None:
        vals = np.abs(rat_eval(r, grid.points()))
    return _extremum(r, grid, vals, False)


def winding_zero_count(p: Polynomial, k: float) -> int:
    """Zeros of the polynomial p inside |z| < k by the argument principle.

    The phase of p is sampled on CircleGrid(k, count) with count doubling
    until every increment is below pi/2, which makes the unwrapped total
    exact; failing to get there before the doubling cap means a root is
    on (or numerically on) the contour.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no winding number")
    dp = p.derivative()
    count = WINDING_START
    while count <= WINDING_MAX:
        zs = CircleGrid(k, count).points()
        vals = p(zs)
        if np.any(vals == 0):
            raise ZeroOnContour("a contour sample is an exact numerator root")
        steps = np.angle(np.roll(vals, -1) / vals)
        if float(np.max(np.abs(steps))) < np.pi / 2.0:
            # Newton step |p|/|p'| estimates the distance to the nearest
            # root; a numerically on-contour root defeats phase sampling.
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = np.abs(vals) / np.abs(dp(zs))
            newton = np.where(np.isfinite(newton), newton, np.inf)
            if float(newton.min()) <= CLASSIFY_BAND * max(1.0, k):
                raise ZeroOnContour("a numerator root sits on the contour")
            total = float(np.sum(steps)) / (2.0 * np.pi)
            wind = int(round(total))
            if abs(total - wind) > 0.25:
                raise ZeroOnContour("winding sum is not close to an integer")
            return wind
        count *= 2
    raise ZeroOnContour(f"phase increments still too coarse at {WINDING_MAX} samples")


def log_derivative_real_part(r: RationalFunction, z) -> float:
    """Re(z r'(z) / r(z)) for a point z on the unit circle.

    NearZeroOfR only where r(z) is exactly 0 or the quotient is not finite;
    no threshold on |r(z)|, so r -> 2^j r leaves the value bit for bit.
    """
    z = complex(z)
    _check_on_unit_circle(z)
    rv, deriv, _ = _pole_sums(r, z)
    if rv == 0:
        raise NearZeroOfR("r(z) = 0, so the log derivative is undefined")
    q = z * deriv / rv
    if not np.isfinite(q):
        raise NearZeroOfR(f"z r'(z) / r(z) = {q!r} at |r(z)| = {abs(rv):.3g} is not finite")
    return float(q.real)
