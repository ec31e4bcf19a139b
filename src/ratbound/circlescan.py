"""Circle sweeps: modulus extrema, zero counting, and log-derivative values.

Extrema of |r| on a circle |z| = k are located by a coarse uniform grid
followed by a vectorised bracket search inside the bracket formed by the
best sample and its two neighbours: each step evaluates |r| on one array
of equally spaced points and narrows the bracket around the best of them.
The coarse grid is the safety net against aliasing; refinement only
polishes a bracket the grid already found, so a returned value is never
worse than the best grid sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _check_on_unit_circle
from .errors import NearZeroOfR, PoleOnCircle, ZeroOnContour
from .ratfun import Polynomial, RationalFunction, _pole_sums, _zeros_on_circle, rat_eval

DEFAULT_GRID_COUNT = 1024
REFINE_THETA_TOL = 1e-12
# Points per refinement step; the bracket shrinks by (REFINE_POINTS + 1) / 2 a step.
REFINE_POINTS = 64
# Below this any modulus is reported as an exact zero minimum.
ZERO_SNAP = 1e-13
# A pole this close to the scan radius raises PoleOnCircle, and a numerator
# root this close to the winding contour (by its Newton step) ZeroOnContour.
CIRCLE_MATCH_TOL = 1e-9
WINDING_START = 256
WINDING_MAX = 1 << 22


@dataclass(frozen=True)
class CircleGrid:
    """Uniform angular grid on the circle of radius k."""

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

    def points(self) -> np.ndarray:
        return self._points_at(self.thetas())

    def _points_at(self, thetas: np.ndarray) -> np.ndarray:
        return self.k * np.exp(1j * thetas)


@dataclass(frozen=True)
class CircleScanResult:
    value: float
    arg_at: float
    refined: bool


def _golden(r: RationalFunction, grid: CircleGrid, lo: float, hi: float, maximize: bool):
    """Section search of |r| on the grid's circle over angles [lo, hi]; returns (theta, value).

    Each step evaluates |r| once, at REFINE_POINTS equally spaced
    interior angles of the bracket; the next bracket is the best sample
    seen so far plus or minus one sub-spacing.  The search stops once the
    bracket is narrower than REFINE_THETA_TOL, and the value returned is
    always a real evaluation.
    The name is kept because the benchmark's tracer wraps this function as
    its ``circlescan.refine`` span.
    """
    sign = -1.0 if maximize else 1.0
    offsets = np.arange(1, REFINE_POINTS + 1)
    best_t, best_f = lo, np.inf
    a, b = lo, hi
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
    gap = float(np.min(np.abs(np.abs(r.poles.as_array()) - k), initial=np.inf))
    if gap < CIRCLE_MATCH_TOL:
        raise PoleOnCircle(f"pole modulus within {gap:.3g} of the scan radius {k}")


def _circle_grid(r: RationalFunction, k: float, grid: CircleGrid | None) -> CircleGrid:
    """The scan grid on |z| = k (the default grid for None), once the pole guard passed."""
    if grid is None:
        grid = CircleGrid(k)
    elif grid.k != k:
        raise ValueError("grid radius disagrees with the requested circle")
    _pole_circle_guard(r, k)
    return grid


def _extremum(r: RationalFunction, grid: CircleGrid, vals: np.ndarray, maximize: bool) -> CircleScanResult:
    """Extremum of |r| on the grid's circle from ``vals``, |r| at the grid points.

    The best sample is refined; a minimum below ZERO_SNAP is reported as
    an exact, unrefined 0.0.
    """
    best = int(np.argmax(vals) if maximize else np.argmin(vals))
    theta = grid.theta(best)
    if not maximize and float(vals[best]) < ZERO_SNAP:
        return CircleScanResult(0.0, theta, False)
    step = 2.0 * np.pi / grid.count
    theta_ref, val_ref = _golden(r, grid, theta - step, theta + step, maximize)
    # Refinement must never report something the grid already beat.
    if (maximize and val_ref < vals[best]) or (not maximize and val_ref > vals[best]):
        theta_ref, val_ref = theta, float(vals[best])
    if not maximize and val_ref < ZERO_SNAP:
        return CircleScanResult(0.0, theta_ref % (2.0 * np.pi), False)
    return CircleScanResult(float(val_ref), theta_ref % (2.0 * np.pi), True)


def sup_modulus_on_circle(r: RationalFunction, k: float, grid: CircleGrid | None = None) -> CircleScanResult:
    """Supremum of |r| on |z| = k (grid scan plus bracket refinement)."""
    grid = _circle_grid(r, float(k), grid)
    return _extremum(r, grid, np.abs(rat_eval(r, grid.points())), True)


def min_modulus_on_circle(r: RationalFunction, k: float, grid: CircleGrid | None = None) -> CircleScanResult:
    """Minimum of |r| on |z| = k.

    A numerator zero lying on the circle (modulus within 1e-9 of k, the
    band that also decides the zero's side) forces an exact 0.0,
    reported unrefined; this is what makes the boundary-zero instances
    produce m = 0 rather than a grid-limited small number.  Any scanned
    or refined value below 1e-13 snaps to 0.0 the same way.
    """
    k = float(k)
    grid = _circle_grid(r, k, grid)
    on_circle = _zeros_on_circle(r, k)
    if on_circle.size:
        return CircleScanResult(0.0, float(np.angle(on_circle[0]) % (2.0 * np.pi)), False)
    return _extremum(r, grid, np.abs(rat_eval(r, grid.points())), False)


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
            if float(newton.min()) <= CIRCLE_MATCH_TOL * max(1.0, k):
                raise ZeroOnContour("a numerator root sits on the contour")
            total = float(np.sum(steps)) / (2.0 * np.pi)
            wind = int(round(total))
            if abs(total - wind) > 0.25:
                raise ZeroOnContour("winding sum is not close to an integer")
            return wind
        count *= 2
    raise ZeroOnContour(f"phase increments still too coarse at {WINDING_MAX} samples")


def count_zeros_in_disk(r: RationalFunction, k: float) -> int:
    """Numerator zeros of r strictly inside |z| < k."""
    return winding_zero_count(r.numer, float(k))


def log_derivative_real_part(r: RationalFunction, z) -> float:
    """Re(z r'(z) / r(z)) for a point z on the unit circle."""
    zs = np.array([complex(z)])
    _check_on_unit_circle(zs)
    rv, deriv, _ = _pole_sums(r, zs)
    zc, rv, deriv = zs.item(), rv.item(), deriv.item()
    if abs(rv) <= 1e-10:
        raise NearZeroOfR(f"|r(z)| = {abs(rv):.3g} too small for a log derivative")
    return float((zc * deriv / rv).real)
