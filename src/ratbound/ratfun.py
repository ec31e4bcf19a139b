"""Complex polynomials and rational functions with prescribed poles.

The rational functions handled here are quotients p(z) / w(z) where
w(z) = prod_j (z - a_j) is determined by a fixed pole multiset lying
strictly outside the closed unit disk, and deg p never exceeds the
number of poles.  Numerators are kept in coefficient form with an
optional exact root cache so hypothesis checks do not depend on a
root finder when the instance was generated from its zeros.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NearPole, NonConvergence, Reducible

# Closer than this to a pole the quotient rule has no trustworthy digits.
POLE_PROXIMITY_CUTOFF = 1e-12
# Numerator roots this close to a pole make the quotient reducible.
COINCIDENCE_CUTOFF = 1e-12
# A numerator root with ||root| - k| within this band lies on |z| = k: it is
# on both sides of the circle, meets the boundary-zero hypothesis and makes
# the minimum modulus on the circle exactly 0.
CLASSIFY_BAND = 1e-9
# Residual acceptance for the simultaneous root iteration.
ROOT_RESIDUAL_FACTOR = 1e-10
ROOT_SWEEP_BUDGET = 200
# Points per slice of a grid pass.  A complex temporary of one block is
# 128 KiB, so a pass over the poles stays in a 2 MiB per-core L2 cache, and
# below numpy's 256 KiB temporary-elision size, so a point's bits never
# depend on the size of the array it came in.
EVAL_BLOCK = 8192


def _as_complex_array(values, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must have finite real and imaginary parts")
    return arr


def _finite_scalar(value, what: str) -> complex:
    z = complex(value)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite")
    return z


class Polynomial:
    """Polynomial with complex coefficients, ascending powers."""

    __slots__ = ("coeffs", "_roots")

    def __init__(self, coeffs):
        arr = _as_complex_array(coeffs, "coefficients")
        if arr.size == 0:
            raise ValueError("need at least one coefficient")
        # Trim exact trailing zeros so the leading coefficient is honest.
        last = arr.size - 1
        while last > 0 and arr[last] == 0:
            last -= 1
        self.coeffs = arr[: last + 1].copy()
        self.coeffs.flags.writeable = False
        self._roots: np.ndarray | None = None

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "Polynomial":
        """Expand prod (z - b_j) scaled by ``leading``; roots become the cache."""
        bs = _as_complex_array(roots, "roots")
        lead = _finite_scalar(leading, "leading coefficient")
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        coeffs = np.array([lead], dtype=np.complex128)
        for b in bs:
            grown = np.zeros(coeffs.size + 1, dtype=np.complex128)
            grown[1:] += coeffs
            grown[:-1] -= b * coeffs
            coeffs = grown
        p = cls(coeffs)
        p._roots = bs.copy()
        p._roots.flags.writeable = False
        return p

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        return poly_eval(self, z)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def has_root_cache(self) -> bool:
        return self._roots is not None

    def roots(self) -> np.ndarray:
        """Roots with multiplicity; the construction-time cache wins."""
        if self._roots is None:
            self._roots = poly_roots(self)
            self._roots.flags.writeable = False
        return self._roots.copy()


def pointwise(fn):
    """Let ``fn(obj, zs)``, written for a flat complex array, take any z.

    A scalar z comes back as a Python scalar; an array keeps its shape.
    """

    @functools.wraps(fn)
    def wrapper(obj, z):
        zs = np.asarray(z, dtype=np.complex128)
        out = fn(obj, zs.reshape(-1))
        return out.item() if zs.ndim == 0 else out.reshape(zs.shape)

    return wrapper


def _horner(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    acc = np.full(zs.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc = acc * zs + c
    return acc


@pointwise
def poly_eval(p: Polynomial, zs):
    """Horner evaluation; scalar in, scalar out, arrays keep their shape."""
    return _horner(p.coeffs, zs)


def _aberth_sweeps(coeffs: np.ndarray, guesses: np.ndarray, budget: int) -> np.ndarray:
    """Simultaneous Newton corrections with repulsion between iterates."""
    deriv = coeffs[1:] * np.arange(1, coeffs.size)
    x = guesses.copy()
    for _ in range(budget):
        pv = _horner(coeffs, x)
        dv = _horner(deriv, x)
        # Stalled derivative means a perfectly symmetric guess; nudge it.
        bad = dv == 0
        if np.any(bad):
            x[bad] += 1e-6 * (1 + np.abs(x[bad]))
            continue
        newton = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulse
        steps = np.where(denom != 0, newton / np.where(denom == 0, 1, denom), newton)
        x = x - steps
        if np.max(np.abs(steps) / (1.0 + np.abs(x))) < 1e-14:
            break
    return x


def poly_roots(p: Polynomial, sweep_budget: int = ROOT_SWEEP_BUDGET) -> np.ndarray:
    """All roots of ``p`` counted with multiplicity.

    The roots are found by simultaneous iteration started on a circle,
    which keeps multiple roots grouped in tight clusters, and every root
    must satisfy a residual bound scaled by the coefficient size or
    NonConvergence is raised.  The iteration always runs; the cached
    roots of a from_roots construction are what ``Polynomial.roots``
    returns.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    coeffs = p.coeffs
    # Exact roots at the origin split off before iterating.
    lead_zeros = 0
    while coeffs[lead_zeros] == 0:
        lead_zeros += 1
    origin = np.zeros(lead_zeros, dtype=np.complex128)
    coeffs = coeffs[lead_zeros:]
    d = coeffs.size - 1
    if d == 0:
        roots = origin
    elif d == 1:
        roots = np.concatenate([origin, [-coeffs[0] / coeffs[1]]])
    else:
        radius = float(np.abs(coeffs[0] / coeffs[-1]) ** (1.0 / d))
        radius = min(max(radius, 1e-8), 1e8)
        angles = 2.0 * np.pi * (np.arange(d) + 0.25) / d + 0.7 / d
        found = _aberth_sweeps(coeffs, radius * np.exp(1j * angles), sweep_budget)
        scale = float(np.max(np.abs(coeffs)))
        resid = np.abs(_horner(coeffs, found))
        allowed = ROOT_RESIDUAL_FACTOR * scale * np.maximum(1.0, np.abs(found)) ** d
        if np.any(resid > allowed):
            raise NonConvergence(
                f"root residual {float(np.max(resid / allowed)):.3g}x over budget after {sweep_budget} sweeps"
            )
        roots = np.concatenate([origin, found])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


@dataclass(frozen=True)
class PoleSet:
    """Pole multiset; every modulus must exceed 1. May be empty."""

    poles: tuple

    def __init__(self, poles=()):
        arr = _as_complex_array(list(poles), "poles")
        if np.any(np.abs(arr) <= 1.0):
            worst = arr[np.argmin(np.abs(arr))]
            raise ValueError(f"pole {worst} has modulus <= 1")
        object.__setattr__(self, "poles", tuple(complex(a) for a in arr))

    @property
    def n(self) -> int:
        return len(self.poles)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.poles, dtype=np.complex128)


MODE_OUTSIDE = "all-outside-or-on"
MODE_INSIDE = "all-inside-or-on"


@dataclass(frozen=True)
class ZeroLocation:
    """Zero-location predicate: the closed side of the circle |z| = k, outside or inside."""

    mode: str
    k: float = 1.0

    def __post_init__(self):
        if self.mode not in (MODE_OUTSIDE, MODE_INSIDE):
            raise ValueError(f"unknown zero-location mode {self.mode!r}")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("radius k must be a positive finite real")

    @classmethod
    def all_outside_or_on(cls, k: float) -> "ZeroLocation":
        return cls(MODE_OUTSIDE, float(k))

    @classmethod
    def all_inside_or_on(cls, k: float) -> "ZeroLocation":
        return cls(MODE_INSIDE, float(k))


class RationalFunction:
    """Quotient p / w with w fixed by the pole multiset and deg p <= n."""

    __slots__ = ("numer", "poles")

    def __init__(self, numer: Polynomial, poles: PoleSet):
        if numer.is_zero:
            raise ValueError("numerator must not be identically zero")
        if numer.degree > poles.n:
            raise ValueError(f"numerator degree {numer.degree} exceeds pole count {poles.n}")
        gaps = np.abs(numer.roots()[:, None] - poles.as_array()[None, :])
        if gaps.size and float(gaps.min()) < COINCIDENCE_CUTOFF:
            raise Reducible("a numerator root coincides with a pole")
        self.numer = numer
        self.poles = poles

    @classmethod
    def from_zeros(cls, zeros, poles: PoleSet, leading=1.0) -> "RationalFunction":
        return cls(Polynomial.from_roots(zeros, leading), poles)

    @property
    def n(self) -> int:
        return self.poles.n

    @property
    def t(self) -> int:
        """Number of numerator zeros counted with multiplicity."""
        return self.numer.degree

    def zeros(self) -> np.ndarray:
        return self.numer.roots()

    def __call__(self, z):
        return rat_eval(self, z)


def _check_distance(dist: np.ndarray):
    """Raise NearPole if any distance to a pole is below POLE_PROXIMITY_CUTOFF."""
    nearest = float(dist.min(initial=np.inf))
    if nearest < POLE_PROXIMITY_CUTOFF:
        raise NearPole(f"evaluation point within {nearest:.3g} of a pole")


def _denominator(r: RationalFunction, zs: np.ndarray) -> np.ndarray:
    """w(z) = prod_j (z - a_j) at the flat array zs, with the NearPole check pole by pole.

    Each factor d = z - a_j is named, so numpy cannot write the product
    into the temporary z - a_j with its operands swapped, and the product
    is not formed in place, since numpy's in-place complex multiply may
    take another SIMD loop.  Either would make a point of an array differ
    in the last bit from the same point evaluated alone.
    """
    den = np.ones(zs.shape, dtype=np.complex128)
    for a in r.poles.poles:
        d = zs - a
        _check_distance(np.abs(d))
        den = den * d
    return den


def _in_blocks(kernel, zs: np.ndarray) -> tuple:
    """The arrays of ``kernel(zs)`` for the flat array zs, taken EVAL_BLOCK points at a time.

    ``kernel`` maps a flat slice of points to a tuple of arrays of the same
    length.  Each slice's results are written into outputs allocated once;
    an array of at most one block goes to the kernel directly.
    """
    if zs.size <= EVAL_BLOCK:
        return kernel(zs)
    outs = None
    for start in range(0, zs.size, EVAL_BLOCK):
        block = slice(start, start + EVAL_BLOCK)
        parts = kernel(zs[block])
        if outs is None:
            outs = tuple(np.empty(zs.shape, dtype=part.dtype) for part in parts)
        for out, part in zip(outs, parts):
            out[block] = part
    return outs


@pointwise
def rat_eval(r: RationalFunction, zs):
    """Evaluate r(z); the denominator is kept in factored form."""
    coeffs = r.numer.coeffs
    return _in_blocks(lambda block: (_horner(coeffs, block) / _denominator(r, block),), zs)[0]


def _pole_sums(r: RationalFunction, zs: np.ndarray) -> tuple:
    """r(z), r'(z) and sum_j (|a_j|^2 - 1)/|z - a_j|^2 at the flat array zs.

    One loop over the poles: for d = z - a_j, |d| feeds the NearPole check
    and the last sum, which is |B'(z)| on |z| = 1, and 1/d feeds w'/w.
    Every value is computed in the operation order of rat_eval and
    blaschke_deriv_modulus_on_T1, so it equals theirs bit for bit.
    """
    poles = r.poles.poles
    weights = [np.hypot(a.real, a.imag) ** 2 - 1.0 for a in poles]
    coeffs = r.numer.coeffs
    dcoeffs = r.numer.derivative().coeffs

    def kernel(block):
        den = np.ones(block.shape, dtype=np.complex128)
        logw = np.zeros(block.shape, dtype=np.complex128)
        bprime = np.zeros(block.shape, dtype=np.float64)
        for a, weight in zip(poles, weights):
            d = block - a
            dist = np.abs(d)
            _check_distance(dist)
            bprime += weight / dist**2
            logw += 1.0 / d
            den = den * d
        pv = _horner(coeffs, block)
        dv = _horner(dcoeffs, block)
        return pv / den, (dv - pv * logw) / den, bprime

    return _in_blocks(kernel, zs)


@pointwise
def rat_derivative_eval(r: RationalFunction, zs):
    """Evaluate r'(z) by the quotient rule, r' = (p' - p * w'/w) / w."""
    return _pole_sums(r, zs)[1]


def _zeros_on_circle(r: RationalFunction, k: float) -> np.ndarray:
    """Numerator zeros whose modulus is within CLASSIFY_BAND of k, in root order."""
    zs = r.zeros()
    return zs[np.abs(np.abs(zs) - k) <= CLASSIFY_BAND]


def classify_zeros(r: RationalFunction, where: ZeroLocation) -> bool:
    """True iff every numerator zero satisfies the region predicate.

    Moduli are compared against the radius with a band of 1e-9 so zeros
    placed exactly on the circle classify as both inside-or-on and
    outside-or-on.  A zero-free numerator satisfies any region.
    """
    moduli = np.abs(r.zeros())
    if where.mode == MODE_OUTSIDE:
        return bool(np.all(moduli >= where.k - CLASSIFY_BAND))
    return bool(np.all(moduli <= where.k + CLASSIFY_BAND))
