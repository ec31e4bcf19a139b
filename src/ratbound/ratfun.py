"""Complex polynomials and rational functions with prescribed poles.

The rational functions handled here are quotients p(z) / w(z) where
w(z) = prod_j (z - a_j) is determined by a fixed pole multiset lying
strictly outside the closed unit disk, and deg p never exceeds the
number of poles.  Numerators are kept in coefficient form with an
optional exact root cache so hypothesis checks do not depend on a
root finder when the instance was generated from its zeros.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NearPole, NonConvergence, ParameterOutOfRange, Reducible

# Closer than this to a pole the quotient rule has no trustworthy digits,
# and a numerator root this close to a pole makes the quotient reducible.
POLE_PROXIMITY_CUTOFF = 1e-12
# A numerator root with ||root| - k| within this band lies on |z| = k: it is on
# both sides of the circle, meets the boundary-zero hypothesis and makes m on the
# circle exactly 0.  A pole this close to a scan radius, and a root this close
# to a winding contour by its Newton step (times max(1, k)), are refused.
CLASSIFY_BAND = 1e-9
# A root z is accepted when |p(z)| <= this * sum_i |c_i| |z|^i: a componentwise
# backward error (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).
ROOT_RESIDUAL_FACTOR = 1e-10
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


class Polynomial:
    """Polynomial with complex coefficients, ascending powers."""

    __slots__ = ("coeffs", "_roots", "_deriv")

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
        self._deriv: Polynomial | None = None

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "Polynomial":
        """Expand prod (z - b_j) scaled by ``leading``; roots become the cache."""
        bs = _as_complex_array(roots, "roots")
        lead = _as_complex_array([complex(leading)], "leading coefficient")[0]
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
        """p', formed on the first call only: the coefficients are immutable."""
        if self._deriv is None:
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs = self.coeffs[1:] * np.arange(1, self.coeffs.size)
            if not np.all(np.isfinite(coeffs)):
                raise ParameterOutOfRange("derivative coefficients leave the double range")
            self._deriv = Polynomial(coeffs if coeffs.size else [0.0])
        return self._deriv

    def roots(self) -> np.ndarray:
        """Roots with multiplicity; the construction-time cache wins."""
        if self._roots is None:
            self._roots = poly_roots(self)
            self._roots.flags.writeable = False
        return self._roots.copy()


def pointwise(fn):
    """Let ``fn(obj, zs)``, a kernel written for a flat complex array, take any z.

    The kernel returns one array or a tuple of arrays, one value per point.
    It sees at most EVAL_BLOCK points per call: a larger input is taken a
    block at a time, each block's values written into outputs allocated
    once, and an input of at most one block goes to the kernel in one call.
    A scalar z comes back as Python scalars; an array keeps its shape.
    """

    @functools.wraps(fn)
    def wrapper(obj, z):
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.reshape(-1)
        out = fn(obj, flat[:EVAL_BLOCK])
        if flat.size > EVAL_BLOCK:
            single = not isinstance(out, tuple)
            parts = (out,) if single else out
            whole = tuple(np.empty(flat.shape, dtype=part.dtype) for part in parts)
            for start in range(0, flat.size, EVAL_BLOCK):
                if start:
                    out = fn(obj, flat[start : start + EVAL_BLOCK])
                    parts = (out,) if single else out
                for dest, part in zip(whole, parts):
                    dest[start : start + EVAL_BLOCK] = part
            out = whole[0] if single else whole
        if isinstance(out, tuple):
            return tuple(part.item() if zs.ndim == 0 else part.reshape(zs.shape) for part in out)
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


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p`` counted with multiplicity.

    The roots are the eigenvalues of the companion matrix (``np.roots``),
    polished by one Newton step.  A root that fails the residual
    certificate raises NonConvergence, and a companion matrix that
    overflows ParameterOutOfRange.  This always runs; the cached roots of
    a from_roots construction are what ``Polynomial.roots`` returns.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    # Exact roots at the origin split off first.
    lead_zeros = int(np.argmax(p.coeffs != 0))
    coeffs = p.coeffs[lead_zeros:]
    with np.errstate(all="ignore"):
        try:
            found = np.roots(coeffs[::-1])
        except np.linalg.LinAlgError as exc:
            raise ParameterOutOfRange(f"companion matrix leaves the double range: {exc}") from None
        if coeffs.size > 1:
            dv = _horner(coeffs[1:] * np.arange(1, coeffs.size), found)
            found = found - np.divide(_horner(coeffs, found), dv, out=np.zeros_like(found), where=dv != 0)
            resid = np.abs(_horner(coeffs, found))
            allowed = ROOT_RESIDUAL_FACTOR * np.polyval(np.abs(coeffs[::-1]), np.abs(found))
            if not np.all(resid <= allowed):  # so that a NaN residual fails
                raise NonConvergence(f"root residual {float(np.max(resid / allowed)):.3g}x over the certificate")
    roots = np.concatenate([np.zeros(lead_zeros, dtype=np.complex128), found])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


@dataclass(frozen=True)
class PoleSet:
    """Pole multiset; every modulus must exceed 1. May be empty."""

    poles: tuple

    def __init__(self, poles=()):
        arr = _as_complex_array(list(poles), "poles")
        moduli = np.abs(arr)
        if np.any(moduli <= 1.0):
            raise ValueError(f"pole {arr[np.argmin(moduli)]} has modulus <= 1")
        object.__setattr__(self, "poles", tuple(complex(a) for a in arr))
        order = np.argsort(moduli, kind="stable")  # by computed modulus, for _check_distance
        object.__setattr__(self, "_by_modulus", (tuple(moduli[order].tolist()), tuple(arr[order].tolist())))

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
        if gaps.size and float(gaps.min()) < POLE_PROXIMITY_CUTOFF:
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


def _check_distance(zs: np.ndarray, poles: PoleSet):
    """Raise NearPole if some computed |z - a_j| < C = POLE_PROXIMITY_CUTOFF; NaN points are ignored.

    Since |z - a| >= ||z| - |a||, |z - a| is formed only for a pole whose modulus
    is within S = 2 C + 8 eps hi of [lo, hi], the range of computed |z| over zs.
    Why S suffices: np.abs of a complex is within 2 eps of the modulus (hypot is
    within an ulp; numpy's l sqrt(1 + (s/l)^2) within 3.25 eps/2), and z - a rounds
    by eps/2 per part, so a computed |z - a| < C means |z - a| < C (1 + 3 eps), and
    the computed |z| and |a| differ by less than C (1 + 6 eps) + 4 eps hi (1 + 3 eps);
    the rest of S covers the rounding of lo - S and hi + S.  On a scan circle of
    radius below about 4e5 that the pole guard has passed, no pole is within S.
    """
    radii = np.abs(zs)
    lo, hi = float(np.fmin.reduce(radii, initial=np.inf)), float(np.fmax.reduce(radii, initial=-np.inf))
    slack = 2.0 * POLE_PROXIMITY_CUTOFF + 8.0 * 2.0**-52 * hi  # eps = 2^-52
    moduli, by_modulus = poles._by_modulus
    for a in by_modulus[bisect.bisect_left(moduli, lo - slack) : bisect.bisect_right(moduli, hi + slack)]:
        nearest = float(np.fmin.reduce(np.abs(zs - a), initial=np.inf))
        if nearest < POLE_PROXIMITY_CUTOFF:
            raise NearPole(f"evaluation point within {nearest:.3g} of a pole")


def _denominator(r: RationalFunction, zs: np.ndarray) -> np.ndarray:
    """w(z) = prod_j (z - a_j) at the flat array zs, after the NearPole check.

    Each factor d = z - a_j is named, so numpy cannot write the product
    into the temporary z - a_j with its operands swapped, and the product
    is not formed in place, since numpy's in-place complex multiply may
    take another SIMD loop.  Either would make a point of an array differ
    in the last bit from the same point evaluated alone.
    """
    _check_distance(zs, r.poles)
    den = np.ones(zs.shape, dtype=np.complex128)
    for a in r.poles.poles:
        d = zs - a
        den = den * d
    return den


def _log_derivative(zs: np.ndarray, poles: PoleSet) -> tuple:
    """w = prod_j (z - a_j) and w'/w by the product rule, with one division per point.

    With d = z - a_j: w' <- w' d + w, then w <- w d, _denominator's product bit
    for bit.  The error of w'/w is a few (n + 1) eps times sum_j 1/|z - a_j| at
    most (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  Where
    w overflows, w'/w is a signed zero while w' is finite and NaN once it is not.
    """
    den = np.ones(zs.shape, dtype=np.complex128)
    dw = np.zeros(zs.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for a in poles.poles:
            d = zs - a
            dw = dw * d + den
            den = den * d
        return den, dw / den


@pointwise
def rat_eval(r: RationalFunction, zs):
    """Evaluate r(z); the denominator is kept in factored form."""
    return _horner(r.numer.coeffs, zs) / _denominator(r, zs)


@pointwise
def _pole_sums(r: RationalFunction, zs):
    """r(z), r'(z) and n - 2 Re(z w'(z)/w(z)), which is |B'(z)| on |z| = 1.

    One NearPole check and one pass over the poles (_log_derivative) give
    r = p/w and r' = (p' - p w'/w)/w; on |z| = 1 each term (|a_j|^2 - 1)/|z - a_j|^2
    of |B'| is 1 - 2 Re(z/(z - a_j)).  r and |B'| equal rat_eval's and
    blaschke_deriv_modulus_on_T1's bit for bit.  Where w overflows r has no
    digits left; the callers refuse a value that is not finite.
    """
    _check_distance(zs, r.poles)
    den, logw = _log_derivative(zs, r.poles)
    pv = _horner(r.numer.coeffs, zs)
    dv = _horner(r.numer.derivative().coeffs, zs)
    return pv / den, (dv - pv * logw) / den, r.poles.n - 2.0 * (zs * logw).real


@pointwise
def rat_derivative_eval(r: RationalFunction, zs):
    """Evaluate r'(z) by the quotient rule, r' = (p' - p * w'/w) / w."""
    return _pole_sums.__wrapped__(r, zs)[1]


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
