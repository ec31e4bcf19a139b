"""Blaschke products built from pole multisets outside the unit disk.

For poles a_1, ..., a_n with |a_j| > 1 the product

    B(z) = prod_j (1 - conj(a_j) z) / (z - a_j)

is unimodular on the unit circle, and there z B'(z)/B(z) is real and
strictly positive, with the closed form

    |B'(z)| = sum_j (|a_j|^2 - 1) / |z - a_j|^2 = n - 2 Re(z w'(z)/w(z)),

with w(z) = prod_j (z - a_j), since on |z| = 1 each term is 1 - 2 Re(z/(z - a_j)).
The second form is evaluated, from the quotient w'/w that r' needs anyway.

The conjugate transform r*(z) = B(z) * conj(r(1 / conj(z))) enters the
bound proofs only through |(r*)'| on the circle, which has the stable
expression |(r*)'(z)| = | |B'(z)| r(z) - z r'(z) | used below.
"""

from __future__ import annotations

import numpy as np

from .errors import OffCircle, ParameterOutOfRange
from .ratfun import PoleSet, RationalFunction, _check_distance, _log_derivative, _pole_sums, pointwise

# How far |z| may sit from 1 before circle-only formulas are refused.
UNIT_CIRCLE_TOL = 1e-12


def _check_on_unit_circle(z):
    drift = float(np.max(np.abs(np.abs(z) - 1.0), initial=0.0))
    if not drift <= UNIT_CIRCLE_TOL:  # so that a NaN point is off the circle
        raise OffCircle(f"point off the unit circle by {drift:.3g}")


def _check_bprime_domain(poles: PoleSet):
    """Refuse a pole whose |a|^2 overflows: |B'| is taken only below about 1.3e154."""
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.abs(poles.as_array()) ** 2)):
            raise ParameterOutOfRange("a pole above 1.3e154 puts |B'(z)| outside the double range")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ParameterOutOfRange(f"{what} leave the double range")
    return values


class BlaschkeProduct:
    """Finite Blaschke-type product determined by a pole multiset."""

    __slots__ = ("poles",)

    def __init__(self, poles: PoleSet):
        if not isinstance(poles, PoleSet):
            poles = PoleSet(poles)
        self.poles = poles

    def __call__(self, z):
        return blaschke_eval(self, z)

    @pointwise
    def z_log_derivative(self, zs):
        """z B'(z)/B(z) from the factorwise logarithmic derivative.

        Valid anywhere away from poles and from the reflected zeros
        1/conj(a_j); on the unit circle the value is real and equals
        |B'(z)|.
        """
        acc = np.zeros(zs.shape, dtype=np.complex128)
        for a in self.poles.poles:
            ac = np.conj(a)
            acc += -ac * zs / (1.0 - ac * zs) - zs / (zs - a)
        return acc


@pointwise
def blaschke_eval(b: BlaschkeProduct, zs):
    """Evaluate the product factor by factor; no expansion is formed.

    Both factors are named, as in ratfun._denominator, so that numpy
    cannot write a product into a factor's temporary with swapped operands.
    """
    _check_distance(zs, b.poles)
    acc = np.ones(zs.shape, dtype=np.complex128)
    for a in b.poles.poles:
        d = zs - a
        num = 1.0 - np.conj(a) * zs
        acc = acc * num / d
    return acc


@pointwise
def blaschke_deriv_modulus_on_T1(b: BlaschkeProduct, zs):
    """|B'(z)| for |z| = 1 via n - 2 Re(z w'(z)/w(z)), bit for bit as the sweep has it.

    Returns a strictly positive real for a nonempty pole set and 0.0 for the
    empty product.  Raises OffCircle when |z| strays from 1 by more than 1e-12,
    and ParameterOutOfRange for a pole whose |a|^2 overflows, where w overflows
    (w'/w could read 0 there, and |B'| n) or for a value that is not finite.
    """
    _check_on_unit_circle(zs)
    _check_bprime_domain(b.poles)
    den, logw = _log_derivative(zs, b.poles)
    _finite(den, "w(z) values")
    return _finite(b.poles.n - 2.0 * (zs * logw).real, "|B'(z)| values")


@pointwise
def star_transform_deriv_modulus(r: RationalFunction, zs):
    """|(r*)'(z)| on the unit circle for r* = B(z) conj(r(1/conj(z))).

    Uses the circle identity |(r*)'(z)| = | |B'(z)| r(z) - z r'(z) |,
    which avoids differentiating the conjugated argument numerically.
    Raises ParameterOutOfRange for a pole above 1.3e154 or a non-finite value.
    """
    _check_on_unit_circle(zs)
    _check_bprime_domain(r.poles)
    rv, deriv, bprime = _pole_sums(r, zs)
    return _finite(np.abs(bprime * rv - zs * deriv), "|(r*)'(z)| values")
