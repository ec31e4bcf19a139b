"""Blaschke products built from pole multisets outside the unit disk.

For poles a_1, ..., a_n with |a_j| > 1 the product

    B(z) = prod_j (1 - conj(a_j) z) / (z - a_j)

is unimodular on the unit circle, and there z B'(z)/B(z) is real and
strictly positive, with the closed form

    |B'(z)| = sum_j (|a_j|^2 - 1) / |z - a_j|^2.

The conjugate transform r*(z) = B(z) * conj(r(1 / conj(z))) enters the
bound proofs only through |(r*)'| on the circle, which has the stable
expression |(r*)'(z)| = | |B'(z)| r(z) - z r'(z) | used below.
"""

from __future__ import annotations

import numpy as np

from .errors import OffCircle
from .ratfun import PoleSet, RationalFunction, _check_distance, _pole_sums, pointwise

# How far |z| may sit from 1 before circle-only formulas are refused.
UNIT_CIRCLE_TOL = 1e-12


def _check_on_unit_circle(flat: np.ndarray):
    drift = float(np.max(np.abs(np.abs(flat) - 1.0))) if flat.size else 0.0
    if drift > UNIT_CIRCLE_TOL:
        raise OffCircle(f"point off the unit circle by {drift:.3g}")


class BlaschkeProduct:
    """Finite Blaschke-type product determined by a pole multiset."""

    __slots__ = ("poles",)

    def __init__(self, poles: PoleSet):
        if not isinstance(poles, PoleSet):
            poles = PoleSet(poles)
        self.poles = poles

    @property
    def n(self) -> int:
        return self.poles.n

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
    acc = np.ones(zs.shape, dtype=np.complex128)
    for a in b.poles.poles:
        d = zs - a
        _check_distance(np.abs(d))
        num = 1.0 - np.conj(a) * zs
        acc = acc * num / d
    return acc


@pointwise
def blaschke_deriv_modulus_on_T1(b: BlaschkeProduct, zs):
    """|B'(z)| for |z| = 1 via sum_j (|a_j|^2 - 1)/|z - a_j|^2.

    Returns a strictly positive real for a nonempty pole set and 0.0
    for the empty product.  Raises OffCircle when |z| strays from 1 by
    more than 1e-12.
    """
    _check_on_unit_circle(zs)
    acc = np.zeros(zs.shape, dtype=np.float64)
    for a in b.poles.poles:
        acc += (np.hypot(a.real, a.imag) ** 2 - 1.0) / np.abs(zs - a) ** 2
    return acc


@pointwise
def star_transform_deriv_modulus(r: RationalFunction, zs):
    """|(r*)'(z)| on the unit circle for r* = B(z) conj(r(1/conj(z))).

    Uses the circle identity |(r*)'(z)| = | |B'(z)| r(z) - z r'(z) |,
    which avoids differentiating the conjugated argument numerically.
    """
    _check_on_unit_circle(zs)
    rv, deriv, bprime = _pole_sums(r, zs)
    return np.abs(bprime * rv - zs * deriv)
