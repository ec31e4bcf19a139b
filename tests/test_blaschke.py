"""Blaschke product identities on the unit circle, checked against finite differences."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ratbound import (
    BlaschkeProduct,
    CounterRng,
    NearPole,
    OffCircle,
    ParameterOutOfRange,
    PoleSet,
    Polynomial,
    RationalFunction,
    blaschke_deriv_modulus_on_T1,
    blaschke_eval,
    log_derivative_real_part,
    rat_derivative_eval,
    rat_eval,
    star_transform_deriv_modulus,
    sup_modulus_on_circle,
)


def unit_point(theta: float) -> complex:
    return complex(np.cos(theta), np.sin(theta))


def random_pole_set(sub: CounterRng, n_max: int = 6) -> PoleSet:
    n = 1 + sub.next_u64() % n_max
    poles = [
        sub.next_radius(1.1, 3.0) * np.exp(1j * sub.next_angle()) for _ in range(n)
    ]
    return PoleSet(poles)


def fd_deriv_modulus(b: BlaschkeProduct, z: complex, h: float = 1e-6) -> float:
    return abs((blaschke_eval(b, z + h) - blaschke_eval(b, z - h)) / (2 * h))


# ---------------------------------------------------------------------------
# evaluation


def test_single_real_pole_at_one():
    b = BlaschkeProduct(PoleSet([2.0]))
    assert abs(blaschke_eval(b, 1.0) - 1.0) <= 1e-15


def test_unimodular_on_circle():
    rng = CounterRng(2201)
    thetas = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    for trial in range(8):
        b = BlaschkeProduct(random_pole_set(rng.split(trial)))
        vals = blaschke_eval(b, np.exp(1j * thetas))
        assert np.abs(np.abs(vals) - 1.0).max() <= 1e-12


def test_repeated_pole_is_power_of_single_factor():
    a = 1.7 + 0.4j
    single = BlaschkeProduct(PoleSet([a]))
    triple = BlaschkeProduct(PoleSet([a, a, a]))
    for theta in np.linspace(0.1, 6.0, 23):
        z = unit_point(theta)
        assert abs(blaschke_eval(triple, z) - blaschke_eval(single, z) ** 3) <= 1e-12


@pytest.mark.parametrize("count", [16384, 65536])
def test_eval_array_matches_point_evaluation(count):
    # From 16384 points numpy may write a product into an operand's
    # temporary with the operands swapped, which moves last bits.
    rng = CounterRng(2300 + count)
    b = BlaschkeProduct(random_pole_set(rng, n_max=24))
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    values = blaschke_eval(b, zs)
    for i in range(0, count, count // 256):
        assert values[i] == blaschke_eval(b, complex(zs[i])), i


def test_wide_eval_holds_its_output_and_a_few_blocks():
    # pointwise evaluates EVAL_BLOCK points at a time; over the whole input
    # each of the n factor steps makes temporaries as large as the output.
    rng = CounterRng(2400)
    b = BlaschkeProduct(PoleSet([rng.next_radius(1.1, 3.0) * np.exp(1j * rng.next_angle()) for _ in range(24)]))
    zs = np.exp(2j * np.pi * np.arange(1 << 20) / (1 << 20))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blaschke_eval(b, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 24 * 2**20


def test_wide_derivative_eval_holds_its_output_and_a_few_blocks():
    # rat_derivative_eval keeps r' only; r and |B'| live one block at a time.
    rng = CounterRng(2400)
    poles = PoleSet([rng.next_radius(1.1, 3.0) * np.exp(1j * rng.next_angle()) for _ in range(24)])
    r = RationalFunction.from_zeros([rng.next_radius(1.0, 3.0) * np.exp(1j * rng.next_angle()) for _ in range(24)], poles)
    zs = np.exp(2j * np.pi * np.arange(1 << 20) / (1 << 20))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rat_derivative_eval(r, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 24 * 2**20


def test_plain_list_of_poles_and_call_syntax():
    b = BlaschkeProduct([2.0, -3.0j])
    assert b.poles == PoleSet([2.0, -3.0j])
    r = RationalFunction.from_zeros([0.5], b.poles)
    z = unit_point(0.4)
    assert b(z) == blaschke_eval(b, z)
    assert r(z) == rat_eval(r, z)


def test_huge_pole_refused_without_warnings():
    # |a|^2 overflows for a pole above about 1.3e154, so |B'| is not a
    # double; r' does not use it and keeps its value.
    poles = PoleSet([1e200])
    r = RationalFunction.from_zeros([-2.0], poles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            blaschke_deriv_modulus_on_T1(BlaschkeProduct(poles), 1.0)
        with pytest.raises(ParameterOutOfRange):
            star_transform_deriv_modulus(r, 1.0)
        assert abs(rat_derivative_eval(r, 1.0) + 1e-200) <= 1e-215


def test_deriv_modulus_refused_where_w_overflows():
    # |B'| is read off w'/w, which has no digits where w = prod_j (z - a_j)
    # leaves the double range: at z = -1 the poles below give |w| = 2.01e308,
    # and w'/w would come out 0, so |B'| would read n = 3 against the true
    # 2.005.  At z = 1, |w| = 1e306 and the value is the closed form's 203.
    b = BlaschkeProduct(PoleSet([1e154, 1e154, 1.01]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-1.0, np.array([1.0, -1.0])):
            with pytest.raises(ParameterOutOfRange):
                blaschke_deriv_modulus_on_T1(b, z)
        assert abs(blaschke_deriv_modulus_on_T1(b, 1.0) - 203.0) <= 1e-12 * 203.0


def test_deriv_modulus_accuracy_against_50_digits():
    # |B'| is n - 2 Re(z sum_j 1/(z - a_j)).  Rounding puts a few eps times
    # |z - a_j|^-1 into each term, and |z - a_j|^-1 is at most the term's
    # value (|a_j|^2 - 1)/|z - a_j|^2 over |a_j| - 1, so the sum is off by at
    # most 4(n + 3) eps / (min |a| - 1) of |B'|, plus eps for rounding the result.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(50):
        for n in (1, 3, 12, 24):
            for trial in range(5):
                sub = CounterRng(9400 + n).split(trial)
                poles = PoleSet([(1.0 + 10.0 ** (-2.0 + 8.0 * sub.next_float())) * unit_point(sub.next_angle())
                                 for _ in range(n)])
                zs = np.array([unit_point(sub.next_angle()) for _ in range(64)])
                got = blaschke_deriv_modulus_on_T1(BlaschkeProduct(poles), zs)
                nearest = min(abs(a) for a in poles.poles)
                bound = eps + 4 * (n + 3) * eps / (nearest - 1.0)
                for z, value in zip(zs, got):
                    exact = sum((abs(mpmath.mpc(a)) ** 2 - 1) / abs(mpmath.mpc(z) - mpmath.mpc(a)) ** 2
                                for a in poles.poles)
                    assert abs(mpmath.mpf(float(value)) - exact) / exact <= bound, (n, trial, z)


def test_eval_near_pole_rejected():
    b = BlaschkeProduct(PoleSet([2.0]))
    with pytest.raises(NearPole):
        blaschke_eval(b, 2.0 + 1e-13)


def test_empty_product_is_one():
    b = BlaschkeProduct(PoleSet())
    assert blaschke_eval(b, 0.3 + 0.1j) == 1.0 + 0.0j
    assert blaschke_deriv_modulus_on_T1(b, 1.0) == 0.0


# ---------------------------------------------------------------------------
# derivative modulus on the circle


def test_deriv_modulus_single_pole_anchor():
    b = BlaschkeProduct(PoleSet([2.0]))
    val = blaschke_deriv_modulus_on_T1(b, 1.0)
    assert abs(val - 3.0) <= 1e-14
    assert abs(val - fd_deriv_modulus(b, 1.0)) <= 1e-6


def test_deriv_modulus_repeated_real_pole():
    # n identical real poles a give n(a+1)/(a-1) at z = 1.
    for a, n in [(2.0, 1), (2.0, 4), (3.0, 2), (1.5, 5)]:
        b = BlaschkeProduct(PoleSet([a] * n))
        expected = n * (a + 1.0) / (a - 1.0)
        assert abs(blaschke_deriv_modulus_on_T1(b, 1.0) - expected) <= 1e-12 * expected


def test_deriv_modulus_matches_finite_differences():
    rng = CounterRng(2202)
    for trial in range(4):
        b = BlaschkeProduct(random_pole_set(rng.split(trial), n_max=4))
        angles = rng.split(1000 + trial)
        for _ in range(32):
            z = unit_point(angles.next_angle())
            closed = blaschke_deriv_modulus_on_T1(b, z)
            assert abs(closed - fd_deriv_modulus(b, z)) <= 1e-6
    # 4 pole sets x 32 points = 128 random circle points in total.


def test_deriv_modulus_rejects_off_circle():
    b = BlaschkeProduct(PoleSet([2.0]))
    with pytest.raises(OffCircle):
        blaschke_deriv_modulus_on_T1(b, 1.001)


def test_nan_point_is_off_the_circle_without_warnings():
    # The |B'| identity divides by z - a, which warns on a NaN point.
    b = BlaschkeProduct(PoleSet([2.0]))
    r = RationalFunction.from_zeros([0.5], b.poles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, obj in ((blaschke_deriv_modulus_on_T1, b), (star_transform_deriv_modulus, r),
                        (log_derivative_real_part, r)):
            for z in (complex(np.nan, 0.0), complex(0.0, np.nan)):
                with pytest.raises(OffCircle):
                    fn(obj, z)
        with pytest.raises(OffCircle):
            blaschke_deriv_modulus_on_T1(b, np.array([1.0, np.nan]))


def test_log_derivative_real_positive_on_circle():
    # z B'/B is real and positive everywhere on the circle.
    rng = CounterRng(2203)
    thetas = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    for trial in range(6):
        b = BlaschkeProduct(random_pole_set(rng.split(trial)))
        zs = np.exp(1j * thetas)
        vals = b.z_log_derivative(zs)
        assert np.abs(vals.imag).max() <= 1e-10
        assert vals.real.min() > 0
        closed = blaschke_deriv_modulus_on_T1(b, zs)
        assert np.abs(vals.real - closed).max() <= 1e-9 * max(1.0, np.abs(closed).max())


def test_log_derivative_matches_fd_quotient():
    # Same reality check with B' taken from finite differences.
    b = BlaschkeProduct(PoleSet([2.0 + 0.5j, 1.3 - 0.2j]))
    for theta in np.linspace(0.05, 6.2, 64):
        z = unit_point(theta)
        h = 1e-7
        bprime = (blaschke_eval(b, z + h) - blaschke_eval(b, z - h)) / (2 * h)
        quotient = z * bprime / blaschke_eval(b, z)
        assert abs(quotient.imag) <= 1e-6
        assert quotient.real > 0


# ---------------------------------------------------------------------------
# conjugate-transform derivative modulus


def test_star_transform_zero_derivative_arm():
    # When r' vanishes the transform derivative collapses to |r(z)||B'(z)|.
    # A genuinely constant function carries no poles, so both sides are 0;
    # the nontrivial arm is exercised through the identity with r = c/w.
    c = 0.7 - 0.2j
    r0 = RationalFunction(Polynomial([c]), PoleSet())
    assert star_transform_deriv_modulus(r0, 1.0) == 0.0

    poles = PoleSet([2.0, 1.5 + 1.0j])
    r = RationalFunction(Polynomial([c]), poles)
    b = BlaschkeProduct(poles)
    for theta in np.linspace(0.0, 6.2, 17):
        z = unit_point(theta)
        expected = abs(
            blaschke_deriv_modulus_on_T1(b, z) * rat_eval(r, z)
            - z * rat_derivative_eval(r, z)
        )
        got = star_transform_deriv_modulus(r, z)
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)


def test_star_transform_lambda_b_equality():
    # r = lambda*B saturates the two-sided split of |B'|*||r||.
    rng = CounterRng(2204)
    for trial in range(10):
        sub = rng.split(trial)
        poles = random_pole_set(sub, n_max=5)
        lam = np.exp(1j * sub.next_angle())
        b = BlaschkeProduct(poles)
        zeros = 1.0 / np.conj(poles.as_array())
        lead = lam * np.prod(-np.conj(poles.as_array()))
        r = RationalFunction.from_zeros(zeros, poles, leading=lead)
        for theta in (0.3, 2.0, 4.5):
            z = unit_point(theta)
            # r really is unimodular lambda*B on the circle
            assert abs(abs(rat_eval(r, z)) - 1.0) <= 1e-9
            lhs = star_transform_deriv_modulus(r, z) + abs(rat_derivative_eval(r, z))
            rhs = blaschke_deriv_modulus_on_T1(b, z) * 1.0
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_star_transform_matches_circle_finite_differences():
    # Differentiate B(z)*conj(r(1/conj(z))) along the circle directly.
    rng = CounterRng(2205)
    for trial in range(6):
        sub = rng.split(trial)
        poles = random_pole_set(sub, n_max=3)
        t = sub.next_u64() % (poles.n + 1)
        zeros = [2.0 * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle()) for _ in range(t)]
        if t:
            r = RationalFunction.from_zeros(zeros, poles)
        else:
            r = RationalFunction(Polynomial([1.0]), poles)
        b = BlaschkeProduct(poles)

        def star(theta: float) -> complex:
            z = unit_point(theta)
            return blaschke_eval(b, z) * np.conj(rat_eval(r, 1.0 / np.conj(z)))

        scale = max(1.0, max(abs(rat_eval(r, unit_point(x))) for x in np.linspace(0, 6.2, 64)))
        h = 1e-6
        for theta in (0.5, 1.7, 3.9, 5.2):
            z = unit_point(theta)
            # d/dtheta = iz d/dz, so |d(star)/dtheta| = |(r*)'(z)| on |z|=1
            fd = abs((star(theta + h) - star(theta - h)) / (2 * h))
            assert abs(star_transform_deriv_modulus(r, z) - fd) <= 1e-6 * scale


def test_star_transform_inequality_random_sweep():
    # |(r*)'| + |r'| never exceeds |B'| * sup|r| on the circle.
    rng = CounterRng(2206)
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    for trial in range(12):
        sub = rng.split(trial)
        poles = random_pole_set(sub)
        t = sub.next_u64() % (poles.n + 1)
        zeros = [2.0 * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle()) for _ in range(t)]
        if t:
            r = RationalFunction.from_zeros(zeros, poles)
        else:
            r = RationalFunction(Polynomial([1.0 + 0.5j]), poles)
        b = BlaschkeProduct(poles)
        norm = sup_modulus_on_circle(r, 1.0).value
        scale = max(1.0, norm)
        for theta in thetas[::16]:
            z = unit_point(theta)
            lhs = star_transform_deriv_modulus(r, z) + abs(rat_derivative_eval(r, z))
            rhs = blaschke_deriv_modulus_on_T1(b, z) * norm
            assert lhs <= rhs + 1e-8 * scale


def test_star_transform_rejects_off_circle():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    with pytest.raises(OffCircle):
        star_transform_deriv_modulus(r, 0.5)
