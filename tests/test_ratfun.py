"""Polynomial and rational-function arithmetic against hand and finite-difference oracles."""

import numpy as np
import pytest

from ratbound import (
    BlaschkeProduct,
    CounterRng,
    NearPole,
    NonConvergence,
    PoleSet,
    Polynomial,
    RationalFunction,
    Reducible,
    ZeroLocation,
    blaschke_deriv_modulus_on_T1,
    classify_zeros,
    poly_eval,
    poly_roots,
    rat_derivative_eval,
    rat_eval,
)
from ratbound import ratfun
from ratbound.ratfun import EVAL_BLOCK, _pole_sums


def unit_point(theta: float) -> complex:
    return complex(np.cos(theta), np.sin(theta))


# ---------------------------------------------------------------------------
# polynomial construction and evaluation


def test_poly_eval_root_by_construction():
    p = Polynomial([1.0, 0.0, 1.0])  # z^2 + 1
    assert abs(poly_eval(p, 1j)) == 0.0


def test_poly_eval_constant():
    p = Polynomial([1.0])
    for z in (0.0, 1.0, 2.3 - 0.7j, 1e6):
        assert poly_eval(p, z) == 1.0 + 0.0j


def test_poly_eval_squared_binomial():
    # (z+1)^2 expands to 1 + 2z + z^2 by hand.
    by_coeffs = Polynomial([1.0, 2.0, 1.0])
    by_roots = Polynomial.from_roots([-1.0, -1.0])
    assert by_coeffs(1.0) == 4.0 + 0.0j
    assert abs(by_roots(1.0) - 4.0) < 1e-15
    assert np.allclose(by_coeffs.coeffs, by_roots.coeffs, rtol=0, atol=1e-14)


def test_poly_eval_scalar_in_scalar_out():
    p = Polynomial([1.0, 2.0, 1.0])
    val = poly_eval(p, 0.5)
    assert isinstance(val, complex)
    arr = poly_eval(p, np.array([0.5, 1.0]))
    assert arr.shape == (2,)


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([2.0, 1.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coeffs[-1] != 0


def test_polynomial_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        Polynomial([1.0, np.nan])
    with pytest.raises(ValueError):
        Polynomial([np.inf, 1.0])
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0 + np.nan * 1j])


def test_from_roots_expansion_matches_coefficients():
    # Cached roots and expanded coefficients describe the same polynomial.
    rng = CounterRng(1101)
    for trial in range(50):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % 6
        roots = [
            complex(2 * sub.next_float() - 1, 2 * sub.next_float() - 1)
            for _ in range(deg)
        ]
        p = Polynomial.from_roots(roots, leading=1.7 - 0.3j)
        rebuilt = np.array([1.7 - 0.3j], dtype=np.complex128)
        for b in roots:
            grown = np.zeros(rebuilt.size + 1, dtype=np.complex128)
            grown[1:] += rebuilt
            grown[:-1] -= b * rebuilt
            rebuilt = grown
        scale = np.abs(p.coeffs).max()
        assert np.abs(p.coeffs - rebuilt).max() <= 1e-10 * scale


def test_derivative_coefficients():
    p = Polynomial([1.0, 2.0, 3.0])  # 1 + 2z + 3z^2
    d = p.derivative()
    assert np.allclose(d.coeffs, [2.0, 6.0])
    assert Polynomial([5.0]).derivative().is_zero


# ---------------------------------------------------------------------------
# root finding


def test_poly_roots_quadratic():
    p = Polynomial([-0.25, 0.0, 1.0])  # z^2 - 0.25
    roots = np.sort_complex(poly_roots(p))
    assert np.allclose(roots, [-0.5, 0.5], atol=1e-12)


def test_poly_roots_triple_cluster():
    # (z-2)^3 = -8 + 12z - 6z^2 + z^3; the cluster spreads but stays tight.
    p = Polynomial([-8.0, 12.0, -6.0, 1.0])
    roots = poly_roots(p)
    assert roots.shape == (3,)
    assert np.abs(roots - 2.0).max() <= 1e-4


def test_poly_roots_monomial():
    roots = poly_roots(Polynomial([0.0, 1.0]))
    assert roots.shape == (1,)
    assert abs(roots[0]) == 0.0


def test_poly_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        poly_roots(Polynomial([0.0]))


def test_poly_roots_residual_bound():
    rng = CounterRng(1102)
    for trial in range(30):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % 8
        coeffs = [
            complex(2 * sub.next_float() - 1, 2 * sub.next_float() - 1)
            for _ in range(deg + 1)
        ]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        p = Polynomial(coeffs)
        roots = poly_roots(p)
        cmax = np.abs(p.coeffs).max()
        for root in roots:
            cap = 1e-10 * cmax * max(1.0, abs(root)) ** p.degree
            assert abs(p(root)) <= cap


def test_poly_roots_exhausted_budget_raises():
    p = Polynomial([-8.0, 12.0, -6.0, 1.0])
    with pytest.raises(NonConvergence):
        poly_roots(p, sweep_budget=0)


def test_root_coefficient_round_trip():
    # expand(poly_roots(p)) reproduces p to relative 1e-8, degree <= 8.
    rng = CounterRng(1103)
    for trial in range(40):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % 8
        coeffs = [
            complex(2 * sub.next_float() - 1, 2 * sub.next_float() - 1)
            for _ in range(deg + 1)
        ]
        if abs(coeffs[-1]) < 0.05:
            coeffs[-1] += 0.5
        p = Polynomial(coeffs)
        rebuilt = Polynomial.from_roots(poly_roots(p), leading=p.coeffs[-1])
        scale = np.abs(p.coeffs).max()
        assert np.abs(rebuilt.coeffs - p.coeffs).max() <= 1e-8 * scale


def test_roots_cache_is_authoritative():
    p = Polynomial.from_roots([0.5, -0.5])
    assert p.has_root_cache()
    assert np.allclose(np.sort_complex(p.roots()), [-0.5, 0.5], atol=0)


# ---------------------------------------------------------------------------
# rational functions


def test_rat_eval_single_pole():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    assert rat_eval(r, 1.0) == -1.0 + 0.0j


def test_rat_eval_squared_ratio():
    # (z+1)^2/(z-3)^2 at z=1 is 2^2/(-2)^2 = 1.
    r = RationalFunction.from_zeros([-1.0, -1.0], PoleSet([3.0, 3.0]))
    assert abs(rat_eval(r, 1.0) - 1.0) <= 1e-14


def test_rat_eval_peak_at_one_for_power_family():
    # (z+1)^2/(z-3)^2 attains its largest circle modulus at z = 1.
    r = RationalFunction.from_zeros([-1.0, -1.0], PoleSet([3.0, 3.0]))
    thetas = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    vals = np.abs(rat_eval(r, np.exp(1j * thetas)))
    peak = abs(rat_eval(r, 1.0))
    assert abs(peak - 1.0) <= 1e-14
    assert vals.max() <= peak + 1e-12


def test_rat_eval_near_pole_rejected():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    with pytest.raises(NearPole):
        rat_eval(r, 2.0 + 1e-13)
    with pytest.raises(NearPole):
        rat_derivative_eval(r, 2.0 + 1e-13)
    # The check runs pole by pole: one point of a large grid, next to the last pole.
    r = RationalFunction.from_zeros([0.5], PoleSet([2.0, 1.5j, -1.2 - 0.3j]))
    zs = np.exp(2j * np.pi * np.arange(65536) / 65536)
    zs[40000] = -1.2 - 0.3j + 1e-13
    with pytest.raises(NearPole):
        rat_eval(r, zs)
    with pytest.raises(NearPole):
        rat_eval(r, complex(zs[40000]))


def quotient_rule_reference(r: RationalFunction, zs: np.ndarray) -> np.ndarray:
    """r'(z) = (p' - p w'/w) / w with w'/w and w each formed in a loop of their own."""
    pv = poly_eval(r.numer, zs)
    dv = poly_eval(r.numer.derivative(), zs)
    logw = np.zeros(zs.shape, dtype=np.complex128)
    for a in r.poles.poles:
        logw += 1.0 / (zs - a)
    den = np.ones(zs.shape, dtype=np.complex128)
    for a in r.poles.poles:
        d = zs - a
        den = den * d
    return (dv - pv * logw) / den


@pytest.mark.parametrize("n", [1, 3, 12, 24])
def test_pole_sums_match_separate_evaluations_bit_for_bit(n):
    # 16384 points is the first size at which numpy reuses the temporary
    # z - a_j of the denominator product as its output, which swaps the
    # operands of a complex product whose bits depend on their order.
    rng = CounterRng(9100 + n)
    for trial in range(3):
        sub = rng.split(trial)
        poles = PoleSet([(1.1 + 1.9 * sub.next_float()) * unit_point(2 * np.pi * sub.next_float()) for _ in range(n)])
        t = sub.next_u64() % (n + 1)
        zeros = [2.0 * sub.next_float() * unit_point(2 * np.pi * sub.next_float()) for _ in range(t)]
        r = RationalFunction.from_zeros(zeros, poles, 0.5 + sub.next_float())
        b = BlaschkeProduct(poles)
        for count in (1, 7, 1024, 16383, 16384):
            if count <= 7:
                zs = np.array([unit_point(2 * np.pi * sub.next_float()) for _ in range(count)])
            else:
                zs = np.exp(2j * np.pi * np.arange(count) / count)
            rv, deriv, bprime = _pole_sums(r, zs)
            assert np.array_equal(rv, rat_eval(r, zs)), (n, count)
            assert np.array_equal(deriv, quotient_rule_reference(r, zs)), (n, count)
            assert np.array_equal(bprime, blaschke_deriv_modulus_on_T1(b, zs)), (n, count)
            assert np.array_equal(deriv, rat_derivative_eval(r, zs))
            if count == 1:
                assert rv[0] == rat_eval(r, complex(zs[0]))
                assert bprime[0] == blaschke_deriv_modulus_on_T1(b, complex(zs[0]))


@pytest.mark.parametrize("count", [16384, 65536])
def test_rat_eval_array_matches_point_evaluation(count):
    # From 16384 points numpy may reuse a temporary as the output of a
    # product, and an in-place complex product may take another SIMD loop;
    # either changes last bits against the same point evaluated alone.
    rng = CounterRng(9300 + count)
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    for n in (6, 24):
        poles = PoleSet([(1.1 + 1.9 * rng.next_float()) * unit_point(2 * np.pi * rng.next_float()) for _ in range(n)])
        zeros = [2.0 * rng.next_float() * unit_point(2 * np.pi * rng.next_float()) for _ in range(n)]
        r = RationalFunction.from_zeros(zeros, poles, 0.5 + rng.next_float())
        values = rat_eval(r, zs)
        for i in range(0, count, count // 256):
            assert values[i] == rat_eval(r, complex(zs[i])), (n, i)


@pytest.mark.parametrize("count", [EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 20000, 65536])
def test_blocked_passes_match_unblocked_and_single_points(count, monkeypatch):
    rng = CounterRng(9500 + count)
    poles = PoleSet([(1.1 + 1.9 * rng.next_float()) * unit_point(2 * np.pi * rng.next_float()) for _ in range(24)])
    zeros = [2.0 * rng.next_float() * unit_point(2 * np.pi * rng.next_float()) for _ in range(24)]
    r = RationalFunction.from_zeros(zeros, poles, 0.5 + rng.next_float())
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    blocked = _pole_sums(r, zs) + (rat_eval(r, zs),)
    with monkeypatch.context() as patch:
        patch.setattr(ratfun, "EVAL_BLOCK", count)
        whole = _pole_sums(r, zs) + (rat_eval(r, zs),)
    for got, want in zip(blocked, whole):
        assert got.dtype == want.dtype and got.shape == (count,)
        assert np.array_equal(got, want)
    # The first, last and block-edge points and a spread of others, each alone.
    picks = sorted({0, count - 1, *range(EVAL_BLOCK - 1, count, EVAL_BLOCK), *range(0, count, count // 97)})
    for i in picks:
        alone = _pole_sums(r, zs[i : i + 1]) + (rat_eval(r, zs[i : i + 1]),)
        assert all(got[i] == one[0] for got, one in zip(blocked, alone)), i
        assert blocked[3][i] == rat_eval(r, complex(zs[i]))


def test_blocked_passes_keep_the_shape_of_a_2d_input(monkeypatch):
    r = RationalFunction.from_zeros([0.5, -0.3j, 1.5], PoleSet([2.0, -3.0j, 1.2 + 1.2j]), 0.8)
    zs = np.exp(2j * np.pi * np.arange(25200) / 25200).reshape(7, 3600)
    blocked = rat_eval(r, zs), rat_derivative_eval(r, zs)
    with monkeypatch.context() as patch:
        patch.setattr(ratfun, "EVAL_BLOCK", zs.size)
        whole = rat_eval(r, zs), rat_derivative_eval(r, zs)
    for got, want in zip(blocked, whole):
        assert got.shape == zs.shape and np.array_equal(got, want)
    for i, j in [(0, 0), (2, 991), (4, 2000), (6, 3599)]:
        assert blocked[0][i, j] == rat_eval(r, complex(zs[i, j]))
        assert blocked[1][i, j] == rat_derivative_eval(r, complex(zs[i, j]))


def test_near_pole_in_the_final_partial_block_is_rejected():
    r = RationalFunction.from_zeros([0.5], PoleSet([2.0, -3.0j]))
    zs = np.exp(2j * np.pi * np.arange(20000) / 20000)
    zs[-1] = 2.0 + 1e-13
    with pytest.raises(NearPole):
        _pole_sums(r, zs)
    with pytest.raises(NearPole):
        rat_eval(r, zs)


def test_pole_sums_near_pole_rejected():
    r = RationalFunction.from_zeros([0.5], PoleSet([2.0, -3.0j]))
    with pytest.raises(NearPole):
        _pole_sums(r, np.array([2.0 + 1e-13]))
    with pytest.raises(NearPole):
        _pole_sums(r, np.array([0.3, 1.0, -3.0j + 1e-13j]))


def test_rational_function_rejects_degree_overflow():
    with pytest.raises(ValueError):
        RationalFunction(Polynomial([0.0, 0.0, 1.0]), PoleSet([2.0]))


def test_rational_function_rejects_zero_numerator():
    with pytest.raises(ValueError):
        RationalFunction(Polynomial([0.0]), PoleSet([2.0]))


def test_rational_function_rejects_shared_root_and_pole():
    with pytest.raises(Reducible):
        RationalFunction.from_zeros([2.0], PoleSet([2.0]))
    with pytest.raises(Reducible):
        RationalFunction.from_zeros([2.0 + 5e-13], PoleSet([2.0]))


def test_pole_set_validation():
    with pytest.raises(ValueError):
        PoleSet([0.5])
    with pytest.raises(ValueError):
        PoleSet([1.0])
    with pytest.raises(ValueError):
        PoleSet([np.nan + 2j])
    assert PoleSet().n == 0
    assert PoleSet([2.0, 2.0]).n == 2


def test_rat_derivative_single_pole():
    # d/dz 1/(z-2) = -1/(z-2)^2, so at z=1 the value is -1.
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    assert abs(rat_derivative_eval(r, 1.0) - (-1.0)) <= 1e-15


def test_rat_derivative_power_family_magnitude():
    # |r'(1)| = [t/(1+k) + n/(a-1)] * |r(1)| for r = (z+k)^t/(z-a)^n.
    for a, k, t, n in [(3.0, 1.0, 2, 2), (2.0, 1.5, 1, 3), (5.0, 1.0, 3, 3)]:
        r = RationalFunction.from_zeros([-k] * t, PoleSet([a] * n))
        expected = (t / (1.0 + k) + n / (a - 1.0)) * abs(rat_eval(r, 1.0))
        assert abs(abs(rat_derivative_eval(r, 1.0)) - expected) <= 1e-12 * max(1.0, expected)


def random_instance(sub: CounterRng, n_max: int = 4):
    n = 1 + sub.next_u64() % n_max
    t = sub.next_u64() % (n + 1)
    poles = []
    while len(poles) < n:
        rad = sub.next_radius(1.1, 3.0)
        ang = sub.next_angle()
        poles.append(rad * np.exp(1j * ang))
    zeros = []
    while len(zeros) < t:
        rad = 2.0 * np.sqrt(sub.next_float())
        ang = sub.next_angle()
        cand = rad * np.exp(1j * ang)
        if min(abs(cand - a) for a in poles) > 1e-3:
            zeros.append(cand)
    lead = np.exp(1j * sub.next_angle())
    return RationalFunction.from_zeros(zeros, PoleSet(poles), leading=lead)


def normalized(r: RationalFunction) -> RationalFunction:
    thetas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    peak = float(np.abs(rat_eval(r, np.exp(1j * thetas))).max())
    lead = r.numer.coeffs[-1] / peak
    if r.t:
        return RationalFunction.from_zeros(r.zeros(), r.poles, leading=lead)
    return RationalFunction(Polynomial([lead]), r.poles)


def test_rat_derivative_matches_finite_differences():
    # Central differences with h = 1e-6 on unit-scale instances.
    rng = CounterRng(1104)
    h = 1e-6
    for trial in range(12):
        r = normalized(random_instance(rng.split(trial)))
        angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False) + 0.123
        for theta in angles:
            z = unit_point(theta)
            exact = rat_derivative_eval(r, z)
            approx = (rat_eval(r, z + h) - rat_eval(r, z - h)) / (2 * h)
            assert abs(exact - approx) <= 1e-6


def test_log_derivative_decomposition():
    # z r'/r equals sum z/(z-b_j) minus z w'/w away from zeros of r.
    rng = CounterRng(1105)
    checked = 0
    for trial in range(20):
        r = random_instance(rng.split(trial))
        zeros = r.zeros()
        poles = r.poles.as_array()
        for j in range(16):
            z = unit_point(2 * np.pi * j / 16 + 0.05)
            rv = rat_eval(r, z)
            if abs(rv) <= 1e-8:
                continue
            lhs = z * rat_derivative_eval(r, z) / rv
            rhs = np.sum(z / (z - zeros)) - np.sum(z / (z - poles))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
            checked += 1
    assert checked > 100


def test_empty_pole_set_gives_constant_rational():
    r = RationalFunction(Polynomial([2.5]), PoleSet())
    assert rat_eval(r, 1j) == 2.5 + 0.0j
    assert rat_derivative_eval(r, 1j) == 0.0 + 0.0j
    assert r.n == 0 and r.t == 0


# ---------------------------------------------------------------------------
# zero-location classification


def test_classify_boundary_zeros_outside_mode():
    k = 1.5
    r = RationalFunction.from_zeros([-k, -k], PoleSet([3.0, 3.0]))
    assert classify_zeros(r, ZeroLocation.all_outside_or_on(k))


def test_classify_inside_examples():
    r = RationalFunction.from_zeros([0.5, 0.3j], PoleSet([2.0, 3.0]))
    assert classify_zeros(r, ZeroLocation.all_inside_or_on(1.0))
    assert not classify_zeros(r, ZeroLocation.all_outside_or_on(1.0))


def test_classify_mixed_zeros_fail_outside_mode():
    r = RationalFunction.from_zeros([0.5, 2.0], PoleSet([3.0, 4.0]))
    assert not classify_zeros(r, ZeroLocation.all_outside_or_on(1.0))
    assert not classify_zeros(r, ZeroLocation.all_inside_or_on(1.0))


def test_classify_tolerance_band():
    # A zero within 1e-9 of the circle counts for either closed region.
    r = RationalFunction.from_zeros([1.0 + 1e-10], PoleSet([2.0]))
    assert classify_zeros(r, ZeroLocation.all_inside_or_on(1.0))
    assert classify_zeros(r, ZeroLocation.all_outside_or_on(1.0))


def test_classify_vacuous_cases():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    assert classify_zeros(r, ZeroLocation.all_outside_or_on(1.0))
    assert classify_zeros(r, ZeroLocation.all_inside_or_on(1.0))


def test_zero_location_validation():
    with pytest.raises(ValueError):
        ZeroLocation("somewhere", 1.0)
    with pytest.raises(ValueError):
        ZeroLocation("unconstrained", 1.0)
    with pytest.raises(ValueError):
        ZeroLocation.all_outside_or_on(0.0)
