"""Polynomial and rational-function arithmetic against hand and finite-difference oracles."""

import warnings

import numpy as np
import pytest

from ratbound import (
    BlaschkeProduct,
    CounterRng,
    NearPole,
    NonConvergence,
    ParameterOutOfRange,
    PoleSet,
    Polynomial,
    RationalFunction,
    Reducible,
    ZeroLocation,
    blaschke_deriv_modulus_on_T1,
    blaschke_eval,
    blaschke_offset_family,
    classify_zeros,
    poly_eval,
    poly_roots,
    rat_derivative_eval,
    rat_eval,
    star_transform_deriv_modulus,
)
from ratbound import ratfun
from ratbound.ratfun import EVAL_BLOCK, POLE_PROXIMITY_CUTOFF, _pole_sums


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
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0], leading=complex(1.0, np.inf))


def test_polynomial_rejects_malformed_coefficients():
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(ValueError):
        Polynomial([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0, 2.0], leading=0)


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
            # The certificate itself: the componentwise backward error.
            assert abs(p(root)) <= 1e-10 * sum(abs(c) * abs(root) ** i for i, c in enumerate(p.coeffs))


def test_poly_roots_residual_certificate_raises(monkeypatch):
    # A factor no residual can meet: every root of (z - 2)^3 is refused.
    monkeypatch.setattr(ratfun, "ROOT_RESIDUAL_FACTOR", 1e-300)
    p = Polynomial([-8.0, 12.0, -6.0, 1.0])
    with pytest.raises(NonConvergence):
        poly_roots(p)


def test_poly_roots_refuses_roots_with_no_correct_digits():
    # The roots are (-1 +- i sqrt 3)/2 * 1e-200.  The companion matrix of the
    # monic form has lost the constant 1e-400 to underflow, and its roots 0 and
    # -1e-200 pass a residual bound scaled by max|c| alone; by the componentwise
    # backward error their residual is 1e10 times over.
    with pytest.raises(NonConvergence):
        poly_roots(Polynomial([1e-200, 1.0, 1e200]))


def test_poly_roots_overflow_is_a_package_error():
    # Made monic, the constant term 1e300 / 1e-300 overflows to inf.
    with pytest.raises(ParameterOutOfRange):
        poly_roots(Polynomial([1e300, 1e-300]))


def test_root_coefficient_round_trip():
    # expand(poly_roots(p)) reproduces p to relative 1e-8: 40 polynomials
    # of degree <= 8, then 40 of degree <= 24.
    rng = CounterRng(1103)
    for trial in range(80):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % (8 if trial < 40 else 24)
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


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
def test_offset_family_roots_are_unimodular(a, n):
    # B + 1 has coefficients only, so its zeros come from poly_roots; all lie on |z| = 1.
    r = blaschke_offset_family(PoleSet([a] * n), 1.0)
    zeros = r.zeros()
    assert zeros.size == n
    assert np.abs(np.abs(zeros) - 1.0).max() <= ratfun.CLASSIFY_BAND


def test_roots_cache_is_authoritative(monkeypatch):
    def no_root_finder(p):
        raise AssertionError("roots() ran the root finder for a from_roots polynomial")

    monkeypatch.setattr(ratfun, "poly_roots", no_root_finder)
    p = Polynomial.from_roots([0.5, -0.5])
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


def _assert_refuses_exactly_where_near(poles: PoleSet, z: complex, rng: CounterRng) -> bool:
    """z alone, among 7 circle points and in a 65536-point grid: NearPole iff some computed |z - a| < cutoff."""
    r = RationalFunction.from_zeros([0.5, -0.25j], poles)
    b = BlaschkeProduct(poles)
    few = np.array([unit_point(rng.next_angle()) for _ in range(7)])
    few[rng.next_u64() % 7] = z
    wide = np.exp(2j * np.pi * np.arange(65536) / 65536)
    wide[rng.next_u64() % wide.size] = z
    alone = min(abs(z - a) for a in poles.poles) < POLE_PROXIMITY_CUTOFF
    for zs in (z, few, wide):
        near = min(float(np.abs(np.asarray(zs) - a).min()) for a in poles.poles) < POLE_PROXIMITY_CUTOFF
        assert near == alone
        for fn, obj in ((rat_eval, r), (rat_derivative_eval, r), (blaschke_eval, b)):
            if near:
                with pytest.raises(NearPole):
                    fn(obj, zs)
            else:
                fn(obj, zs)
    return alone


def test_distance_prefilter_refuses_exactly_where_the_modulus_does():
    # The NearPole check forms |z - a| only for a pole whose modulus is within
    # 2 C + 8 eps max|z| of the range of |z| (C the cutoff).  Points 1e-14 to
    # 1e-10 from a pole in random directions fall on both sides of the cutoff;
    # a purely imaginary offset has Re(z - a) = 0 and |z - a| above it, and a
    # purely real one of 1e-13 is below it.
    rng = CounterRng(9300)
    poles = PoleSet([rng.next_radius(1.1, 3.0) * unit_point(rng.next_angle()) for _ in range(3)])
    offsets = [10.0 ** (-14.0 + 4.0 * rng.next_float()) * unit_point(rng.next_angle()) for _ in range(6)]
    offsets += [complex(0.0, 10.0 ** (-11.8 + 1.8 * rng.next_float())), 1e-13]
    seen = set()
    for a in poles.poles:
        for off in offsets:
            near = _assert_refuses_exactly_where_near(poles, a + off, rng)
            assert near == (abs((a + off) - a) < POLE_PROXIMITY_CUTOFF)
            if off.real == 0.0 or off == 1e-13:
                assert near == (off == 1e-13)
            seen.add(near)
    assert seen == {False, True}


def test_radial_check_refuses_exactly_where_the_modulus_does():
    # Points whose modulus is 0.5 to 3 cutoffs from |a|: straight toward the
    # pole they are that far from it, and turned by an angle they are far
    # from it, though the pole passes the radial test.  Near |a| = 1e4 an ulp
    # of |a| is about the cutoff, and near 1e8 it is 1.5e-8, so there the
    # slack's rounding term decides.  The last pole sits just below the y at
    # which np.abs(1e8 + iy) steps up by an ulp: a point less than 1e-13 from
    # it has computed |z| and |a| an ulp apart, and only the rounding term
    # keeps the pole in the check.
    rng = CounterRng(9310)
    below, above = 1.0, 2.0  # np.abs(1e8 + 1j) is 1e8, np.abs(1e8 + 2j) is 1e8 + ulp
    while above - below > 5e-14:
        mid = (below + above) / 2
        below, above = (mid, above) if np.abs(np.array([complex(1e8, mid)]))[0] == 1e8 else (below, mid)
    midway, step = complex(1e8, below), complex(0.0, above - below)
    assert np.abs(np.array([midway + step]))[0] - np.abs(np.array([midway]))[0] == np.spacing(1e8)
    poles = PoleSet([rng.next_radius(1.1, 3.0) * unit_point(rng.next_angle()) for _ in range(2)]
                    + [1e4 * unit_point(rng.next_angle()), 1e8 * unit_point(rng.next_angle()), midway])
    seen = set()
    for a in poles.poles:
        for i, s in enumerate((0.5, 1.0, 1.5, 2.0, 3.0)):
            radial = (-1.0) ** i * s * POLE_PROXIMITY_CUTOFF
            seen.add(_assert_refuses_exactly_where_near(poles, a * (1.0 + radial / abs(a)), rng))
            turned = (abs(a) + radial) * a / abs(a) * unit_point(0.1 + 3.0 * rng.next_float())
            assert not _assert_refuses_exactly_where_near(poles, turned, rng)
    assert _assert_refuses_exactly_where_near(poles, midway + step, rng)
    assert seen == {False, True}


def test_nan_point_does_not_hide_a_near_pole_point():
    r = RationalFunction.from_zeros([0.5], PoleSet([2.0]))
    b = BlaschkeProduct(r.poles)
    near = 2.0 + 1e-13
    grid = np.exp(2j * np.pi * np.arange(2 * EVAL_BLOCK) / (2 * EVAL_BLOCK))
    same_block = grid.copy()
    same_block[[5, 9]] = near, np.nan
    other_block = grid.copy()
    other_block[[5, EVAL_BLOCK + 9]] = np.nan, near
    for fn, obj in ((rat_eval, r), (rat_derivative_eval, r), (_pole_sums, r), (blaschke_eval, b)):
        for zs in (near, np.array([near, np.nan]), np.array([np.nan, near]), same_block, other_block):
            with pytest.raises(NearPole), np.errstate(invalid="ignore"):  # a NaN block is divided before the next one
                fn(obj, zs)
        with np.errstate(invalid="ignore"):
            out = fn(obj, np.full(3, complex(np.nan, np.nan)))
        assert all(np.all(np.isnan(part)) for part in (out if isinstance(out, tuple) else (out,)))


def quotient_rule_reference(r: RationalFunction, zs: np.ndarray) -> np.ndarray:
    """r'(z) = (p' - p w'/w) / w with w and w' formed by the product rule in a loop of their own."""
    pv = poly_eval(r.numer, zs)
    dv = poly_eval(r.numer.derivative(), zs)
    den = np.ones(zs.shape, dtype=np.complex128)
    dw = np.zeros(zs.shape, dtype=np.complex128)
    for a in r.poles.poles:
        d = zs - a
        dw = dw * d + den
        den = den * d
    logw = dw / den
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


def test_derivative_accuracy_against_50_digits():
    # r' = (p' - p L)/w with L = w'/w, w and w' from the product-rule recurrence.
    # Higham (Accuracy and Stability of Numerical Algorithms, 3.6) bounds the
    # relative error of a complex sum by u = eps/2, of a product by sqrt(2) gamma_2
    # and of a quotient by sqrt(2) gamma_4; count each operation at 6u, above all
    # three.  To first order every rounding adds its error once, scaled by the
    # absolute-value form of what it rounds, with S = sum_j 1/|z - a_j| (Higham 5.1
    # for Horner):
    #   p: 2t operations on sum_i |c_i| |z|^i;  p': 2t - 1, with the coefficients'
    #   i c_i, on sum_i |c'_i| |z|^i;  w: 2n relative;  w': 3n on |w| S, so
    #   L = w'/w is off by (5n + 1) S;  p' - p L: (2t + 5n + 3) sum |c_i| |z|^i S
    #   and 2t sum |c'_i| |z|^i;  the division by w: 2n + 1 relative.
    # So |error| <= gamma_{6(2t + 7n + 4)} (sum |c'_i| |z|^i + sum |c_i| |z|^i S) / |w|.
    mpmath = pytest.importorskip("mpmath")
    u = np.finfo(np.float64).eps / 2
    with mpmath.workdps(50):
        for n in (1, 3, 12, 24):
            for trial in range(3):
                sub = CounterRng(9500 + n).split(trial)
                poles = PoleSet([(1.0 + 10.0 ** (-2.0 + 4.0 * sub.next_float())) * unit_point(sub.next_angle())
                                 for _ in range(n)])
                t = sub.next_u64() % (n + 1)
                zeros = [2.0 * sub.next_float() * unit_point(sub.next_angle()) for _ in range(t)]
                r = RationalFunction.from_zeros(zeros, poles, 0.5 + sub.next_float())
                zs = np.array([unit_point(sub.next_angle()) for _ in range(64)])
                got = rat_derivative_eval(r, zs)
                coeffs = [mpmath.mpc(c) for c in r.numer.coeffs]
                k = 6 * (2 * t + 7 * n + 4)
                gamma = k * u / (1 - k * u)
                for z, value in zip(zs, got):
                    zm = mpmath.mpc(z)
                    p = mpmath.polyval(coeffs[::-1], zm)
                    dp = mpmath.polyval([i * c for i, c in enumerate(coeffs)][:0:-1], zm) if t else 0
                    inv = [1 / (zm - mpmath.mpc(a)) for a in poles.poles]
                    w = mpmath.fprod(zm - mpmath.mpc(a) for a in poles.poles)
                    exact = (dp - p * mpmath.fsum(inv)) / w
                    size = float((mpmath.fsum(i * abs(c) * abs(zm) ** (i - 1) for i, c in enumerate(coeffs))
                                  + mpmath.fsum(abs(c) * abs(zm) ** i for i, c in enumerate(coeffs))
                                  * mpmath.fsum(abs(x) for x in inv)) / abs(w))
                    assert float(abs(mpmath.mpc(value) - exact)) <= gamma * size, (n, trial, z)


def test_derivative_refused_where_w_overflows():
    # w = (1 - 1e110)^3 overflows to -inf, so w'/w = -0 has no digits and
    # r'(1) = (p' - p w'/w)/w would read -0 whatever the true value.
    r = RationalFunction.from_zeros([3.0, -2.0], PoleSet([1e110] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1.0, np.array([-1e-3, 1.0])):
            with pytest.raises(ParameterOutOfRange, match="double range"):
                rat_derivative_eval(r, z)


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


def _evaluators(r: RationalFunction) -> dict:
    """Every point evaluator, bound to r or to the Blaschke product of its poles."""
    b = BlaschkeProduct(r.poles)
    return {
        "poly_eval": lambda z: poly_eval(r.numer, z),
        "rat_eval": lambda z: rat_eval(r, z),
        "rat_derivative_eval": lambda z: rat_derivative_eval(r, z),
        "_pole_sums": lambda z: _pole_sums(r, z),
        "blaschke_eval": lambda z: blaschke_eval(b, z),
        "z_log_derivative": b.z_log_derivative,
        "blaschke_deriv_modulus_on_T1": lambda z: blaschke_deriv_modulus_on_T1(b, z),
        "star_transform_deriv_modulus": lambda z: star_transform_deriv_modulus(r, z),
    }


def _parts(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


def _blocked_and_whole(fn, zs, monkeypatch) -> tuple:
    """fn's outputs at zs as pointwise blocks them, and from one kernel call over all of zs."""
    blocked = _parts(fn(zs))
    with monkeypatch.context() as patch:
        patch.setattr(ratfun, "EVAL_BLOCK", zs.size)
        whole = _parts(fn(zs))
    return blocked, whole


@pytest.mark.parametrize("count", [EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 20000, 65536])
def test_blocked_passes_match_unblocked_and_single_points(count, monkeypatch):
    rng = CounterRng(9500 + count)
    poles = PoleSet([(1.1 + 1.9 * rng.next_float()) * unit_point(2 * np.pi * rng.next_float()) for _ in range(24)])
    zeros = [2.0 * rng.next_float() * unit_point(2 * np.pi * rng.next_float()) for _ in range(24)]
    r = RationalFunction.from_zeros(zeros, poles, 0.5 + rng.next_float())
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    # The first, last and block-edge points and a spread of others, each alone.
    picks = sorted({0, count - 1, *range(EVAL_BLOCK - 1, count, EVAL_BLOCK), *range(0, count, count // 97)})
    for name, fn in _evaluators(r).items():
        blocked, whole = _blocked_and_whole(fn, zs, monkeypatch)
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype and got.shape == (count,), name
            assert np.array_equal(got, want), name
        for i in picks:
            alone = _parts(fn(complex(zs[i])))
            assert all(type(one) in (complex, float) for one in alone), name
            assert all(got[i] == one for got, one in zip(blocked, alone)), (name, i)


def test_blocked_passes_keep_the_shape_of_a_2d_input(monkeypatch):
    r = RationalFunction.from_zeros([0.5, -0.3j, 1.5], PoleSet([2.0, -3.0j, 1.2 + 1.2j]), 0.8)
    zs = np.exp(2j * np.pi * np.arange(25200) / 25200).reshape(7, 3600)
    for name, fn in _evaluators(r).items():
        blocked, whole = _blocked_and_whole(fn, zs, monkeypatch)
        for got, want in zip(blocked, whole):
            assert got.shape == zs.shape and np.array_equal(got, want), name
        for i, j in [(0, 0), (2, 991), (4, 2000), (6, 3599)]:
            alone = _parts(fn(complex(zs[i, j])))
            assert all(got[i, j] == one for got, one in zip(blocked, alone)), (name, i, j)


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
