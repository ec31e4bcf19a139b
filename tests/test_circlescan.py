"""Circle extrema, winding counts, and the log-derivative facts they certify."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ratbound import circlescan
from ratbound import (
    BlaschkeProduct,
    CircleGrid,
    CounterRng,
    GeneratorSpec,
    NearZeroOfR,
    OffCircle,
    ParameterOutOfRange,
    PoleOnCircle,
    PoleSet,
    Polynomial,
    RationalFunction,
    ZeroLocation,
    ZeroOnContour,
    blaschke_deriv_modulus_on_T1,
    generate,
    log_derivative_real_part,
    min_modulus_on_circle,
    rat_eval,
    sup_modulus_on_circle,
    winding_zero_count,
)


def unit_point(theta: float) -> complex:
    return complex(np.cos(theta), np.sin(theta))


def random_pole_set(sub: CounterRng, n_max: int = 6) -> PoleSet:
    n = 1 + sub.next_u64() % n_max
    return PoleSet(
        [sub.next_radius(1.1, 3.0) * np.exp(1j * sub.next_angle()) for _ in range(n)]
    )


def random_instance(sub: CounterRng, n_max: int = 4) -> RationalFunction:
    poles = random_pole_set(sub, n_max)
    t = sub.next_u64() % (poles.n + 1)
    zeros = []
    while len(zeros) < t:
        cand = 2.0 * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle())
        if min(abs(cand - a) for a in poles.poles) > 1e-3:
            zeros.append(cand)
    if t:
        return RationalFunction.from_zeros(zeros, poles)
    return RationalFunction(Polynomial([1.0]), poles)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_validation():
    grid = CircleGrid(1.0, 64)
    assert grid.thetas().shape == (64,)
    assert grid.points()[0] == 1.0 + 0.0j
    with pytest.raises(ValueError):
        CircleGrid(0.0, 64)
    with pytest.raises(ValueError):
        CircleGrid(1.0, 63)
    with pytest.raises(ValueError):
        CircleGrid(1.0, 96)  # not a power of two
    with pytest.raises(ValueError):
        CircleGrid(1.0, 32)  # below the floor


@pytest.mark.parametrize("count", [64, 65536])
def test_grid_theta_is_the_array_element(count):
    grid = CircleGrid(1.0, count)
    assert [grid.theta(i) for i in range(count)] == grid.thetas().tolist()


@pytest.mark.parametrize("count", [64, 4096, 65536])
@pytest.mark.parametrize("k", [0.7, 1.0, 1.5, 2.0**-30, 3e5])
def test_points_are_k_times_exp_bit_for_bit(k, count):
    # The points come from the grid's unit points, formed once, and must keep
    # the bits of k * exp(i theta) computed afresh.
    expected = k * np.exp(1j * CircleGrid(k, count).thetas())
    grid = CircleGrid(k, count)
    for _ in range(2):
        assert np.array_equal(grid.points().view(np.int64), expected.view(np.int64))


def test_unit_points_are_read_only_and_unshared():
    grid = CircleGrid(1.5, 64)
    pts = grid.points()
    unit = grid._unit_points
    assert grid._unit_points is unit and not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0] = 0.0
    assert pts.flags.writeable and not np.shares_memory(pts, unit)
    pts[0] = 0.0
    assert grid.points()[0] == 1.5 and unit[0] == 1.0
    # The cached array is no field: equality, hashing and asdict see k and count only.
    assert grid == CircleGrid(1.5, 64) and hash(grid) == hash(CircleGrid(1.5, 64))
    assert dataclasses.asdict(grid) == {"k": 1.5, "count": 64}


# ---------------------------------------------------------------------------
# sup / min scans


def test_sup_single_pole_anchor():
    # |e^{i theta} - 2|^2 = 5 - 4 cos(theta) is smallest at theta 0.
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    res = sup_modulus_on_circle(r, 1.0)
    assert abs(res.value - 1.0) <= 1e-12
    assert min(res.arg_at, 2 * np.pi - res.arg_at) <= 1e-6


def test_min_single_pole_anchor():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    res = min_modulus_on_circle(r, 1.0)
    assert abs(res.value - 1.0 / 3.0) <= 1e-12
    assert abs(res.arg_at - np.pi) <= 1e-6


def test_scan_constant():
    r = RationalFunction(Polynomial([0.6 - 0.8j]), PoleSet())
    assert abs(sup_modulus_on_circle(r, 1.0).value - 1.0) <= 1e-15
    assert abs(min_modulus_on_circle(r, 2.5).value - 1.0) <= 1e-15


def test_sup_power_family_norm():
    # ||r|| = (1+k)^t/(a-1)^n, attained at z = 1.
    for a, k, t, n in [(3.0, 1.0, 2, 2), (2.0, 1.0, 1, 1), (5.0, 1.0, 3, 4)]:
        r = RationalFunction.from_zeros([-k] * t, PoleSet([a] * n))
        expected = (1.0 + k) ** t / (a - 1.0) ** n
        res = sup_modulus_on_circle(r, 1.0)
        assert abs(res.value - expected) <= 1e-11 * max(1.0, expected)
        assert min(res.arg_at, 2 * np.pi - res.arg_at) <= 1e-6


def test_min_exact_zero_for_boundary_zero():
    # A numerator zero sitting on the scanned circle forces m = 0 exactly.
    k = 0.7
    r = RationalFunction.from_zeros([-k, 0.2], PoleSet([2.0, 3.0]))
    res = min_modulus_on_circle(r, k)
    assert res.value == 0.0
    assert not res.refined
    assert abs(res.arg_at - np.pi) <= 1e-9
    # The grid is checked before the shortcut, as it is without such a zero.
    with pytest.raises(ValueError):
        min_modulus_on_circle(r, k, CircleGrid(1.5, 1024))


def test_scan_matches_dense_grid_oracle():
    rng = CounterRng(3301)
    thetas = np.linspace(0.0, 2 * np.pi, 1 << 16, endpoint=False)
    for trial in range(6):
        r = random_instance(rng.split(trial))
        dense = np.abs(rat_eval(r, np.exp(1j * thetas)))
        sup = sup_modulus_on_circle(r, 1.0)
        low = min_modulus_on_circle(r, 1.0)
        # Refined extrema can only do better than any sampled value.
        assert sup.value >= dense.max() - 1e-9 * max(1.0, dense.max())
        assert sup.value <= dense.max() * (1.0 + 1e-4) + 1e-12
        assert low.value <= dense.min() + 1e-9 * max(1.0, dense.max())
        assert low.value >= dense.min() * (1.0 - 1e-4) - 1e-12


def test_refined_never_worse_than_grid():
    rng = CounterRng(3302)
    for trial in range(8):
        r = random_instance(rng.split(trial))
        grid = CircleGrid(1.0, 256)
        coarse_vals = np.abs(rat_eval(r, grid.points()))
        sup = sup_modulus_on_circle(r, 1.0, grid)
        low = min_modulus_on_circle(r, 1.0, grid)
        assert sup.value >= coarse_vals.max() - 1e-15
        assert low.value <= coarse_vals.min() + 1e-15


def test_scan_stability_under_grid_doubling():
    rng = CounterRng(3303)
    for trial in range(8):
        r = random_instance(rng.split(trial))
        for k in (1.0, 1.3):
            a = sup_modulus_on_circle(r, k, CircleGrid(k, 1024)).value
            b = sup_modulus_on_circle(r, k, CircleGrid(k, 2048)).value
            assert abs(a - b) <= 1e-9 * max(1.0, a)
            c = min_modulus_on_circle(r, k, CircleGrid(k, 1024)).value
            d = min_modulus_on_circle(r, k, CircleGrid(k, 2048)).value
            assert abs(c - d) <= 1e-9 * max(1.0, a)


def test_scan_rejects_pole_on_circle():
    r = RationalFunction(Polynomial([1.0]), PoleSet([1.5]))
    with pytest.raises(PoleOnCircle):
        sup_modulus_on_circle(r, 1.5)
    with pytest.raises(PoleOnCircle):
        min_modulus_on_circle(r, 1.5 + 1e-10)


def test_scan_refuses_where_w_may_overflow():
    # prod_j (|a_j| + k) bounds |w| on |z| = k; past the double range both
    # scans refuse before they evaluate, on the circle whose bound overflows.
    r = RationalFunction.from_zeros([-2.0, 3.0], PoleSet([1e154, 1e154, 1.01]), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scan in (sup_modulus_on_circle, min_modulus_on_circle):
            with pytest.raises(ParameterOutOfRange, match="double range"):
                scan(r, 1.0)
        small = RationalFunction.from_zeros([-2.0, 3.0], PoleSet([1e150, 1e150, 1.01]), 1e300)
        assert min_modulus_on_circle(small, 1.0).value > 0.0
        with pytest.raises(ParameterOutOfRange):
            min_modulus_on_circle(small, 1e9)


def test_scan_determinism():
    r = RationalFunction.from_zeros([0.4 + 0.1j], PoleSet([1.8 - 0.6j]))
    first = sup_modulus_on_circle(r, 1.0)
    second = sup_modulus_on_circle(r, 1.0)
    assert first.value == second.value
    assert first.arg_at == second.arg_at


def golden_reference(fun, lo, hi, maximize):
    """The scalar golden-section search the scans used before; returns (theta, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = -1.0 if maximize else 1.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = sign * fun(c)
    fd = sign * fun(d)
    best_t, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > circlescan.REFINE_THETA_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * fun(c)
            if fc < best_f:
                best_t, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * fun(d)
            if fd < best_f:
                best_t, best_f = d, fd
    return best_t, sign * best_f


def golden_scan_reference(r, k, count, maximize):
    """Extremum of |r| on |z| = k: the grid, then golden_reference, never worse than the grid."""
    grid = CircleGrid(k, count)
    vals = np.abs(rat_eval(r, grid.points()))
    best = int(np.argmax(vals) if maximize else np.argmin(vals))
    theta = float(grid.thetas()[best])
    step = 2.0 * np.pi / count

    def modulus(th):
        return float(abs(rat_eval(r, k * complex(math.cos(th), math.sin(th)))))

    _, val = golden_reference(modulus, theta - step, theta + step, maximize)
    if (maximize and val < vals[best]) or (not maximize and val > vals[best]):
        val = float(vals[best])
    return val


def instance_of_degree(sub: CounterRng, n: int, k: float) -> RationalFunction:
    """n poles with moduli in [1.1, 3] kept 0.05 off the circle |z| = k, and t <= n zeros."""
    poles = []
    while len(poles) < n:
        rad = sub.next_radius(1.1, 3.0)
        if abs(rad - k) > 0.05:
            poles.append(rad * np.exp(1j * sub.next_angle()))
    t = sub.next_u64() % (n + 1)
    zeros = [2.0 * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle()) for _ in range(t)]
    return RationalFunction.from_zeros(zeros, PoleSet(poles), 0.5 + sub.next_float())


def assert_no_worse_than_golden(r, k, count):
    sup = sup_modulus_on_circle(r, k, CircleGrid(k, count)).value
    ref = golden_scan_reference(r, k, count, True)
    assert sup >= ref - 1e-14 * max(1.0, ref), (k, count, sup, ref)
    low = min_modulus_on_circle(r, k, CircleGrid(k, count)).value
    ref = golden_scan_reference(r, k, count, False)
    assert low <= ref + 1e-14 * max(1.0, ref), (k, count, low, ref)


@pytest.mark.parametrize("n", [1, 3, 12, 24])
def test_refinement_no_worse_than_golden_section(n):
    rng = CounterRng(3310 + n)
    for trial in range(3):
        for k in (0.7, 1.0, 1.5):
            r = instance_of_degree(rng.split(trial), n, k)
            for count in (1024, 4096):
                assert_no_worse_than_golden(r, k, count)


def test_refinement_sharp_peak_next_to_pole():
    # A pole 0.04 and 0.03 off the scanned circle makes |r| peak sharply there.
    for k, pole in ((1.0, 1.04 * np.exp(0.3j)), (1.5, 1.53 * np.exp(-2.1j))):
        r = RationalFunction.from_zeros([0.4 - 0.2j], PoleSet([pole, 2.5j]))
        for count in (1024, 4096):
            assert_no_worse_than_golden(r, k, count)


def test_refinement_call_budget(monkeypatch):
    # The grid plus one array evaluation per refinement step; a scalar loop
    # would need dozens.  Grid 64 gives the widest starting bracket.
    calls = []

    def counted(r, z):
        calls.append(np.size(z))
        return rat_eval(r, z)

    monkeypatch.setattr(circlescan, "rat_eval", counted)
    r = instance_of_degree(CounterRng(3320), 6, 1.0)
    for count in (64, 1024, 65536):
        for scan in (sup_modulus_on_circle, min_modulus_on_circle):
            calls.clear()
            res = scan(r, 1.0, CircleGrid(1.0, count))
            assert res.refined
            assert len(calls) <= 10, (scan.__name__, count, calls)


# r -> 2^j r scales every |r| and r' by 2^j without rounding, far from
# overflow and subnormals, so no answer may depend on the size of r.
SCALES = (-60, -20, 20)


def scaled(r: RationalFunction, j: int) -> RationalFunction:
    """2^j r, expanded from r's zeros like r, so each coefficient is exactly 2^j times r's."""
    return RationalFunction.from_zeros(r.zeros(), r.poles, r.numer.coeffs[-1] * 2.0**j)


@pytest.mark.parametrize("n", [3, 12, 24])
def test_scans_commute_with_power_of_two_scaling(n):
    # Zeros on either side of the circle, each extremum on |z| = 1 and on |z| = k.
    for region in (ZeroLocation.all_outside_or_on(1.5), ZeroLocation.all_inside_or_on(0.7)):
        k = region.k
        for r in generate(GeneratorSpec(n=n, t=n, zero_region=region, seed=3330 + n, count=5)):
            for radius in (1.0, k):
                grid = CircleGrid(radius, 1024)
                for scan in (sup_modulus_on_circle, min_modulus_on_circle):
                    base = scan(r, radius, grid)
                    for j in SCALES:
                        got = scan(scaled(r, j), radius, grid)
                        assert got.value == math.ldexp(base.value, j), (n, k, radius, scan.__name__, j)
                        assert got.arg_at == base.arg_at, (n, k, radius, scan.__name__, j)


# ---------------------------------------------------------------------------
# winding counts


def test_winding_examples():
    assert winding_zero_count(Polynomial([-0.25, 0.0, 1.0]), 1.0) == 2
    assert winding_zero_count(Polynomial([-8.0, 12.0, -6.0, 1.0]), 1.0) == 0
    assert winding_zero_count(Polynomial([5.0]), 1.0) == 0
    with pytest.raises(ValueError, match="zero polynomial"):
        winding_zero_count(Polynomial([0.0]), 1.0)


def test_winding_matches_root_list_oracle():
    rng = CounterRng(3304)
    for trial in range(200):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % 8
        roots = []
        while len(roots) < deg:
            cand = 2.0 * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle())
            if abs(abs(cand) - 1.0) > 1e-3:
                roots.append(cand)
        p = Polynomial.from_roots(roots, leading=np.exp(1j * sub.next_angle()))
        inside = sum(1 for b in roots if abs(b) < 1.0)
        assert winding_zero_count(p, 1.0) == inside


def test_winding_rejects_root_on_contour():
    # z = 1 is a contour sample: (z - 1)(z - 0.3) is an ulp off 0 there,
    # so the Newton step refuses it, and z - 1 is exactly 0.
    for roots, reason in (([1.0, 0.3], "sits on the contour"), ([1.0], "exact numerator root")):
        with pytest.raises(ZeroOnContour, match=reason):
            winding_zero_count(Polynomial.from_roots(roots), 1.0)


@pytest.mark.parametrize("k", [-1.0, 0.0, math.nan, math.inf])
def test_winding_refuses_bad_radius(k):
    # The radius check comes before any sampling: no grid doubling, no warnings.
    p = Polynomial.from_roots([0.5, 2.0, -0.3j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid radius"):
            winding_zero_count(p, k)


def test_count_zeros_in_disk_uses_numerator():
    r = RationalFunction.from_zeros([0.5, -0.2, 1.7], PoleSet([2.0, 3.0, 2.5]))
    assert winding_zero_count(r.numer, 1.0) == 2
    # poles inside |z| < k do not contribute when k > 1
    assert winding_zero_count(r.numer, 2.2) == 3


# ---------------------------------------------------------------------------
# pointwise log-derivative real part


def test_log_derivative_anchor():
    # r = 1/(z-2) at z = 1: z r'/r = -z/(z-2) = 1; matches -(n-|B'|)/2 = 1.
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    got = log_derivative_real_part(r, 1.0)
    assert abs(got - 1.0) <= 1e-14
    b = BlaschkeProduct(PoleSet([2.0]))
    mirrored = -(1.0 - blaschke_deriv_modulus_on_T1(b, 1.0)) / 2.0
    assert abs(got - mirrored) <= 1e-14


def test_log_derivative_guards():
    r = RationalFunction(Polynomial([1.0]), PoleSet([2.0]))
    with pytest.raises(OffCircle):
        log_derivative_real_part(r, 0.9)
    vanishing = RationalFunction.from_zeros([1.0], PoleSet([2.0]))
    with pytest.raises(NearZeroOfR):
        log_derivative_real_part(vanishing, 1.0)


def test_log_derivative_is_scale_free():
    # A small |r(z)| is no reason to refuse: z r'/r is the same number for 2^j r.
    rng = CounterRng(3311)
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for trial in range(20):
        r = random_instance(rng.split(trial))
        for theta in thetas:
            z = unit_point(theta)
            base = log_derivative_real_part(r, z)
            for j in SCALES:
                assert log_derivative_real_part(scaled(r, j), z) == base, (trial, theta, j)


def test_denominator_log_derivative_identity():
    # Re(z w'/w) = (n - |B'|)/2 for r = 1/w, every pole set, every circle point.
    rng = CounterRng(3305)
    thetas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    for trial in range(10):
        poles = random_pole_set(rng.split(trial))
        r = RationalFunction(Polynomial([1.0]), poles)
        b = BlaschkeProduct(poles)
        for theta in thetas[::32]:
            z = unit_point(theta)
            lhs = -log_derivative_real_part(r, z)
            rhs = (poles.n - blaschke_deriv_modulus_on_T1(b, z)) / 2.0
            assert abs(lhs - rhs) <= 1e-10


def test_half_plane_criterion_equivalence():
    # Re(z) <= 1/2 exactly when |z| <= |z-1|, with ties at the boundary.
    rng = CounterRng(3306)
    for _ in range(1000):
        z = complex(4 * rng.next_float() - 2, 4 * rng.next_float() - 2)
        lhs = z.real <= 0.5
        rhs = abs(z) <= abs(z - 1.0)
        if abs(z.real - 0.5) > 1e-14:
            assert lhs == rhs
        ge_lhs = z.real >= 0.5
        ge_rhs = abs(z) >= abs(z - 1.0)
        if abs(z.real - 0.5) > 1e-14:
            assert ge_lhs == ge_rhs


def test_mobius_real_part_bounds():
    # Re(z/(z-b)) on the unit circle against the split at 1/(1+k).
    rng = CounterRng(3307)
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    zs = np.exp(1j * thetas)
    for trial in range(50):
        sub = rng.split(trial)
        k_out = 1.0 + 1.5 * sub.next_float()
        b_out = (k_out + 2.0 * sub.next_float()) * np.exp(1j * sub.next_angle())
        vals = (zs / (zs - b_out)).real
        assert vals.max() <= 1.0 / (1.0 + k_out) + 1e-12
        k_in = 0.2 + 0.8 * sub.next_float()
        b_in = k_in * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle())
        vals = (zs / (zs - b_in)).real
        assert vals.min() >= 1.0 / (1.0 + k_in) - 1e-12


def lemma_bound_upper(bp: float, n: int, t: int, k: float) -> float:
    return bp / 2.0 + (2.0 * t - n * (1.0 + k)) / (2.0 * (1.0 + k))


def lemma_bound_lower(bp: float, n: int, t: int, k: float) -> float:
    return bp / 2.0 - (n * (1.0 + k) - 2.0 * t) / (2.0 * (1.0 + k))


def test_log_derivative_two_sided_bounds():
    # Zeros outside radius k >= 1 cap Re(z r'/r); zeros inside k <= 1 floor it.
    rng = CounterRng(3308)
    thetas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)

    def sweep(r, bound, sense):
        b = BlaschkeProduct(r.poles)
        for theta in thetas[::8]:
            z = unit_point(theta)
            if abs(rat_eval(r, z)) <= 1e-10:
                continue
            got = log_derivative_real_part(r, z)
            cap = bound(blaschke_deriv_modulus_on_T1(b, z))
            if sense == "upper":
                assert got <= cap + 1e-9
            else:
                assert got >= cap - 1e-9

    for trial in range(25):
        sub = rng.split(trial)
        poles = random_pole_set(sub, n_max=4)
        n = poles.n
        t = sub.next_u64() % (n + 1)
        k_up = 1.0 + sub.next_float()
        zeros = [
            (k_up + 2.0 * sub.next_float()) * np.exp(1j * sub.next_angle())
            for _ in range(t)
        ]
        zeros = [b for b in zeros if min(abs(b - a) for a in poles.poles) > 1e-3]
        r_up = (
            RationalFunction.from_zeros(zeros, poles)
            if zeros
            else RationalFunction(Polynomial([1.0]), poles)
        )
        t_up = len(zeros)
        sweep(r_up, lambda bp: lemma_bound_upper(bp, n, t_up, k_up), "upper")

        k_lo = 0.3 + 0.7 * sub.next_float()
        zeros = [
            k_lo * np.sqrt(sub.next_float()) * np.exp(1j * sub.next_angle())
            for _ in range(t)
        ]
        r_lo = (
            RationalFunction.from_zeros(zeros, poles)
            if zeros
            else RationalFunction(Polynomial([1.0]), poles)
        )
        sweep(r_lo, lambda bp: lemma_bound_lower(bp, n, len(zeros), k_lo), "lower")


def test_two_sided_bounds_coincide_at_unit_radius():
    # Both bound expressions collapse to bp/2 - (n-t)/2 when k = 1.
    rng = CounterRng(3309)
    for _ in range(200):
        bp = 6.0 * rng.next_float()
        n = 1 + rng.next_u64() % 6
        t = rng.next_u64() % (n + 1)
        reference = bp / 2.0 - (n - t) / 2.0
        assert abs(lemma_bound_upper(bp, n, t, 1.0) - reference) <= 1e-12
        assert abs(lemma_bound_lower(bp, n, t, 1.0) - reference) <= 1e-12
