"""Acceptance sweep: one test per shipped guarantee, one printed line each.

Every test prints "[PASS] criterion N: ..." (or "[FAIL] ...") so a log
scrape sees each guarantee individually, then asserts it.
"""

import json
import time

import numpy as np
import pytest

from ratbound import (
    BlaschkeProduct,
    BoundContext,
    CircleGrid,
    CounterRng,
    GeneratorSpec,
    PoleSet,
    Polynomial,
    RationalFunction,
    TheoremId,
    ZeroLocation,
    blaschke_deriv_modulus_on_T1,
    blaschke_eval,
    build_context,
    generate,
    hypothesis_zero_location,
    instance_to_dict,
    log_derivative_real_part,
    make_extremal,
    rat_derivative_eval,
    rat_eval,
    rhs_value,
    run_campaign,
    sharpness_gap,
    star_transform_deriv_modulus,
    sup_modulus_on_circle,
    winding_zero_count,
)
from ratbound.cli import main as cli_main

GRID_1024 = np.exp(2j * np.pi * np.arange(1024) / 1024)


@pytest.fixture()
def report(capsys):
    """One visible pass/fail line per criterion, then the assertion."""

    def _report(num: int, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def pole_set_sweep(count=200, n_max=6, lo=1.1, hi=5.0):
    """Deterministic pole multisets shared by the circle-identity sweeps."""
    rng = CounterRng(20250)
    out = []
    for trial in range(count):
        sub = rng.split(trial)
        n = 1 + sub.next_u64() % n_max
        poles = [
            sub.next_radius(lo, hi) * np.exp(1j * sub.next_angle()) for _ in range(n)
        ]
        out.append(PoleSet(poles))
    return out


def draw_bounded_instance(sub: CounterRng, k: float, side: str):
    """Random instance with zeros confined to one side of |z| = k."""
    n = 1 + sub.next_u64() % 4
    t = sub.next_u64() % (n + 1)
    poles = [sub.next_radius(1.1, 3.0) * np.exp(1j * sub.next_angle()) for _ in range(n)]
    zeros = []
    for _ in range(t):
        if side == "out":
            rho = sub.next_radius(k, k + 2.0)
        else:
            rho = k * np.sqrt(sub.next_float())
        zeros.append(rho * np.exp(1j * sub.next_angle()))
    leading = np.exp(1j * sub.next_angle())
    return RationalFunction.from_zeros(zeros, PoleSet(poles), complex(leading))


def test_criterion_01_unimodularity_and_phase(report):
    start = time.perf_counter()
    worst_mod = 0.0
    worst_imag = 0.0
    min_real = np.inf
    for poles in pole_set_sweep():
        b = BlaschkeProduct(poles)
        vals = blaschke_eval(b, GRID_1024)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(vals) - 1.0))))
        zld = b.z_log_derivative(GRID_1024)
        worst_imag = max(worst_imag, float(np.max(np.abs(zld.imag))))
        min_real = min(min_real, float(np.min(zld.real)))
    elapsed = time.perf_counter() - start
    ok = worst_mod <= 1e-12 and worst_imag <= 1e-10 and min_real > 0 and elapsed < 10.0
    report(
        1,
        ok,
        f"max ||B|-1| = {worst_mod:.3g} (<= 1e-12), max |Im(zB'/B)| = {worst_imag:.3g}"
        f" (<= 1e-10), min Re = {min_real:.3g} (> 0), {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_02_denominator_log_derivative_identity(report):
    # Both Re(z w'/w) and the library's |B'| are checked against the closed
    # form sum_j (|a_j|^2 - 1)/|z - a_j|^2, formed here pole by pole.
    worst = 0.0
    for poles in pole_set_sweep():
        b = BlaschkeProduct(poles)
        bp = blaschke_deriv_modulus_on_T1(b, GRID_1024)
        lhs = np.zeros(GRID_1024.shape)
        closed = np.zeros(GRID_1024.shape)
        for a in poles.poles:
            lhs += (GRID_1024 / (GRID_1024 - a)).real
            closed += (abs(a) ** 2 - 1.0) / np.abs(GRID_1024 - a) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - (poles.n - closed) / 2.0))), float(np.max(np.abs(bp - closed))))
    # hand anchor: one pole at 2, z = 1 makes both sides exactly -1, and
    # the reciprocal instance's log derivative is the negative, +1.
    anchor_pole = PoleSet([2.0])
    anchor_lhs = (1.0 / (1.0 - 2.0)).real
    anchor_rhs = (1 - blaschke_deriv_modulus_on_T1(BlaschkeProduct(anchor_pole), 1.0)) / 2
    recip = RationalFunction(Polynomial([1.0]), anchor_pole)
    lib = log_derivative_real_part(recip, 1.0)
    ok = (
        worst <= 1e-10
        and abs(anchor_lhs + 1.0) <= 1e-15
        and abs(anchor_rhs + 1.0) <= 1e-15
        and abs(lib - 1.0) <= 1e-12
    )
    report(
        2,
        ok,
        f"max |Re(zw'/w) - (n-closed)/2| and max ||B'| - closed| = {worst:.3g} (<= 1e-10), anchor both sides -1",
    )


def test_criterion_03_derivative_anchor_vs_finite_differences(report):
    h = 1e-6
    worst = 0.0
    for a in (1.5, 2.0, 3.0, 5.0):
        for n in (1, 2, 4):
            b = BlaschkeProduct(PoleSet([a] * n))
            closed = n * (a + 1.0) / (a - 1.0)
            fd = abs(
                blaschke_eval(b, np.exp(1j * h)) - blaschke_eval(b, np.exp(-1j * h))
            ) / (2.0 * h)
            worst = max(worst, abs(closed - fd))
            assert abs(blaschke_deriv_modulus_on_T1(b, 1.0) - closed) <= 1e-12
    ok = worst <= 1e-6
    report(3, ok, f"max |n(a+1)/(a-1) - finite difference| = {worst:.3g} (<= 1e-6)")


def test_criterion_04_star_transform_inequality_and_equality(report):
    rng = CounterRng(20251)
    worst_excess = -np.inf
    for trial in range(500):
        sub = rng.split(trial)
        r = draw_bounded_instance(sub, 2.0, "in")  # zeros anywhere in |z| <= 2
        norm = sup_modulus_on_circle(r, 1.0).value
        scale = max(1.0, norm)
        bp = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), GRID_1024)
        lhs = star_transform_deriv_modulus(r, GRID_1024) + np.abs(
            rat_derivative_eval(r, GRID_1024)
        )
        excess = float(np.max(lhs - bp * norm)) / scale
        worst_excess = max(worst_excess, excess)
    lam_rng = CounterRng(20252)
    worst_gap = 0.0
    for trial in range(16):
        sub = lam_rng.split(trial)
        lam = np.exp(1j * sub.next_angle())
        n = 1 + sub.next_u64() % 4
        poles = PoleSet(
            [sub.next_radius(1.1, 3.0) * np.exp(1j * sub.next_angle()) for _ in range(n)]
        )
        lead = lam * np.prod([-np.conj(a) for a in poles.poles])
        r = RationalFunction.from_zeros(1.0 / np.conj(poles.as_array()), poles, lead)
        norm = sup_modulus_on_circle(r, 1.0).value
        bp = blaschke_deriv_modulus_on_T1(BlaschkeProduct(poles), GRID_1024)
        lhs = star_transform_deriv_modulus(r, GRID_1024) + np.abs(
            rat_derivative_eval(r, GRID_1024)
        )
        worst_gap = max(worst_gap, float(np.max(np.abs(bp * norm - lhs))))
    ok = worst_excess <= 1e-8 and worst_gap <= 1e-9
    report(
        4,
        ok,
        f"max scaled excess = {worst_excess:.3g} (<= 1e-8), "
        f"unimodular-multiple equality gap = {worst_gap:.3g} (<= 1e-9)",
    )


def test_criterion_05_log_derivative_two_sided_bounds(report):
    rng = CounterRng(20253)
    results = {}
    for side_idx, (side, ks) in enumerate(
        (("out", (1.0, 1.5, 2.0)), ("in", (0.3, 0.7, 1.0)))
    ):
        violations = 0
        checked = 0
        worst = np.inf
        for trial in range(500):
            sub = rng.split(side_idx * 100000 + trial)
            k = ks[trial % 3]
            r = draw_bounded_instance(sub, k, side)
            bp = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), GRID_1024)
            rv = rat_eval(r, GRID_1024)
            admissible = np.abs(rv) > 1e-10
            re_part = np.zeros(GRID_1024.shape)
            re_part[admissible] = (
                GRID_1024[admissible]
                * rat_derivative_eval(r, GRID_1024[admissible])
                / rv[admissible]
            ).real
            n, t = r.n, r.t
            if side == "out":
                bound = bp / 2.0 + (2.0 * t - n * (1.0 + k)) / (2.0 * (1.0 + k))
                slack = (bound - re_part)[admissible]
            else:
                bound = bp / 2.0 - (n * (1.0 + k) - 2.0 * t) / (2.0 * (1.0 + k))
                slack = (re_part - bound)[admissible]
            checked += int(np.count_nonzero(admissible))
            violations += int(np.count_nonzero(slack < -1e-9))
            worst = min(worst, float(slack.min()))
        results[side] = (violations, checked, worst)
    ok = results["out"][0] == 0 and results["in"][0] == 0
    report(
        5,
        ok,
        f"upper direction {results['out'][0]} violations/{results['out'][1]} points"
        f" (min slack {results['out'][2]:.3g}), lower direction {results['in'][0]}"
        f" violations/{results['in'][1]} points (min slack {results['in'][2]:.3g})",
    )


def test_criterion_06_main_campaigns(report):
    start = time.perf_counter()
    upper_ks = {1: 1.0, 2: 1.5, 3: 2.0, 4: 1.25}
    lower_ks = {1: 1.0, 2: 0.7, 3: 0.4, 4: 0.9}
    totals = {}
    for theorem, ks in (
        (TheoremId.MAIN_UPPER, upper_ks),
        (TheoremId.MAIN_LOWER, lower_ks),
    ):
        violations = 0
        instances = 0
        min_margin = np.inf
        for n, k in ks.items():
            spec = GeneratorSpec(
                n=n,
                t=n,
                zero_region=hypothesis_zero_location(theorem, k),
                seed=1000 + n,
                count=250,
            )
            rep = run_campaign(spec, theorem, CircleGrid(k, 4096))
            violations += rep.violations
            instances += rep.instances
            min_margin = min(min_margin, rep.min_margin)
        totals[theorem] = (violations, instances, min_margin)
    elapsed = time.perf_counter() - start
    up = totals[TheoremId.MAIN_UPPER]
    lo = totals[TheoremId.MAIN_LOWER]
    ok = up[0] == 0 and lo[0] == 0 and up[1] == 1000 and lo[1] == 1000 and elapsed < 120.0
    report(
        6,
        ok,
        f"upper {up[0]} violations/{up[1]} instances (min margin {up[2]:.3g}), "
        f"lower {lo[0]} violations/{lo[1]} instances (min margin {lo[2]:.3g}), "
        f"{elapsed:.1f} s (< 120 s)",
    )


def test_criterion_07_sharpness_of_the_tight_family(report):
    worst = 0.0
    cases = 0
    for a in (1.5, 2.0, 3.0, 5.0):
        for n in (1, 2, 4):
            for t in range(1, n + 1):
                for theorem, k in (
                    (TheoremId.MAIN_UPPER, 1.0),
                    (TheoremId.MAIN_UPPER, 1.25),
                    (TheoremId.MAIN_LOWER, 1.0),
                    (TheoremId.MAIN_LOWER, 0.5),
                ):
                    r, z = make_extremal(theorem, a, k, t, n)
                    worst = max(worst, sharpness_gap(theorem, r, z, k=k))
                    cases += 1
    # anchor: double pole at 3, double zero at -1, checked at z = 1.
    r, z = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    ctx = build_context(TheoremId.MAIN_UPPER, r, 1.0, 4096)
    bp1 = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), 1.0)
    rp1 = abs(rat_derivative_eval(r, 1.0))
    rhs1 = rhs_value(TheoremId.MAIN_UPPER, bp1, abs(rat_eval(r, 1.0)), ctx)
    anchor_ok = (
        abs(ctx.norm - 1.0) <= 1e-9
        and ctx.m == 0.0
        and abs(bp1 - 4.0) <= 1e-12
        and abs(rp1 - 2.0) <= 1e-12
        and abs(rhs1 - 2.0) <= 1e-9
    )
    ok = worst <= 1e-8 and anchor_ok
    report(
        7,
        ok,
        f"max |RHS(1) - |r'(1)|| = {worst:.3g} over {cases} cases (<= 1e-8); anchor"
        f" norm={ctx.norm:.12g}, m={ctx.m}, |B'(1)|={bp1:.12g}, |r'(1)|={rp1:.12g},"
        f" RHS={float(rhs1):.12g}",
    )


def test_criterion_08_reduction_lattice(report):
    rng = CounterRng(20254)
    worst = 0.0
    pairs = [
        (TheoremId.MAIN_UPPER, TheoremId.AZIZ_SHAH_UPPER_97, "unit-full"),
        (TheoremId.MAIN_UPPER_COR, TheoremId.AZIZ_ZARGER_99, "full"),
        (TheoremId.MAIN_LOWER, TheoremId.AZIZ_SHAH_04, "no-m"),
        (TheoremId.MAIN_LOWER, TheoremId.AZIZ_SHAH_LOWER_97, "unit-full"),
        (TheoremId.AZIZ_SHAH_04, TheoremId.AZIZ_SHAH_04_COR, "full-inner"),
    ]
    for idx, (refined, classic, flavor) in enumerate(pairs):
        for trial in range(1000):
            sub = rng.split(idx * 1000 + trial)
            n = 1 + sub.next_u64() % 6
            norm = 0.5 + 4.0 * sub.next_float()
            m = norm * 0.8 * sub.next_float()
            bp = 8.0 * sub.next_float()
            ra = norm * sub.next_float()
            if flavor == "unit-full":
                ctx = BoundContext(norm=norm, m=m, t=int(n), n=int(n), k=1.0)
            elif flavor == "full":
                ctx = BoundContext(
                    norm=norm, m=m, t=int(n), n=int(n), k=1.0 + 2.0 * sub.next_float()
                )
            elif flavor == "full-inner":
                ctx = BoundContext(
                    norm=norm, m=m, t=int(n), n=int(n), k=0.2 + 0.8 * sub.next_float()
                )
            else:
                t = sub.next_u64() % (n + 1)
                ctx = BoundContext(
                    norm=norm, m=0.0, t=int(t), n=int(n), k=0.2 + 0.8 * sub.next_float()
                )
            a = rhs_value(refined, bp, ra, ctx)
            b = rhs_value(classic, bp, ra, ctx)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst <= 1e-12
    report(8, ok, f"max relative mismatch over 5 x 1000 contexts = {worst:.3g} (<= 1e-12)")


def test_criterion_09_refined_upper_arm_improves_on_classic(report):
    worst_excess = -np.inf
    worst_eq = 0.0
    streams = [
        (1, 1, 1.0),
        (2, 2, 1.5),
        (3, 3, 2.0),
        (4, 4, 1.25),
        (3, 1, 1.5),
        (4, 2, 1.0),
    ]
    for n, t, k in streams:
        spec = GeneratorSpec(
            n=n,
            t=t,
            zero_region=ZeroLocation.all_outside_or_on(k),
            seed=600 + n,
            count=50,
        )
        for r in generate(spec):
            ctx = build_context(TheoremId.MAIN_UPPER, r, k, 1024)
            bp = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), GRID_1024)
            ra = np.abs(rat_eval(r, GRID_1024))
            refined = rhs_value(TheoremId.MAIN_UPPER, bp, ra, ctx)
            classic = rhs_value(TheoremId.AZIZ_SHAH_UPPER_97, bp, ra, ctx)
            scale = np.maximum(1.0, np.abs(classic))
            worst_excess = max(worst_excess, float(np.max((refined - classic) / scale)))
            if t == n and k == 1.0:
                worst_eq = max(worst_eq, float(np.max(np.abs(refined - classic) / scale)))
    ok = worst_excess <= 1e-12 and worst_eq <= 1e-12
    report(
        9,
        ok,
        f"max (refined - classic)/scale = {worst_excess:.3g} (<= 1e-12), "
        f"equality mismatch at full zero count on the unit circle = {worst_eq:.3g}",
    )


def test_criterion_10_winding_matches_root_list(report):
    rng = CounterRng(20255)
    mismatches = 0
    for trial in range(1000):
        sub = rng.split(trial)
        deg = 1 + sub.next_u64() % 8
        roots = []
        while len(roots) < deg:
            rho = 2.0 * sub.next_float()
            if abs(rho - 1.0) >= 1e-3:
                roots.append(rho * np.exp(1j * sub.next_angle()))
        lead = 0.25 + sub.next_float() + 1j * sub.next_float()
        p = Polynomial.from_roots(roots, lead)
        inside = sum(1 for b in roots if abs(b) < 1.0)
        mismatches += winding_zero_count(p, 1.0) != inside
    ok = mismatches == 0
    report(10, ok, f"{mismatches} mismatches over 1000 polynomials (exact match required)")


def test_criterion_11_determinism(report, tmp_path):
    spec = GeneratorSpec(
        n=3,
        t=3,
        zero_region=ZeroLocation.all_outside_or_on(1.0),
        seed=31337,
        count=25,
    )
    grid = CircleGrid(1.0, 512)
    rep_a = run_campaign(spec, TheoremId.MAIN_UPPER, grid).to_json()
    rep_b = run_campaign(spec, TheoremId.MAIN_UPPER, grid).to_json()
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_dict(r, 1.0)), encoding="utf-8")
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert cli_main(["curves", str(inst), "main-upper", str(csv_a), "--grid", "256"]) == 0
    assert cli_main(["curves", str(inst), "main-upper", str(csv_b), "--grid", "256"]) == 0
    ok = rep_a == rep_b and csv_a.read_bytes() == csv_b.read_bytes()
    report(
        11,
        ok,
        f"campaign reports byte-identical: {rep_a == rep_b}; "
        f"curve CSV bit-stable: {csv_a.read_bytes() == csv_b.read_bytes()}",
    )
