"""Bound arms, hypothesis gating, certification sweeps, and equality families."""

import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ratbound import (
    BlaschkeProduct,
    BoundContext,
    CircleGrid,
    CounterRng,
    DegenerateBound,
    HypothesisViolated,
    ParameterOutOfRange,
    PoleOnCircle,
    PoleSet,
    Polynomial,
    RationalFunction,
    TheoremId,
    ZeroLocation,
    blaschke_deriv_modulus_on_T1,
    blaschke_eval,
    blaschke_offset_family,
    build_context,
    certify,
    check_hypothesis,
    hypothesis_zero_location,
    make_extremal,
    margin_curve,
    min_modulus_on_circle,
    rat_derivative_eval,
    rat_eval,
    rhs_value,
    sharpness_gap,
    sup_modulus_on_circle,
)
import ratbound.circlescan as circlescan
from ratbound.bounds import DEGENERATE_GAP, MARGIN_TOL, _point_margins, profile
from ratbound.harness import GeneratorSpec, generate, instance_from_dict
from ratbound.ratfun import CLASSIFY_BAND

UPPER_IDS = (
    TheoremId.LI_UPPER,
    TheoremId.AZIZ_SHAH_UPPER_97,
    TheoremId.AZIZ_ZARGER_99,
    TheoremId.MAIN_UPPER,
    TheoremId.MAIN_UPPER_COR,
)
LOWER_IDS = (
    TheoremId.LI_LOWER,
    TheoremId.AZIZ_SHAH_LOWER_97,
    TheoremId.AZIZ_SHAH_04,
    TheoremId.AZIZ_SHAH_04_COR,
    TheoremId.MAIN_LOWER,
    TheoremId.MAIN_LOWER_COR,
)


def random_context(sub: CounterRng) -> BoundContext:
    n = 1 + sub.next_u64() % 6
    t = sub.next_u64() % (n + 1)
    norm = 0.5 + 4.0 * sub.next_float()
    m = norm * 0.8 * sub.next_float()
    k = 0.3 + 2.0 * sub.next_float()
    return BoundContext(norm=norm, m=m, t=int(t), n=int(n), k=k)


# ---------------------------------------------------------------------------
# right-hand sides against hand-evaluated numbers


def test_rhs_arms_hand_oracle():
    # norm=2, m=0.5, t=2, n=3, k=1.5 at bp=4, |r|=1.2, worked by hand.
    ctx = BoundContext(norm=2.0, m=0.5, t=2, n=3, k=1.5)
    bp, ra = 4.0, 1.2
    cases = {
        TheoremId.LI_UPPER: 4.0,
        TheoremId.LI_LOWER: 1.8,
        TheoremId.AZIZ_SHAH_UPPER_97: 3.0,
        TheoremId.AZIZ_SHAH_LOWER_97: 3.4,
        TheoremId.AZIZ_ZARGER_99: 3.784,
        TheoremId.AZIZ_SHAH_04: 1.56,
        TheoremId.AZIZ_SHAH_04_COR: 2.04,
        TheoremId.MAIN_UPPER: 2.7713333333333333,
        TheoremId.MAIN_UPPER_COR: 3.496,
        TheoremId.MAIN_LOWER: 2.21,
        TheoremId.MAIN_LOWER_COR: 2.89,
    }
    for theorem, expected in cases.items():
        assert abs(rhs_value(theorem, bp, ra, ctx) - expected) <= 1e-12, theorem


# The eleven closed forms as the literature states them, one per id.  They
# are the oracle for rhs_value, which evaluates only the two general
# formulas with each id's ingredients pinned, so the reduction lattice
# below would otherwise compare the general formulas with themselves.
LITERAL_RHS = {
    TheoremId.LI_UPPER: lambda bp, ra, norm, m, t, n, k: 0.5 * bp * norm,
    TheoremId.LI_LOWER: lambda bp, ra, norm, m, t, n, k: (0.5 * bp - 0.5 * (n - t)) * ra,
    TheoremId.AZIZ_SHAH_UPPER_97: lambda bp, ra, norm, m, t, n, k: 0.5 * bp * (norm - m),
    TheoremId.AZIZ_SHAH_LOWER_97: lambda bp, ra, norm, m, t, n, k: 0.5 * bp * (ra + m),
    TheoremId.AZIZ_ZARGER_99: lambda bp, ra, norm, m, t, n, k: (
        0.5 * (bp - n * (k - 1.0) / (k + 1.0) * ra**2 / norm**2) * norm
    ),
    TheoremId.AZIZ_SHAH_04: lambda bp, ra, norm, m, t, n, k: 0.5 * (bp + (2.0 * t - n * (1.0 + k)) / (1.0 + k)) * ra,
    TheoremId.AZIZ_SHAH_04_COR: lambda bp, ra, norm, m, t, n, k: 0.5 * (bp + n * (1.0 - k) / (1.0 + k)) * ra,
    TheoremId.MAIN_UPPER: lambda bp, ra, norm, m, t, n, k: (
        0.5 * (bp - (n * (1.0 + k) - 2.0 * t) * (ra - m) ** 2 / ((1.0 + k) * (norm - m) ** 2)) * (norm - m)
    ),
    TheoremId.MAIN_UPPER_COR: lambda bp, ra, norm, m, t, n, k: (
        0.5 * (bp - (n * (1.0 + k) - 2.0 * t) / (1.0 + k) * ra**2 / norm**2) * norm
    ),
    TheoremId.MAIN_LOWER: lambda bp, ra, norm, m, t, n, k: (
        0.5 * (bp + (2.0 * t - n * (1.0 + k)) / (1.0 + k)) * (ra + m)
    ),
    TheoremId.MAIN_LOWER_COR: lambda bp, ra, norm, m, t, n, k: 0.5 * (bp + n * (1.0 - k) / (1.0 + k)) * (ra + m),
}


def test_rhs_matches_literal_closed_forms():
    # Most contexts carry m > 0, t < n and k != 1 into ids that pin them;
    # every fourth sits at k = 1, t = n, where the upper coefficient is 0.
    rng = CounterRng(4405)
    worst = 0.0
    for trial in range(3000):
        sub = rng.split(trial)
        ctx = random_context(sub)
        if trial % 4 == 0:
            ctx = BoundContext(norm=ctx.norm, m=ctx.m, t=ctx.n, n=ctx.n, k=1.0)
        bp = 8.0 * np.array([sub.next_float() for _ in range(4)])
        ra = ctx.norm * np.array([sub.next_float() for _ in range(4)])
        for theorem, literal in LITERAL_RHS.items():
            want = literal(bp, ra, ctx.norm, ctx.m, ctx.t, ctx.n, ctx.k)
            got = rhs_value(theorem, bp, ra, ctx)
            worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
            scalar = rhs_value(theorem, float(bp[0]), float(ra[0]), ctx)
            assert isinstance(scalar, float), theorem
            worst = max(worst, abs(scalar - want[0]) / max(1.0, abs(want[0])))
    assert worst <= 1e-12


def test_zero_coefficient_upper_arm_at_norm_equal_m():
    # A pole-free constant has ||r|| = m.  aziz-shah-upper-97 pins t -> n and
    # k -> 1, so the squared term of the upper formula has coefficient 0 and
    # must vanish rather than become 0 * 0/0 = NaN, which would count as no
    # violation at all.
    ctx = BoundContext(norm=2.0, m=2.0, t=0, n=0, k=1.0)
    assert rhs_value(TheoremId.AZIZ_SHAH_UPPER_97, 0.0, 2.0, ctx) == 0.0
    r, _ = instance_from_dict({"poles": [], "zeros": [], "leading": [2, 0]})
    verdict = certify(TheoremId.AZIZ_SHAH_UPPER_97, r, CircleGrid(1.0, 256))
    assert verdict.context.norm == verdict.context.m == 2.0
    assert verdict.min_margin == 0.0
    assert verdict.passed


def test_rhs_broadcasts():
    ctx = BoundContext(norm=1.0, m=0.0, t=1, n=1, k=1.0)
    bp = np.array([1.0, 2.0, 3.0])
    ra = np.array([0.5, 0.5, 0.5])
    out = rhs_value(TheoremId.LI_UPPER, bp, ra, ctx)
    assert out.shape == (3,)
    assert np.allclose(out, [0.5, 1.0, 1.5])
    assert isinstance(rhs_value(TheoremId.LI_UPPER, 2.0, 0.5, ctx), float)


def test_rhs_scalar_equals_array_element():
    # A point evaluated alone must carry the bits of the same point inside a
    # sweep's array; the upper formula's (|r| - m)^2 once squared a numpy
    # scalar by pow() where the array squared by multiplication.
    rng = CounterRng(7301)
    for trial in range(15000):
        sub = rng.split(trial)
        n = 1 + sub.next_u64() % 24
        t = sub.next_u64() % (n + 1)
        norm = 0.5 + 4.0 * sub.next_float()
        m = norm * 0.8 * sub.next_float()
        ctx = BoundContext(norm=norm, m=m, t=int(t), n=int(n), k=0.3 + 2.0 * sub.next_float())
        bp = 30.0 * np.array([sub.next_float() for _ in range(4)])
        ra = norm * np.array([sub.next_float() for _ in range(4)])
        for theorem in (TheoremId.MAIN_UPPER, TheoremId.MAIN_LOWER):
            row = rhs_value(theorem, bp, ra, ctx)
            for i in range(4):
                assert rhs_value(theorem, float(bp[i]), float(ra[i]), ctx) == row[i], (trial, theorem, i)


def test_point_functions_match_sweep_rows():
    spec = GeneratorSpec(n=4, t=3, zero_region=ZeroLocation.all_outside_or_on(1.5), seed=7302, count=6)
    grid = CircleGrid(1.5, 1024)
    zs = CircleGrid(1.0, 1024).points()
    for r in generate(spec):
        ctx = certify(TheoremId.MAIN_UPPER, r, grid).context
        _, _, rhs, margin = margin_curve(TheoremId.MAIN_UPPER, r, grid)
        for i in range(0, 1024, 97):
            assert _point_margins(TheoremId.MAIN_UPPER, r, ctx, zs[i])[1] == rhs[i]
            assert sharpness_gap(TheoremId.MAIN_UPPER, r, zs[i], k=1.5) == abs(margin[i])


def test_context_validation():
    with pytest.raises(ValueError):
        BoundContext(norm=0.0, m=0.0, t=0, n=1, k=1.0)
    with pytest.raises(ValueError):
        BoundContext(norm=1.0, m=-0.1, t=0, n=1, k=1.0)
    with pytest.raises(ValueError):
        BoundContext(norm=1.0, m=0.0, t=2, n=1, k=1.0)
    with pytest.raises(ValueError):
        BoundContext(norm=1.0, m=0.0, t=0, n=1, k=0.0)


# ---------------------------------------------------------------------------
# reduction lattice


def test_reduction_lattice():
    rng = CounterRng(4401)
    for trial in range(400):
        sub = rng.split(trial)
        ctx = random_context(sub)
        bp = 8.0 * sub.next_float()
        ra = ctx.norm * sub.next_float()

        at_unit = BoundContext(norm=ctx.norm, m=ctx.m, t=ctx.n, n=ctx.n, k=1.0)
        a = rhs_value(TheoremId.MAIN_UPPER, bp, ra, at_unit)
        b = rhs_value(TheoremId.AZIZ_SHAH_UPPER_97, bp, ra, at_unit)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

        full = BoundContext(norm=ctx.norm, m=ctx.m, t=ctx.n, n=ctx.n, k=1.0 + ctx.k)
        a = rhs_value(TheoremId.MAIN_UPPER_COR, bp, ra, full)
        b = rhs_value(TheoremId.AZIZ_ZARGER_99, bp, ra, full)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

        no_m = BoundContext(norm=ctx.norm, m=0.0, t=ctx.t, n=ctx.n, k=min(ctx.k, 1.0))
        a = rhs_value(TheoremId.MAIN_LOWER, bp, ra, no_m)
        b = rhs_value(TheoremId.AZIZ_SHAH_04, bp, ra, no_m)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

        a = rhs_value(TheoremId.MAIN_LOWER, bp, ra, at_unit)
        b = rhs_value(TheoremId.AZIZ_SHAH_LOWER_97, bp, ra, at_unit)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

        all_zeros = BoundContext(norm=ctx.norm, m=ctx.m, t=ctx.n, n=ctx.n, k=min(ctx.k, 1.0))
        a = rhs_value(TheoremId.AZIZ_SHAH_04, bp, ra, all_zeros)
        b = rhs_value(TheoremId.AZIZ_SHAH_04_COR, bp, ra, all_zeros)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_improved_upper_bound_never_above_classic():
    # The squared-deficiency upper arm stays at or below the plain m-arm
    # whenever t <= n and k >= 1, with equality at t=n, k=1; both arms are
    # read off one shared context so the comparison is apples to apples.
    rng = CounterRng(4402)
    for trial in range(400):
        sub = rng.split(trial)
        n = 1 + sub.next_u64() % 6
        t = sub.next_u64() % (n + 1)
        norm = 0.5 + 4.0 * sub.next_float()
        m = norm * 0.8 * sub.next_float()
        k = 1.0 + 2.0 * sub.next_float()
        ctx = BoundContext(norm=norm, m=m, t=int(t), n=int(n), k=k)
        bp = 8.0 * sub.next_float()
        ra = m + (norm - m) * sub.next_float()
        improved = rhs_value(TheoremId.MAIN_UPPER, bp, ra, ctx)
        classic = rhs_value(TheoremId.AZIZ_SHAH_UPPER_97, bp, ra, ctx)
        assert improved <= classic + 1e-12 * max(1.0, abs(classic))
        tight = BoundContext(norm=norm, m=m, t=int(n), n=int(n), k=1.0)
        improved = rhs_value(TheoremId.MAIN_UPPER, bp, ra, tight)
        classic = rhs_value(TheoremId.AZIZ_SHAH_UPPER_97, bp, ra, tight)
        assert abs(improved - classic) <= 1e-12 * max(1.0, abs(classic))


# ---------------------------------------------------------------------------
# hypothesis gating


def test_hypothesis_rejects_inside_zeros_for_upper_ids():
    # A pure Blaschke instance keeps all zeros inside the disk.
    poles = PoleSet([2.0, 1.5 + 0.5j])
    zeros = 1.0 / np.conj(poles.as_array())
    r = RationalFunction.from_zeros(zeros, poles)
    for theorem in (TheoremId.LI_UPPER, TheoremId.AZIZ_SHAH_UPPER_97):
        with pytest.raises(HypothesisViolated):
            check_hypothesis(theorem, r, 1.0)


def test_hypothesis_rejects_inner_zero_for_improved_upper():
    r = RationalFunction.from_zeros([0.5], PoleSet([2.0]))
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.MAIN_UPPER, r, 1.0)


def test_hypothesis_radius_rules():
    r = RationalFunction.from_zeros([-2.0], PoleSet([3.0]))
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.LI_UPPER, r, 1.5)  # unit-circle id
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.MAIN_UPPER, r, 0.5)  # needs k >= 1
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.MAIN_UPPER, r, np.inf)  # needs k finite
    with pytest.raises(HypothesisViolated):
        sharpness_gap(TheoremId.AZIZ_ZARGER_99, r, 1.0, k=np.inf)
    inner = RationalFunction.from_zeros([0.2], PoleSet([3.0]))
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.MAIN_LOWER, inner, 1.5)  # needs k <= 1
    check_hypothesis(TheoremId.MAIN_UPPER, r, 1.5)
    check_hypothesis(TheoremId.MAIN_LOWER, inner, 0.5)


def test_hypothesis_zero_count_rules():
    partial = RationalFunction.from_zeros([0.5], PoleSet([2.0, 3.0]))
    for theorem in (
        TheoremId.AZIZ_SHAH_LOWER_97,
        TheoremId.AZIZ_SHAH_04_COR,
        TheoremId.MAIN_LOWER_COR,
    ):
        with pytest.raises(HypothesisViolated):
            check_hypothesis(theorem, partial, 1.0)


def scaled_min_margin(theorem, r, k):
    """Worst margin / max(1, ||r||) of the id's formula on the unit grid, no hypothesis checked."""
    ctx = build_context(theorem, r, k, 1024)
    zs = CircleGrid(1.0, 1024).points()
    bprime = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), zs)
    rhs = rhs_value(theorem, bprime, np.abs(rat_eval(r, zs)), ctx)
    deriv = np.abs(rat_derivative_eval(r, zs))
    margin = rhs - deriv if profile(theorem).direction == "upper" else deriv - rhs
    return float(margin.min()) / max(1.0, ctx.norm)


def test_all_zeros_hypothesis_is_needed_by_lower_ids_only():
    # Instances with t = n - 1 that meet every other hypothesis of the id.
    # The t -> n pin claims more than the lower formula grants there, and
    # less than the upper formula grants.
    for theorem in TheoremId:
        prof = profile(theorem)
        if not prof.t_is_n:
            continue
        k = 1.0 if prof.k_is_one else (1.5 if prof.direction == "upper" else 0.7)
        region = hypothesis_zero_location(theorem, k)
        worst = min(
            scaled_min_margin(theorem, r, k)
            for n in (2, 3, 6)
            for r in generate(GeneratorSpec(n=n, t=n - 1, zero_region=region, seed=4610 + n, count=10))
        )
        assert prof.needs_all_zeros == (worst < -MARGIN_TOL), (theorem, worst)


def test_hypothesis_boundary_zero_rule():
    k = 1.5
    off = RationalFunction.from_zeros([2.5, 3.0], PoleSet([4.0, 5.0]))
    with pytest.raises(HypothesisViolated):
        check_hypothesis(TheoremId.MAIN_UPPER_COR, off, k)
    on = RationalFunction.from_zeros([-k, 3.0], PoleSet([4.0, 5.0]))
    check_hypothesis(TheoremId.MAIN_UPPER_COR, on, k)


# Every id's decisions, one row each: (check_hypothesis, make_extremal).
# A group is one case and its marks are k = 0.5, 0.7, 1.0, 1.5, with "+"
# for accepted and "." for refused.  The check_hypothesis cases, against the
# poles DECISION_POLES, are zeros outside with t < n and with t = n, inside
# with t < n and with t = n, on either side, on |z| = k with t < n and with
# t = n, and one zero at each of NEAR_CIRCLE_OFFSETS from |z| = k.  The
# make_extremal cases are a = 3 with (t, n) = (0, 3), (1, 3) and (3, 3).
DECISION_POLES = (2.2j, 3.0, -2.5j, -4.0)
DECISION_RADII = (0.5, 0.7, 1.0, 1.5)
# |b| - k for the near-circle zeros b, inside and outside the 1e-9 band.
NEAR_CIRCLE_OFFSETS = (5e-10, -5e-10, 2e-9, -2e-9)
EXPECTED_DECISIONS = {
    "li-upper": ("..+. ..+. .... .... .... ..+. ..+. ..+. ..+. ..+. ....", ".... .... ..+."),
    "li-lower": (".... .... ..+. ..+. .... ..+. ..+. ..+. ..+. .... ..+.", ".... .... ..+."),
    "aziz-shah-upper-97": ("..+. ..+. .... .... .... ..+. ..+. ..+. ..+. ..+. ....", ".... .... ..++"),
    "aziz-shah-lower-97": (".... .... .... ..+. .... .... ..+. .... .... .... ....", ".... .... +++."),
    "aziz-zarger-99": ("..++ ..++ .... .... .... ..++ ..++ ..++ ..++ ..++ ....", ".... .... ..++"),
    "aziz-shah-04": (".... .... +++. +++. .... +++. +++. +++. +++. .... +++.", ".... +++. +++."),
    "aziz-shah-04-cor": (".... .... .... +++. .... .... +++. .... .... .... ....", ".... .... +++."),
    "main-upper": ("..++ ..++ .... .... .... ..++ ..++ ..++ ..++ ..++ ....", ".... ..++ ..++"),
    "main-upper-cor": (".... .... .... .... .... ..++ ..++ ..++ ..++ .... ....", ".... ..++ ..++"),
    "main-lower": (".... .... +++. +++. .... +++. +++. +++. +++. .... +++.", ".... +++. +++."),
    "main-lower-cor": (".... .... .... +++. .... .... +++. .... .... .... ....", ".... .... +++."),
}


def _decision_zeros(k: float) -> list:
    return [
        [2.0, -1.8j],
        [2.0, -1.8j, 1.7, -1.6],
        [0.2, -0.3j],
        [0.2, -0.3j, 0.1, 0.25j],
        [0.2, 1.8, 0.4j, -1.9],
        [-k],
        [k, -k * 1j, k * 1j, -k],
    ] + [[-(k + offset)] for offset in NEAR_CIRCLE_OFFSETS]


def _marks(refusal, call, cases) -> str:
    """One group of marks per case, one mark per radius."""

    def mark(case, k):
        try:
            call(case, k)
        except refusal:
            return "."
        return "+"

    return " ".join("".join(mark(case, k) for k in DECISION_RADII) for case in cases)


def test_decision_table_for_every_id():
    assert set(EXPECTED_DECISIONS) == {theorem.value for theorem in TheoremId}
    poles = PoleSet(DECISION_POLES)
    for name, want in EXPECTED_DECISIONS.items():
        theorem = TheoremId.from_name(name)
        check = _marks(
            HypothesisViolated,
            lambda case, k: check_hypothesis(theorem, RationalFunction.from_zeros(_decision_zeros(k)[case], poles), k),
            range(11),
        )
        extremal = _marks(ParameterOutOfRange, lambda t, k: make_extremal(theorem, 3.0, k, t, 3), (0, 1, 3))
        assert (check, extremal) == want, name
    # The band that puts a zero on the circle for the zero side and the
    # boundary-zero hypothesis also makes m exactly 0.
    for k in DECISION_RADII:
        for offset in NEAR_CIRCLE_OFFSETS:
            r = RationalFunction.from_zeros([-(k + offset)], poles)
            assert (min_modulus_on_circle(r, k).value == 0.0) == (abs(offset) < 1e-9), (k, offset)


def test_readme_id_table_matches_profiles():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:]
    assert set(rows) == {theorem.value for theorem in TheoremId}
    for name, cells in rows.items():
        prof = profile(TheoremId.from_name(name))
        flags = (not prof.uses_m, prof.k_is_one, prof.t_is_n, prof.needs_all_zeros, prof.needs_boundary_zero)
        assert cells == [prof.direction] + ["yes" if flag else "" for flag in flags], name


def test_readme_tolerances_match_the_code():
    # Each tolerance quoted under "Margins and tolerances" and in the exit-code
    # paragraph names its constant, as `NAME` = value, and equals it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    margins = readme.split("\n## Margins and tolerances\n")[1].split("\n## ")[0]
    exit_codes = re.search(r"^Exit codes:.*?\n\n", readme, flags=re.MULTILINE | re.DOTALL).group(0)
    constants = {"MARGIN_TOL": MARGIN_TOL, "CLASSIFY_BAND": CLASSIFY_BAND, "DEGENERATE_GAP": DEGENERATE_GAP}
    named = set()
    for text in (margins, exit_codes):
        quoted = re.findall(r"\d+(?:\.\d+)?e[−-]\d+", text)
        pairs = re.findall(r"`(\w+)` = (\d+(?:\.\d+)?e[−-]\d+)", text)
        assert quoted and len(pairs) == len(quoted), text
        for name, value in pairs:
            assert float(value.replace("−", "-")) == constants[name], name
            named.add(name)
    assert named == set(constants)


def test_readme_python_blocks_run():
    # A name the README still uses after the code dropped or renamed it fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_only_main_upper_is_degenerate():
    r = RationalFunction(Polynomial([0.7]), PoleSet())
    refused = set()
    for theorem in TheoremId:
        try:
            build_context(theorem, r, 1.0, 256)
        except DegenerateBound:
            refused.add(theorem)
    assert refused == {TheoremId.MAIN_UPPER}


# ---------------------------------------------------------------------------
# context building and the degenerate guard


def test_context_minimum_circle_selection():
    k = 1.5
    r = RationalFunction.from_zeros([-2.0, 3.0], PoleSet([4.0, 5.0]))
    plain = build_context(TheoremId.LI_UPPER, r, 1.0, 1024)
    assert plain.m == 0.0
    unit = build_context(TheoremId.AZIZ_SHAH_UPPER_97, r, 1.0, 1024)
    assert unit.m == min_modulus_on_circle(r, 1.0, CircleGrid(1.0, 1024)).value and unit.m > 0
    scan = build_context(TheoremId.MAIN_UPPER, r, k, 1024)
    assert scan.m == min_modulus_on_circle(r, k, CircleGrid(k, 1024)).value and scan.m > 0
    assert scan.m != unit.m


@pytest.mark.parametrize("count", [1024, 65536])
def test_sweep_context_equals_public_scans(count):
    cases = [(TheoremId.MAIN_UPPER, k, n, 0.0) for k in (1.0, 1.5) for n in (1, 3, 24)]
    cases += [(TheoremId.MAIN_LOWER, k, n, 0.0) for k in (0.7, 1.0) for n in (1, 3, 24)]
    cases.append((TheoremId.MAIN_UPPER_COR, 1.5, 3, 1.0))
    for theorem, k, n, p_boundary in cases:
        region = hypothesis_zero_location(theorem, k)
        t = n - 1 if p_boundary else n
        (r,) = generate(GeneratorSpec(n=n, t=t, zero_region=region, seed=4600 + n, count=1, p_boundary=p_boundary))
        ctx = certify(theorem, r, CircleGrid(k, count)).context
        assert ctx.norm == sup_modulus_on_circle(r, 1.0, CircleGrid(1.0, count)).value, (theorem, k, n)
        assert ctx.m == min_modulus_on_circle(r, k, CircleGrid(k, count)).value, (theorem, k, n)


def test_small_minimum_is_kept_at_every_scale():
    # ||r|| = 2e-7 and m = 1.2e-14 on |z| = 0.7, with no zero near that circle:
    # m is a real minimum, not a 0, and 2^j r gets 2^j times every number.
    (r,) = generate(
        GeneratorSpec(n=24, t=24, zero_region=hypothesis_zero_location(TheoremId.MAIN_LOWER, 0.7), seed=4624, count=1)
    )
    grid = CircleGrid(0.7, 4096)
    base = certify(TheoremId.MAIN_LOWER, r, grid)
    assert base.context.m > 0
    for j in (-60, -20, 20):
        lead = r.numer.coeffs[-1] * 2.0**j
        got = certify(TheoremId.MAIN_LOWER, RationalFunction.from_zeros(r.zeros(), r.poles, lead), grid)
        assert got.context.m == np.ldexp(base.context.m, j), j
        assert got.context.norm == np.ldexp(base.context.norm, j), j
        assert got.min_margin == np.ldexp(base.min_margin, j), j


def test_m_on_the_unit_circle_comes_from_the_sweep_pass(monkeypatch):
    # When m's circle is |z| = 1 the sweep's own pass over the poles gives |r|
    # on the grid, so no scan evaluates r on a whole grid again; only the
    # refinement's REFINE_POINTS-point steps call rat_eval.  On another circle
    # the min scan evaluates its own grid once.
    sizes = []
    real = circlescan.rat_eval

    def counted(r, z):
        sizes.append(np.size(z))
        return real(r, z)

    monkeypatch.setattr(circlescan, "rat_eval", counted)
    for theorem, k, grid_calls in (
        (TheoremId.AZIZ_SHAH_LOWER_97, 1.0, 0),
        (TheoremId.MAIN_UPPER, 1.0, 0),
        (TheoremId.MAIN_LOWER, 1.0, 0),
        (TheoremId.MAIN_UPPER, 1.5, 1),
    ):
        (r,) = generate(GeneratorSpec(n=4, t=4, zero_region=hypothesis_zero_location(theorem, k), seed=4700, count=1))
        sizes.clear()
        certify(theorem, r, CircleGrid(k, 1024))
        assert sizes and sizes.count(1024) == grid_calls, (theorem, k, sizes)
        assert set(sizes) <= {1024, circlescan.REFINE_POINTS}, (theorem, k, sizes)


def test_degenerate_guard_constant():
    r = RationalFunction(Polynomial([0.7]), PoleSet())
    with pytest.raises(DegenerateBound):
        build_context(TheoremId.MAIN_UPPER, r, 1.0, 1024)
    with pytest.raises(DegenerateBound):
        certify(TheoremId.MAIN_UPPER, r, CircleGrid(1.0, 1024))


def test_constant_certifies_lower_arm_trivially():
    # No poles, no zeros: the lower right-hand side collapses to 0 and
    # the derivative is identically 0, so the verdict is a clean pass.
    r = RationalFunction(Polynomial([0.7]), PoleSet())
    verdict = certify(TheoremId.MAIN_LOWER, r, CircleGrid(1.0, 256))
    assert verdict.passed
    assert verdict.min_margin == 0.0


# ---------------------------------------------------------------------------
# certification sweeps


def test_certify_refuses_pure_blaschke_for_upper():
    poles = PoleSet([2.0])
    r = RationalFunction.from_zeros([0.5], poles)
    with pytest.raises(HypothesisViolated):
        certify(TheoremId.LI_UPPER, r, CircleGrid(1.0, 1024))
    # B itself has norm = m = 1, so the context would be degenerate, but the
    # hypothesis is checked first: its zeros lie inside the unit disk.
    b = blaschke_offset_family(PoleSet([2.0, 3.0]), 0.0)
    with pytest.raises(HypothesisViolated):
        certify(TheoremId.MAIN_UPPER, b, CircleGrid(1.0, 1024))
    with pytest.raises(HypothesisViolated):
        sharpness_gap(TheoremId.MAIN_UPPER, b, 1.0, k=1.0)


def test_certify_refuses_pole_next_to_unit_circle():
    # Poles within 1e-9 of the unit circle are refused before any sweep, so
    # no sweep point can come within the 1e-12 pole cutoff of evaluation.
    r = RationalFunction(Polynomial([1.0]), PoleSet([1.0 + 1e-13]))
    with pytest.raises(PoleOnCircle):
        certify(TheoremId.LI_UPPER, r, CircleGrid(1.0, 1024))


@pytest.mark.parametrize(
    "theorem, k, r",
    [
        (TheoremId.LI_UPPER, 1.0, RationalFunction.from_zeros([-2] * 3, PoleSet([3] * 3), 1e307)),
        (TheoremId.MAIN_UPPER, 1.5, RationalFunction.from_zeros([1e200], PoleSet([3]))),
    ],
    ids=["leading-1e307", "zero-1e200"],
)
def test_certify_refuses_overflow_without_warnings(theorem, k, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            certify(theorem, r, CircleGrid(k, 1024))


def test_certify_huge_pole_against_50_digits():
    # A pole of 1e200 leaves w, |B'| and every margin a double: sup |r| is
    # 3/(a - 1) at z = 1, and li-upper's margin is |B'| ||r|| / 2 - |r'|.
    mpmath = pytest.importorskip("mpmath")
    r = RationalFunction.from_zeros([-2.0], PoleSet([1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = certify(TheoremId.LI_UPPER, r, CircleGrid(1.0, 1024))
    assert verdict.passed
    with mpmath.workdps(50):
        a = mpmath.mpf(1e200)
        z = mpmath.mpc(complex(np.exp(1j * verdict.worst_theta)))
        norm = 3 / (a - 1)
        margin = (a**2 - 1) / abs(z - a) ** 2 * norm / 2 - abs((a + 2) / (z - a) ** 2)
        assert abs(verdict.context.norm - norm) <= 1e-15 * norm
        assert abs(verdict.min_margin - margin) <= 1e-15 * margin


def test_certify_extremal_tight_at_angle_zero():
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    verdict = certify(TheoremId.MAIN_UPPER, r, CircleGrid(1.0, 1024))
    assert verdict.passed
    assert verdict.violations == 0
    assert verdict.skipped_points == 0
    assert abs(verdict.min_margin) <= 1e-9
    wrap = min(verdict.worst_theta, 2 * np.pi - verdict.worst_theta)
    assert wrap <= 2 * np.pi / 1024 + 1e-12


def test_certify_random_instances_all_theorems():
    # Small in-process version of the campaign sweep: every id, valid
    # instances, zero violations.
    cases = [
        (TheoremId.LI_UPPER, "out", 1.0, None),
        (TheoremId.AZIZ_SHAH_UPPER_97, "out", 1.0, None),
        (TheoremId.AZIZ_ZARGER_99, "out", 1.5, None),
        (TheoremId.MAIN_UPPER, "out", 1.5, "full"),
        (TheoremId.MAIN_UPPER, "out", 1.0, "full"),
        (TheoremId.LI_LOWER, "in", 1.0, None),
        (TheoremId.AZIZ_SHAH_LOWER_97, "in", 1.0, "full"),
        (TheoremId.AZIZ_SHAH_04, "in", 0.7, None),
        (TheoremId.AZIZ_SHAH_04_COR, "in", 0.7, "full"),
        (TheoremId.MAIN_LOWER, "in", 0.7, "full"),
        (TheoremId.MAIN_LOWER_COR, "in", 0.7, "full"),
    ]
    for theorem, side, k, fullness in cases:
        region = (
            ZeroLocation.all_outside_or_on(k)
            if side == "out"
            else ZeroLocation.all_inside_or_on(k)
        )
        n = 3
        t = n if fullness == "full" else 2
        p_boundary = 1.0 if theorem is TheoremId.MAIN_UPPER_COR else 0.0
        spec = GeneratorSpec(
            n=n, t=t, zero_region=region, seed=4500, count=40, p_boundary=p_boundary
        )
        for r in generate(spec):
            verdict = certify(theorem, r, CircleGrid(k, 1024))
            assert verdict.violations == 0, (theorem, verdict.min_margin)


def test_wide_certify_stays_in_a_few_megabytes():
    # Grid passes run EVAL_BLOCK points at a time; one pass over the whole
    # 65536-point grid peaks above 10 MiB with its n = 24 pole temporaries.
    spec = GeneratorSpec(n=24, t=24, zero_region=ZeroLocation.all_inside_or_on(0.7), seed=4600, count=1)
    (r,) = generate(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        certify(TheoremId.MAIN_LOWER, r, CircleGrid(0.7, 65536))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 6 * 2**20


def test_certify_keeps_no_grid_after_the_call():
    # 2^17 points is a grid count no other test uses, so an array cached per
    # count in a module would still be held after the call.  The grid's own
    # unit points go with the grid, a temporary here.
    spec = GeneratorSpec(n=3, t=3, zero_region=ZeroLocation.all_inside_or_on(0.7), seed=4610, count=1)
    (r,) = generate(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verdict = certify(TheoremId.MAIN_LOWER, r, CircleGrid(0.7, 1 << 17))
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert kept < 64 * 2**10


def test_one_shared_grid_gives_the_verdicts_of_fresh_grids():
    # A campaign certifies every instance on one grid, whose unit points are
    # formed once; each verdict must equal the one from a grid of its own.
    for theorem in UPPER_IDS + LOWER_IDS:
        prof = profile(theorem)
        k = 1.0 if prof.k_is_one else 1.5 if prof.direction == "upper" else 0.7
        p_boundary = 1.0 if prof.needs_boundary_zero else 0.0
        spec = GeneratorSpec(
            n=4, t=4, zero_region=hypothesis_zero_location(theorem, k), seed=4620, count=20, p_boundary=p_boundary
        )
        shared = CircleGrid(k, 1024)
        for r in generate(spec):
            outcomes = []
            for grid in (shared, CircleGrid(k, 1024)):
                try:
                    outcomes.append(certify(theorem, r, grid))
                except DegenerateBound as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], theorem


def overflow_edge_instance(ratio):
    # Poles a, a, 1.01 on the positive real axis, with |w(-1)| = (a + 1)^2 * 2.01
    # equal to ratio times the largest double: the bound prod_j (|a_j| + 1)
    # that the sweep checks is |w| at the grid point z = -1 itself.
    a = math.sqrt(ratio / 2.01) * math.sqrt(sys.float_info.max) - 1.0
    return RationalFunction.from_zeros([-2.0, 3.0], PoleSet([a, a, 1.01]), 1e300)


@pytest.mark.parametrize(
    "theorem, k",
    [
        (TheoremId.LI_UPPER, 1.0),
        (TheoremId.MAIN_UPPER, 1.0),
        (TheoremId.AZIZ_SHAH_UPPER_97, 1.0),
        (TheoremId.MAIN_UPPER, 1.5),
        (TheoremId.AZIZ_ZARGER_99, 1.5),
    ],
)
def test_certify_refuses_where_w_overflows(theorem, k):
    # Where w leaves the double range r = p/w reads 0 and w'/w has no
    # digits, yet the margins stay finite, so m and the margins would be
    # junk.  The sweep refuses from within a rounding slack of the first
    # grid point whose w overflows; main-upper at k = 1.5 refuses on m's circle.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        over = overflow_edge_instance(1.0 + 1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            assert rat_eval(over, -1.0) == 0.0
        with pytest.raises(ParameterOutOfRange, match="double range"):
            certify(theorem, over, CircleGrid(k, 1024))
        under = overflow_edge_instance(1.0 - 1e-12)
        assert rat_eval(under, -1.0) != 0.0
        assert certify(theorem, under, CircleGrid(1.0, 1024)).context.norm > 0.0


def test_certify_boundary_zero_corollary():
    spec = GeneratorSpec(
        n=3,
        t=2,
        zero_region=ZeroLocation.all_outside_or_on(1.5),
        seed=4501,
        count=40,
        p_boundary=1.0,
    )
    for r in generate(spec):
        verdict = certify(TheoremId.MAIN_UPPER_COR, r, CircleGrid(1.5, 1024))
        assert verdict.violations == 0


def test_m_refined_bounds_fail_below_full_zero_count():
    # With fewer zeros than poles and a positive minimum modulus, the
    # m-refined two-sided pair is genuinely violated; the sweeps surface
    # that honestly rather than masking it.
    spec_up = GeneratorSpec(
        n=3, t=1, zero_region=ZeroLocation.all_outside_or_on(1.0), seed=4502, count=60
    )
    hits = 0
    for r in generate(spec_up):
        verdict = certify(TheoremId.MAIN_UPPER, r, CircleGrid(1.0, 1024))
        hits += verdict.violations > 0
    assert hits > 0

    spec_lo = GeneratorSpec(
        n=3, t=1, zero_region=ZeroLocation.all_inside_or_on(1.0), seed=4503, count=60
    )
    hits = 0
    for r in generate(spec_lo):
        verdict = certify(TheoremId.MAIN_LOWER, r, CircleGrid(1.0, 1024))
        hits += verdict.violations > 0
    assert hits > 0


def test_margin_curve_shape_and_consistency():
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    grid = CircleGrid(1.0, 64)
    thetas, deriv, rhs, margin = margin_curve(TheoremId.MAIN_UPPER, r, grid)
    assert thetas.shape == deriv.shape == rhs.shape == margin.shape == (64,)
    assert thetas[0] == 0.0
    assert np.allclose(margin, rhs - deriv, atol=0, rtol=0)
    assert abs(margin[0]) <= 1e-12


def test_intermediate_split_inequality():
    # The quadratic split behind the improved upper arm, at full zero count.
    rng = CounterRng(4404)
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    zs = np.exp(1j * thetas)
    for trial in range(20):
        sub = rng.split(trial)
        n = 1 + sub.next_u64() % 4
        k = 1.0 + sub.next_float()
        spec = GeneratorSpec(
            n=n,
            t=n,
            zero_region=ZeroLocation.all_outside_or_on(k),
            seed=sub.next_u64() % (1 << 32),
            count=1,
        )
        (r,) = generate(spec)
        ctx = build_context(TheoremId.MAIN_UPPER, r, k, 1024)
        bp = blaschke_deriv_modulus_on_T1(BlaschkeProduct(r.poles), zs)
        ra = np.abs(rat_eval(r, zs))
        rp = np.abs(rat_derivative_eval(r, zs))
        coef = (n * (1.0 + k) - 2.0 * r.t) / (1.0 + k)
        lhs = np.sqrt(rp**2 + coef * (ra - ctx.m) ** 2 * bp)
        rhs = bp * ctx.norm - rp - ctx.m * bp
        scale = max(1.0, ctx.norm)
        assert float((rhs - lhs).min()) >= -1e-8 * scale


# ---------------------------------------------------------------------------
# equality families


def test_extremal_anchor_quantities():
    r, z = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    assert z == 1.0 + 0.0j
    ctx = build_context(TheoremId.MAIN_UPPER, r, 1.0, 4096)
    assert abs(ctx.norm - 1.0) <= 1e-12
    assert ctx.m == 0.0
    b = BlaschkeProduct(r.poles)
    assert abs(blaschke_deriv_modulus_on_T1(b, 1.0) - 4.0) <= 1e-12
    assert abs(abs(rat_derivative_eval(r, 1.0)) - 2.0) <= 1e-12
    assert sharpness_gap(TheoremId.MAIN_UPPER, r, z, k=1.0) <= 1e-9


def test_extremal_gap_positive_off_anchor():
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    assert sharpness_gap(TheoremId.MAIN_UPPER, r, 1j, k=1.0) > 1e-3


def test_extremal_power_family_sweep():
    cases = [
        (TheoremId.MAIN_UPPER, 2.0, 1.5, 1, 2),
        (TheoremId.MAIN_UPPER, 5.0, 1.0, 3, 4),
        (TheoremId.MAIN_UPPER_COR, 2.0, 1.5, 2, 3),
        (TheoremId.AZIZ_ZARGER_99, 3.0, 2.0, 2, 2),
        (TheoremId.AZIZ_SHAH_04, 2.0, 0.5, 1, 3),
        (TheoremId.AZIZ_SHAH_04_COR, 3.0, 0.7, 2, 2),
        (TheoremId.MAIN_LOWER, 2.0, 1.0, 1, 1),
        (TheoremId.MAIN_LOWER, 3.0, 0.5, 2, 2),
        (TheoremId.MAIN_LOWER_COR, 1.5, 0.3, 4, 4),
    ]
    for theorem, a, k, t, n in cases:
        r, z = make_extremal(theorem, a, k, t, n)
        assert sharpness_gap(theorem, r, z, k=k) <= 1e-9, theorem


def test_extremal_real_pole_given_as_complex():
    r, z = make_extremal(TheoremId.MAIN_UPPER, 3 + 0j, 1.5, 2, 2)
    want, want_z = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.5, 2, 2)
    assert z == want_z and r.poles == want.poles
    assert np.array_equal(r.numer.coeffs, want.numer.coeffs) and np.array_equal(r.zeros(), want.zeros())


def test_extremal_offset_family():
    for theorem, h in [
        (TheoremId.LI_UPPER, 1.0),
        (TheoremId.LI_LOWER, 1.0),
        (TheoremId.AZIZ_SHAH_UPPER_97, 1.0),
        (TheoremId.AZIZ_SHAH_UPPER_97, 2.5),
        (TheoremId.AZIZ_SHAH_LOWER_97, 0.4),
        (TheoremId.AZIZ_SHAH_LOWER_97, 1.0),
    ]:
        r, z = make_extremal(theorem, 2.0, h, 2, 2)
        assert sharpness_gap(theorem, r, z) <= 1e-9, (theorem, h)


def test_offset_family_values():
    # B + h at z = 1 with real poles evaluates to 1 + h.
    poles = PoleSet([2.0, 3.0])
    r = blaschke_offset_family(poles, 1.5)
    assert abs(rat_eval(r, 1.0) - 2.5) <= 1e-12
    b = BlaschkeProduct(poles)
    for theta in (0.7, 2.1, 4.4):
        z = complex(np.cos(theta), np.sin(theta))
        want = blaschke_eval(b, z) + 1.5
        assert abs(rat_eval(r, z) - want) <= 1e-12


def test_make_extremal_parameter_gating():
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_UPPER, 1.0, 1.0, 1, 1)  # pole not above 1
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_UPPER, np.inf, 1.5, 2, 2)  # pole not finite
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_UPPER, 3.0, np.inf, 2, 2)  # radius not finite
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_UPPER, 3.0, 0.5, 1, 1)  # radius below 1
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_LOWER, 3.0, 1.5, 1, 1)  # radius above 1
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 0, 2)  # power family needs a zero
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.AZIZ_ZARGER_99, 3.0, 1.5, 1, 2)  # n-fold family
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.LI_UPPER, 2.0, 0.5, 1, 1)  # offset below 1
    with pytest.raises(ParameterOutOfRange):
        make_extremal(TheoremId.AZIZ_SHAH_LOWER_97, 2.0, 1.5, 1, 1)  # offset above 1
    for t, n in [(1, 2.5), (0, -1), (1.5, 2), (-1, 2)]:
        with pytest.raises(ParameterOutOfRange):
            make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, t, n)  # counts not integers in range


@pytest.mark.parametrize("h", [-0.5, np.nan])
def test_offset_family_rejects_bad_offset(h):
    with pytest.raises(ParameterOutOfRange):
        blaschke_offset_family(PoleSet([2.0, 3.0]), h)


# ---------------------------------------------------------------------------
# metamorphic properties: conjugation and rotation of an instance


def _hypothesis_instances(theorem: TheoremId, seed: int, count: int) -> tuple:
    """Instances on the theorem's own hypothesis region, and the radius k."""
    prof = profile(theorem)
    k = 1.0 if prof.k_is_one else 1.5 if prof.direction == "upper" else 0.7
    n = 3
    t = n - 1 if prof.needs_boundary_zero else n
    spec = GeneratorSpec(
        n=n,
        t=t,
        zero_region=hypothesis_zero_location(theorem, k),
        seed=seed,
        count=count,
        p_boundary=1.0 if prof.needs_boundary_zero else 0.0,
    )
    return generate(spec), k


def _assert_rows_match(theorem, r, moved, grid, row_of):
    """Row row_of[i] of ``moved``'s margin curve equals row i of r's, to 1e-12 of the curve's scale."""
    _, deriv_abs, rhs, margin = margin_curve(theorem, r, grid)
    _, deriv_moved, rhs_moved, margin_moved = margin_curve(theorem, moved, grid)
    scale = float(np.max(np.abs(rhs)) + np.max(deriv_abs))
    for before, after in ((deriv_abs, deriv_moved), (rhs, rhs_moved), (margin, margin_moved)):
        assert float(np.max(np.abs(after[row_of] - before))) <= 1e-12 * scale, theorem


@pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda theorem: theorem.value)
def test_conjugation_reflects_the_margin_curve(theorem):
    # r~(z) = conj(r(conj z)): the poles, the zeros and `leading` conjugated.
    # Grid point i of the unit circle reflects to point -i mod N.
    count = 1024
    rows = np.arange(count)
    instances, k = _hypothesis_instances(theorem, 4800, 5)
    for r in instances:
        moved = RationalFunction.from_zeros(
            np.conj(r.zeros()), PoleSet(np.conj(r.poles.as_array())), np.conj(r.numer.coeffs[-1])
        )
        _assert_rows_match(theorem, r, moved, CircleGrid(k, count), (-rows) % count)


@pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda theorem: theorem.value)
def test_rotation_by_one_grid_step_shifts_the_margin_curve(theorem):
    # With w = exp(2 pi i / N), poles and zeros times w and `leading` times
    # w^(n - t) give r~(w z) = r(z): row i moves to row i + 1.
    count = 1024
    rows = np.arange(count)
    w = np.exp(2j * np.pi / count)
    instances, k = _hypothesis_instances(theorem, 4801, 5)
    for r in instances:
        lead = r.numer.coeffs[-1] * w ** (r.n - r.t)
        moved = RationalFunction.from_zeros(w * r.zeros(), PoleSet(w * r.poles.as_array()), lead)
        _assert_rows_match(theorem, r, moved, CircleGrid(k, count), (rows + 1) % count)
