"""Instance generation streams, campaign reports, and their reproducibility."""

import json

import numpy as np
import pytest

from ratbound import (
    CircleGrid,
    DegenerateBound,
    GeneratorSpec,
    HypothesisMismatch,
    SpecInvalid,
    TheoremId,
    ZeroLocation,
    build_context,
    certify,
    generate,
    instance_from_dict,
    instance_to_dict,
    run_campaign,
)

OUT = ZeroLocation.all_outside_or_on(1.0)


def spec_kwargs(**over):
    base = dict(n=3, t=3, zero_region=OUT, seed=99, count=5)
    base.update(over)
    return base


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_fields():
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(n=0))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(t=4))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(t=-1))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(seed=-1))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(seed=2**64))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(count=0))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(zero_region="outside"))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(pole_annulus=(1.0, 3.0)))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(pole_annulus=(2.0, 2.0)))
    with pytest.raises(SpecInvalid):
        GeneratorSpec(**spec_kwargs(p_boundary=1.5))


def test_spec_warns_on_tight_pole_floor():
    with pytest.warns(RuntimeWarning):
        GeneratorSpec(**spec_kwargs(pole_annulus=(1.02, 3.0)))


# ---------------------------------------------------------------------------
# generation


def test_generate_respects_spec():
    spec = GeneratorSpec(
        n=4, t=2, zero_region=ZeroLocation.all_outside_or_on(1.5), seed=7, count=20
    )
    for r in generate(spec):
        assert r.n == 4
        assert r.t == 2
        moduli = np.abs(r.poles.as_array())
        assert np.all(moduli >= 1.1) and np.all(moduli <= 3.0)
        assert np.all(np.abs(r.zeros()) >= 1.5 - 1e-12)
        assert abs(abs(r.numer.coeffs[-1]) - 1.0) <= 1e-12


def test_generate_inside_region():
    spec = GeneratorSpec(
        n=3, t=3, zero_region=ZeroLocation.all_inside_or_on(0.7), seed=8, count=20
    )
    for r in generate(spec):
        assert np.all(np.abs(r.zeros()) <= 0.7 + 1e-12)


def test_generate_is_deterministic():
    spec = GeneratorSpec(**spec_kwargs(count=10))
    first = generate(spec)
    second = generate(spec)
    for a, b in zip(first, second):
        assert np.array_equal(a.numer.coeffs, b.numer.coeffs)
        assert np.array_equal(a.poles.as_array(), b.poles.as_array())


def test_instance_stream_is_count_independent():
    # Instance i only consumes the split(i) child stream, so a longer
    # run reproduces a shorter run point for point.
    short = generate(GeneratorSpec(**spec_kwargs(count=3)))
    long = generate(GeneratorSpec(**spec_kwargs(count=10)))
    for a, b in zip(short, long):
        assert np.array_equal(a.numer.coeffs, b.numer.coeffs)
        assert np.array_equal(a.poles.as_array(), b.poles.as_array())


def test_boundary_pinning():
    spec = GeneratorSpec(
        n=2,
        t=2,
        zero_region=ZeroLocation.all_outside_or_on(1.5),
        seed=11,
        count=10,
        p_boundary=1.0,
    )
    for r in generate(spec):
        assert np.all(np.abs(np.abs(r.zeros()) - 1.5) <= 1e-12)
        ctx = build_context(TheoremId.MAIN_UPPER, r, 1.5, 1024)
        assert ctx.m == 0.0


def test_instance_dict_round_trip():
    spec = GeneratorSpec(**spec_kwargs(count=4, t=2))
    for r in generate(spec):
        doc = instance_to_dict(r, 1.25)
        parsed = json.loads(json.dumps(doc))
        back, k = instance_from_dict(parsed)
        assert k == 1.25
        assert np.allclose(back.numer.coeffs, r.numer.coeffs, rtol=0, atol=1e-15)
        assert np.array_equal(back.poles.as_array(), r.poles.as_array())
    doc = instance_to_dict(generate(spec)[0])
    back, k = instance_from_dict(doc)
    assert k is None


# ---------------------------------------------------------------------------
# campaign gating


def test_campaign_rejects_region_mismatch():
    grid = CircleGrid(1.0, 256)
    inside = GeneratorSpec(
        n=2, t=2, zero_region=ZeroLocation.all_inside_or_on(1.0), seed=1, count=2
    )
    with pytest.raises(HypothesisMismatch):
        run_campaign(inside, TheoremId.MAIN_UPPER, grid)


def test_campaign_rejects_radius_mismatch():
    spec = GeneratorSpec(
        n=2, t=2, zero_region=ZeroLocation.all_outside_or_on(1.5), seed=1, count=2
    )
    with pytest.raises(HypothesisMismatch):
        run_campaign(spec, TheoremId.MAIN_UPPER, CircleGrid(2.0, 256))


def test_campaign_rejects_partial_zero_count_for_full_ids():
    spec = GeneratorSpec(
        n=3, t=2, zero_region=ZeroLocation.all_inside_or_on(1.0), seed=1, count=2
    )
    with pytest.raises(HypothesisMismatch):
        run_campaign(spec, TheoremId.AZIZ_SHAH_LOWER_97, CircleGrid(1.0, 256))


def test_campaign_rejects_unpinned_boundary_zero_ids():
    grid = CircleGrid(1.5, 256)
    spec = GeneratorSpec(
        n=2, t=2, zero_region=ZeroLocation.all_outside_or_on(1.5), seed=1, count=2
    )
    with pytest.raises(HypothesisMismatch):
        run_campaign(spec, TheoremId.MAIN_UPPER_COR, grid)
    pinned = GeneratorSpec(
        n=2,
        t=2,
        zero_region=ZeroLocation.all_outside_or_on(1.5),
        seed=1,
        count=2,
        p_boundary=1.0,
    )
    report = run_campaign(pinned, TheoremId.MAIN_UPPER_COR, grid)
    assert report.violations == 0


# ---------------------------------------------------------------------------
# campaign reports


def test_campaign_report_contents():
    spec = GeneratorSpec(
        n=2, t=2, zero_region=ZeroLocation.all_outside_or_on(1.0), seed=42, count=25
    )
    report = run_campaign(spec, TheoremId.MAIN_UPPER, CircleGrid(1.0, 512))
    assert report.instances == 25
    assert report.certified + report.degenerate_count == 25
    assert report.violations == 0
    assert report.skipped_points == 0
    assert report.min_margin is not None and report.min_margin > -1e-9
    assert report.worst_instance is not None
    assert report.worst_instance["k"] == 1.0


def test_campaign_worst_instance_reproduces():
    spec = GeneratorSpec(
        n=3, t=3, zero_region=ZeroLocation.all_outside_or_on(1.0), seed=43, count=25
    )
    grid = CircleGrid(1.0, 512)
    report = run_campaign(spec, TheoremId.MAIN_UPPER, grid)
    doc = dict(report.worst_instance)
    recorded = doc.pop("min_margin")
    r, k = instance_from_dict(doc)
    verdict = certify(TheoremId.MAIN_UPPER, r, CircleGrid(k, 512))
    assert abs(verdict.min_margin - recorded) <= 1e-12
    assert abs(verdict.min_margin - report.min_margin) <= 1e-12


def test_campaign_tally_matches_one_by_one():
    # With t < n main-upper is violated, so the streamed counts add up real violations.
    spec = GeneratorSpec(
        n=3, t=1, zero_region=ZeroLocation.all_outside_or_on(1.5), seed=9, count=25
    )
    grid = CircleGrid(1.5, 1024)
    report = run_campaign(spec, TheoremId.MAIN_UPPER, grid)
    verdicts, degenerate = [], 0
    for r in generate(spec):
        try:
            verdicts.append(certify(TheoremId.MAIN_UPPER, r, grid))
        except DegenerateBound:
            degenerate += 1
    assert report.violations == sum(v.violations for v in verdicts) > 0
    assert report.certified == len(verdicts)
    assert report.degenerate_count == degenerate
    assert report.skipped_points == sum(v.skipped_points for v in verdicts)
    assert report.min_margin == report.worst_instance["min_margin"]
    assert report.min_margin == min(v.min_margin for v in verdicts)


def test_campaign_json_is_stable():
    spec = GeneratorSpec(
        n=2, t=2, zero_region=ZeroLocation.all_inside_or_on(0.7), seed=44, count=10
    )
    grid = CircleGrid(0.7, 256)
    one = run_campaign(spec, TheoremId.MAIN_LOWER, grid).to_json()
    two = run_campaign(spec, TheoremId.MAIN_LOWER, grid).to_json()
    assert one == two
    assert one.endswith("\n")
    payload = json.loads(one)
    assert list(payload) == sorted(payload)
    assert payload["theorem"] == "main-lower"
    assert payload["grid"] == {"k": 0.7, "count": 256}
    assert payload["instances"] == 10
