"""Random-instance generation and bulk certification campaigns.

Instance streams are fully determined by the generator spec: instance i
draws from the child stream split(i) of the seed's root stream, so a
campaign report is byte-for-byte reproducible for a fixed spec and the
same instance can be regenerated in isolation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import TheoremId, certify, hypothesis_zero_location, profile
from .circlescan import CircleGrid
from .errors import DegenerateBound, HypothesisMismatch, SpecInvalid
from .ratfun import MODE_OUTSIDE, PoleSet, RationalFunction, ZeroLocation
from .rng import CounterRng

# Poles below this modulus put the sweep circles badly close to a pole.
COMFORTABLE_POLE_FLOOR = 1.1
HARD_POLE_FLOOR = 1.01
# Generated points keep this distance from scan circles and one another.
SEPARATION = 1e-6
# Rejected draws allowed per pole or zero before the spec is refused.  A
# draw rejected with probability p runs out with probability p**DRAW_BUDGET,
# so only a region almost wholly within SEPARATION of what it must avoid does.
DRAW_BUDGET = 100_000


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one reproducible instance stream."""

    n: int
    t: int
    zero_region: ZeroLocation
    seed: int
    count: int
    pole_annulus: tuple = (COMFORTABLE_POLE_FLOOR, 3.0)
    p_boundary: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise SpecInvalid("pole count n must be an integer >= 1")
        if not (isinstance(self.t, int) and 0 <= self.t <= self.n):
            raise SpecInvalid("zero count t must be an integer in [0, n]")
        if not isinstance(self.zero_region, ZeroLocation):
            raise SpecInvalid("zero_region must be a ZeroLocation")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise SpecInvalid("seed must fit in 64 bits")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise SpecInvalid("instance count must be an integer >= 1")
        lo, hi = self.pole_annulus
        # CounterRng.next_radius squares r_max.
        if not (np.isfinite(lo) and np.isfinite(float(hi) * float(hi)) and HARD_POLE_FLOOR <= lo < hi):
            raise SpecInvalid(f"pole annulus needs {HARD_POLE_FLOOR} <= r_min < r_max with r_max**2 finite")
        if lo < COMFORTABLE_POLE_FLOOR:
            warnings.warn(
                f"pole annulus floor {lo} below {COMFORTABLE_POLE_FLOOR} degrades conditioning",
                RuntimeWarning,
                stacklevel=2,
            )
        if not (np.isfinite(self.p_boundary) and 0.0 <= self.p_boundary <= 1.0):
            raise SpecInvalid("p_boundary must lie in [0, 1]")


def _draw_pole(rng: CounterRng, lo: float, hi: float, avoid_radii) -> complex:
    for _ in range(DRAW_BUDGET):
        rho = rng.next_radius(lo, hi)
        if all(abs(rho - k) >= SEPARATION for k in avoid_radii):
            return rho * np.exp(1j * rng.next_angle())
    raise SpecInvalid(f"no pole radius in [{lo}, {hi}] keeps {SEPARATION} off the scan radii in {DRAW_BUDGET} draws")


def _draw_zero(rng: CounterRng, region: ZeroLocation, p_boundary: float, poles) -> complex:
    for _ in range(DRAW_BUDGET):
        if rng.next_float() < p_boundary:
            rho = region.k
        elif region.mode == MODE_OUTSIDE:
            rho = rng.next_radius(region.k, region.k + 2.0)
        else:
            rho = region.k * np.sqrt(rng.next_float())
        z = rho * np.exp(1j * rng.next_angle())
        if all(abs(z - a) >= SEPARATION for a in poles):
            return complex(z)
    raise SpecInvalid(f"no zero keeps {SEPARATION} off the poles in {DRAW_BUDGET} draws")


def generate(spec: GeneratorSpec) -> list:
    """Instances drawn from the spec's stream, in stream order."""
    root = CounterRng(spec.seed)
    lo, hi = float(spec.pole_annulus[0]), float(spec.pole_annulus[1])
    avoid = {1.0, spec.zero_region.k}
    out = []
    for i in range(spec.count):
        rng = root.split(i)
        poles = [_draw_pole(rng, lo, hi, avoid) for _ in range(spec.n)]
        zeros = [_draw_zero(rng, spec.zero_region, spec.p_boundary, poles) for _ in range(spec.t)]
        leading = np.exp(1j * rng.next_angle())
        out.append(RationalFunction.from_zeros(zeros, PoleSet(poles), complex(leading)))
    return out


def instance_to_dict(r: RationalFunction, k: float | None = None) -> dict:
    doc = {
        "poles": [[a.real, a.imag] for a in r.poles.poles],
        "zeros": [[float(b.real), float(b.imag)] for b in r.zeros()],
        "leading": [float(r.numer.coeffs[-1].real), float(r.numer.coeffs[-1].imag)],
    }
    if k is not None:
        doc["k"] = float(k)
    return doc


def instance_from_dict(doc: dict) -> tuple:
    """(RationalFunction, k or None) from the plain-list form."""
    poles = PoleSet([complex(re, im) for re, im in doc["poles"]])
    zeros = [complex(re, im) for re, im in doc["zeros"]]
    lead = complex(doc["leading"][0], doc["leading"][1])
    k = float(doc["k"]) if "k" in doc else None
    return RationalFunction.from_zeros(zeros, poles, lead), k


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of certifying every instance of a spec against one theorem."""

    theorem: TheoremId
    spec: GeneratorSpec
    grid: CircleGrid
    instances: int
    certified: int
    violations: int
    degenerate_count: int
    skipped_points: int
    min_margin: float | None
    worst_instance: dict | None

    def to_json(self) -> str:
        payload = asdict(self)
        payload["theorem"] = self.theorem.value
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_campaign(spec: GeneratorSpec, theorem: TheoremId, grid: CircleGrid) -> CampaignReport:
    """Generate the spec's stream and certify every instance.

    The spec's zero region must match the theorem's hypothesis region
    for grid.k exactly, and theorems that require a zero on the circle
    need p_boundary == 1 with t >= 1, so the stream cannot produce a
    hypothesis-violating instance by construction.  Degenerate
    instances are counted and excluded from the margin aggregate.
    """
    want = hypothesis_zero_location(theorem, grid.k)
    got = spec.zero_region
    if got != want:
        raise HypothesisMismatch(
            f"{theorem.value} needs zeros {want.mode} at k={want.k}, spec generates {got.mode} at k={got.k}"
        )
    prof = profile(theorem)
    if prof.needs_all_zeros and spec.t != spec.n:
        raise HypothesisMismatch(f"{theorem.value} needs t == n, spec has t={spec.t}, n={spec.n}")
    if prof.needs_boundary_zero and not (spec.p_boundary == 1.0 and spec.t >= 1):
        raise HypothesisMismatch(f"{theorem.value} needs p_boundary == 1 and t >= 1 to pin a zero on the circle")
    certified = violations = degenerate = skipped = 0
    worst: tuple[float, RationalFunction] | None = None
    for r in generate(spec):
        try:
            verdict = certify(theorem, r, grid)
        except DegenerateBound:
            degenerate += 1
            continue
        certified += 1
        violations += verdict.violations
        skipped += verdict.skipped_points
        if worst is None or verdict.min_margin < worst[0]:
            worst = (verdict.min_margin, r)
    worst_doc = None
    if worst is not None:
        worst_doc = instance_to_dict(worst[1], grid.k)
        worst_doc["min_margin"] = worst[0]
    return CampaignReport(
        theorem=theorem,
        spec=spec,
        grid=grid,
        instances=spec.count,
        certified=certified,
        violations=violations,
        degenerate_count=degenerate,
        skipped_points=skipped,
        min_margin=None if worst is None else worst[0],
        worst_instance=worst_doc,
    )
