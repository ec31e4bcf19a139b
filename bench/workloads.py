"""What one round of each benchmark workload runs, and how its outputs are checked.

A workload is a fixed mix of operations, regenerated round by round from
(seed, round index), so the same seed always gives the same inputs.  Each
operation is an ``Op``: ``run`` does the program's work and is timed,
``check`` inspects the result afterwards, outside the timing, and raises
``CheckFailed`` when the output is wrong.

The package modules arrive through ``Context.rb`` rather than module-level
imports, because the benchmark re-imports ratbound for every set-up it
times and objects of one import must not meet objects of another.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

# |RHS - |r'|| at the tight point of an equality family.
SHARPNESS_TOL = 1e-8
# Roots re-expanded into coefficients, relative to the largest coefficient.
# Degree-24 polynomials with roots in |z| < 2 can have roots with eps * cond
# near 3e-7, and a correct root set of one of them re-expands with an error
# near 2e-8 (the worst of about 47,000 sampled); a wrong or missing root
# gives an error of order 1.
REEXPAND_TOL = 1e-6
# Winding-test roots keep this distance from the unit circle, as in the
# acceptance suite, so the argument principle never meets a contour root.
WINDING_CIRCLE_GAP = 1e-3
# Instance files written during set-up for the CLI certify/curves items.  A
# campaign workload's CLI probe cycle runs certify and curves once on each,
# and single curves timings at grid 65536 vary by about 15%, so the probe's
# medians need this many.
INSTANCE_FILES = 12
# Instances per campaign call: the default of `ratbound campaign --count`.
CAMPAIGN_COUNT = 100
# Instances per campaign call of the warm-up round, which only has to run
# every code path once.
WARMUP_COUNT = 2


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    units: int = 1  # operations completed by one call: instances for a campaign call


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign shape: theorem, zero-region radius, n = t, grid and instances per call."""

    theorem: str
    k: float
    n: int
    grid: int
    count: int


# Instances of the n=3 CLI campaigns and of the determinism check's campaign:
# the size of acceptance criterion 11, which checks the same report bytes.
SMALL_COUNT = 25
# Instances of a CLI campaign of campaign-wide's probe.  One of 25 takes
# about 5 s; four of 5 take as long in all and sample four moments of a run.
WIDE_CLI_COUNT = 5
DETERMINISM_SPEC = CampaignSpec("main-lower", 0.7, 3, 4096, SMALL_COUNT)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: tuple  # round kinds of the closed loop: "campaigns", "families", "cli"
    campaigns: tuple  # CampaignSpecs of a "campaigns" round
    cli_file: CampaignSpec  # instance shape, theorem and grid of CLI certify/curves
    cli_campaign: CampaignSpec  # spec of the CLI campaign item
    probe_campaigns: int  # CLI campaign items in one probe cycle (Context.probe_ops)
    probe_every_s: float  # loop seconds between two CLI probe items; 0 when the loop has "cli" rounds
    trace_rounds: int  # loop rounds that --trace 1 runs untraced, traced and untraced again


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campaign-small",
            why="n=t=3 campaigns of 100 instances at grid 4096: scalar golden-section refinement is the largest share of the work",
            loop=("campaigns",),
            campaigns=(
                CampaignSpec("main-upper", 1.5, 3, 4096, CAMPAIGN_COUNT),
                CampaignSpec("main-lower", 0.7, 3, 4096, CAMPAIGN_COUNT),
            ),
            cli_file=CampaignSpec("main-upper", 1.5, 3, 4096, 1),
            cli_campaign=CampaignSpec("main-lower", 0.7, 3, 4096, SMALL_COUNT),
            probe_campaigns=4,
            # A probe cycle takes about 0.9 s; one every 4.5 s of loop, as 28 items.
            probe_every_s=0.16,
            trace_rounds=4,
        ),
        Workload(
            name="campaign-wide",
            why="n=t=24 campaigns of 100 instances at grid 65536: the array sweep dominates and refinement is a few percent",
            loop=("campaigns",),
            campaigns=(
                CampaignSpec("li-upper", 1.0, 24, 65536, CAMPAIGN_COUNT),
                CampaignSpec("main-lower", 0.7, 24, 65536, CAMPAIGN_COUNT),
            ),
            cli_file=CampaignSpec("li-upper", 1.0, 24, 65536, 1),
            # A CLI campaign of CAMPAIGN_COUNT instances at this shape takes 18 s,
            # half a loop round; the loop already carries that traffic.
            cli_campaign=CampaignSpec("main-lower", 0.7, 24, 65536, WIDE_CLI_COUNT),
            probe_campaigns=4,
            # A probe cycle takes about 12 s; its 28 items spread over the
            # single loop round of about 35 s.
            probe_every_s=1.25,
            trace_rounds=1,
        ),
        Workload(
            name="families-cli",
            why="tight families, Aberth roots, winding counts and CLI certify/curves/campaign, not campaigns",
            loop=("families", "cli"),
            campaigns=(),
            cli_file=CampaignSpec("main-upper", 1.5, 6, 16384, 1),
            cli_campaign=CampaignSpec("main-lower", 0.7, 3, 4096, SMALL_COUNT),
            probe_campaigns=0,
            probe_every_s=0,
            trace_rounds=20,
        ),
    )
}


def derived_seed(seed: int, round_index: int, item: int) -> int:
    """Campaign seed of one item of one round; distinct for distinct (round, item)."""
    return (seed * 1_000_003 + round_index) * 16 + item


@dataclass
class Context:
    """One set-up: the imported package, the workload, its seed and its files."""

    rb: object
    workload: Workload
    seed: int
    workdir: Path
    files: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    def write_instance_files(self):
        spec = self.workload.cli_file
        gen, _, _ = self.generator_spec(replace(spec, count=INSTANCE_FILES), derived_seed(self.seed, 0, 15))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i, r in enumerate(self.rb.harness.generate(gen)):
            path = self.workdir / f"instance-{i}.json"
            path.write_text(json.dumps(self.rb.harness.instance_to_dict(r, spec.k)), encoding="utf-8")
            self.files.append(str(path))

    def round_ops(self, j: int, kinds=None) -> list:
        builders = {"campaigns": self.campaign_ops, "families": self.family_ops, "cli": self.cli_ops}
        ops = []
        for kind in kinds if kinds is not None else self.workload.loop:
            ops.extend(builders[kind](j))
        return ops

    def warm_up_ops(self) -> list:
        """Round 0 of the loop, with campaign calls cut to WARMUP_COUNT instances.

        Where CLI commands run only as a probe, CLI certify and curves are
        warmed up too.
        """
        ops = []
        for kind in self.workload.loop:
            ops.extend(self.campaign_ops(0, WARMUP_COUNT) if kind == "campaigns" else self.round_ops(0, (kind,)))
        if self.workload.probe_every_s:
            ops.extend(self.cli_ops(0, campaigns=0))
        return ops

    def probe_ops(self, j: int) -> list:
        """Probe cycle j of a campaign workload: certify and curves on every instance file, and campaigns.

        The workload's probe_campaigns campaign items are spaced evenly
        between the files, none at the end: the last items of a cycle may
        run after the loop has ended, and the campaigns, the longest items,
        should run while the loop does.
        """
        count = self.workload.probe_campaigns
        nfiles = len(self.files)
        ops = self.cli_ops(j, every_file=True, campaigns=count)
        per_file, campaigns = ops[: 2 * nfiles], ops[2 * nfiles:]
        after = [int((m + 0.5) * nfiles / count) for m in range(count)]
        cycle = []
        for i in range(nfiles + 1):
            cycle.extend(c for m, c in enumerate(campaigns) if after[m] == i)
            cycle.extend(per_file[2 * i: 2 * i + 2])
        return cycle

    # -- campaigns -----------------------------------------------------------

    def generator_spec(self, spec: CampaignSpec, seed: int):
        rb = self.rb
        theorem = rb.bounds.TheoremId.from_name(spec.theorem)
        gen = rb.harness.GeneratorSpec(
            n=spec.n,
            t=spec.n,
            zero_region=rb.bounds.hypothesis_zero_location(theorem, spec.k),
            seed=seed,
            count=spec.count,
        )
        return gen, theorem, rb.circlescan.CircleGrid(spec.k, spec.grid)

    def campaign_ops(self, j: int, count: int | None = None) -> list:
        ops = []
        for i, spec in enumerate(self.workload.campaigns):
            if count is not None:
                spec = replace(spec, count=count)
            gen, theorem, grid = self.generator_spec(spec, derived_seed(self.seed, j, i))
            ops.append(
                Op(
                    "campaign",
                    lambda gen=gen, theorem=theorem, grid=grid: self.rb.harness.run_campaign(gen, theorem, grid),
                    lambda rep, spec=spec: check_report(spec, vars(rep)),
                    units=spec.count,
                )
            )
        return ops

    def determinism_op(self) -> Op:
        """Two runs of one campaign spec in one process must give the same report bytes."""
        spec = DETERMINISM_SPEC
        gen, theorem, grid = self.generator_spec(spec, derived_seed(self.seed, 0, 0))

        def run():
            return [self.rb.harness.run_campaign(gen, theorem, grid).to_json() for _ in range(2)]

        def check(reports):
            if reports[0] != reports[1]:
                raise CheckFailed(f"{spec.theorem} campaign report bytes differ between two runs")

        return Op("determinism", run, check, units=1)

    # -- tight families and winding counts -----------------------------------

    def family_ops(self, j: int) -> list:
        rb = self.rb
        T = rb.bounds.TheoremId
        rnd = random.Random(self.seed * 1_000_003 + j)
        n = 1 + j % 12
        # Poles at a >= 2 keep the n-fold pole well off the circle.  Nearer to it
        # the offset family's coefficient-form numerator loses precision: at
        # a = 1.5, n = 12 its sharpness gap is 3.4e-7, above SHARPNESS_TOL.
        a = 2.0 + 3.0 * rnd.random()
        # (theorem, make_extremal k argument, radius passed to sharpness_gap, offset family?)
        cases = (
            (T.MAIN_UPPER, 1.25, 1.25, False),
            (T.MAIN_LOWER, 0.5, 0.5, False),
            (T.AZIZ_SHAH_UPPER_97, 1.0 + 2.0 * rnd.random(), 1.0, True),
            (T.AZIZ_SHAH_LOWER_97, 0.2 + 0.8 * rnd.random(), 1.0, True),
        )
        ops = [self._family_op(theorem, a, karg, kgap, n, offset) for theorem, karg, kgap, offset in cases]
        for i in range(2):
            ops.append(self._winding_op(rnd, 1 + (2 * j + i) % 24))
        return ops

    def _family_op(self, theorem, a: float, karg: float, kgap: float, n: int, offset: bool) -> Op:
        bounds = self.rb.bounds

        def run():
            r, z = bounds.make_extremal(theorem, a, karg, n, n)
            return r, bounds.sharpness_gap(theorem, r, z, k=kgap)

        def check(out):
            r, gap = out
            if not gap <= SHARPNESS_TOL:
                raise CheckFailed(f"{theorem.value} a={a!r} n={n}: sharpness gap {gap:.3g} > {SHARPNESS_TOL}")
            if offset:
                # The offset family's numerator is built in coefficient form, so
                # its zeros come from the Aberth iteration.
                self._check_reexpands(r.zeros(), r.numer.coeffs, f"{theorem.value} n={n} numerator")

        return Op("family", run, check)

    def _winding_op(self, rnd: random.Random, degree: int) -> Op:
        rb = self.rb
        roots = []
        while len(roots) < degree:
            rho = 2.0 * rnd.random()
            if abs(rho - 1.0) >= WINDING_CIRCLE_GAP:
                roots.append(rho * cmath.exp(2j * cmath.pi * rnd.random()))
        lead = complex(0.25 + rnd.random(), rnd.random())
        inside = sum(1 for b in roots if abs(b) < 1.0)

        def run():
            p = rb.ratfun.Polynomial.from_roots(roots, lead)
            wind = rb.circlescan.winding_zero_count(p, 1.0)
            # A coefficient-form copy has no root cache, so this runs Aberth.
            found = rb.ratfun.poly_roots(rb.ratfun.Polynomial(p.coeffs))
            return p, wind, found

        def check(out):
            p, wind, found = out
            if wind != inside:
                raise CheckFailed(f"degree {degree}: winding count {wind}, root list has {inside} inside")
            if len(found) != degree:
                raise CheckFailed(f"degree {degree}: Aberth returned {len(found)} roots")
            self._check_reexpands(found, p.coeffs, f"degree {degree} polynomial")

        return Op("winding", run, check)

    def _check_reexpands(self, roots, coeffs, what: str):
        again = self.rb.ratfun.Polynomial.from_roots(roots, coeffs[-1]).coeffs
        if again.size != coeffs.size:
            raise CheckFailed(f"{what}: {len(roots)} roots for degree {coeffs.size - 1}")
        err = float(np.max(np.abs(again - coeffs)) / np.max(np.abs(coeffs)))
        if not err <= REEXPAND_TOL:
            raise CheckFailed(f"{what}: roots re-expand with relative error {err:.3g}")

    # -- command line ----------------------------------------------------------

    def cli_ops(self, j: int, every_file: bool = False, campaigns: int = 1) -> list:
        """certify and curves on instance file j (or on every file), then ``campaigns`` campaigns."""
        f, c = self.workload.cli_file, self.workload.cli_campaign
        files = self.files if every_file else [self.files[j % len(self.files)]]
        csv_path = self.workdir / "curve.csv"
        report_path = self.workdir / "report.json"

        def check_certify(out):
            code, text = out
            _expect_exit(code, text, "certify")
            if "violations   0" not in text:
                raise CheckFailed(f"certify reported violations: {text!r}")

        def check_curves(out):
            code, text = out
            _expect_exit(code, text, "curves")
            data = csv_path.read_bytes()
            lines = data.splitlines()
            if lines[0] != b"theta,deriv_modulus,bound_rhs,margin" or len(lines) != f.grid + 1:
                raise CheckFailed(f"curves wrote {len(lines)} lines for grid {f.grid}")
            self.counters["cli.csv_bytes"] += len(data)

        def check_campaign(out):
            code, text = out
            _expect_exit(code, text, "campaign")
            data = report_path.read_bytes()
            check_report(c, json.loads(data))
            self.counters["cli.report_bytes"] += len(data)

        ops = []
        for instance in files:
            certify_argv = ["certify", instance, f.theorem, "--k", repr(f.k), "--grid", str(f.grid)]
            curves_argv = ["curves", instance, f.theorem, str(csv_path), "--k", repr(f.k), "--grid", str(f.grid)]
            ops.append(Op("cli_certify", lambda argv=certify_argv: self._cli(argv), check_certify))
            ops.append(Op("cli_curves", lambda argv=curves_argv: self._cli(argv), check_curves))
        for m in range(campaigns):
            campaign_argv = [
                "campaign", "--theorem", c.theorem, "--n", str(c.n), "--k", repr(c.k), "--count", str(c.count),
                "--seed", str(derived_seed(self.seed, j * campaigns + m, 14)), "--grid", str(c.grid),
                "--out", str(report_path),
            ]
            ops.append(Op("cli_campaign", lambda argv=campaign_argv: self._cli(argv), check_campaign))
        return ops

    def _cli(self, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rb.cli.main(argv)
        return code, out.getvalue() + err.getvalue()


def _expect_exit(code, text: str, command: str):
    if code != 0:
        raise CheckFailed(f"{command} exited {code}: {text.strip()!r}")


def check_report(spec: CampaignSpec, report: dict):
    """Counts of one campaign of spec.count instances with t = n.

    ``report`` holds the CampaignReport fields, as attributes' dict or as
    the parsed JSON report.  Every instance is either certified or refused
    as degenerate, and at t = n no theorem may report a violation.  Only
    main-upper has a degenerate refusal, so any other theorem must certify
    every instance.
    """
    instances, certified = report["instances"], report["certified"]
    degenerate, violations = report["degenerate_count"], report["violations"]
    if instances != spec.count:
        raise CheckFailed(f"{spec.theorem}: {instances} instances, expected {spec.count}")
    if certified + degenerate != instances:
        raise CheckFailed(f"{spec.theorem}: {certified} certified + {degenerate} degenerate != {instances}")
    if violations != 0:
        raise CheckFailed(f"{spec.theorem}: {violations} violations at t = n")
    if degenerate and spec.theorem != "main-upper":
        raise CheckFailed(f"{spec.theorem}: {degenerate} degenerate refusals from a theorem without one")
    worst = report["worst_instance"]
    if certified and (worst is None or worst.get("min_margin") != report["min_margin"]):
        raise CheckFailed(f"{spec.theorem}: worst instance does not carry the campaign's min margin")
