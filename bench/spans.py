"""Span recording for the traced run, and the per-layer metrics built from it.

A span is (name, start, end, parent).  Spans are recorded by wrappers that
replace a ratbound function at the site that calls it, for example
``ratbound.harness.certify`` or ``ratbound.circlescan.rat_eval``, so the
package itself is untouched; ``Recorder.uninstall`` puts every original
back.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its children.

The layers are the package modules rng, ratfun, blaschke, circlescan,
bounds, harness and cli.  Span names say which function ran and, where the
caller matters, from where: ``circlescan.refine`` is the golden-section
refinement of a circle scan, ``circlescan.grid_eval`` is ``ratfun.rat_eval``
called by a scan on its whole grid.  The scalar ``rat_eval`` calls inside
a refinement are counted, not spanned, so the tracer adds little to the
refinement's own time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from time import perf_counter

import numpy as np

REFINE = "circlescan.refine"
SCANS = ("circlescan.sup", "circlescan.min")
BOOKKEEPING = "trace.bookkeeping"

# (module, attribute, span name).  The module is where the call is made.
SITES = (
    ("harness", "run_campaign", "harness.run_campaign"),
    ("cli", "run_campaign", "harness.run_campaign"),
    ("harness", "generate", "harness.generate"),
    ("harness", "certify", "bounds.certify"),
    ("cli", "certify", "bounds.certify"),
    ("cli", "margin_curve", "bounds.margin_curve"),
    ("bounds", "check_hypothesis", "bounds.check_hypothesis"),
    ("bounds", "build_context", "bounds.build_context"),
    ("bounds", "make_extremal", "bounds.make_extremal"),
    ("bounds", "sharpness_gap", "bounds.sharpness_gap"),
    ("bounds", "sup_modulus_on_circle", "circlescan.sup"),
    ("bounds", "min_modulus_on_circle", "circlescan.min"),
    ("bounds", "rat_eval", "ratfun.rat_eval"),
    ("bounds", "rat_derivative_eval", "ratfun.rat_deriv"),
    ("bounds", "blaschke_deriv_modulus_on_T1", "blaschke.deriv_modulus"),
    ("circlescan", "_golden", REFINE),
    ("circlescan", "rat_eval", None),  # by caller: refine eval, grid_eval or ratfun.rat_eval
    ("circlescan", "winding_zero_count", "circlescan.winding"),
    ("ratfun", "poly_roots", "ratfun.poly_roots"),
    ("cli", "cmd_certify", "cli.certify"),
    ("cli", "cmd_curves", "cli.curves"),
    ("cli", "cmd_campaign", "cli.campaign"),
    ("cli", "_load_instance", "cli.load_instance"),
)

# Per-layer metrics as printed: name -> unit.
UNITS = {
    "circlescan.refine.s": "s",
    "circlescan.refine.evals": "count",
    "circlescan.refine.win_ratio": "ratio",
    "circlescan.refine.gain_rel_max": "ratio",
    "circlescan.refine.share": "ratio",
    "circlescan.scans": "count",
    "circlescan.grid_eval.s": "s",
    "circlescan.sup.s": "s",
    "circlescan.min.s": "s",
    "circlescan.winding.calls": "count",
    "circlescan.winding.s": "s",
    "ratfun.rat_eval.points": "count",
    "ratfun.rat_deriv.s": "s",
    "ratfun.poly_roots.calls": "count",
    "ratfun.poly_roots.s": "s",
    "blaschke.deriv_modulus.s": "s",
    "bounds.sweep.s": "s",
    "bounds.build_context.s": "s",
    "bounds.check_hypothesis.s": "s",
    "bounds.sweep.points": "count",
    "bounds.skipped_points": "count",
    "bounds.violations": "count",
    "bounds.sharpness_gap.s": "s",
    "bounds.make_extremal.s": "s",
    "harness.generate.s": "s",
    "harness.campaign_self.s": "s",
    "harness.instances": "count",
    "harness.degenerate": "count",
    "rng.draws": "count",
    "cli.certify.s": "s",
    "cli.curves.s": "s",
    "cli.curves.format_s": "s",
    "cli.campaign.s": "s",
    "cli.load_instance.s": "s",
    "cli.csv_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Recorder:
    """In-memory spans plus counters, filled by wrappers it installs."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self.gain_rel_max = 0.0
        self._stack: list = []
        self._patched: list = []
        self._last_grid = None

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def _close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def traced(self, fn, name, after=None):
        """fn wrapped in a span; ``after(args, result)`` runs once the span is closed."""

        def wrapper(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, rb):
        """Wrap every call site in SITES; returns the sites that were missing."""
        afters = {
            "harness.run_campaign": self._after_campaign,
            "bounds.certify": self._after_sweep,
            "bounds.margin_curve": self._after_sweep,
            "circlescan.sup": partial(self._after_scan, True),
            "circlescan.min": partial(self._after_scan, False),
            "ratfun.rat_eval": self._after_rat_eval,
        }
        missing = []
        for module, attr, name in SITES:
            owner = getattr(rb, module)
            if not hasattr(owner, attr):
                missing.append(f"{module}.{attr}")
                continue
            if name is None:
                wrapped = self._scan_eval(getattr(owner, attr))
            else:
                wrapped = self.traced(getattr(owner, attr), name, afters.get(name))
            self._patch(owner, attr, wrapped)
        draw = rb.rng.CounterRng.next_u64
        counts = self.counts

        def counted_draw(rng_self):
            counts["rng.draws"] += 1
            return draw(rng_self)

        self._patch(rb.rng.CounterRng, "next_u64", counted_draw)
        return missing

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- hooks run after a span closes ---------------------------------------------

    def _scan_eval(self, fn):
        """``rat_eval`` as circlescan calls it, told apart by the open span.

        Inside a refinement each call is counted and not spanned; inside a
        sup or min scan it is the grid evaluation; anywhere else it is a
        plain ``ratfun.rat_eval``.
        """
        names, stack, counts = self.names, self._stack, self.counts
        grid_eval = self.traced(fn, "circlescan.grid_eval", self._after_grid_eval)
        other = self.traced(fn, "ratfun.rat_eval", self._after_rat_eval)

        def wrapper(*args, **kwargs):
            parent = names[stack[-1]] if stack else None
            if parent == REFINE:
                counts["circlescan.refine.evals"] += 1
                counts["ratfun.rat_eval.points"] += np.size(args[1])
                return fn(*args, **kwargs)
            return (grid_eval if parent in SCANS else other)(*args, **kwargs)

        return wrapper

    def _after_rat_eval(self, args, out):
        self.counts["ratfun.rat_eval.points"] += np.size(args[1])

    def _after_grid_eval(self, args, out):
        self._after_rat_eval(args, out)
        self._last_grid = out

    def _after_scan(self, maximize: bool, args, result):
        """Compare a refined extremum with the best grid sample of the same scan.

        This touches the whole grid, so it runs in a span of its own, which
        keeps the tracer's work out of the caller's self time.
        """
        self.counts["circlescan.scans"] += 1
        grid, self._last_grid = self._last_grid, None
        if not result.refined or grid is None:
            return
        book = self._open(BOOKKEEPING)
        try:
            moduli = np.abs(grid)
            best = float(moduli.max() if maximize else moduli.min())
        finally:
            self._close(book)
        self.counts["refined_scans"] += 1
        gain = (result.value - best if maximize else best - result.value) / best
        if gain > 0:
            self.counts["refine_wins"] += 1
        self.gain_rel_max = max(self.gain_rel_max, gain)

    def _after_sweep(self, args, out):
        self.counts["bounds.sweep.points"] += args[2].count
        if hasattr(out, "violations"):
            self.counts["bounds.violations"] += out.violations
            self.counts["bounds.skipped_points"] += out.skipped_points

    def _after_campaign(self, args, report):
        self.counts["harness.instances"] += report.instances
        self.counts["harness.degenerate"] += report.degenerate_count


def self_times(starts, ends, parents) -> tuple:
    """(duration, self time) of every span; self time is duration minus children."""
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def aggregate(rec: Recorder) -> tuple:
    """Per span name: (total seconds, self seconds, calls), plus every span's duration."""
    dur, own = self_times(rec.starts, rec.ends, rec.parents)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, name in enumerate(rec.names):
        total[name] += dur[i]
        self_s[name] += own[i]
        calls[name] += 1
    return total, self_s, calls, dur


def layer_metrics(rec: Recorder, counters: Counter, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics (name -> value) of one traced phase.

    ``counters`` holds what the benchmark counted itself (CLI output bytes).
    """
    total, self_s, calls, dur = aggregate(rec)
    curves_margin = sum(
        dur[i]
        for i, name in enumerate(rec.names)
        if name == "bounds.margin_curve" and rec.parents[i] >= 0 and rec.names[rec.parents[i]] == "cli.curves"
    )
    refine_s = total[REFINE]
    refined = rec.counts["refined_scans"]
    return {
        "circlescan.refine.s": refine_s,
        "circlescan.refine.evals": rec.counts["circlescan.refine.evals"],
        "circlescan.refine.win_ratio": rec.counts["refine_wins"] / refined if refined else 0.0,
        "circlescan.refine.gain_rel_max": rec.gain_rel_max,
        "circlescan.refine.share": refine_s / traced_s,
        "circlescan.scans": rec.counts["circlescan.scans"],
        "circlescan.grid_eval.s": total["circlescan.grid_eval"],
        "circlescan.sup.s": total["circlescan.sup"],
        "circlescan.min.s": total["circlescan.min"],
        "circlescan.winding.calls": calls["circlescan.winding"],
        "circlescan.winding.s": total["circlescan.winding"],
        "ratfun.rat_eval.points": rec.counts["ratfun.rat_eval.points"],
        "ratfun.rat_deriv.s": total["ratfun.rat_deriv"],
        "ratfun.poly_roots.calls": calls["ratfun.poly_roots"],
        "ratfun.poly_roots.s": total["ratfun.poly_roots"],
        "blaschke.deriv_modulus.s": total["blaschke.deriv_modulus"],
        "bounds.sweep.s": self_s["bounds.certify"] + self_s["bounds.margin_curve"],
        "bounds.build_context.s": total["bounds.build_context"],
        "bounds.check_hypothesis.s": total["bounds.check_hypothesis"],
        "bounds.sweep.points": rec.counts["bounds.sweep.points"],
        "bounds.skipped_points": rec.counts["bounds.skipped_points"],
        "bounds.violations": rec.counts["bounds.violations"],
        "bounds.sharpness_gap.s": total["bounds.sharpness_gap"],
        "bounds.make_extremal.s": total["bounds.make_extremal"],
        "harness.generate.s": total["harness.generate"],
        "harness.campaign_self.s": self_s["harness.run_campaign"],
        "harness.instances": rec.counts["harness.instances"],
        "harness.degenerate": rec.counts["harness.degenerate"],
        "rng.draws": rec.counts["rng.draws"],
        "cli.certify.s": total["cli.certify"],
        "cli.curves.s": total["cli.curves"],
        "cli.curves.format_s": total["cli.curves"] - curves_margin,
        "cli.campaign.s": total["cli.campaign"],
        "cli.load_instance.s": total["cli.load_instance"],
        "cli.csv_bytes": counters["cli.csv_bytes"],
        "cli.report_bytes": counters["cli.report_bytes"],
        "trace.overhead_ratio": traced_s / untraced_s,
    }


def self_time_table(rec: Recorder) -> list:
    """(span name, total self seconds, calls), largest self time first."""
    _, self_s, calls, _ = aggregate(rec)
    return sorted(((n, self_s[n], calls[n]) for n in self_s), key=lambda row: -row[1])


def write_spans(rec: Recorder, path):
    """One CSV line per span: id, parent, name, start and end in seconds from the first span."""
    t0 = rec.starts[0] if rec.starts else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for i, name in enumerate(rec.names):
            fh.write(f"{i},{rec.parents[i]},{name},{rec.starts[i] - t0:.9f},{rec.ends[i] - t0:.9f}\n")
