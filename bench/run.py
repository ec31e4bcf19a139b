"""Benchmark of ratbound: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload campaign-small --seed 1 --seconds 20 --trace 0

The benchmark imports ratbound from src/ of the checkout it sits in and
runs one workload (see workloads.py) in this single process and thread;
numpy's thread pools are pinned to one thread.  Operations run as a closed
loop: the next one starts when the previous one has finished.  Every
output is checked; a failed check or an operation that raises counts as
failed.

--trace 0 runs the loop for --seconds, and on past that until it holds at
least MIN_SAMPLES operation samples, then a determinism check, and prints
the end-to-end metrics:

    setup_s             median over SETUP_REPEATS set-ups of: import ratbound
                        afresh and write the instance files; a quarter run
                        before the loop, the rest beside it (Beside), and
                        one untimed warm-up round follows the first
    wall_s              median wall time of one round of the workload's mix
    ops_per_s           operations completed per second of the loop; an operation
                        is a campaign instance, a family, a winding item or a
                        CLI command
    op_ms.p50, .p95     operation latency; a campaign instance's sample is its
                        harness.certify call, timed by a bare wrapper
    cli_*_ms.p50        in-process `ratbound certify|curves|campaign`; part of
                        the loop in families-cli, elsewhere a probe with the
                        workload's shapes (cycles of certify and curves on each
                        instance file, with campaigns between them) whose
                        items run one at a time beside the loop (Beside) and
                        are left out of the loop's figures
    peak_rss_mb         peak resident set size of the process

--trace 1 runs each of the workload's first trace_rounds rounds three
times: untraced, with spans recorded (spans.py), and untraced again.  It
prints the per-layer metrics of the traced runs, with the traced time over
the mean of the untraced times as trace.overhead_ratio, and writes the
spans to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; error rate is failed / attempted.
Exit code 0 means every check passed, 1 that one failed, 2 a usage error
or that ratbound could not be imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LAYERS = ("rng", "ratfun", "blaschke", "circlescan", "bounds", "harness", "cli")
# One set-up takes about 35 ms, and the host's speed varies by a fifth over
# a few seconds, so the set-ups are spread over the loop (Beside).
SETUP_REPEATS = 40
# With 200 samples the nearest-rank p95 has 10 samples above it.
MIN_SAMPLES = 200
# The loop stops here even short of MIN_SAMPLES, so a run ends within 180 s.
LOOP_CAP_S = 120.0
LOGGED_FAILURES = 5
CLI_KINDS = ("cli_certify", "cli_curves", "cli_campaign")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p95": "ms",
    "cli_certify_ms.p50": "ms",
    "cli_curves_ms.p50": "ms",
    "cli_campaign_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def execute(self, op) -> float:
        """Run one operation, then check its output; returns the run's wall time."""
        self.attempted += op.units
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises has failed; the run goes on
            dt = perf_counter() - t0
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return dt
        dt = perf_counter() - t0
        try:
            op.check(out)
        except Exception as exc:  # CheckFailed, or output the check cannot read
            self._fail(op, f"{type(exc).__name__}: {exc}")
        return dt

    def _fail(self, op, message: str):
        if self.failed < LOGGED_FAILURES:
            print(f"FAILED {op.kind}: {message}", file=sys.stderr)
        self.failed += op.units


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_fresh() -> SimpleNamespace:
    """Import ratbound from src/ again, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ratbound" or m.startswith("ratbound.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ratbound")
    if Path(pkg.__file__).resolve().parent != SRC / "ratbound":
        raise ImportError(f"ratbound was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"ratbound.{name}") for name in LAYERS})


def set_up(workloads, workload, seed: int, workdir: Path):
    """Import ratbound afresh and write the instance files; returns (seconds, context)."""
    # Each fresh import leaves the last one's modules as garbage; collecting
    # it first keeps a set-up from paying for the one before.
    gc.collect()
    t0 = perf_counter()
    ctx = workloads.Context(import_fresh(), workload, seed, workdir)
    ctx.write_instance_files()
    return perf_counter() - t0, ctx


class SetUps:
    """The run's timed set-ups; the first one's context is the one the run uses.

    Later set-ups import ratbound again, so afterwards the modules of the
    context in use go back into sys.modules, where imports made inside
    ratbound's functions look them up.
    """

    def __init__(self, workloads, workload, seed: int, workdir: Path, total: int):
        self.args = (workloads, workload, seed, workdir)
        self.total = total
        first, self.ctx = set_up(*self.args)
        self.times = [first]

    def catch_up(self, share: float):
        """Time further set-ups until ``share`` of the total have run."""
        want = min(self.total, math.ceil(share * self.total))
        if len(self.times) >= want:
            return
        kept = {name: mod for name, mod in sys.modules.items() if name == "ratbound" or name.startswith("ratbound.")}
        while len(self.times) < want:
            self.times.append(set_up(*self.args)[0])
        for name in [m for m in sys.modules if m == "ratbound" or m.startswith("ratbound.")]:
            del sys.modules[name]
        sys.modules.update(kept)


class CertifyTimer:
    """Wall time of each ``harness.certify`` call, one campaign instance each.

    ``after()`` runs after each call, untimed and with the bare
    ``certify`` back in place, so campaigns it runs give no samples.
    """

    def __init__(self, harness, after=None):
        self.harness = harness
        self.certify = harness.certify
        self.after = after
        self.samples = []

    def __enter__(self):
        harness, certify, samples, after = self.harness, self.certify, self.samples, self.after

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return certify(*args, **kwargs)
            finally:
                samples.append(perf_counter() - t0)
                if after:
                    harness.certify = certify
                    try:
                        after()
                    finally:
                        harness.certify = timed

        self.harness.certify = timed
        return self

    def __exit__(self, *exc):
        self.harness.certify = self.certify

    def drain(self) -> list:
        out = self.samples[:]
        self.samples.clear()
        return out


class Beside:
    """Work run beside the loop and kept out of its figures: set-ups and the CLI probe.

    ``poll()`` runs after every loop operation and every campaign instance.
    It times further set-ups while their share of SetUps.total lags the
    run's elapsed share of ``seconds``, and each time the loop has run
    ``every_s`` more seconds it runs the next item of the CLI probe
    (Context.probe_ops).  So both sample the whole run, not one stretch of
    it, while the host's speed drifts.  ``spent`` is the time taken so far.
    """

    def __init__(self, ctx, tally: Tally, setups: SetUps, seconds: float, every_s: float):
        self.ctx, self.tally, self.setups = ctx, tally, setups
        self.seconds, self.every_s = seconds, every_s
        self.start = perf_counter()
        self.spent = 0.0
        self.next_probe = every_s
        self.cycles = 0
        self.items = []
        self.by_kind = {}

    def poll(self):
        t0 = perf_counter()
        self.setups.catch_up(0.25 + 0.75 * (t0 - self.start) / max(self.seconds, 1e-9))
        loop_s = t0 - self.start - self.spent
        if self.every_s and loop_s >= self.next_probe:
            self._probe_item()
            self.next_probe = loop_s + self.every_s
        self.spent += perf_counter() - t0

    def finish(self):
        """Time the remaining set-ups and complete the first probe cycle."""
        self.setups.catch_up(1.0)
        while self.every_s and (self.cycles == 0 or (self.cycles == 1 and self.items)):
            self._probe_item()

    def _probe_item(self):
        if not self.items:
            self.items = self.ctx.probe_ops(self.cycles)
            self.cycles += 1
        op = self.items.pop(0)
        self.by_kind.setdefault(op.kind, []).append(self.tally.execute(op) * 1e3)


def run_rounds(ctx, tally: Tally, first: int, until, timer=None, beside=None):
    """Rounds first, first+1, ... until ``until(elapsed, samples, rounds)`` holds.

    With ``timer`` (a CertifyTimer) a campaign call gives one latency sample
    per instance; any other operation gives one sample, its wall time.
    ``beside`` (a Beside) is polled after each operation, and its time is
    left out of the loop's wall times and samples.
    Returns (loop seconds, round walls, per-operation ms, ms by kind, units).
    """
    rounds, op_ms, by_kind, units = [], [], {}, 0

    def side():
        return beside.spent if beside else 0.0

    start = perf_counter()
    j = first
    while True:
        r0, s0 = perf_counter(), side()
        for op in ctx.round_ops(j):
            s1 = side()
            dt = tally.execute(op) - (side() - s1)
            certified = timer.drain() if timer else []
            if op.kind == "campaign" and certified:
                op_ms.extend(t * 1e3 for t in certified)
            else:
                op_ms.append(dt / op.units * 1e3)
            by_kind.setdefault(op.kind, []).append(dt * 1e3)
            units += op.units
            if beside:
                beside.poll()
        rounds.append(perf_counter() - r0 - (side() - s0))
        j += 1
        if until(perf_counter() - start, len(op_ms), j - first):
            return sum(rounds), rounds, op_ms, by_kind, units


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, min_samples: int, setup_repeats: int,
                 workload=None):
    """One benchmark run; returns (result object, note lines to print before it)."""
    # numpy comes in through these, after main() has pinned the thread pools.
    import spans
    import workloads

    workload = workload or workloads.WORKLOADS[name]
    tally = Tally()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    notes = [f"env {json.dumps(environment(seed, name), sort_keys=True)}"]
    try:
        setups = SetUps(workloads, workload, seed, workdir, setup_repeats)
        ctx = setups.ctx
        for op in ctx.warm_up_ops():
            tally.execute(op)
        if trace:
            metrics = traced_metrics(spans, ctx, tally, workload, seed, notes)
        else:
            metrics = end_to_end_metrics(ctx, tally, workload, seconds, min_samples, setups, notes)
        tally.execute(ctx.determinism_op())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"error_rate {tally.failed}/{tally.attempted} = {tally.failed / max(1, tally.attempted):.6g}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, notes


def end_to_end_metrics(ctx, tally, workload, seconds, min_samples, setups, notes) -> dict:
    def done(elapsed, samples, _rounds):
        return (elapsed >= seconds and samples >= min_samples) or elapsed >= LOOP_CAP_S

    setups.catch_up(0.25)
    beside = Beside(ctx, tally, setups, seconds, workload.probe_every_s)
    with CertifyTimer(ctx.rb.harness, after=beside.poll) as timer:
        wall, rounds, op_ms, by_kind, units = run_rounds(ctx, tally, 1, done, timer, beside)
    beside.finish()
    by_kind.update(beside.by_kind)
    above = len(op_ms) - math.ceil(0.95 * len(op_ms))
    notes.append(
        f"loop {units} operations in {wall:.3f} s over {len(rounds)} rounds; "
        f"{len(op_ms)} latency samples, {above} above p95; {beside.spent:.3f} s beside the loop; "
        + ", ".join(f"{k} {len(by_kind.get(k, ()))} samples" for k in CLI_KINDS)
    )
    values = {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(rounds),
        "ops_per_s": units / wall,
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p95": percentile(op_ms, 0.95),
        **{f"{k}_ms.p50": statistics.median(by_kind[k]) for k in CLI_KINDS},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


def traced_metrics(spans, ctx, tally, workload, seed, notes) -> dict:
    def one_round(j):
        return run_rounds(ctx, tally, j, lambda elapsed, samples, rounds: True)[0]

    # Untraced, traced, untraced again, round by round, so that a drift of
    # the host's speed cancels out of the overhead ratio.
    rec = spans.Recorder()
    untraced = traced = 0.0
    counted = Counter()
    for j in range(1, workload.trace_rounds + 1):
        untraced += one_round(j) / 2
        missing = rec.install(ctx.rb)
        before = Counter(ctx.counters)
        try:
            traced += one_round(j)
        finally:
            rec.uninstall()
        counted.update(ctx.counters - before)
        untraced += one_round(j) / 2
    values = spans.layer_metrics(rec, counted, traced, untraced)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    spans.write_spans(rec, spans_path)
    notes.append(f"traced {workload.trace_rounds} rounds: {untraced:.3f} s untraced (mean of two), "
                 f"{traced:.3f} s traced, {len(rec.names)} spans -> {spans_path.relative_to(BENCH_DIR.parent)}")
    if missing:
        notes.append(f"call sites not found, their metrics read 0: {', '.join(missing)}")
    for span, own, calls in spans.self_time_table(rec)[:12]:
        notes.append(f"self {own:10.4f} s {100 * own / traced:5.1f}%  {calls:8d} calls  {span}")
    return {k: (values[k], unit) for k, unit in spans.UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ratbound" / "__init__.py").is_file():
        print(f"ratbound sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 min_samples=MIN_SAMPLES, setup_repeats=SETUP_REPEATS)
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
