"""The benchmark's tracer (bench/spans.py) still finds the call sites it wraps.

A refactor that renames or stops importing a wrapped function would make
the traced run silently lose its span; this check fails instead.
"""

import importlib.util
from pathlib import Path

import ratbound
import ratbound.cli  # noqa: F401  (the tracer wraps sites in cli)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# Sites the tracer lists that bounds does not call: its sweep takes r, r' and
# |B'| from one pass over the poles and the norm from circlescan._extremum.
KNOWN_MISSING = [
    "bounds.sup_modulus_on_circle",
    "bounds.rat_eval",
    "bounds.rat_derivative_eval",
    "bounds.blaschke_deriv_modulus_on_T1",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_misses_only_the_known_sites():
    rec = load_spans().Recorder()
    try:
        missing = rec.install(ratbound)
    finally:
        rec.uninstall()
    assert missing == KNOWN_MISSING
