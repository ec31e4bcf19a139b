"""Command-line front end.

    ratbound certify INSTANCE.json THEOREM [--k K] [--grid N]
    ratbound campaign --theorem THEOREM --n N --t T [--k K] [--count C]
                      [--seed S] [--grid N] [--p-boundary P] [--out FILE]
    ratbound curves INSTANCE.json THEOREM OUT.csv [--k K] [--grid N]

Instance files are JSON objects with "poles", "zeros" (lists of
[re, im] pairs), "leading" ([re, im]) and an optional "k".  The
default grid count honours the RATBOUND_GRID environment variable.
Exit codes: 0 bound held, 1 unusable input, 2 violation found,
3 hypotheses not satisfied, 4 degenerate bound expression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bounds import TheoremId, certify, hypothesis_zero_location, margin_curve, profile
from .circlescan import DEFAULT_GRID_COUNT, CircleGrid
from .errors import DegenerateBound, HypothesisViolated, ParseError, RatboundError
from .harness import GeneratorSpec, instance_from_dict, run_campaign

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_HYPOTHESIS = 3
EXIT_DEGENERATE = 4

THEOREM_NAMES = [member.value for member in TheoremId]

_CSV_ROW = "%.17g,%.17g,%.17g,%.17g\n"
# Rows formatted per write, so memory for the text does not grow with the grid.
_CSV_BLOCK_ROWS = 512


def _default_grid() -> int:
    raw = os.environ.get("RATBOUND_GRID")
    if raw is None:
        return DEFAULT_GRID_COUNT
    try:
        return CircleGrid(1.0, int(raw)).count
    except ValueError as exc:
        raise ParseError(f"RATBOUND_GRID={raw!r}: {exc}")


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
    try:
        return instance_from_dict(doc)
    except (LookupError, TypeError, ValueError, RatboundError) as exc:
        raise ParseError(f"{path} is not a valid instance: {exc}")


def _theorem(name: str) -> TheoremId:
    try:
        return TheoremId.from_name(name)
    except KeyError:
        raise ParseError(f"unknown theorem {name!r}; choose from {', '.join(THEOREM_NAMES)}")


def _grid(k: float, count: int) -> CircleGrid:
    try:
        return CircleGrid(k, count)
    except ValueError as exc:
        raise ParseError(f"{exc} (k={k!r}, grid count {count})")


def _instance_args(args) -> tuple:
    """(theorem, instance, grid) of certify and curves; --k beats the file's k, which beats 1."""
    r, file_k = _load_instance(args.instance)
    theorem = _theorem(args.theorem)
    k = args.k if args.k is not None else (file_k if file_k is not None else 1.0)
    return theorem, r, _grid(k, args.grid)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_out(path: str, chunks) -> bool:
    """Write the text chunks to path; on failure say so in one line on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _csv_chunks(columns):
    """The curves CSV as text blocks: the header, then _CSV_BLOCK_ROWS rows at a time."""
    yield "theta,deriv_modulus,bound_rhs,margin\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([col[start : start + _CSV_BLOCK_ROWS] for col in columns])
        yield _CSV_ROW * len(block) % tuple(block.ravel().tolist())


def cmd_certify(args) -> int:
    theorem, r, grid = _instance_args(args)
    verdict = certify(theorem, r, grid)
    ctx = verdict.context
    print(f"theorem      {theorem.value}")
    print(f"poles n      {ctx.n}")
    print(f"zeros t      {ctx.t}")
    print(f"radius k     {_fmt(ctx.k)}")
    print(f"sup |r|      {_fmt(ctx.norm)}")
    print(f"min modulus  {_fmt(ctx.m)}")
    print(f"min margin   {_fmt(verdict.min_margin)}")
    print(f"worst theta  {_fmt(verdict.worst_theta)}")
    print(f"violations   {verdict.violations}")
    print(f"skipped      {verdict.skipped_points}")
    return EXIT_OK if verdict.violations == 0 else EXIT_VIOLATION


def cmd_campaign(args) -> int:
    theorem = _theorem(args.theorem)
    grid = _grid(args.k, args.grid)
    region = hypothesis_zero_location(theorem, args.k)
    p_boundary = args.p_boundary
    if profile(theorem).needs_boundary_zero and p_boundary == 0.0:
        p_boundary = 1.0
    spec = GeneratorSpec(
        n=args.n,
        t=args.t if args.t is not None else args.n,
        zero_region=region,
        seed=args.seed,
        count=args.count,
        pole_annulus=(args.pole_min, args.pole_max),
        p_boundary=p_boundary,
    )
    # Fail before the campaign, not after it; _write_out still catches the rest.
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ParseError(f"cannot write {args.out}: {out_dir} is not a directory")
    report = run_campaign(spec, theorem, grid)
    if not _write_out(args.out, [report.to_json()]):
        return EXIT_USAGE
    print(
        f"{theorem.value}: {report.certified}/{report.instances} certified, "
        f"{report.violations} violations, {report.degenerate_count} degenerate -> {args.out}"
    )
    return EXIT_OK if report.violations == 0 else EXIT_VIOLATION


def cmd_curves(args) -> int:
    columns = margin_curve(*_instance_args(args))
    if not _write_out(args.out, _csv_chunks(columns)):
        return EXIT_USAGE
    print(f"{len(columns[0])} rows -> {args.out}")
    return EXIT_OK


def _build_parser(default_grid: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ratbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="sweep one inequality over one instance")
    cert.add_argument("instance", help="JSON instance file")
    cert.add_argument("theorem", help=f"one of: {', '.join(THEOREM_NAMES)}")
    cert.add_argument("--k", type=float, default=None, help="zero-region radius (default: file value or 1)")
    cert.add_argument("--grid", type=int, default=default_grid, help="grid count, power of two >= 64")
    cert.set_defaults(func=cmd_certify)

    camp = sub.add_parser("campaign", help="certify a reproducible random stream")
    camp.add_argument("--theorem", required=True)
    camp.add_argument("--n", type=int, required=True, help="pole count")
    camp.add_argument("--t", type=int, default=None, help="zero count (default n)")
    camp.add_argument("--k", type=float, default=1.0)
    camp.add_argument("--count", type=int, default=100)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--grid", type=int, default=default_grid)
    camp.add_argument("--p-boundary", type=float, default=0.0, dest="p_boundary")
    camp.add_argument("--pole-min", type=float, default=1.1)
    camp.add_argument("--pole-max", type=float, default=3.0)
    camp.add_argument("--out", default="campaign-report.json")
    camp.set_defaults(func=cmd_campaign)

    curv = sub.add_parser("curves", help="write theta,deriv_modulus,bound_rhs,margin CSV")
    curv.add_argument("instance")
    curv.add_argument("theorem")
    curv.add_argument("out")
    curv.add_argument("--k", type=float, default=None)
    curv.add_argument("--grid", type=int, default=default_grid)
    curv.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    try:
        default_grid = _default_grid()
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser(default_grid)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # Overflow shows up as a refusal with one line, not as numpy's warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except HypothesisViolated as exc:
        print(f"hypothesis: {exc}")
        return EXIT_HYPOTHESIS
    except DegenerateBound as exc:
        print(f"degenerate: {exc}")
        return EXIT_DEGENERATE
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RatboundError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
