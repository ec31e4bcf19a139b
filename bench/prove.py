"""Run the benchmark over several seeds and report medians and run-to-run spread.

    python3 bench/prove.py --runs 10 [--workloads campaign-small,families-cli]
                           [--out bench/BASELINE.json] [--label TEXT]

Each workload runs ``--runs`` times with seeds 1..runs, one run after the
other, using the command and run_seconds of BENCHMARK.json.  For every
end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median, next to the
metric's bound; a spread above a third of the bound is flagged.  With
``--out`` it also makes one traced run per workload and writes everything,
with the environment and each workload's reason, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 200


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    """(result object, environment) of one run; raises if the run fails."""
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}{proc.stdout}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None, help="write medians, spreads and one traced run here")
    parser.add_argument("--label", default="", help="free text stored with --out, e.g. the commit measured")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(whys)
    report = {"label": args.label, "command": spec["command"], "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        seeds = list(range(1, args.runs + 1))
        runs = []
        for seed in seeds:
            result, env = run_once(spec, name, seed, 0)
            report.setdefault("env", {k: v for k, v in env.items() if k not in ("seed", "workload")})
            if not result["correct"]:
                steady = False
            runs.append({k: m["value"] for k, m in result["metrics"].items()})
        entry = {"why": whys[name], "seeds": seeds, "runs": runs, "median": {}, "spread": {}}
        print(f"{name}: {args.runs} runs")
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            entry["median"][metric] = statistics.median(values)
            entry["spread"][metric] = spread(values)
            flag = ""
            if entry["spread"][metric] > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {metric:22s} median {entry['median'][metric]:12.6g}  spread {entry['spread'][metric]:7.4f}"
                  f"  bound {bound:5.3f}{flag}")
        if args.out:
            entry["traced"] = {k: m["value"] for k, m in run_once(spec, name, 1, 1)[0]["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
