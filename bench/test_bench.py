"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def tiny(name: str):
    """The workload cut to one round of everything, with campaigns of two instances."""
    w = workloads.WORKLOADS[name]
    return replace(
        w,
        trace_rounds=1,
        campaigns=tuple(replace(c, count=2) for c in w.campaigns),
        cli_campaign=replace(w.cli_campaign, count=2),
    )


def smoke(name: str, trace: bool):
    return run.run_workload(name, 3, 0, trace, workload=tiny(name), min_samples=1, setup_repeats=4)[0]


def test_declared_names_match_the_code():
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == spans.UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = smoke(name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(section)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        elif name == "campaign-small":
            values = {k: m["value"] for k, m in result["metrics"].items()}
            for metric in ("circlescan.refine.s", "circlescan.refine.evals", "circlescan.grid_eval.s",
                           "bounds.sweep.s", "harness.instances", "rng.draws"):
                assert values[metric] > 0, metric


def test_later_set_ups_leave_the_first_imports_in_place(tmp_path):
    setups = run.SetUps(workloads, workloads.WORKLOADS["families-cli"], 1, tmp_path, 3)
    setups.catch_up(1.0)
    assert len(setups.times) == 3
    assert sys.modules["ratbound.bounds"] is setups.ctx.rb.bounds


def test_self_time_is_duration_minus_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [6, 8]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    parents = [-1, 0, 1, 0, 3]
    dur, own = spans.self_times(starts, ends, parents)
    assert dur == [10.0, 3.0, 1.0, 4.0, 2.0]
    assert own == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_layer_metrics_split_scans_and_curves():
    rec = spans.Recorder()
    tree = [  # name, start, end, parent
        ("circlescan.sup", 0.0, 10.0, -1),
        ("circlescan.grid_eval", 1.0, 4.0, 0),
        ("circlescan.refine", 5.0, 8.0, 0),
        ("cli.curves", 20.0, 30.0, -1),
        ("bounds.margin_curve", 21.0, 24.0, 3),
        ("bounds.build_context", 22.0, 23.0, 4),
    ]
    for name, start, end, parent in tree:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    rec.counts["circlescan.refine.evals"] = 2
    values = spans.layer_metrics(rec, {"cli.csv_bytes": 7, "cli.report_bytes": 0}, 20.0, 16.0)
    assert values.keys() == spans.UNITS.keys()
    assert values["circlescan.refine.s"] == pytest.approx(3.0)
    assert values["circlescan.refine.evals"] == 2
    assert values["circlescan.grid_eval.s"] == pytest.approx(3.0)
    assert values["circlescan.sup.s"] == pytest.approx(10.0)
    # cmd_curves minus margin_curve: 10 - 3.
    assert values["cli.curves.format_s"] == pytest.approx(7.0)
    assert values["bounds.sweep.s"] == pytest.approx(2.0)
    assert values["cli.csv_bytes"] == 7
    assert values["trace.overhead_ratio"] == pytest.approx(1.25)


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SHARPNESS_TOL", -1.0)
    monkeypatch.setitem(workloads.WORKLOADS, "families-cli", tiny("families-cli"))
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "families-cli", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 4


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    argv = SPEC["command"] + ["--workload", "campaign-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
