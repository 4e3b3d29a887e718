"""Smoke test of the benchmark itself: every workload at a tiny page count.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced at 40 pages. The test checks
that every metric BENCHMARK.json names is reported with its unit and that the
output checks ran, including the pinned values for seed 1 at 40 pages.
Do not run it while the benchmark runs: both use .perfbench-work/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CHECKS = {
    "indirect-gamma-3k": ("report-matches-ledger", "pages-complete",
                          "accuracy-matches-orchestrator", "runs-complete"),
    "direct-replay-300": ("report-matches-ledger", "pages-complete",
                          "replay-identical", "ledger-one-per-page"),
    "indirect-tenrun-beta": ("report-matches-ledger", "pages-complete",
                             "accuracy-matches-orchestrator", "runs-complete"),
}


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--pages", "40")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 40 * run.WORKLOADS[workload].runs * run.MIN_ITERATIONS

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    for name in CHECKS[workload] + ("repeatable", "values-repeat"):
        assert f"check iter-0 {name}: ok" in lines
    assert "check pinned: ok" in lines
    assert any(line.startswith("artifacts sha256 ") for line in lines)


def test_end_to_end_metrics_are_declared_once():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert set(run.END_TO_END) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(run.PER_LAYER) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_pin_mismatch_fails_the_check():
    pins = {"w": {"40": {"1": {"accuracy_pct": 100.0, "primary_calls": 9,
                               "decision_calls": 5, "cost_usd": "0.0713800"}}}}
    same = dict(pins["w"]["40"]["1"])
    assert run.check_pins(pins, "w", 40, 1, same)[1] is True
    assert run.check_pins(pins, "w", 40, 1, {**same, "primary_calls": 10})[1] is False
    assert run.check_pins(pins, "w", 40, 2, same) is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "indirect-gamma-3k", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
