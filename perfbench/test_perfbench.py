"""Tests of the benchmark itself (smoke mode).  Run with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_match_the_spec():
    assert NAMES == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    p = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
              "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = p.stdout
    named = (list(run.LAYER_SPANS) + list(run.COUNT_UNITS) + [
        "cli.self_s", "cli.reproduce_s", "conditioning.fd_oracle_s", "solver.s_per_iter",
        "trace.overhead_s"]) if trace else list(wanted)
    for metric in named:
        assert f"\n{metric} = " in report, metric
    if trace:  # direct child spans lie inside their cli.main span
        assert float(report.split("\ncli.self_s = ")[1].split()[0]) >= 0.0


def corrupt(code, out):
    """Damage an output the way a wrong program would."""
    if not isinstance(out, str):
        return code, out * 2
    if not out.startswith("{"):
        return code, out + "corrupted\n"
    doc = json.loads(out)
    rep = doc["report"]
    if "X" in rep["solve"]:
        rep["solve"]["X"]["re"][0][0] *= 1.001
    if "condition" in rep:
        rep["condition"]["value"] *= 1e-3
    return code, json.dumps(doc)


@pytest.mark.parametrize("name", NAMES)
def test_every_check_rejects_a_corrupted_output(name, tmp_path):
    workload = workloads.build(name, tmp_path, seed=3, smoke=True)
    for step in workload.tasks[0].steps:
        code, out = workloads.run_step(step)
        assert step.check(code, out) == [], step.label
        assert step.check(*corrupt(code, out)), step.label


def test_a_corrupted_task_counts_as_failed(tmp_path):
    workload = workloads.build("solve-mild", tmp_path, seed=3, smoke=True)
    checker = run.Checker()
    run.timed_loop(workload, 0.05, checker, lambda step: corrupt(*workloads.run_step(step)),
                   kernel=lambda: 1.0)
    assert checker.attempted >= 1 and checker.failed == checker.attempted


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert "{" not in p.stdout
