"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.api import ExperimentPlan  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    """Run the benchmark command; return (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def tiny(workload, seed, trace):
    code, stdout = bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny")
    assert code == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_plans_validate(name, scale):
    workload = WORKLOADS[name]
    compiled = workload.compile(0, scale)
    for plan in getattr(compiled, "plans", [compiled]):
        assert ExperimentPlan.from_json(plan.to_json()) == plan


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_declared_metric(name, trace, section):
    result = tiny(name, 0, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_digest_but_not_the_metrics(name, tmp_path):
    workload = WORKLOADS[name]
    digests = [workload.answer(workload.compile(seed, "tiny"),
                               str(tmp_path)).ops for seed in (0, 1)]
    assert digests[0] != digests[1]
    assert set(tiny(name, 1, 0)["metrics"]) == {
        m["name"] for m in BENCHMARK["end_to_end"]}


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("--workload", "memcached-single",
                         cwd=str(tmp_path))
    assert code != 0
    assert stdout == ""


def test_foreign_code_is_charged_to_its_repro_caller():
    package = os.path.join(ROOT, "src", "repro")
    engine = (os.path.join(package, "sim", "engine.py"), 1, "run")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        engine: (1, 1, 0.5, 1.0, {}),
        heappop: (10, 10, 0.3, 0.3, {engine: (10, 10, 0.2, 0.2)}),
    }
    grouped = layers.group_profile(stats, package)
    assert grouped["self"]["sim.engine"] == pytest.approx(0.7)
    assert grouped["self"]["other"] == pytest.approx(0.1)
    assert grouped["calls"]["sim.engine"] == 1
