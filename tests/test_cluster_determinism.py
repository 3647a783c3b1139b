"""Determinism/replay sweep: every workload x topology, full metrics.

Extends the PR-3 cross-process *plan-hash* test to full result
payloads: the same :class:`~repro.api.ExperimentPlan` executed twice
in-process, and once in a subprocess (with a hostile
``PYTHONHASHSEED``), must produce bit-identical metrics -- every
latency float, every per-node utilization -- for every registered
workload on both the single-server and a composed cluster topology
(load balancing + sharding + quorum in one spec).
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.api import ClusterSpec, experiment
from repro.campaign.serialize import experiment_result_to_dict
from repro.config.serialize import content_hash
from repro.workloads.registry import registered_workloads

#: The paper's registered workloads.  Named explicitly rather than
#: snapshotting ``registered_workloads()`` at import time: other test
#: modules register throwaway builders (e.g. the executor's
#: ``broken-test``) whose import-order-dependent presence would make
#: this sweep flaky.
WORKLOADS = ("hdsearch", "memcached", "socialnetwork", "synthetic")


def test_sweep_covers_every_paper_workload():
    assert set(WORKLOADS) <= set(registered_workloads())

TOPOLOGIES = {
    "single": ClusterSpec(),
    "cluster": ClusterSpec(nodes=2, shards=2, fanout=2, quorum=1,
                           lb_policy="power-of-two"),
}

#: Per-workload load points small enough for a sweep, busy enough to
#: queue (so the metrics exercise every stochastic component).
QPS = {
    "memcached": 100_000.0,
    "hdsearch": 1_000.0,
    "socialnetwork": 300.0,
    "synthetic": 10_000.0,
}


def make_plan(workload, topology):
    return (experiment(workload)
            .client("LP")
            .load(qps=QPS.get(workload, 1_000.0), num_requests=60)
            .policy(runs=2, base_seed=7)
            .cluster(TOPOLOGIES[topology])
            .build())


#: One service-graph topology rides the same sweep: the acceptance
#: 3-tier memcached graph (frontend -> cache -> hedged shards) on
#: both engines.  The vectorized kernel takes its scalar fallback at
#: graph fronts, so its full payload hash must match the reference
#: engine bit-for-bit.
GRAPH_PRESET = "memcached-cached"
ENGINES = ("reference", "vectorized")


def make_graph_plan(engine):
    return (experiment("memcached")
            .client("LP")
            .load(qps=QPS["memcached"], num_requests=60)
            .policy(runs=2, base_seed=7, engine=engine)
            .graph(GRAPH_PRESET)
            .build())


def result_hash(result):
    """Content hash of the complete serialized result payload."""
    return content_hash(experiment_result_to_dict(result))


@lru_cache(maxsize=None)
def reference_hash(workload, topology):
    return result_hash(make_plan(workload, topology).run())


@lru_cache(maxsize=None)
def graph_reference_hash(engine):
    return result_hash(make_graph_plan(engine).run())


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_in_process_is_bit_identical(workload, topology):
    plan = make_plan(workload, topology)
    replay = plan.run()
    assert result_hash(replay) == reference_hash(workload, topology)
    # The runs really simulated something.
    assert all(run.avg_us > 0 for run in replay.runs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cluster_runs_differ_from_single_server(workload):
    """The topology must actually change the simulation -- identical
    hashes would mean the cluster spec is silently ignored."""
    assert (reference_hash(workload, "single")
            != reference_hash(workload, "cluster"))


@pytest.mark.parametrize("engine", ENGINES)
def test_graph_replay_in_process_is_bit_identical(engine):
    plan = make_graph_plan(engine)
    replay = plan.run()
    assert result_hash(replay) == graph_reference_hash(engine)
    assert all(run.avg_us > 0 for run in replay.runs)


def test_graph_engines_agree_bit_for_bit():
    """Vectorized and reference engines must produce identical full
    payloads on the graph topology (scalar fallback at the front)."""
    assert (graph_reference_hash("vectorized")
            == graph_reference_hash("reference"))


def test_graph_runs_differ_from_single_server():
    """The graph must actually change the simulation -- an identical
    hash would mean the graph spec is silently ignored."""
    assert (graph_reference_hash("reference")
            != reference_hash("memcached", "single"))


def test_replay_in_subprocess_is_bit_identical():
    """One child process re-executes every (workload, topology) plan
    -- plus the graph topology on both engines -- and must reproduce
    the parent's full-metrics hashes exactly."""
    combos = [(workload, topology)
              for workload in WORKLOADS
              for topology in sorted(TOPOLOGIES)]
    plans = [make_plan(w, t).to_json() for w, t in combos]
    expected = [reference_hash(w, t) for w, t in combos]
    plans += [make_graph_plan(engine).to_json() for engine in ENGINES]
    expected += [graph_reference_hash(engine) for engine in ENGINES]

    code = (
        "import json, sys\n"
        "from repro.api import ExperimentPlan\n"
        "from repro.campaign.serialize import experiment_result_to_dict\n"
        "from repro.config.serialize import content_hash\n"
        "for text in json.load(sys.stdin):\n"
        "    plan = ExperimentPlan.from_json(text)\n"
        "    payload = experiment_result_to_dict(plan.run())\n"
        "    print(content_hash(payload))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(repro.__file__).resolve().parents[1])
    env["PYTHONHASHSEED"] = "4321"
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(plans),
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == expected
