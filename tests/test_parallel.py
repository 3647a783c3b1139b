"""Tests for sharded multi-core execution (repro.parallel).

The contract under test has two halves:

* the **decomposition** is semantic: ``workers=W`` stripes the global
  request-id space into W full-replica shards at ``qps / W`` each, and
  is part of the plan's content hash whenever ``W != 1``;
* the **placement** is not: running a plan's repetitions and shards
  across P processes is bit-identical to running them sequentially in
  one process, for both registered sinks and every topology.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import experiment
from repro.api.specs import RunPolicy
from repro.errors import ExperimentError
from repro.parallel import (
    ShardSpec,
    merge_columnar_payloads,
    run_shard,
    run_sharded,
    shard_layout,
    usable_cores,
)
from repro.parallel import runner
from repro.parallel.merge import merged_run_metrics
from repro.parallel.runner import _execute_task
from repro.sim.random import RandomStreams, stream_namespace
from repro.sim.sampling import c_samplers_active
from repro.telemetry.columns import COLUMN_FIELDS


def small_plan(workers=2, requests=160, runs=1, **policy_kwargs):
    return (experiment("memcached").client("LP")
            .load(qps=40_000, num_requests=requests)
            .policy(runs=runs, base_seed=11, workers=workers,
                    **policy_kwargs)
            .build())


def columns_digest(samples):
    digest = hashlib.sha256()
    for name in COLUMN_FIELDS:
        digest.update(np.ascontiguousarray(
            samples.columns.column(name)).tobytes())
    return digest.hexdigest()


def shard_tasks(plan, seed=11):
    layout = shard_layout(plan.load.num_requests, plan.policy.workers)
    return [{"plan": plan.to_dict(), "seed": seed,
             "shard": {"index": shard.index,
                       "workers": shard.workers,
                       "total_requests": shard.total_requests}}
            for shard in layout]


class TestShardLayout:
    @pytest.mark.parametrize("total,workers",
                             [(10, 1), (10, 3), (100, 7), (8, 8)])
    def test_stripes_partition_the_id_space(self, total, workers):
        layout = shard_layout(total, workers)
        assert len(layout) == workers
        assert sum(shard.count for shard in layout) == total
        pooled = np.sort(np.concatenate(
            [shard.global_ids() for shard in layout]))
        assert np.array_equal(pooled, np.arange(total))

    def test_global_id_matches_global_ids(self):
        shard = ShardSpec(index=2, workers=5, total_requests=23)
        ids = shard.global_ids()
        assert len(ids) == shard.count
        for local, gid in enumerate(ids):
            assert shard.global_id(local) == gid

    def test_stream_prefixes_are_distinct(self):
        layout = shard_layout(20, 4)
        prefixes = {shard.stream_prefix for shard in layout}
        assert prefixes == {"pshard0/", "pshard1/",
                            "pshard2/", "pshard3/"}

    def test_layout_rejects_nonpositive_workers(self):
        with pytest.raises(ExperimentError):
            shard_layout(10, 0)

    def test_shard_rejects_out_of_range_index(self):
        with pytest.raises(ExperimentError):
            ShardSpec(index=2, workers=2, total_requests=10)

    def test_shard_rejects_starved_population(self):
        with pytest.raises(ExperimentError):
            shard_layout(3, 4)


class TestStreamNamespace:
    def test_namespaced_streams_are_independent(self):
        with stream_namespace("pshard0/"):
            first = RandomStreams(7)
        with stream_namespace("pshard1/"):
            second = RandomStreams(7)
        plain = RandomStreams(7)
        draws = {registry.get("service").random()
                 for registry in (first, second, plain)}
        assert len(draws) == 3

    def test_namespace_is_a_pure_name_prefix(self):
        with stream_namespace("p/"):
            namespaced = RandomStreams(7)
        plain = RandomStreams(7)
        assert np.array_equal(
            namespaced.get("service").random(8),
            plain.get("p/service").random(8))

    def test_nesting_concatenates_and_exit_restores(self):
        with stream_namespace("a/"):
            with stream_namespace("b/"):
                inner = RandomStreams(1)
            outer = RandomStreams(1)
        assert inner.namespace == "a/b/"
        assert outer.namespace == "a/"
        assert RandomStreams(1).namespace == ""

    def test_registry_captures_namespace_at_construction(self):
        with stream_namespace("a/"):
            registry = RandomStreams(3)
        # First stream request happens *outside* the block.
        assert (registry.get("x").random()
                == RandomStreams(3).get("a/x").random())


class TestShardedColumnarRun:
    def test_merged_ids_cover_the_global_space(self):
        plan = small_plan(workers=3, requests=120)
        payloads = [run_shard(plan, 5, shard)
                    for shard in shard_layout(120, 3)]
        merged = merge_columnar_payloads(payloads)
        ids = np.sort(merged.columns.column("request_id"))
        assert np.array_equal(ids, np.arange(120))
        assert merged.measured_count == 120 - int(120 * 0.1)

    def test_parallel_placement_is_bit_identical(self):
        plan = small_plan(workers=2, requests=160)
        tasks = shard_tasks(plan)
        inline = [_execute_task(task) for task in tasks]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_execute_task, tasks))
        for local, shipped in zip(inline, remote):
            for name in COLUMN_FIELDS:
                assert np.array_equal(local["columns"][name],
                                      shipped["columns"][name])
        assert (columns_digest(merge_columnar_payloads(inline))
                == columns_digest(merge_columnar_payloads(remote)))

    def test_run_sharded_placements_agree_exactly(self):
        plan = small_plan(workers=2, requests=160)
        serial = run_sharded(plan, processes=1)
        parallel = run_sharded(plan, processes=2)
        assert serial.runs == parallel.runs
        assert serial.metadata == {"workers": 2.0}

    def test_plan_run_dispatches_to_sharded_execution(self):
        requests = 120
        plan = small_plan(workers=2, requests=requests, runs=2)
        result = plan.run()
        assert result.metadata["workers"] == 2.0
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.requests == requests - int(requests * 0.1)
            assert 0.0 < run.server_utilization < 1.0

    def test_workers_one_takes_the_plain_path(self):
        plan = small_plan(workers=1, requests=60)
        assert (run_sharded(plan, processes=1).runs
                == plan.experiment().run().runs)

    def test_processes_must_be_positive(self):
        with pytest.raises(ExperimentError):
            run_sharded(small_plan(workers=2, requests=60), processes=0)


class TestShardedStreamingRun:
    def test_streaming_placements_agree_exactly(self):
        plan = small_plan(workers=2, requests=200, sink="streaming")
        serial = run_sharded(plan, processes=1)
        parallel = run_sharded(plan, processes=2)
        assert serial.runs == parallel.runs

    def test_streaming_and_columnar_shards_agree_on_mean(self):
        # Same decomposition, both sinks.  Agreement is statistical,
        # not bitwise: the columnar merge trims warmup in *global*
        # send order while the streaming sink trims by request id
        # (per-shard send order), so the two trim sets differ by a
        # few boundary requests.
        columnar = run_sharded(
            small_plan(workers=2, requests=200), processes=1)
        streaming = run_sharded(
            small_plan(workers=2, requests=200, sink="streaming"),
            processes=1)
        assert columnar.runs[0].avg_us == pytest.approx(
            streaming.runs[0].avg_us, rel=0.02)
        assert (columnar.runs[0].requests
                == streaming.runs[0].requests)


class TestShardedObsMetrics:
    """A sharded repetition's metrics merge by kind: counters add
    across the replica shards, gauges do not."""

    def test_gauges_merge_by_kind_and_counters_add(self):
        plan = (experiment("memcached").client("LP")
                .graph("memcached-cached")
                .load(qps=100_000, num_requests=4_000)
                .policy(runs=1, base_seed=11, workers=2, metrics=True)
                .build())
        payloads = [run_shard(plan, 11, shard)
                    for shard in shard_layout(4_000, 2)]
        merged = dict(merged_run_metrics(payloads, 11).obs_metrics)
        shards = [dict(payload["obs_metrics"]) for payload in payloads]
        assert merged["sampling.c_samplers"] == (
            1.0 if c_samplers_active() else 0.0)
        hits = merged["cache.cache.hits"]
        misses = merged["cache.cache.misses"]
        assert merged["cache.cache.hit_rate"] == hits / (hits + misses)
        utilizations = [value for name, value in merged.items()
                        if name.endswith(".utilization")]
        assert utilizations
        assert all(0.0 <= value <= 1.0 for value in utilizations)
        gauges = {"sampling.c_samplers", "cache.cache.hit_rate"}
        for name, value in merged.items():
            if name.rpartition(".")[2].startswith("peak_"):
                assert value == max(shard[name] for shard in shards)
            elif not (name in gauges or name.endswith(".utilization")):
                assert value == sum(shard[name] for shard in shards)
        assert plan.run().runs[0].obs_metrics == tuple(merged.items())


@pytest.fixture
def pool_widths(monkeypatch):
    """The width of every process pool the runner opens."""
    widths = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    return widths


def repetition_plan(topology):
    """A ``workers=1`` plan of three small repetitions."""
    builder = (experiment("memcached").client("LP")
               .load(qps=40_000, num_requests=120)
               .policy(runs=3, base_seed=5))
    if topology == "p2c-cluster":
        builder = builder.cluster(nodes=4, lb_policy="power-of-two")
    elif topology == "cached-graph":
        builder = builder.graph("memcached-cached")
    elif topology == "streaming-counters":
        builder = builder.policy(metrics=True, sink="streaming")
    return builder.build()


def _counter_names(run):
    return {name for name, _ in run.obs_metrics}


#: What each topology's runs must carry back from a pool worker.
CARRIED = {
    "single": lambda run: run.node_utilizations == () == run.obs_metrics,
    "p2c-cluster": lambda run: len(run.node_utilizations) == 4,
    "cached-graph": lambda run: run.requests == 120 - 12,
    "streaming-counters": lambda run: (
        "engine.events_dispatched" in _counter_names(run)
        and any(name.startswith("sink.") for name in _counter_names(run))),
}


class TestRepetitionPlacement:
    """``workers=1``: one task per repetition, placed like shards."""

    @pytest.mark.parametrize("topology", sorted(CARRIED))
    def test_placements_return_equal_results(self, topology, pool_widths):
        plan = repetition_plan(topology)
        serial = run_sharded(plan, processes=1)
        pooled = run_sharded(plan, processes=2)
        oversubscribed = run_sharded(plan, processes=3)
        default = plan.run()
        # Only the explicit processes=2 and 3 opened a pool: the
        # default keeps a plan this small inline.
        assert pool_widths == [2, 3]
        assert serial == pooled == oversubscribed == default
        assert pooled.metadata == {}
        assert pooled.label == "memcached"
        assert [run.seed for run in pooled.runs] == [5, 6, 7]
        assert all(CARRIED[topology](run) for run in pooled.runs)

    def test_processes_must_be_positive(self):
        with pytest.raises(ExperimentError):
            run_sharded(small_plan(workers=1, requests=60), processes=0)


class TestDefaultPlacement:
    """``processes=None``: ``min(tasks, cores)``, inline below the
    floor or with a single task."""

    def test_small_plans_stay_inline(self, pool_widths):
        plan = small_plan(workers=2, requests=120, runs=3)
        assert (plan.policy.runs * plan.load.num_requests
                < runner.POOL_MIN_REQUESTS)
        plan.run()
        small_plan(workers=1, requests=120, runs=3).run()
        assert pool_widths == []

    def test_plans_above_the_floor_use_every_core(self, pool_widths,
                                                  monkeypatch):
        monkeypatch.setattr(runner, "POOL_MIN_REQUESTS", 0)
        monkeypatch.setattr(runner, "usable_cores", lambda: 2)
        plan = small_plan(workers=1, requests=60, runs=3)
        assert plan.run() == run_sharded(plan, processes=1)
        assert pool_widths == [2]

    def test_pool_is_no_wider_than_the_task_list(self, pool_widths,
                                                 monkeypatch):
        monkeypatch.setattr(runner, "POOL_MIN_REQUESTS", 0)
        monkeypatch.setattr(runner, "usable_cores", lambda: 8)
        small_plan(workers=1, requests=60, runs=2).run()
        small_plan(workers=1, requests=60, runs=1).run()
        # Every (repetition, shard) pair is a task.
        small_plan(workers=2, requests=60, runs=2).run()
        run_sharded(small_plan(workers=1, requests=60, runs=2),
                    processes=8)
        assert pool_widths == [2, 4, 2]


FLOOR = runner.OVERSUBSCRIBE_MIN_REQUESTS


class TestPlacementRule:
    """``default_processes``: the default width as a pure function."""

    @pytest.mark.parametrize("tasks,cores,requests,width", [
        (1, 2, FLOOR, 1),      # fewer tasks than cores
        (2, 2, FLOOR, 2),
        (3, 8, FLOOR, 3),
        (4, 2, FLOOR, 2),      # a multiple of the cores
        (6, 3, FLOOR, 3),
        (3, 2, FLOOR, 3),      # between c and 2c: one round
        (5, 4, FLOOR, 5),
        (5, 2, FLOOR, 3),      # at least 2c
        (7, 2, FLOOR, 4),
        (3, 2, FLOOR - 1, 2),  # below the floor: min(tasks, cores)
        (7, 2, FLOOR - 1, 2),
        (3, 1, FLOOR, 1),      # one core: oversubscribing never pays
        (7, 1, FLOOR, 1),
    ])
    def test_width(self, tasks, cores, requests, width):
        assert runner.default_processes(tasks, cores, requests) == width

    def test_width_is_bounded(self):
        for tasks in range(1, 25):
            for cores in range(1, 9):
                width = runner.default_processes(tasks, cores, FLOOR)
                assert min(tasks, cores) <= width <= min(tasks, 2 * cores)


class TestOversubscribedPlacement:
    """Long tasks that do not divide two cores go over more processes."""

    @pytest.fixture(autouse=True)
    def long_tasks_on_two_cores(self, monkeypatch):
        monkeypatch.setattr(runner, "POOL_MIN_REQUESTS", 0)
        monkeypatch.setattr(runner, "OVERSUBSCRIBE_MIN_REQUESTS", 0)
        monkeypatch.setattr(runner, "usable_cores", lambda: 2)

    def test_three_tasks_get_three_processes(self, pool_widths):
        plan = small_plan(workers=1, requests=60, runs=3)
        assert plan.run() == run_sharded(plan, processes=1)
        assert pool_widths == [3]

    @pytest.mark.parametrize("runs,width", [(4, 2), (5, 3)])
    def test_width_minimises_the_makespan(self, pool_widths, runs, width):
        small_plan(workers=1, requests=60, runs=runs).run()
        assert pool_widths == [width]


class TestUsableCores:
    """Cores are counted from the affinity mask, not the host."""

    def test_affinity_mask_bounds_default_widths(self, pool_widths,
                                                 monkeypatch):
        from repro.campaign import CampaignExecutor

        monkeypatch.setattr(runner.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(runner, "POOL_MIN_REQUESTS", 0)
        assert usable_cores() == 1
        assert CampaignExecutor().max_workers == 1
        small_plan(workers=1, requests=60, runs=3).run()
        assert pool_widths == []

    @pytest.mark.parametrize("cpus,cores", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, cpus,
                                                cores):
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        assert usable_cores() == cores


class TestWorkersByteStability:
    """``workers`` must not disturb any pre-parallel identity.

    Same hazard class as :class:`TestPreGraphByteStability` in
    ``tests/test_graph_spec.py``: a default-valued ``workers`` leaking
    into serialization would silently re-key every stored campaign
    result.  The literals below are the pre-parallel captures.
    """

    def test_default_plan_hash_is_unchanged(self):
        assert experiment("memcached").build().content_hash() == (
            "a602ff4701e1ccafb623406c44bba718"
            "c4c15f19ed18da96fbfcc2a29b96e281")

    def test_condition_store_key_is_unchanged(self):
        from repro.campaign.spec import CampaignSpec
        from repro.config.presets import SERVER_BASELINE

        spec = CampaignSpec(
            name="s", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000.0,), runs=2, num_requests=100)
        assert spec.expand()[0].content_hash() == (
            "c9a9f504f03f821e505ef4fb08674954"
            "6731b309f0e29eb2306d96ef69ccf1a9")

    def test_default_workers_is_omitted_from_serialization(self):
        plan = experiment("memcached").build()
        assert "workers" not in plan.to_dict()["policy"]
        assert "workers" not in RunPolicy().to_dict()

    def test_nondefault_workers_is_hash_relevant(self):
        base = experiment("memcached").build()
        sharded = base.with_policy(workers=2)
        assert sharded.to_dict()["policy"]["workers"] == 2
        assert sharded.content_hash() != base.content_hash()

    def test_policy_round_trips_workers(self):
        policy = RunPolicy(runs=3, base_seed=1, workers=4)
        assert RunPolicy.from_dict(policy.to_dict()) == policy
        assert RunPolicy.from_dict(RunPolicy().to_dict()) == RunPolicy()

    def test_policy_rejects_nonpositive_workers(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError):
            RunPolicy(workers=0)

    def test_campaign_conditions_stay_unsharded(self):
        from repro.campaign.spec import CampaignSpec
        from repro.config.presets import SERVER_BASELINE

        spec = CampaignSpec(
            name="s", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000.0,), runs=1, num_requests=10)
        assert spec.expand()[0].to_plan().policy.workers == 1
