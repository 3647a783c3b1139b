"""Tests for campaign execution: parallelism, memoization, resume,
failure isolation."""

import dataclasses
import multiprocessing

import pytest

from repro.campaign.executor import (
    CampaignExecutor,
    execute_campaign,
    run_condition,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.config.presets import (
    LP_CLIENT,
    SERVER_BASELINE,
    server_with_smt,
)
from repro.errors import ExperimentError
from repro.workloads.registry import (
    WorkloadDefinition,
    register_workload,
    registered_workloads,
    workload_by_name,
)


def small_spec(**overrides):
    defaults = dict(
        name="executor-test",
        workload="memcached",
        conditions={"SMToff": server_with_smt(False),
                    "SMTon": server_with_smt(True)},
        qps_list=(10_000, 50_000, 100_000),
        runs=2,
        num_requests=60,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def sample_map(outcome):
    """hash -> per-run average samples, for equality comparisons."""
    return {h: result.avg_samples().tolist()
            for h, result in outcome.results().items()}


class TestRegistry:
    def test_paper_workloads_registered(self):
        assert set(registered_workloads()) >= {
            "memcached", "hdsearch", "socialnetwork", "synthetic"}

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError):
            workload_by_name("quake3")

    def test_duplicate_registration_rejected(self):
        original = workload_by_name("memcached")
        bare = WorkloadDefinition(
            name="memcached",
            make_service=original.make_service,
            make_generator=original.make_generator,
            make_request_factory=original.make_request_factory)
        try:
            with pytest.raises(ExperimentError):
                register_workload(bare)
            register_workload(bare, replace=True)
        finally:
            # Restore the typed definition even on failure: the bare
            # one has no sweep or generator identity, which would
            # change plan validation for the rest of the test run.
            register_workload(original, replace=True)
        assert workload_by_name("memcached") is original


class TestRunCondition:
    def test_runs_one_experiment(self):
        condition = small_spec().expand()[0]
        result = run_condition(condition)
        assert result.label == condition.label
        assert result.qps == condition.qps
        assert len(result.runs) == condition.plan.policy.runs

    def test_extra_kwargs_reach_the_builder(self):
        spec = small_spec(
            workload="synthetic",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(5_000,),
            extra={"added_delay_us": 300.0})
        result = run_condition(spec.expand()[0])
        # 300 us of added service delay dominates the ~90 us baseline.
        assert result.avg_stats().mean > 250


class TestSerialExecution:
    def test_all_conditions_complete(self):
        spec = small_spec()
        outcome = execute_campaign(spec, max_workers=1)
        assert outcome.ok
        assert len(outcome.outcomes) == spec.size() == 12
        assert len(outcome.executed) == 12
        assert not outcome.hits and not outcome.failures
        assert "12 conditions" in outcome.summary()

    def test_outcomes_in_expansion_order(self):
        spec = small_spec()
        outcome = execute_campaign(spec, max_workers=1)
        assert ([o.spec.content_hash() for o in outcome.outcomes]
                == [c.content_hash() for c in spec.expand()])


class TestParallelExecution:
    def test_parallel_equals_serial_bit_for_bit(self):
        spec = small_spec()
        serial = execute_campaign(spec, max_workers=1)
        parallel = execute_campaign(spec, max_workers=2)
        assert parallel.ok
        assert sample_map(parallel) == sample_map(serial)

    def test_chunked_execution_equals_serial(self):
        spec = small_spec()
        serial = execute_campaign(spec, max_workers=1)
        chunked = execute_campaign(spec, max_workers=2, chunksize=4)
        assert sample_map(chunked) == sample_map(serial)

    def test_bad_chunksize_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignExecutor(chunksize=0)


class TestMemoization:
    def test_second_invocation_is_all_hits(self):
        spec = small_spec()
        with ResultStore(":memory:") as store:
            first = execute_campaign(spec, store=store, max_workers=1)
            second = execute_campaign(spec, store=store, max_workers=1)
        assert len(first.executed) == 12
        assert len(second.hits) == 12 and not second.executed
        assert sample_map(second) == sample_map(first)

    def test_interrupted_campaign_resumes_missing_only(self):
        """Kill-and-rerun: drop half the stored rows (as if the run
        died mid-flight) and check only those re-execute."""
        spec = small_spec()
        with ResultStore(":memory:") as store:
            execute_campaign(spec, store=store, max_workers=1)
            conditions = spec.expand()
            for condition in conditions[::2]:
                store.delete(condition.content_hash())
            resumed = execute_campaign(spec, store=store, max_workers=1)
        assert resumed.ok
        assert len(resumed.executed) == len(conditions[::2])
        assert ({o.spec.content_hash() for o in resumed.hits}
                == {c.content_hash() for c in conditions[1::2]})

    def test_grown_campaign_reuses_overlap(self):
        """Adding QPS points to a swept campaign only runs the new
        cells -- seeds are identity-derived, not position-derived."""
        narrow = small_spec(qps_list=(10_000, 50_000))
        wide = small_spec(qps_list=(10_000, 50_000, 100_000))
        with ResultStore(":memory:") as store:
            execute_campaign(narrow, store=store, max_workers=1)
            outcome = execute_campaign(wide, store=store, max_workers=1)
        assert len(outcome.hits) == narrow.size()
        assert len(outcome.executed) == wide.size() - narrow.size()
        assert all(o.spec.qps == 100_000 for o in outcome.executed)

    def test_parallel_run_persists_to_store(self):
        spec = small_spec(qps_list=(10_000,))
        with ResultStore(":memory:") as store:
            execute_campaign(spec, store=store, max_workers=2)
            assert store.count() == spec.size()


def _broken_generator(sim, streams, client_config, service, qps,
                      *args, **kwargs):
    raise RuntimeError(f"injected failure at qps={qps:g}")


def _flaky_generator(sim, streams, client_config, service, qps,
                     *args, **kwargs):
    if qps >= 50_000:
        raise RuntimeError("injected failure above 50K")
    return workload_by_name("memcached").make_generator(
        sim, streams, client_config, service, qps, *args, **kwargs)


# Copies of memcached whose generator raises: they fail at testbed
# build, inside the campaign's failure isolation.
register_workload(dataclasses.replace(
    workload_by_name("memcached"), name="broken-test",
    make_generator=_broken_generator), replace=True)
register_workload(dataclasses.replace(
    workload_by_name("memcached"), name="flaky-test",
    make_generator=_flaky_generator), replace=True)


class TestFailureIsolation:
    def test_one_failure_does_not_kill_the_campaign(self):
        spec = small_spec(workload="flaky-test",
                          clients={"LP": LP_CLIENT})
        with ResultStore(":memory:") as store:
            outcome = execute_campaign(spec, store=store, max_workers=1)
            assert not outcome.ok
            # qps 10K succeeds, 50K and 100K fail, per condition.
            assert len(outcome.executed) == 2
            assert len(outcome.failures) == 4
            assert all("injected failure" in o.error
                       for o in outcome.failures)
            # Failures are not persisted: they retry next invocation.
            assert store.count() == 2
            retry = execute_campaign(spec, store=store, max_workers=1)
            assert len(retry.hits) == 2
            assert len(retry.failures) == 4

    def test_fail_fast_inline_reraises_the_original_error(self):
        spec = small_spec(workload="broken-test", qps_list=(10_000,),
                          clients={"LP": LP_CLIENT})
        with pytest.raises(RuntimeError, match="injected failure"):
            execute_campaign(spec, max_workers=1, fail_fast=True)

    def test_studies_fail_fast_with_the_builder_error(self):
        """The figure studies must keep their pre-campaign fail-fast
        contract: a broken cell raises immediately, original type."""
        from repro.analysis.figures import _run_grid

        with pytest.raises(RuntimeError, match="injected failure"):
            _run_grid("broken-test",
                      {"SMToff": server_with_smt(False)},
                      qps_list=(10_000,), runs=2, num_requests=60,
                      base_seed=0, clients={"LP": LP_CLIENT})

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="test builders only exist in this process")
    def test_fail_fast_pool_raises_experiment_error(self):
        spec = small_spec(workload="broken-test",
                          clients={"LP": LP_CLIENT})
        with pytest.raises(ExperimentError, match="injected failure"):
            execute_campaign(spec, max_workers=2, fail_fast=True)

    def test_raise_on_failure_lists_conditions(self):
        spec = small_spec(workload="broken-test", qps_list=(10_000,),
                          clients={"LP": LP_CLIENT})
        outcome = execute_campaign(spec, max_workers=1)
        with pytest.raises(ExperimentError, match="LP-SMToff"):
            outcome.raise_on_failure()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="test builders only exist in this process")
    def test_worker_failures_are_captured_in_pool_mode(self):
        spec = small_spec(workload="flaky-test",
                          clients={"LP": LP_CLIENT})
        outcome = execute_campaign(spec, max_workers=2)
        assert len(outcome.executed) == 2
        assert len(outcome.failures) == 4


class TestPoolWorkersNeverNest:
    def test_worker_entry_runs_repetitions_inline(self, monkeypatch):
        """A campaign pool worker is already one of the campaign's
        processes: a condition the default placement would spread over
        a pool must run its repetitions inline there instead."""
        from repro.campaign.executor import _execute_chunk
        from repro.parallel import runner

        def no_pool(*args, **kwargs):
            raise AssertionError("opened a process pool")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(runner, "usable_cores", lambda: 2)
        plan = small_spec(
            qps_list=(50_000,), runs=2,
            num_requests=runner.POOL_MIN_REQUESTS // 2,
        ).expand()[0].to_plan()
        with pytest.raises(AssertionError, match="process pool"):
            plan.run()
        [payload] = _execute_chunk([{"hash": "h", "plan": plan.to_dict()}])
        assert payload["ok"], payload.get("error")
        assert len(payload["result"]["runs"]) == 2

    def test_inline_campaign_never_constructs_a_pool(self, monkeypatch):
        """``max_workers <= 1`` runs in this process: a condition over
        the runner's pool floor keeps its repetitions inline too."""
        from repro.parallel import runner

        pools = []
        real_pool = runner.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(runner, "usable_cores", lambda: 2)
        spec = small_spec(clients={"LP": LP_CLIENT}, qps_list=(50_000,),
                          runs=3, num_requests=2_000)
        assert 3 * 2_000 >= runner.POOL_MIN_REQUESTS
        outcome = execute_campaign(spec, max_workers=1)
        assert len(outcome.executed) == 2
        assert pools == []


class TestProgress:
    def test_callback_sees_every_condition(self):
        spec = small_spec(qps_list=(10_000, 50_000))
        events = []

        def progress(outcome, completed, total):
            events.append((outcome.status, completed, total))

        with ResultStore(":memory:") as store:
            execute_campaign(spec, store=store, max_workers=1,
                             progress=progress)
            execute_campaign(spec, store=store, max_workers=1,
                             progress=progress)
        first, second = events[:8], events[8:]
        assert [c for _, c, _ in first] == list(range(1, 9))
        assert all(t == 8 for _, _, t in first)
        assert all(status == "done" for status, _, _ in first)
        assert all(status == "hit" for status, _, _ in second)
