"""Tests for the SQLite result store."""

import sqlite3

import pytest

from repro.campaign import store as store_module
from repro.campaign.executor import execute_campaign
from repro.campaign.report import render_campaign_status
from repro.campaign.serialize import experiment_result_to_dict
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, open_store, require_store
from repro.config.presets import (
    LP_CLIENT,
    SERVER_BASELINE,
    server_with_smt,
)
from repro.config.serialize import canonical_json
from repro.core.experiment import MODEL_EPOCH
from repro.errors import ExperimentError


@pytest.fixture
def spec():
    return CampaignSpec(
        name="store-test",
        workload="memcached",
        conditions={"SMToff": server_with_smt(False)},
        qps_list=(10_000, 50_000),
        clients={"LP": LP_CLIENT},
        runs=2,
        num_requests=60,
    )


@pytest.fixture
def store():
    with ResultStore(":memory:") as memory_store:
        yield memory_store


def run_one(condition):
    return condition.to_plan().run()


class TestTimings:
    def test_put_records_elapsed_and_timings_for_reads(self, spec,
                                                      store):
        conditions = spec.expand()
        result = run_one(conditions[0])
        store.put(conditions[0], result, campaign=spec.name,
                  elapsed_s=1.25, queue_wait_s=0.5, worker_pid=4242)
        timings = store.timings_for(conditions)
        assert set(timings) == {conditions[0].content_hash()}
        label, qps, runs, elapsed, wait, pid = timings[
            conditions[0].content_hash()]
        assert (label, qps, runs) == (
            conditions[0].label, conditions[0].qps,
            conditions[0].plan.policy.runs)
        assert elapsed == 1.25
        assert wait == 0.5
        assert pid == 4242

    def test_elapsed_defaults_to_zero(self, spec, store):
        condition = spec.expand()[0]
        store.put(condition, run_one(condition), campaign=spec.name)
        timings = store.timings_for([condition])
        row = timings[condition.content_hash()]
        assert row[3] == 0.0
        assert row[4] == 0.0
        assert row[5] is None

    def test_put_many_is_one_transaction_worth_of_rows(self, spec,
                                                       store):
        conditions = spec.expand()
        entries = [{"spec": condition, "result": run_one(condition),
                    "elapsed_s": 0.5 + index,
                    "queue_wait_s": 0.1 * index,
                    "worker_pid": 100 + index}
                   for index, condition in enumerate(conditions)]
        store.put_many(entries, campaign=spec.name)
        assert store.count() == len(conditions)
        timings = store.timings_for(conditions)
        for index, condition in enumerate(conditions):
            row = timings[condition.content_hash()]
            assert row[3] == 0.5 + index
            assert row[4] == 0.1 * index
            assert row[5] == 100 + index

    def test_put_many_empty_is_a_noop(self, store):
        store.put_many([])
        assert store.count() == 0


class TestRoundTrip:
    def test_put_get_is_exact(self, spec, store):
        condition = spec.expand()[0]
        result = run_one(condition)
        store.put(condition, result, campaign=spec.name)
        fetched = store.get(condition.content_hash())
        assert fetched.runs == result.runs
        assert fetched.label == result.label
        assert fetched.qps == result.qps

    def test_get_missing_returns_none(self, store):
        assert store.get("no-such-hash") is None
        assert store.get_spec("no-such-hash") is None

    def test_contains_and_count(self, spec, store):
        condition = spec.expand()[0]
        assert condition.content_hash() not in store
        store.put(condition, run_one(condition))
        assert condition.content_hash() in store
        assert store.count() == 1

    def test_put_is_idempotent(self, spec, store):
        condition = spec.expand()[0]
        result = run_one(condition)
        store.put(condition, result)
        store.put(condition, result)
        assert store.count() == 1

    def test_spec_round_trip(self, spec, store):
        condition = spec.expand()[0]
        store.put(condition, run_one(condition))
        assert store.get_spec(condition.content_hash()) == condition


class TestQueries:
    def test_missing_partitions_conditions(self, spec, store):
        conditions = spec.expand()
        store.put(conditions[0], run_one(conditions[0]))
        missing = store.missing(conditions)
        assert missing == conditions[1:]

    def test_results_for(self, spec, store):
        conditions = spec.expand()
        store.put(conditions[0], run_one(conditions[0]))
        results = store.results_for(conditions)
        assert set(results) == {conditions[0].content_hash()}

    def test_rows_carry_campaign_metadata(self, spec, store):
        condition = spec.expand()[0]
        store.put(condition, run_one(condition), campaign=spec.name)
        rows = list(store.rows())
        assert len(rows) == 1
        row_hash, campaign, label, qps, runs, created = rows[0]
        assert row_hash == condition.content_hash()
        assert campaign == "store-test"
        assert label == "LP-SMToff"
        assert qps == condition.qps
        assert runs == condition.plan.policy.runs
        assert created > 0

    def test_delete_and_clear(self, spec, store):
        conditions = spec.expand()
        for condition in conditions:
            store.put(condition, run_one(condition))
        assert store.delete(conditions[0].content_hash())
        assert not store.delete(conditions[0].content_hash())
        assert store.clear() == len(conditions) - 1
        assert store.count() == 0


class TestPersistence:
    def test_results_survive_reopen(self, spec, tmp_path):
        path = str(tmp_path / "results.sqlite")
        condition = spec.expand()[0]
        with ResultStore(path) as store:
            store.put(condition, run_one(condition))
        with ResultStore(path) as store:
            assert store.count() == 1
            assert store.get(condition.content_hash()) is not None

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "results.sqlite")
        with ResultStore(path) as store:
            assert store.count() == 0

    def test_open_store_passes_none_through(self):
        assert open_store(None) is None

    def test_require_store_demands_existing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            require_store(str(tmp_path / "absent.sqlite"))


class TestClusterHashCoverage:
    """Cluster parameters must participate in memoization keys.

    Regression for the ISSUE-5 hazard: if the cluster topology were
    left out of :meth:`ConditionSpec.content_hash`, two campaigns
    differing only in ``lb_policy`` (or any other cluster field)
    would collide in the store and silently replay each other's
    results.
    """

    def cluster_spec(self, policy, nodes=2):
        from repro.cluster import ClusterSpec

        return CampaignSpec(
            name="cluster-store-test",
            workload="memcached",
            conditions={"SMToff": server_with_smt(False)},
            qps_list=(50_000,),
            clients={"LP": LP_CLIENT},
            runs=1,
            num_requests=40,
            cluster=ClusterSpec(nodes=nodes, lb_policy=policy),
        )

    def test_lb_policy_never_collides_in_the_store(self, store):
        round_robin = self.cluster_spec("round-robin").expand()[0]
        power_of_two = self.cluster_spec("power-of-two").expand()[0]
        assert (round_robin.content_hash()
                != power_of_two.content_hash())

        first = round_robin.to_plan().run()
        second = power_of_two.to_plan().run()
        store.put(round_robin, first)
        store.put(power_of_two, second)
        assert store.count() == 2
        for condition, result in ((round_robin, first),
                                  (power_of_two, second)):
            fetched = store.get(condition.content_hash())
            assert fetched.runs == result.runs
            spec = store.get_spec(condition.content_hash())
            assert spec.plan.cluster == condition.plan.cluster

    def test_cluster_condition_does_not_collide_with_single(
            self, spec, store):
        single = spec.with_overrides(
            qps_list=(50_000,), runs=1, num_requests=40).expand()[0]
        clustered = self.cluster_spec("round-robin").expand()[0]
        assert single.content_hash() != clustered.content_hash()

    def test_memoization_replays_cluster_results_exactly(self, store):
        condition = self.cluster_spec("power-of-two").expand()[0]
        result = condition.to_plan().run()
        store.put(condition, result)
        replayed = store.get(condition.content_hash())
        assert ([run.node_utilizations for run in replayed.runs]
                == [run.node_utilizations for run in result.runs])
        assert replayed.runs == result.runs


class TestGraphHashCoverage:
    """Graph and arrival fields must participate in memoization keys.

    Same hazard class as :class:`TestClusterHashCoverage`: if the
    service-graph topology or the interarrival shape were left out of
    :meth:`ConditionSpec.content_hash`, campaigns differing only in
    those fields would collide in the store and silently replay each
    other's results.
    """

    def graph_spec(self, graph="memcached-cached", arrival=None):
        from repro.graph.presets import graph_preset

        return CampaignSpec(
            name="graph-store-test",
            workload="memcached",
            conditions={"SMToff": server_with_smt(False)},
            qps_list=(50_000,),
            clients={"LP": LP_CLIENT},
            runs=1,
            num_requests=40,
            graph=graph_preset(graph) if graph else None,
            arrival=arrival,
        )

    def test_graph_never_collides_with_flat(self, spec):
        flat = spec.with_overrides(
            qps_list=(50_000,), runs=1, num_requests=40).expand()[0]
        graphed = self.graph_spec().expand()[0]
        assert flat.content_hash() != graphed.content_hash()

    def test_graph_topologies_never_collide(self):
        cached = self.graph_spec("memcached-cached").expand()[0]
        hd = self.graph_spec("hdsearch-graph").expand()[0]
        assert cached.content_hash() != hd.content_hash()

    def test_arrival_shape_never_collides(self):
        from repro.loadgen.interarrival import ArrivalSpec

        poisson = self.graph_spec().expand()[0]
        diurnal = self.graph_spec(
            arrival=ArrivalSpec(shape="diurnal", period_us=20_000.0)
        ).expand()[0]
        flash = self.graph_spec(
            arrival=ArrivalSpec(shape="flash-crowd",
                                spike_start_us=1_000.0,
                                spike_duration_us=2_000.0,
                                spike_factor=4.0)
        ).expand()[0]
        hashes = {c.content_hash() for c in (poisson, diurnal, flash)}
        assert len(hashes) == 3

    def test_store_round_trips_graph_and_arrival(self, store):
        from repro.loadgen.interarrival import ArrivalSpec

        condition = self.graph_spec(
            arrival=ArrivalSpec(shape="diurnal", period_us=20_000.0)
        ).expand()[0]
        result = condition.to_plan().run()
        store.put(condition, result)
        fetched = store.get(condition.content_hash())
        assert fetched.runs == result.runs
        spec = store.get_spec(condition.content_hash())
        assert spec.plan.graph == condition.plan.graph
        assert spec.plan.load.arrival == condition.plan.load.arrival


#: The 12-column schema of stores written before model epochs.
PRE_EPOCH_SCHEMA = """
CREATE TABLE results (
    condition_hash  TEXT PRIMARY KEY,
    campaign        TEXT NOT NULL,
    workload        TEXT NOT NULL,
    label           TEXT NOT NULL,
    qps             REAL NOT NULL,
    runs            INTEGER NOT NULL,
    spec_json       TEXT NOT NULL,
    payload_json    TEXT NOT NULL,
    created_at      REAL NOT NULL,
    elapsed_s       REAL NOT NULL DEFAULT 0.0,
    queue_wait_s    REAL NOT NULL DEFAULT 0.0,
    worker_pid      INTEGER
);
CREATE INDEX idx_results_campaign ON results (campaign);
"""

#: How such a store keyed and described the ``s`` campaign's one
#: condition (memcached, LP vs baseline, 50k QPS, 2 x 100 requests):
#: a hash of the condition's own fields, not of its plan.
PRE_EPOCH_KEY = ("ff21ff72b22dbfe1d8b0942cd3bfb192"
                 "6beeabff1987959bba9152f63d88b540")
PRE_EPOCH_SPEC_JSON = (
    '{"base_seed":9818140000,"client_config":{"cstates":["C0","C1",'
    '"C1E","C6"],"frequency_driver":"intel_pstate",'
    '"frequency_governor":"powersave","name":"LP","smt":true,'
    '"tickless":false,"turbo":true,"uncore":"dynamic"},'
    '"client_label":"LP","condition_label":"baseline","extra":{},'
    '"num_requests":100,"qps":50000.0,"runs":2,"server_config":'
    '{"cstates":["C0","C1"],"frequency_driver":"acpi_cpufreq",'
    '"frequency_governor":"performance","name":"server-baseline",'
    '"smt":false,"tickless":true,"turbo":false,"uncore":"fixed"},'
    '"workload":"memcached"}')
#: The same condition's key today: its plan's content hash.
PLAN_KEY = ("c9a9f504f03f821e505ef4fb08674954"
            "6731b309f0e29eb2306d96ef69ccf1a9")


def _file_state(path):
    """(schema, rows) of a store file, read without ResultStore."""
    conn = sqlite3.connect(path)
    try:
        schema = conn.execute("PRAGMA table_info(results)").fetchall()
        rows = conn.execute(
            "SELECT * FROM results ORDER BY condition_hash").fetchall()
    finally:
        conn.close()
    return schema, rows


class TestModelEpoch:
    def test_rows_of_another_epoch_are_never_served(self, spec, store,
                                                   monkeypatch):
        """Bumping MODEL_EPOCH retires a row under its unchanged key;
        re-running the condition replaces it."""
        condition = spec.expand()[0]
        key = condition.content_hash()
        store.put(condition, run_one(condition))
        assert store.stale_count() == 0
        monkeypatch.setattr(store_module, "MODEL_EPOCH",
                            MODEL_EPOCH + 1)
        assert key not in store
        assert store.get(key) is None
        assert store.get_spec(key) is None
        assert store.hashes() == frozenset()
        assert list(store.rows()) == []
        assert store.timings_for([condition]) == {}
        assert store.results_for([condition]) == {}
        assert store.missing([condition]) == [condition]
        assert (store.count(), store.stale_count()) == (1, 1)
        store.put(condition, run_one(condition))
        assert key in store
        assert (store.count(), store.stale_count()) == (1, 0)

    def test_pre_epoch_store_reruns_under_the_plan_key(self, tmp_path):
        spec = CampaignSpec(
            name="s", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            clients={"LP": LP_CLIENT},
            qps_list=(50_000.0,), runs=2, num_requests=100)
        [condition] = spec.expand()
        assert condition.content_hash() == PLAN_KEY
        result = run_one(condition)
        path = str(tmp_path / "pre-epoch.sqlite")
        conn = sqlite3.connect(path)
        with conn:
            conn.executescript(PRE_EPOCH_SCHEMA)
            conn.execute(
                "INSERT INTO results VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (PRE_EPOCH_KEY, "s", "memcached", "LP-baseline",
                 50_000.0, 2, PRE_EPOCH_SPEC_JSON,
                 canonical_json(experiment_result_to_dict(result)),
                 1.0, 0.25, 0.0, None))
        conn.close()

        with ResultStore(path) as store:
            assert (store.count(), store.stale_count()) == (1, 1)
            assert ("1 stored rows from another model epoch "
                    "(re-run on next invocation)"
                    in render_campaign_status(spec, store))
            assert PRE_EPOCH_KEY not in store
            assert store.get(PRE_EPOCH_KEY) is None
            assert store.get_spec(PRE_EPOCH_KEY) is None
            assert store.missing([condition]) == [condition]
            outcome = execute_campaign(spec, store=store,
                                       max_workers=1)
            assert (len(outcome.hits), len(outcome.executed)) == (0, 1)
            assert store.hashes() == {PLAN_KEY}
            assert store.get(PLAN_KEY).runs == result.runs
            assert (store.count(), store.stale_count()) == (2, 1)

        before = _file_state(path)
        assert before[0][-1][1] == "model_epoch"
        with ResultStore(path) as store:
            assert (store.count(), store.stale_count()) == (2, 1)
        assert _file_state(path) == before
