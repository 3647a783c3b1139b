"""Golden-value tests: the columnar pipeline is behavior-preserving.

The pinned numbers below were captured from the *seed* (pre-columnar)
implementation -- heap of Event objects, list-of-Request samples,
per-accessor ``sorted()`` -- at commit ``a703f58``, one seed per
workload.  The refactored pipeline (tuple-entry event heap, batch
arrival scheduling, :class:`~repro.telemetry.SampleColumns` telemetry)
must reproduce them **bit-identically**: same event order, same RNG
draw order, same float arithmetic, same stable sort.

If one of these fails after an intentional semantic change, recapture
the constants in the same commit that changes them, bump
``repro.core.experiment.MODEL_EPOCH`` and pin the new golden digest
under the new epoch in :data:`EPOCH_GOLDEN_DIGESTS`.  Every stored
campaign result changes meaning at that point; the epoch bump is what
stops the result store from serving the old rows.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterSpec
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.core.experiment import MODEL_EPOCH
from repro.graph import graph_preset
from repro.loadgen.interarrival import ArrivalSpec
from repro.workloads.registry import workload_by_name

#: workload -> (qps, num_requests, avg_us, p99_us, true_avg_us,
#:              true_p99_us, measured_requests); root seed 1234.
GOLDEN = {
    "memcached": (
        50_000, 400,
        92.05270124287591, 110.83425088804036,
        40.85396398552536, 53.6832444905004, 360),
    "hdsearch": (
        1_000, 200,
        575.3908164276042, 835.5742187417833,
        424.0981663402566, 681.5484531545002, 180),
    "synthetic": (
        10_000, 400,
        95.93226054954478, 117.42871368345781,
        44.283576243771556, 55.07284266632111, 360),
}

GOLDEN_SEED = 1234


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_run_metrics_bit_identical(workload, engine):
    qps, num_requests, avg, p99, true_avg, true_p99, requests = \
        GOLDEN[workload]
    testbed = workload_by_name(workload).build_testbed(
        seed=GOLDEN_SEED,
        client_config=LP_CLIENT,
        server_config=SERVER_BASELINE,
        qps=qps,
        num_requests=num_requests,
        engine=engine)
    metrics = testbed.run()
    # Exact equality on purpose: the acceptance bar is bit-identity
    # with the object-path implementation, not approximate agreement.
    assert metrics.avg_us == avg
    assert metrics.p99_us == p99
    assert metrics.true_avg_us == true_avg
    assert metrics.true_p99_us == true_p99
    assert metrics.requests == requests


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_runs_are_reproducible_within_session(workload):
    """Two fresh testbeds with the same seed agree with each other."""
    qps, num_requests = GOLDEN[workload][:2]
    build = workload_by_name(workload).build_testbed

    def run_once():
        return build(
            seed=GOLDEN_SEED, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE, qps=qps,
            num_requests=num_requests).run()

    first, second = run_once(), run_once()
    assert first == second


# ---------------------------------------------------------------- clusters
#: scenario -> (workload, cluster, qps, num_requests, avg_us, p99_us,
#:              true_avg_us, true_p99_us, measured_requests); captured
#: from the cluster subsystem's introducing commit at root seed 1234.
#: Per-node load matches the single-server goldens above (memcached:
#: 4 x 50K aggregate through a round-robin balancer).
CLUSTER_GOLDEN = {
    "memcached-rr4": (
        "memcached", ClusterSpec(nodes=4, lb_policy="round-robin"),
        200_000, 400,
        92.3049036499047, 109.0987004070108,
        40.50920870319649, 49.35850658198505, 360),
    "hdsearch-shard8": (
        "hdsearch", ClusterSpec(shards=8, fanout=4),
        2_000, 200,
        680.5289735565309, 998.0148660926322,
        518.5472492595583, 767.9451078624642, 180),
}


def _cluster_testbed(scenario, engine=None):
    workload, cluster, qps, num_requests = CLUSTER_GOLDEN[scenario][:4]
    return workload_by_name(workload).build_testbed(
        seed=GOLDEN_SEED,
        client_config=LP_CLIENT, server_config=SERVER_BASELINE,
        qps=qps, num_requests=num_requests, cluster=cluster,
        engine=engine)


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("scenario", sorted(CLUSTER_GOLDEN))
def test_cluster_golden_run_metrics_bit_identical(scenario, engine):
    (_, cluster, _, _, avg, p99, true_avg, true_p99,
     requests) = CLUSTER_GOLDEN[scenario]
    metrics = _cluster_testbed(scenario, engine).run()
    assert metrics.avg_us == avg
    assert metrics.p99_us == p99
    assert metrics.true_avg_us == true_avg
    assert metrics.true_p99_us == true_p99
    assert metrics.requests == requests
    # Per-node telemetry must be present and non-degenerate: every
    # node actually served traffic.
    assert len(metrics.node_utilizations) == max(
        cluster.nodes, cluster.shards)
    assert all(value > 0 for value in metrics.node_utilizations)


@pytest.mark.parametrize("scenario", sorted(CLUSTER_GOLDEN))
def test_cluster_golden_runs_are_reproducible(scenario):
    """Two fresh cluster testbeds with the same seed agree exactly."""
    first = _cluster_testbed(scenario).run()
    second = _cluster_testbed(scenario).run()
    assert first == second


# ------------------------------------------------------------------ graphs
#: scenario -> (workload, graph preset, arrival, qps, num_requests,
#:              avg_us, p99_us, true_avg_us, true_p99_us,
#:              measured_requests, stations); captured from the
#: service-graph subsystem's introducing commit at root seed 1234.
#: The memcached scenario is the acceptance topology: frontend ->
#: 80%-hit cache -> 8 hedged leaf shards under diurnal load; the
#: hdsearch scenario exercises timeout+retry+hedge on the leaf edge.
GRAPH_GOLDEN = {
    "memcached-cached-diurnal": (
        "memcached", "memcached-cached",
        ArrivalSpec(shape="diurnal", period_us=20_000.0,
                    amplitude=0.5),
        50_000, 400,
        105.56126491750965, 156.5235818847902,
        53.86507972703324, 100.02007720743636, 360, 10),
    "hdsearch-graph": (
        "hdsearch", "hdsearch-graph", None,
        1_000, 200,
        1016.164189830196, 1505.7923993622496,
        865.8561225538912, 1355.7923993622496, 180, 4),
}


def _graph_testbed(scenario, engine=None):
    workload, preset, arrival, qps, num_requests = \
        GRAPH_GOLDEN[scenario][:5]
    return workload_by_name(workload).build_testbed(
        seed=GOLDEN_SEED,
        client_config=LP_CLIENT, server_config=SERVER_BASELINE,
        qps=qps, num_requests=num_requests,
        graph=graph_preset(preset), arrival=arrival, engine=engine)


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("scenario", sorted(GRAPH_GOLDEN))
def test_graph_golden_run_metrics_bit_identical(scenario, engine):
    (avg, p99, true_avg, true_p99, requests,
     stations) = GRAPH_GOLDEN[scenario][5:]
    metrics = _graph_testbed(scenario, engine).run()
    assert metrics.avg_us == avg
    assert metrics.p99_us == p99
    assert metrics.true_avg_us == true_avg
    assert metrics.true_p99_us == true_p99
    assert metrics.requests == requests
    # Per-station telemetry spans every tier of the DAG.
    assert len(metrics.node_utilizations) == stations


@pytest.mark.parametrize("scenario", sorted(GRAPH_GOLDEN))
def test_graph_golden_runs_are_reproducible(scenario):
    """Two fresh graph testbeds with the same seed agree exactly."""
    first = _graph_testbed(scenario).run()
    second = _graph_testbed(scenario).run()
    assert first == second


# ------------------------------------------------------------ model epoch
#: MODEL_EPOCH -> digest of every golden number above.  Recapturing a
#: golden changes the digest, and this test then fails until the epoch
#: is bumped and the new digest pinned under it: a stored result must
#: never outlive the model that produced it.
EPOCH_GOLDEN_DIGESTS = {
    1: "a9784531ea474bf5",
}


def _golden_digest():
    """sha256 over the numbers of every golden table, in key order."""
    numbers = [
        [name, [value for value in row
                if isinstance(value, (int, float))
                and not isinstance(value, bool)]]
        for table in (GOLDEN, CLUSTER_GOLDEN, GRAPH_GOLDEN)
        for name, row in sorted(table.items())]
    return hashlib.sha256(
        json.dumps(numbers).encode()).hexdigest()[:16]


def test_goldens_are_pinned_to_the_model_epoch():
    assert EPOCH_GOLDEN_DIGESTS.get(MODEL_EPOCH) == _golden_digest()
