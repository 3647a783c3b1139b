"""The benchmark's workloads, driven only through repro's public API.

Each workload compiles from a seed into plans (:meth:`compile`),
builds its first testbed (:meth:`first_testbed`, the end of set-up),
and produces one complete answer per :meth:`answer` call.  An answer
carries one digest per *operation* -- a repetition for the plan
workloads, a condition for the campaign -- and the conservation
violations found in it, which is what the benchmark's correctness
checks and ``failed`` count are made of.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import ArrivalSpec, ExperimentPlan, experiment
from repro.campaign import CampaignExecutor, ResultStore, campaign_by_name
from repro.campaign.spec import CampaignSpec
from repro.core import provisioning
from repro.core.testbed import RunMetrics, Testbed
from repro.parallel import run_sharded

#: Offered load of the plan workloads: the paper's 200k QPS point.
QPS = 200_000.0
#: Leading completions every workload builder discards by default.
WARMUP_FRACTION = 0.1
#: p99 QoS target of the campaign's capacity analysis, in us.  Chosen
#: inside the LP client's measured p99 range, so its curve crosses
#: the target within the sweep and the interpolated crossing is used.
QOS_P99_US = 110.0
#: Process count for the pooled workloads: two, but never above nproc.
PROCESSES = min(2, os.cpu_count() or 1)

#: Repetitions and requests per repetition, by scale.  ``full`` is the
#: measured benchmark; ``tiny`` exercises every path in seconds.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "memcached-single": {"runs": 3, "num_requests": 20_000},
        "memcached-graph": {"runs": 2, "num_requests": 20_000},
        "smt-campaign": {"runs": 5, "num_requests": 1_000},
    },
    "tiny": {
        "memcached-single": {"runs": 2, "num_requests": 400},
        "memcached-graph": {"runs": 2, "num_requests": 400},
        "smt-campaign": {"runs": 2, "num_requests": 100},
    },
}


def _digest(data: Any) -> str:
    """Short sha256 of *data*'s canonical JSON; floats are written
    with ``repr``, so equal digests mean bit-identical values."""
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_digest(metrics: RunMetrics) -> str:
    """Digest of one repetition's simulated statistics.

    ``obs_metrics`` is left out: it is empty unless a policy asks for
    counters, and asking must not change anything else.
    """
    return _digest([
        metrics.avg_us, metrics.p99_us, metrics.true_avg_us,
        metrics.true_p99_us, metrics.requests, metrics.seed,
        metrics.server_utilization, list(metrics.node_utilizations)])


def conservation(metrics: RunMetrics, num_requests: int) -> List[str]:
    """What a drained repetition of *num_requests* must satisfy.

    A run that does not drain raises inside ``Testbed.run``; that
    failure is counted by the caller.
    """
    problems = []
    expected = num_requests - int(num_requests * WARMUP_FRACTION)
    if metrics.requests != expected:
        problems.append(f"measured {metrics.requests} requests, "
                        f"expected {expected}")
    for name in ("avg_us", "p99_us", "true_avg_us", "true_p99_us"):
        value = getattr(metrics, name)
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{name}={value!r} is not finite and positive")
    for value in (metrics.server_utilization, *metrics.node_utilizations):
        if not 0.0 <= value <= 1.0:
            problems.append(f"utilization {value!r} outside [0, 1]")
    return problems


def _policy(plan: ExperimentPlan) -> Dict[str, Any]:
    """The provenance fields of a plan's run policy."""
    return {"engine": plan.policy.engine, "sink": plan.policy.sink,
            "workers": plan.policy.workers}


@dataclass
class Answer:
    """One complete answer of a workload.

    Attributes:
        requests: simulated requests completed.
        ops: one digest per operation, in a fixed order.
        violations: conservation violations, per operation.
        runs: every repetition's metrics (counters ride on these).
        capacity: digest of the QoS capacities (campaign only).
        outcomes: ``(status, elapsed_s, queue_wait_s)`` per condition
            (campaign only).
    """

    requests: int
    ops: List[str]
    violations: List[List[str]]
    runs: List[RunMetrics]
    capacity: Optional[str] = None
    outcomes: List[Tuple[str, float, float]] = field(default_factory=list)


class PlanWorkload:
    """A workload that is one :class:`ExperimentPlan`."""

    def __init__(self, name: str,
                 make_plan: Callable[[int, Dict[str, int]],
                                     ExperimentPlan]) -> None:
        self.name = name
        self._make_plan = make_plan

    def compile(self, seed: int, scale: str) -> ExperimentPlan:
        return self._make_plan(seed, SCALES[scale][self.name])

    def operations(self, plan: ExperimentPlan) -> int:
        return plan.policy.runs

    def first_testbed(self, plan: ExperimentPlan) -> Testbed:
        return plan.testbed()

    def policy(self, plan: ExperimentPlan) -> Dict[str, Any]:
        return _policy(plan)

    def answer(self, plan: ExperimentPlan, scratch: str,
               inline: bool = False, counters: bool = False) -> Answer:
        """Run every repetition; ``inline`` places shards in this
        process, ``counters`` harvests component counters."""
        del scratch  # plans keep no files
        if counters:
            plan = plan.with_policy(metrics=True)
        result = run_sharded(plan, processes=1) if inline else plan.run()
        num_requests = plan.load.num_requests
        return Answer(
            requests=len(result.runs) * num_requests,
            ops=[run_digest(m) for m in result.runs],
            violations=[conservation(m, num_requests)
                        for m in result.runs],
            runs=list(result.runs))


@dataclass(frozen=True)
class CompiledCampaign:
    spec: CampaignSpec
    plans: Tuple[ExperimentPlan, ...]


class CampaignWorkload:
    """The Fig. 2 SMT study as a campaign into a fresh result store."""

    name = "smt-campaign"

    def compile(self, seed: int, scale: str) -> CompiledCampaign:
        spec = campaign_by_name("memcached-smt").with_overrides(
            base_seed=seed, **SCALES[scale][self.name])
        return CompiledCampaign(
            spec=spec,
            plans=tuple(c.to_plan() for c in spec.expand()))

    def operations(self, compiled: CompiledCampaign) -> int:
        return len(compiled.plans)

    def first_testbed(self, compiled: CompiledCampaign) -> Testbed:
        return compiled.plans[0].testbed()

    def policy(self, compiled: CompiledCampaign) -> Dict[str, Any]:
        return {**_policy(compiled.plans[0]), "workers": PROCESSES}

    def answer(self, compiled: CompiledCampaign, scratch: str,
               inline: bool = False, counters: bool = False) -> Answer:
        """Run the campaign, persist it, and size each series' QoS
        capacity.  Campaigns cannot ask for counters, so
        ``counters`` is ignored."""
        del counters
        spec = compiled.spec
        directory = tempfile.mkdtemp(prefix="store-", dir=scratch)
        try:
            with ResultStore(os.path.join(directory,
                                          "results.sqlite")) as store:
                executor = CampaignExecutor(
                    store, max_workers=1 if inline else PROCESSES)
                outcome = executor.run(spec)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        ops, violations, runs = [], [], []
        p99_by_series: Dict[str, Dict[float, float]] = {}
        for condition in outcome.outcomes:
            result = condition.result
            if result is None:
                ops.append("failed")
                violations.append([f"{condition.spec.label} @ "
                                   f"{condition.spec.qps:g}: "
                                   f"{condition.error}"])
                continue
            ops.append(_digest([condition.spec.label, condition.spec.qps,
                                [run_digest(m) for m in result.runs]]))
            violations.append([
                problem for m in result.runs
                for problem in conservation(m, spec.num_requests)])
            runs.extend(result.runs)
            p99_by_series.setdefault(condition.spec.label, {})[
                condition.spec.qps] = statistics.median(
                    m.p99_us for m in result.runs)
        capacities = {}
        for label, curve in p99_by_series.items():
            found = provisioning.capacity_under_qos(
                curve, QOS_P99_US, interpolate=True)
            capacities[label] = [found.capacity_qps,
                                 found.violated_at_qps,
                                 found.interpolated_capacity_qps]
        return Answer(
            requests=len(runs) * spec.num_requests,
            ops=ops,
            violations=violations,
            runs=runs,
            capacity=_digest(capacities),
            outcomes=[(o.status, o.elapsed_s, o.queue_wait_s)
                      for o in outcome.outcomes])


def _single_plan(seed: int, scale: Dict[str, int]) -> ExperimentPlan:
    """Memcached ETC, Mutilate open loop, LP client, baseline server,
    one server, columnar sink, one process."""
    return (experiment("memcached")
            .client("LP")
            .load(qps=QPS, num_requests=scale["num_requests"])
            .policy(runs=scale["runs"], base_seed=seed)
            .build())


def _graph_plan(seed: int, scale: Dict[str, int]) -> ExperimentPlan:
    """The ``memcached-cached`` graph under diurnal load, streaming
    sink, two striped shards."""
    return (experiment("memcached")
            .client("LP")
            .graph("memcached-cached")
            .load(qps=QPS, num_requests=scale["num_requests"],
                  arrival=ArrivalSpec(shape="diurnal",
                                      period_us=20_000.0,
                                      amplitude=0.5))
            .policy(runs=scale["runs"], base_seed=seed,
                    sink="streaming", workers=2)
            .build())


WORKLOADS: Dict[str, Any] = {
    "memcached-single": PlanWorkload("memcached-single", _single_plan),
    "memcached-graph": PlanWorkload("memcached-graph", _graph_plan),
    "smt-campaign": CampaignWorkload(),
}


def counters(runs: List[RunMetrics]) -> Dict[str, float]:
    """Component counters summed over *runs*, with the ratios the
    benchmark reports.  Zero where a workload has no such component
    or did not harvest counters."""
    totals: Dict[str, float] = {}
    for metrics in runs:
        for name, value in metrics.obs_metrics:
            totals[name] = totals.get(name, 0.0) + value

    def total(prefix: str, suffix: str) -> float:
        return sum(value for name, value in totals.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    batched = totals.get("sampling.batched_served", 0.0)
    scalar = totals.get("sampling.scalar_served", 0.0)
    hits = total("cache.", ".hits")
    misses = total("cache.", ".misses")
    return {
        "sampling.batched_share": (batched / (batched + scalar)
                                   if batched + scalar else 0.0),
        "engine.events_dispatched": totals.get(
            "engine.events_dispatched", 0.0),
        "graph.cache_hit_rate": (hits / (hits + misses)
                                 if hits + misses else 0.0),
        "graph.hedges": total("resilience.", ".hedges"),
        "graph.retries": total("resilience.", ".retries"),
        "graph.timeouts": total("resilience.", ".timeouts"),
        "cluster.fanout_subs": total("fanout.", ".subs_issued"),
    }
