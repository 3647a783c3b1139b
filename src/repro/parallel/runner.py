"""Placement: one plan's repetitions and shards across processes.

:func:`run_sharded` is the one runner behind
:meth:`~repro.api.ExperimentPlan.run`.  It turns a plan into *tasks*,
one per (repetition, shard) pair, places them over a process pool, and
folds the results back into one
:class:`~repro.core.experiment.ExperimentResult`:

* ``workers=1``: one task per repetition, the plain
  ``plan.builder()(seed).run()`` -- no stream namespace, no id
  restripe -- returning that repetition's
  :class:`~repro.core.testbed.RunMetrics` as is;
* ``workers=W > 1``: W tasks per repetition, the striped shards of
  :func:`~repro.parallel.shard.shard_layout`, each run as an ordinary
  single-process testbed (:func:`run_shard`) and merged back into one
  ``RunMetrics`` per repetition via :mod:`repro.parallel.merge`.

The pinned equivalence contract: the *decomposition* is semantic
(part of the plan, hash-relevant), the *placement* is not -- running
with ``processes=P`` for any P >= 1 yields a result equal field by
field, every ``RunMetrics`` bit for bit, because every task is
deterministic in ``(plan, seed, shard)`` alone:

* a repetition's random streams derive from its root seed only;
* a shard's streams live under its
  :func:`~repro.sim.random.stream_namespace` prefix, independent of
  every other shard and of which process hosts it, and its request
  ids are restriped to the shard's global stripe by wrapping the
  generator's request factory, so merged telemetry is
  indistinguishable from one global id space.

``processes=1`` is therefore the serial reference the parallel
placement is validated against (``tests/test_parallel.py``,
``benchmarks/bench_parallel.py``); for ``workers=1`` it is
:meth:`Experiment.run() <repro.core.experiment.Experiment.run>` itself.
So the default may run more processes than cores
(:func:`default_processes`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.experiment import ExperimentResult
from repro.errors import ExperimentError
from repro.obs.sinks import SINK_STREAMING, StreamingSink
from repro.parallel.merge import merged_run_metrics
from repro.parallel.shard import ShardSpec, shard_layout
from repro.server.request import Request
from repro.sim.random import stream_namespace
from repro.telemetry.columns import COLUMN_FIELDS

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.api.specs import ExperimentPlan

#: Fewest simulated requests (``runs x num_requests``) the default
#: placement spreads over a process pool; smaller plans run inline.
#: A fork pool's start, map and shutdown cost ~11 ms, and each fresh
#: worker pays first-touch costs on its first repetition, against
#: ~15-28 us of simulation per request.  Measured on a 2-core host
#: (memcached, 3 and 5 repetitions, 9 alternations each), pool time
#: over inline time was 1.37 at 2,000 requests, 0.75-0.85 at 3,500
#: (the 3-repetition split lost 3 of 9), and 0.66-0.78 at 5,000 (won
#: 9 of 9): the floor is the smallest size where the pool always won.
#: Re-measured on a 2-vCPU Linux VM (Python 3.11.7, memcached LP at
#: 200k QPS, 10 alternations per size) at 3 x 1,700, 5 x 1,000 and
#: 3 x 2,000: 0.65/0.84/0.57 and 0.87/0.79/0.84 (won 9-10 of 10) in
#: two rounds, 1.23/1.30/0.99 (won 0/4/7) in one with a busy host.
POOL_MIN_REQUESTS = 5_000

#: Fewest requests per task before the default placement runs more
#: processes than usable cores: an extra process pays a fork,
#: first-touch costs and time slicing.  Measured on the same VM (3
#: tasks over 3 vs 2 processes, alternating pairs, three rounds), 3
#: processes won 4 of 10 pairs at 5,000 requests, 21 of 30 at 7,500,
#: 34 of 40 at 10,000, 24 of 30 at 12,500 and 37 of 40 at 15,000
#: (time ratio 0.83-0.95, at least 9 of 10 in every round): the floor
#: is the smallest size that won at least 9 of 10.
OVERSUBSCRIBE_MIN_REQUESTS = 15_000


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the
    platform has one (``taskset``, cpuset containers), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def preload_worker_imports() -> None:
    """Load here what every pool task would otherwise load lazily.

    Called before a fork pool opens, so its workers inherit the
    modules instead of importing them on their first task:
    ``numpy.random`` (stream seeding), numpy's C samplers (the
    ``ctypes`` load and its self-check, :func:`c_samplers_active`)
    and ``numpy.ma``, which ``np.percentile`` imports on a worker's
    first summary (via ``np.unique`` -> ``np.ma.is_masked``).  Never
    called at import: ``import repro`` loads neither numpy module.
    Under another start method it costs only this process, once.
    """
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401

    from repro.sim.sampling import c_samplers_active

    c_samplers_active()


def default_processes(tasks: int, cores: int, task_requests: int) -> int:
    """Processes for *tasks* tasks of *task_requests* requests on
    *cores* cores: ``min(tasks, cores)``, or, when tasks of at least
    :data:`OVERSUBSCRIBE_MIN_REQUESTS` outnumber the cores, the fewest
    ``P`` in ``cores..min(tasks, 2 * cores)`` minimising the makespan
    ``sum(max(1, k / cores))`` over rounds of ``k <= P`` tasks (3
    tasks on 2 cores: 1.5 task times over 3 processes, 2 over 2)."""
    if tasks <= cores or task_requests < OVERSUBSCRIBE_MIN_REQUESTS:
        return min(tasks, cores)

    def makespan(width: int) -> int:  # in 1/cores task times
        rounds, rest = divmod(tasks, width)
        return rounds * max(width, cores) + (max(rest, cores) if rest else 0)

    return min(range(cores, min(tasks, 2 * cores) + 1), key=makespan)


def run_shard(plan: "ExperimentPlan", seed: int,
              shard: ShardSpec) -> Dict[str, Any]:
    """Run one shard of one repetition; return its merge payload.

    The shard testbed is the plan's own builder compiled at
    ``qps / workers`` offered load over the shard's request count,
    with two post-build adjustments that the testbed assembly does
    not need to know about:

    * the generator's request factory is wrapped to restripe local
      ids ``0..count`` onto the shard's global stripe (the generator
      reads its factory in ``start()``, after this swap, and the
      kernel never captures it, so the swap is effective for both
      loop disciplines and both engines);
    * a streaming-sink policy gets its sink rebuilt with the run's
      **global** request count, so the id-based warmup trims of the W
      shards union exactly to the unsharded trim set.
    """
    shard_plan = plan.with_policy(workers=1).with_load(
        qps=plan.load.qps / shard.workers,
        num_requests=shard.count)
    with stream_namespace(shard.stream_prefix):
        testbed = shard_plan.builder()(int(seed))
    generator = testbed.generator
    base_factory = generator._request_factory

    def striped_factory(local_index: int,
                        _base: Callable[[int], Request] = base_factory,
                        _shard: ShardSpec = shard) -> Request:
        request = _base(local_index)
        request.request_id = _shard.global_id(local_index)
        return request

    generator._request_factory = striped_factory
    if plan.policy.sink == SINK_STREAMING:
        generator.samples = StreamingSink(
            plan.load.num_requests,
            warmup_fraction=generator.samples.warmup_fraction)
    metrics = testbed.run()
    samples = testbed.generator.samples
    payload: Dict[str, Any] = {
        "shard": shard.index,
        "events": int(getattr(testbed.sim, "events_processed", 0)),
        "server_utilization": metrics.server_utilization,
        "node_utilizations": list(metrics.node_utilizations),
        "obs_metrics": [[name, value]
                        for name, value in metrics.obs_metrics],
    }
    if isinstance(samples, StreamingSink):
        payload["kind"] = "streaming"
        payload["state"] = samples.export_state()
    else:
        payload["kind"] = "columnar"
        payload["warmup_fraction"] = samples.warmup_fraction
        payload["columns"] = {
            name: np.array(samples.columns.column(name))
            for name in COLUMN_FIELDS}
    return payload


def _execute_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: rebuild the plan and run one task.

    A task without a shard is one plain repetition; its result carries
    the testbed's workload name and offered load, the fields
    :meth:`~repro.core.experiment.Experiment.run` reads from its
    testbeds.  Top-level (picklable) and fed plain dicts, so it
    crosses the process boundary under any start method.
    """
    from repro.api.specs import ExperimentPlan

    plan = ExperimentPlan.from_dict(task["plan"])
    seed = int(task["seed"])
    if task["shard"] is None:
        testbed = plan.builder()(seed)
        return {"workload": testbed.workload, "qps": testbed.qps,
                "metrics": testbed.run()}
    shard = ShardSpec(index=int(task["shard"]["index"]),
                      workers=int(task["shard"]["workers"]),
                      total_requests=int(
                          task["shard"]["total_requests"]))
    return run_shard(plan, seed, shard)


def _process_count(plan: "ExperimentPlan", tasks: int,
                   processes: Optional[int]) -> int:
    """How many processes *tasks* go over (1 means inline)."""
    if processes is None:
        if plan.policy.runs * plan.load.num_requests < POOL_MIN_REQUESTS:
            return 1
        return default_processes(
            tasks, usable_cores(),
            plan.load.num_requests // plan.policy.workers)
    processes = int(processes)
    if processes < 1:
        raise ExperimentError(
            f"processes must be >= 1, got {processes}")
    return min(processes, tasks)


def run_sharded(plan: "ExperimentPlan",
                processes: Optional[int] = None) -> ExperimentResult:
    """Execute *plan*'s repetition protocol, placed over processes.

    Args:
        plan: the plan to run; ``plan.policy.workers`` fixes the
            decomposition width W (``1``: plain repetitions).
        processes: worker processes to place the ``runs x W`` tasks
            over.  Default: :func:`default_processes` on
            :func:`usable_cores`, except that a plan under
            :data:`POOL_MIN_REQUESTS` simulated requests runs inline.
            ``1`` runs every task serially in this process -- the
            reference every other placement equals.

    Returns:
        An :class:`~repro.core.experiment.ExperimentResult` with one
        :class:`~repro.core.testbed.RunMetrics` per repetition, in
        seed order.  ``metadata`` is ``{}`` for ``workers=1`` and
        ``{"workers": W}`` for a sharded plan.

    Raises:
        ExperimentError: when *processes* is below 1.
    """
    workers = int(plan.policy.workers)
    seeds = plan.policy.seed_schedule()
    processes = _process_count(plan, len(seeds) * workers, processes)
    if processes == 1 and workers == 1:
        return plan.experiment().run()
    plan_dict = plan.to_dict()
    layout = ([None] if workers == 1
              else shard_layout(plan.load.num_requests, workers))
    tasks = [
        {"plan": plan_dict, "seed": int(seed),
         "shard": None if shard is None else {
             "index": shard.index, "workers": shard.workers,
             "total_requests": shard.total_requests}}
        for seed in seeds for shard in layout]
    if processes == 1:
        outputs = [_execute_task(task) for task in tasks]
    else:
        preload_worker_imports()
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outputs = list(pool.map(_execute_task, tasks))
    if workers == 1:
        last = outputs[-1]
        return ExperimentResult(
            label=plan.policy.label or last["workload"],
            workload=last["workload"],
            qps=last["qps"],
            runs=[output["metrics"] for output in outputs],
        )
    metrics: List[Any] = [
        merged_run_metrics(
            outputs[index * workers:(index + 1) * workers],
            seed=int(seed))
        for index, seed in enumerate(seeds)]
    return ExperimentResult(
        label=plan.label,
        workload=plan.workload.name,
        qps=plan.load.qps,
        runs=metrics,
        metadata={"workers": float(workers)},
    )
