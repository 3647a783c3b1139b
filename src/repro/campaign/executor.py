"""Campaign execution: store-aware, parallel, failure-isolated.

The executor walks a campaign's expanded condition list and, for each
condition, either (a) serves it from the result store (cache hit),
(b) runs it inline (``max_workers <= 1``, the figure studies' path),
or (c) ships it to a :class:`concurrent.futures.ProcessPoolExecutor`
worker, which runs the condition's repetitions inline.  Each
:class:`~repro.core.experiment.Experiment` is seed-deterministic and
shares no state with any other condition, so the sweep is
embarrassingly parallel and parallel results are bit-identical to
serial ones.

Failures are captured per condition -- a worker returns an error
payload instead of raising -- so one bad condition never kills the
campaign; it is reported, left out of the store, and retried on the
next invocation.

Two scale-out mechanics keep large campaigns efficient:

* **Warm workers** -- the pool initializer installs the campaign's
  *plan skeleton* (the first pending condition's full plan dict)
  once per worker process and pre-compiles it, so the heavy imports
  (workload registry, assembly modules) and registry validation are
  paid once per worker, not once per condition.  Conditions then ship
  as section-level *patches* against the skeleton -- exact by
  construction, since a patch stores every section that differs and
  drops every section the condition lacks.
* **Batched persistence** -- the parent buffers finished results and
  writes them to the store in one transaction per
  :data:`PERSIST_BATCH` drain (see :meth:`ResultStore.put_many`),
  instead of one commit per condition.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.specs import ExperimentPlan
from repro.campaign.serialize import (
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.campaign.spec import CampaignSpec, ConditionSpec
from repro.campaign.store import ResultStore
from repro.core.experiment import ExperimentResult
from repro.errors import ExperimentError
from repro.parallel.runner import (
    preload_worker_imports,
    run_sharded,
    usable_cores,
)

#: Condition status values, in lifecycle order.
STATUS_HIT = "hit"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

#: Progress callback: (outcome, completed_count, total_count).
ProgressCallback = Callable[["ConditionOutcome", int, int], None]

#: Finished results buffered in the parent per store transaction.
PERSIST_BATCH = 16

#: The campaign-invariant plan skeleton installed in each warm worker
#: by :func:`_warm_init` (a module global: pool initializers run once
#: per worker process, before any task).
_WARM_SKELETON: Optional[Dict[str, Any]] = None

#: Sentinel distinguishing "section absent" from any real section.
_MISSING = object()


def _warm_init(skeleton_json: str) -> None:
    """Pool initializer: install and pre-compile the plan skeleton.

    Compiling the skeleton once pulls in the workload registry and
    the assembly modules and runs spec validation, so per-condition
    work in this process starts warm.  Warming is best-effort: a
    skeleton that fails to compile leaves each patched payload to
    fail (and be recorded) individually.
    """
    global _WARM_SKELETON
    _WARM_SKELETON = json.loads(skeleton_json)
    try:
        ExperimentPlan.from_dict(_WARM_SKELETON)
    except Exception:  # noqa: BLE001 -- warming must never kill a worker
        pass


def _plan_patch(skeleton: Dict[str, Any],
                plan_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The section-level patch turning *skeleton* into *plan_dict*.

    ``set`` holds every section whose value differs from the
    skeleton's; ``drop`` lists skeleton sections the plan lacks.
    :func:`_apply_patch` inverts this exactly, so patched payloads
    reconstruct the original plan dict byte-for-byte.
    """
    return {
        "set": {key: value for key, value in plan_dict.items()
                if skeleton.get(key, _MISSING) != value},
        "drop": [key for key in skeleton if key not in plan_dict],
    }


def _apply_patch(skeleton: Dict[str, Any],
                 patch: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a plan dict from the warm skeleton and its patch."""
    dropped = set(patch.get("drop", ()))
    data = {key: value for key, value in skeleton.items()
            if key not in dropped}
    data.update(patch.get("set", {}))
    return data


def run_condition(spec: ConditionSpec) -> ExperimentResult:
    """Run one condition's plan to completion in this process.

    The repetitions run serially here, as in a pool worker: a
    campaign places conditions, never a condition's repetitions
    (``plan.run()`` would pool a large plan).
    """
    return run_sharded(spec.plan, processes=1)


def _execute_chunk(payloads: Sequence[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
    """Worker entry point: run a chunk of plans, never raise.

    Each payload is ``{"hash": <condition hash>, ...}`` carrying
    either a full ``"plan"`` dict or a ``"patch"`` against the warm
    worker's installed skeleton (see :func:`_warm_init`); either way
    the pickle boundary carries only JSON-shaped data.  An optional
    ``"submitted_at"`` parent ``time.monotonic()`` stamp lets the
    worker report how long the payload sat queued (CLOCK_MONOTONIC is
    system-wide on Linux, so the cross-process difference is
    meaningful).  Every exception is captured as an error payload so
    a single bad condition cannot poison its chunk or the pool.
    """
    out: List[Dict[str, Any]] = []
    for payload in payloads:
        started = time.perf_counter()
        submitted = payload.get("submitted_at")
        queue_wait = (max(0.0, time.monotonic() - float(submitted))
                      if submitted is not None else 0.0)
        try:
            if "plan" in payload:
                plan_dict = payload["plan"]
            elif _WARM_SKELETON is not None:
                plan_dict = _apply_patch(_WARM_SKELETON,
                                         payload["patch"])
            else:
                raise ExperimentError(
                    "patched payload reached a worker with no "
                    "installed plan skeleton")
            plan = ExperimentPlan.from_dict(plan_dict)
            # Inline: this process is already one of the campaign's
            # pool workers, so its repetitions never nest another pool.
            result = run_sharded(plan, processes=1)
            out.append({
                "hash": payload["hash"],
                "ok": True,
                "result": experiment_result_to_dict(result),
                "elapsed_s": time.perf_counter() - started,
                "queue_wait_s": queue_wait,
                "pid": os.getpid(),
            })
        except Exception as exc:  # noqa: BLE001 -- isolation boundary
            out.append({
                "hash": payload["hash"],
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_s": time.perf_counter() - started,
                "queue_wait_s": queue_wait,
                "pid": os.getpid(),
            })
    return out


@dataclass
class ConditionOutcome:
    """What happened to one condition of a campaign.

    Attributes:
        spec: the condition.
        status: ``"hit"`` (served from the store), ``"done"`` (ran),
            or ``"failed"``.
        result: the experiment result (None when failed).
        error: the captured error string (None unless failed).
        elapsed_s: wall-clock seconds spent executing (0 for hits).
        queue_wait_s: seconds spent queued between submission and a
            worker picking the condition up (0 for hits and inline
            execution).
        worker_pid: pid of the process that executed the condition
            (None for hits and for rows predating attribution).
    """

    spec: ConditionSpec
    status: str
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    queue_wait_s: float = 0.0
    worker_pid: Optional[int] = None


@dataclass
class CampaignOutcome:
    """Everything a finished (or partially-failed) campaign produced.

    Attributes:
        spec: the campaign that ran.
        outcomes: one :class:`ConditionOutcome` per condition, in
            expansion (paper) order.
        elapsed_s: total wall-clock seconds for the campaign.
    """

    spec: CampaignSpec
    outcomes: List[ConditionOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when every condition has a result."""
        return all(o.result is not None for o in self.outcomes)

    @property
    def hits(self) -> List[ConditionOutcome]:
        """Conditions served from the store."""
        return [o for o in self.outcomes if o.status == STATUS_HIT]

    @property
    def executed(self) -> List[ConditionOutcome]:
        """Conditions actually simulated this invocation."""
        return [o for o in self.outcomes if o.status == STATUS_DONE]

    @property
    def failures(self) -> List[ConditionOutcome]:
        """Conditions that errored this invocation."""
        return [o for o in self.outcomes if o.status == STATUS_FAILED]

    def results(self) -> Dict[str, ExperimentResult]:
        """condition hash -> result, for every completed condition."""
        return {o.spec.content_hash(): o.result
                for o in self.outcomes if o.result is not None}

    def raise_on_failure(self) -> None:
        """Raise :class:`ExperimentError` if any condition failed."""
        if not self.ok:
            lines = [f"  {o.spec.label} @ {o.spec.qps:g}: {o.error}"
                     for o in self.failures]
            raise ExperimentError(
                f"{len(self.failures)}/{len(self.outcomes)} campaign "
                "conditions failed:\n" + "\n".join(lines))

    def summary(self) -> str:
        """One-line human summary of the invocation."""
        return (f"campaign {self.spec.name!r}: "
                f"{len(self.outcomes)} conditions, "
                f"{len(self.hits)} cached, "
                f"{len(self.executed)} executed, "
                f"{len(self.failures)} failed "
                f"in {self.elapsed_s:.2f}s")


class _PersistBuffer:
    """Buffers finished results; one store transaction per drain.

    Stays a no-op for store-less execution.  The campaign parent
    flushes every :data:`PERSIST_BATCH` results, before any fail-fast
    raise, and at invocation end -- so a killed campaign loses at
    most one partial batch, which the next invocation simply re-runs.
    """

    def __init__(self, store: Optional[ResultStore], campaign: str,
                 batch: int = PERSIST_BATCH) -> None:
        self._store = store
        self._campaign = str(campaign)
        self._batch = int(batch)
        self._entries: List[Dict[str, Any]] = []

    def add(self, condition: ConditionSpec, result: ExperimentResult,
            result_dict: Optional[Dict[str, Any]] = None,
            elapsed_s: float = 0.0, queue_wait_s: float = 0.0,
            worker_pid: Optional[int] = None) -> None:
        if self._store is None:
            return
        self._entries.append({
            "spec": condition, "result": result,
            "result_dict": result_dict, "elapsed_s": elapsed_s,
            "queue_wait_s": queue_wait_s, "worker_pid": worker_pid})
        if len(self._entries) >= self._batch:
            self.flush()

    def flush(self) -> None:
        if self._store is None or not self._entries:
            return
        entries, self._entries = self._entries, []
        self._store.put_many(entries, campaign=self._campaign)


class CampaignExecutor:
    """Runs campaigns against an optional store, serially or in parallel.

    Args:
        store: result store for memoization/resume; None disables
            persistence (every condition executes).
        max_workers: process count. ``None`` means
            :func:`~repro.parallel.usable_cores`, never more, since
            conditions differ in cost; values <= 1 run inline in this
            process (no pool, no pickle round-trip) -- the exact serial
            path the figure studies used before campaigns existed.
        chunksize: conditions shipped to a worker per task.  Raise it
            for campaigns of many tiny conditions to amortize process
            round-trips.
        fail_fast: abort on the first failed condition instead of
            capturing it and continuing.  Inline execution re-raises
            the original exception (the pre-campaign study behavior);
            pool execution cancels pending work and raises an
            :class:`ExperimentError` carrying the worker's error.
        persist_batch: finished results buffered per store
            transaction.  The default amortizes commits for wide
            campaigns; latency-sensitive callers (the autotuner, whose
            resume guarantee depends on every finished evaluation
            surviving a kill) pass 1 to commit per condition.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 max_workers: Optional[int] = None,
                 chunksize: int = 1, fail_fast: bool = False,
                 persist_batch: int = PERSIST_BATCH) -> None:
        if chunksize < 1:
            raise ExperimentError(
                f"chunksize must be >= 1, got {chunksize}")
        if persist_batch < 1:
            raise ExperimentError(
                f"persist_batch must be >= 1, got {persist_batch}")
        self.store = store
        self.max_workers = usable_cores() if max_workers is None \
            else int(max_workers)
        self.chunksize = int(chunksize)
        self.fail_fast = bool(fail_fast)
        self.persist_batch = int(persist_batch)

    # ------------------------------------------------------------------
    def run(self, spec: CampaignSpec,
            progress: Optional[ProgressCallback] = None
            ) -> CampaignOutcome:
        """Execute *spec*: serve hits, run the rest, persist as we go."""
        started = time.perf_counter()
        outcomes = self.run_conditions(
            spec.expand(), campaign=spec.name, progress=progress)
        return CampaignOutcome(
            spec=spec, outcomes=outcomes,
            elapsed_s=time.perf_counter() - started)

    def run_conditions(self, conditions: Sequence[ConditionSpec],
                       campaign: str = "",
                       progress: Optional[ProgressCallback] = None
                       ) -> List[ConditionOutcome]:
        """Execute an explicit condition list (the autotuner's path).

        Same store/hit/persist semantics as :meth:`run`, but the
        caller owns the condition list instead of a
        :class:`CampaignSpec` expanding one; outcomes come back in
        input order.
        """
        total = len(conditions)
        by_hash: Dict[str, ConditionOutcome] = {}
        completed = 0

        def record(outcome: ConditionOutcome) -> None:
            nonlocal completed
            by_hash[outcome.spec.content_hash()] = outcome
            completed += 1
            if progress is not None:
                progress(outcome, completed, total)

        pending: List[ConditionSpec] = []
        for condition in conditions:
            cached = (self.store.get(condition.content_hash())
                      if self.store is not None else None)
            if cached is not None:
                record(ConditionOutcome(
                    spec=condition, status=STATUS_HIT, result=cached))
            else:
                pending.append(condition)

        if pending:
            persist = _PersistBuffer(self.store, campaign,
                                     batch=self.persist_batch)
            try:
                if self.max_workers <= 1:
                    self._run_inline(pending, record, persist)
                else:
                    self._run_pool(pending, record, persist)
            finally:
                # Results that landed before a fail-fast raise (or
                # any other interruption) are still persisted; the
                # next invocation serves them as hits.
                persist.flush()

        return [by_hash[c.content_hash()] for c in conditions]

    # ------------------------------------------------------------------
    def _run_inline(self, pending: List[ConditionSpec],
                    record: Callable[[ConditionOutcome], None],
                    persist: _PersistBuffer) -> None:
        pid = os.getpid()
        for condition in pending:
            started = time.perf_counter()
            try:
                result = run_condition(condition)
            except Exception as exc:  # noqa: BLE001 -- isolation boundary
                if self.fail_fast:
                    raise
                record(ConditionOutcome(
                    spec=condition, status=STATUS_FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                    elapsed_s=time.perf_counter() - started,
                    worker_pid=pid))
                continue
            elapsed = time.perf_counter() - started
            persist.add(condition, result, elapsed_s=elapsed,
                        worker_pid=pid)
            record(ConditionOutcome(
                spec=condition, status=STATUS_DONE, result=result,
                elapsed_s=elapsed, worker_pid=pid))

    def _run_pool(self, pending: List[ConditionSpec],
                  record: Callable[[ConditionOutcome], None],
                  persist: _PersistBuffer) -> None:
        hashes = [condition.content_hash() for condition in pending]
        by_hash = dict(zip(hashes, pending))
        plan_dicts = [condition.plan.to_dict() for condition in pending]
        # The first pending condition's plan is the campaign's
        # skeleton: warm workers install it once at pool start, and
        # every condition ships as a section-level patch against it
        # (typically just the load/hardware sections that vary).
        skeleton = plan_dicts[0]
        payloads = [
            {"hash": condition_hash,
             "patch": _plan_patch(skeleton, plan_dict)}
            for condition_hash, plan_dict in zip(hashes, plan_dicts)]
        chunks = [(pending[i:i + self.chunksize],
                   payloads[i:i + self.chunksize])
                  for i in range(0, len(pending), self.chunksize)]
        workers = min(self.max_workers, len(chunks))
        preload_worker_imports()
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_warm_init,
                initargs=(json.dumps(skeleton),)) as pool:
            futures = {}
            for chunk, chunk_payloads in chunks:
                # The submit stamp is what queue-wait is measured
                # against in the worker (both ends CLOCK_MONOTONIC).
                submitted = time.monotonic()
                for payload in chunk_payloads:
                    payload["submitted_at"] = submitted
                futures[pool.submit(_execute_chunk,
                                    chunk_payloads)] = chunk
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    chunk_results = future.result()
                except Exception as exc:  # noqa: BLE001 -- pool failure
                    # The whole chunk is lost (e.g. a worker died);
                    # fail its conditions rather than the campaign.
                    for condition in chunk:
                        record(ConditionOutcome(
                            spec=condition, status=STATUS_FAILED,
                            error=f"{type(exc).__name__}: {exc}"))
                    continue
                for payload in chunk_results:
                    condition = by_hash[payload["hash"]]
                    elapsed = float(payload.get("elapsed_s", 0.0))
                    queue_wait = float(
                        payload.get("queue_wait_s", 0.0))
                    pid = payload.get("pid")
                    if self.fail_fast and not payload["ok"]:
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise ExperimentError(
                            f"condition {condition.label} @ "
                            f"{condition.qps:g} failed: "
                            f"{payload['error']}")
                    if payload["ok"]:
                        result = experiment_result_from_dict(
                            payload["result"])
                        persist.add(condition, result,
                                    result_dict=payload["result"],
                                    elapsed_s=elapsed,
                                    queue_wait_s=queue_wait,
                                    worker_pid=pid)
                        record(ConditionOutcome(
                            spec=condition, status=STATUS_DONE,
                            result=result, elapsed_s=elapsed,
                            queue_wait_s=queue_wait,
                            worker_pid=pid))
                    else:
                        record(ConditionOutcome(
                            spec=condition, status=STATUS_FAILED,
                            error=payload["error"],
                            elapsed_s=elapsed,
                            queue_wait_s=queue_wait,
                            worker_pid=pid))


def execute_campaign(spec: CampaignSpec,
                     store: Optional[ResultStore] = None,
                     max_workers: Optional[int] = 1,
                     chunksize: int = 1,
                     fail_fast: bool = False,
                     progress: Optional[ProgressCallback] = None
                     ) -> CampaignOutcome:
    """Convenience wrapper: build an executor and run *spec* once.

    Defaults to inline serial execution (``max_workers=1``), the
    right choice for library callers like the figure studies; pass
    ``max_workers=None`` to use every core.
    """
    executor = CampaignExecutor(
        store=store, max_workers=max_workers, chunksize=chunksize,
        fail_fast=fail_fast)
    return executor.run(spec, progress=progress)
