"""Durable result store: SQLite rows keyed by plan content hash.

Every completed condition is persisted as (plan hash, plan JSON,
result payload JSON, model epoch).  The key is content-derived
(:meth:`~repro.api.ExperimentPlan.content_hash` of the condition's
plan), so:

* re-running a campaign skips every condition already in the store
  (a cache hit is byte-identical to a fresh run);
* a campaign killed mid-flight resumes from exactly the conditions it
  had not finished -- partial results were committed as they landed;
* different campaigns that share conditions share results;
* the analysis layer can rebuild figures and tables from the store
  without re-simulating anything.

A plan hash names the experiment, not the model that ran it, so every
row also records the :data:`~repro.core.experiment.MODEL_EPOCH` that
produced it, and reads serve only rows of the current epoch.  Bumping
the epoch retires every older row without touching keys: the rows stay
in the file and are counted, but their conditions re-run.  Rows
written before epochs existed carry no epoch (and a pre-plan key), so
they are never served either.

Only successful conditions are stored; failures stay pending so the
next invocation retries them.  One writer (the campaign parent
process) is assumed -- workers return results to the parent rather
than writing concurrently.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.specs import ExperimentPlan
from repro.campaign.serialize import (
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.campaign.spec import ConditionSpec
from repro.config.serialize import canonical_json
from repro.core.experiment import MODEL_EPOCH, ExperimentResult
from repro.errors import ExperimentError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
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
    worker_pid      INTEGER,
    model_epoch     INTEGER
);
CREATE INDEX IF NOT EXISTS idx_results_campaign
    ON results (campaign);
"""

_INSERT = (
    "INSERT OR REPLACE INTO results (condition_hash, campaign, "
    "workload, label, qps, runs, spec_json, payload_json, "
    "created_at, elapsed_s, queue_wait_s, worker_pid, model_epoch) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")


class ResultStore:
    """SQLite-backed store of per-condition experiment results.

    Args:
        path: database file path; parent directories are created.
            ``":memory:"`` gives an ephemeral in-process store (tests).
    """

    def __init__(self, path: str = "campaign-results.sqlite") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        # WAL keeps readers (status/report invocations) unblocked
        # while the campaign parent writes, and NORMAL synchronous
        # drops the per-transaction fsync to one WAL append -- the
        # right durability trade for a store whose every row can be
        # regenerated by re-running its condition.  In-memory stores
        # ignore the journal-mode request; both pragmas are no-ops
        # there.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._conn.commit()

    def _migrate(self) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing
        table, so columns added after a store was created (the
        per-condition ``elapsed_s`` timing) are patched in here;
        pre-migration rows read back as 0.0 ("timing unknown").  A
        store already at the current schema is left untouched.
        """
        columns = {row[1] for row in self._conn.execute(
            "PRAGMA table_info(results)")}
        if "elapsed_s" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN elapsed_s REAL "
                "NOT NULL DEFAULT 0.0")
        if "queue_wait_s" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN queue_wait_s REAL "
                "NOT NULL DEFAULT 0.0")
        if "worker_pid" not in columns:
            # Nullable: NULL reads back as "unknown" for rows stored
            # before worker attribution existed.
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN worker_pid INTEGER")
        if "model_epoch" not in columns:
            # Nullable: rows stored before model epochs existed read
            # back as NULL, which matches no epoch, so they are
            # counted but never served.
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN model_epoch INTEGER")

    # ------------------------------------------------------------------
    def put(self, spec: ConditionSpec, result: ExperimentResult,
            campaign: str = "",
            result_dict: Optional[Dict[str, Any]] = None,
            elapsed_s: float = 0.0,
            queue_wait_s: float = 0.0,
            worker_pid: Optional[int] = None) -> None:
        """Persist one condition's result (idempotent, last write wins).

        Args:
            spec: the condition the result belongs to.
            result: the experiment result.
            campaign: owning campaign name, for listings.
            result_dict: the result's dict form, when the caller
                already has it (pool workers ship results across the
                pickle boundary as dicts) -- skips re-serializing.
            elapsed_s: wall time the condition took to simulate; 0.0
                means "unknown" (e.g. rows written by older code).
            queue_wait_s: seconds the condition sat queued between
                submission and a worker picking it up.
            worker_pid: pid of the process that executed the
                condition; None means "unknown".
        """
        self.put_many(
            [{"spec": spec, "result": result,
              "result_dict": result_dict, "elapsed_s": elapsed_s,
              "queue_wait_s": queue_wait_s,
              "worker_pid": worker_pid}],
            campaign=campaign)

    def put_many(self, entries: Sequence[Dict[str, Any]],
                 campaign: str = "") -> None:
        """Persist many conditions' results in **one** transaction.

        Each entry is a dict with keys ``spec`` (required), ``result``
        or ``result_dict`` (one required), and optional ``elapsed_s``,
        ``queue_wait_s``, ``worker_pid`` -- the same vocabulary as
        :meth:`put`.  Batching the campaign executor's persists into a
        single commit amortizes the journal round-trip that used to be
        paid per condition (micro-benched in
        ``benchmarks/bench_campaign.py``).
        """
        if not entries:
            return
        now = time.time()
        rows = []
        for entry in entries:
            spec = entry["spec"]
            plan = spec.plan
            result_dict = entry.get("result_dict")
            if result_dict is None:
                result_dict = experiment_result_to_dict(
                    entry["result"])
            worker_pid = entry.get("worker_pid")
            rows.append((
                spec.content_hash(), str(campaign), plan.workload.name,
                spec.label, spec.qps, plan.policy.runs,
                canonical_json(plan.to_dict()),
                canonical_json(result_dict), now,
                float(entry.get("elapsed_s", 0.0)),
                float(entry.get("queue_wait_s", 0.0)),
                None if worker_pid is None else int(worker_pid),
                MODEL_EPOCH))
        with self._conn:
            self._conn.executemany(_INSERT, rows)

    def _current(self, columns: str,
                 condition_hash: str) -> Optional[Tuple[Any, ...]]:
        """*columns* of the current-epoch row under *condition_hash*."""
        return self._conn.execute(
            f"SELECT {columns} FROM results "
            "WHERE condition_hash = ? AND model_epoch = ?",
            (condition_hash, MODEL_EPOCH)).fetchone()

    def get(self, condition_hash: str) -> Optional[ExperimentResult]:
        """The stored result for *condition_hash*, or None."""
        row = self._current("payload_json", condition_hash)
        if row is None:
            return None
        return experiment_result_from_dict(json.loads(row[0]))

    def get_spec(self, condition_hash: str) -> Optional[ConditionSpec]:
        """The stored condition for *condition_hash*, or None."""
        row = self._current("spec_json", condition_hash)
        if row is None:
            return None
        return ConditionSpec(ExperimentPlan.from_json(row[0]))

    def __contains__(self, condition_hash: str) -> bool:
        return self._current("1", condition_hash) is not None

    def hashes(self) -> frozenset:
        """All stored condition hashes of the current model epoch."""
        rows = self._conn.execute(
            "SELECT condition_hash FROM results WHERE model_epoch = ?",
            (MODEL_EPOCH,)).fetchall()
        return frozenset(row[0] for row in rows)

    def count(self) -> int:
        """Number of stored rows, stale ones included."""
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0])

    def stale_count(self) -> int:
        """Rows from another model epoch (or from before epochs)."""
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE model_epoch IS NOT ?",
            (MODEL_EPOCH,)).fetchone()[0])

    def rows(self) -> Iterator[Tuple[str, str, str, float, int, float]]:
        """(hash, campaign, label, qps, runs, created_at) per
        current-epoch row."""
        cursor = self._conn.execute(
            "SELECT condition_hash, campaign, label, qps, runs, "
            "created_at FROM results WHERE model_epoch = ? "
            "ORDER BY created_at", (MODEL_EPOCH,))
        yield from cursor

    def timings_for(self, conditions: List[ConditionSpec]
                    ) -> Dict[str, Tuple[str, float, int, float,
                                         float, Optional[int]]]:
        """hash -> (label, qps, runs, elapsed_s, queue_wait_s,
        worker_pid) for stored conditions.

        Conditions absent from the store are omitted; an elapsed_s of
        0.0 marks a row stored before timings were recorded, and a
        worker_pid of None one stored before worker attribution.
        """
        out: Dict[str, Tuple[str, float, int, float, float,
                             Optional[int]]] = {}
        for condition in conditions:
            key = condition.content_hash()
            row = self._current(
                "label, qps, runs, elapsed_s, queue_wait_s, worker_pid",
                key)
            if row is not None:
                out[key] = (
                    str(row[0]), float(row[1]), int(row[2]),
                    float(row[3]), float(row[4]),
                    None if row[5] is None else int(row[5]))
        return out

    # ------------------------------------------------------------------
    def missing(self, conditions: List[ConditionSpec]
                ) -> List[ConditionSpec]:
        """The subset of *conditions* not yet in the store."""
        stored = self.hashes()
        return [c for c in conditions if c.content_hash() not in stored]

    def results_for(self, conditions: List[ConditionSpec]
                    ) -> Dict[str, ExperimentResult]:
        """hash -> result for every stored member of *conditions*."""
        out: Dict[str, ExperimentResult] = {}
        for condition in conditions:
            key = condition.content_hash()
            result = self.get(key)
            if result is not None:
                out[key] = result
        return out

    def delete(self, condition_hash: str) -> bool:
        """Drop one condition; True if a row was deleted."""
        cursor = self._conn.execute(
            "DELETE FROM results WHERE condition_hash = ?",
            (condition_hash,))
        self._conn.commit()
        return cursor.rowcount > 0

    def clear(self) -> int:
        """Drop every row; returns the number deleted."""
        cursor = self._conn.execute("DELETE FROM results")
        self._conn.commit()
        return cursor.rowcount

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_store(path: Optional[str]) -> Optional[ResultStore]:
    """Open a store, or pass None through (store-less execution)."""
    if path is None:
        return None
    return ResultStore(path)


def require_store(path: str) -> ResultStore:
    """Open an existing store; raise if the file does not exist yet."""
    if path != ":memory:" and not os.path.exists(path):
        raise ExperimentError(
            f"no result store at {path!r}; run the campaign first")
    return ResultStore(path)
