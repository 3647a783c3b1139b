"""Search drivers: grid, seeded random, successive halving.

All three drivers share one evaluation path
(:class:`CandidateEvaluator`): a candidate assignment is applied to
the base plan, copied into one
:class:`~repro.campaign.spec.ConditionSpec` per objective sweep point,
and routed through :class:`~repro.campaign.executor.CampaignExecutor`
-- so evaluations inherit the campaign layer's warm workers, failure
isolation, and :class:`~repro.campaign.store.ResultStore` memoization.
Every condition is keyed by content hash: a killed search re-runs only
the conditions the store never saw, and re-evaluating a candidate the
store already holds is a pure cache hit.

Budget accounting is in *simulated requests*: one evaluation charges
``runs x num_requests x len(qps_list)`` whether it simulated or hit
the cache, so a driver's :meth:`~SearchDriver.declared_budget` is an
upper bound on the requests any invocation simulates.

Determinism: every source of order is explicit (grid product order,
``random.Random(seed)`` draws, score-then-label survivor ranking), so
a fixed seed reproduces the same trials, scores, and winner in any
process regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.specs import ExperimentPlan
from repro.campaign.executor import (
    STATUS_DONE,
    STATUS_HIT,
    CampaignExecutor,
    ProgressCallback,
)
from repro.campaign.spec import ConditionSpec, cell_seed
from repro.campaign.store import ResultStore
from repro.core.provisioning import CapacityResult
from repro.errors import ExperimentError, SpecValidationError
from repro.tune.objective import CapacityObjective
from repro.tune.space import SearchSpace
from repro.tune.tunables import format_value, thaw

#: Store rows written by autotune evaluations carry this campaign tag.
TUNE_CAMPAIGN = "autotune"


def _score_of(trial: "TrialEval") -> float:
    """Sort key helper: failed trials rank below any real score."""
    return trial.score if trial.score is not None else float("-inf")


def assignment_label(assignment: Mapping[str, Any]) -> str:
    """Canonical condition label for one assignment.

    Sorted by tunable name so the label -- which feeds
    :func:`~repro.campaign.spec.cell_seed` and the store rows -- never
    depends on dict iteration order.
    """
    return ",".join(
        f"{name}={format_value(assignment[name])}"
        for name in sorted(assignment))


@dataclass
class TrialEval:
    """One candidate evaluated at one budget.

    Attributes:
        assignment: tunable name -> value.
        label: the canonical condition label.
        num_requests: per-run request budget of this evaluation.
        rung: successive-halving rung (0 for flat searches).
        score: the objective score, or ``None`` for a failed trial.
        capacity: the full capacity result behind the score.
        cache_hits / executed / failed: condition counters for this
            evaluation (one condition per objective sweep point).
        charged_requests: requests charged against the search budget
            (hits included -- the budget bounds worst-case work).
        error: joined condition errors for a failed trial.
    """

    assignment: Dict[str, Any]
    label: str
    num_requests: int
    rung: int = 0
    score: Optional[float] = None
    capacity: Optional[CapacityResult] = None
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    charged_requests: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the trial produced a score."""
        return self.score is not None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (reports, ``--json`` exports)."""
        return {
            "assignment": {name: thaw(value)
                           for name, value in self.assignment.items()},
            "label": self.label,
            "num_requests": self.num_requests,
            "rung": self.rung,
            "score": self.score,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "charged_requests": self.charged_requests,
            "error": self.error,
        }


class CandidateEvaluator:
    """Scores candidate assignments through the campaign executor.

    Each candidate plan becomes one condition per objective sweep
    point: a copy at that load with the evaluator's runs, the
    evaluation's request budget, the cell's seed block and the
    assignment's labels.  Every other field of the candidate is kept,
    the base plan's observability settings (sink, trace, metrics)
    included.

    Args:
        plan: the base plan candidates are derived from.
        space: the tunable space (validated against *plan* here, so an
            inapplicable space fails before anything simulates).
        objective: the capacity objective.
        runs: repetitions per sweep point.
        base_seed: seed root; per-condition blocks derive from the
            candidate label + qps via :func:`cell_seed`, never from
            trial order -- evaluating candidates in any order yields
            identical results.
        store: evaluation cache; ``None`` disables memoization.
        max_workers: executor processes (1 = inline).
    """

    def __init__(self, plan: ExperimentPlan, space: SearchSpace,
                 objective: CapacityObjective, *,
                 runs: int = 3, base_seed: int = 0,
                 store: Optional[ResultStore] = None,
                 max_workers: int = 1, chunksize: int = 1,
                 campaign: str = TUNE_CAMPAIGN) -> None:
        if runs < 1:
            raise SpecValidationError(
                f"runs must be >= 1, got {runs}")
        space.validate_against(plan)
        self.plan = plan
        self.space = space
        self.objective = objective
        self.runs = int(runs)
        self.base_seed = int(base_seed)
        self.campaign = str(campaign)
        # persist_batch=1: the resume guarantee is per evaluation, so
        # every finished condition must survive a kill immediately.
        self.executor = CampaignExecutor(
            store=store, max_workers=max_workers, chunksize=chunksize,
            fail_fast=False, persist_batch=1)

    # ------------------------------------------------------------------
    def conditions(self, assignment: Mapping[str, Any],
                   num_requests: int) -> List[ConditionSpec]:
        """The condition list one evaluation executes (one per qps)."""
        candidate = self.space.apply(self.plan, assignment)
        label = assignment_label(assignment)
        client_label = candidate.hardware.client_label or "client"
        base = (candidate
                .with_client(candidate.hardware.client, client_label)
                .with_server(candidate.hardware.server, label)
                .with_load(num_requests=int(num_requests))
                .with_policy(runs=self.runs,
                             label=f"{client_label}-{label}"))
        return [
            ConditionSpec(base.with_qps(qps).with_seed(cell_seed(
                self.base_seed, client_label, label, float(qps))))
            for qps in self.objective.qps_list]

    def cost_per_trial(self, num_requests: int) -> int:
        """Requests one evaluation charges against the budget."""
        return (self.runs * int(num_requests)
                * len(self.objective.qps_list))

    def evaluate_many(self, assignments: Sequence[Mapping[str, Any]],
                      num_requests: int, rung: int = 0,
                      progress: Optional[ProgressCallback] = None
                      ) -> List[TrialEval]:
        """Evaluate a batch of assignments at one budget.

        All conditions ship to the executor in one call, so cache hits
        are served first and a process pool stays warm across the
        whole batch.
        """
        per_trial = len(self.objective.qps_list)
        batches = [self.conditions(assignment, num_requests)
                   for assignment in assignments]
        flat = [condition for batch in batches for condition in batch]
        outcomes = self.executor.run_conditions(
            flat, campaign=self.campaign, progress=progress)
        trials: List[TrialEval] = []
        for index, assignment in enumerate(assignments):
            chunk = outcomes[index * per_trial:(index + 1) * per_trial]
            trial = TrialEval(
                assignment=dict(assignment),
                label=assignment_label(assignment),
                num_requests=int(num_requests),
                rung=int(rung),
                cache_hits=sum(
                    1 for o in chunk if o.status == STATUS_HIT),
                executed=sum(
                    1 for o in chunk if o.status == STATUS_DONE),
                failed=sum(1 for o in chunk if o.result is None),
                charged_requests=self.cost_per_trial(num_requests),
            )
            if trial.failed:
                trial.error = "; ".join(
                    f"{o.spec.qps:g}: {o.error}"
                    for o in chunk if o.result is None)
            else:
                results = {o.spec.qps: o.result for o in chunk
                           if o.result is not None}
                capacity = self.objective.capacity(results)
                trial.capacity = capacity
                trial.score = capacity.best_capacity_qps
            trials.append(trial)
        return trials


@dataclass
class TuneResult:
    """Everything one search invocation produced.

    Attributes:
        driver: driver name (``grid`` / ``random`` / ``halving``).
        space / objective: the definitions that ran.
        trials: every evaluation, in execution order.
        declared_budget: the driver's request-budget upper bound.
        base_plan_hash: content hash of the base plan.
        runs / base_seed: evaluator settings, for provenance.
        elapsed_s: wall-clock seconds.
    """

    driver: str
    space: SearchSpace
    objective: CapacityObjective
    trials: List[TrialEval] = field(default_factory=list)
    declared_budget: int = 0
    base_plan_hash: str = ""
    runs: int = 1
    base_seed: int = 0
    elapsed_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def best(self) -> Optional[TrialEval]:
        """The winning trial: highest score, largest budget, then label.

        ``None`` when every trial failed.
        """
        scored = [t for t in self.trials if t.score is not None]
        if not scored:
            return None
        return sorted(
            scored,
            key=lambda t: (-_score_of(t), -t.num_requests, t.label))[0]

    @property
    def charged_requests(self) -> int:
        """Requests charged against the budget (hits included)."""
        return sum(t.charged_requests for t in self.trials)

    @property
    def cache_hits(self) -> int:
        """Conditions served from the store across all trials."""
        return sum(t.cache_hits for t in self.trials)

    @property
    def executed(self) -> int:
        """Conditions actually simulated across all trials."""
        return sum(t.executed for t in self.trials)

    @property
    def failed(self) -> int:
        """Conditions that errored across all trials."""
        return sum(t.failed for t in self.trials)

    def summary(self) -> str:
        """One-line human summary of the invocation."""
        best = self.best
        verdict = (f"best {best.label} @ {best.score:,.0f} QPS"
                   if best is not None else "no successful trial")
        return (f"autotune [{self.driver}]: {len(self.trials)} trials, "
                f"{self.cache_hits} cached, {self.executed} executed, "
                f"{self.failed} failed conditions in "
                f"{self.elapsed_s:.2f}s -- {verdict}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the ``--json`` export)."""
        best = self.best
        return {
            "driver": self.driver,
            "space": self.space.to_dict(),
            "objective": self.objective.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
            "declared_budget": self.declared_budget,
            "charged_requests": self.charged_requests,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "base_plan_hash": self.base_plan_hash,
            "runs": self.runs,
            "base_seed": self.base_seed,
            "elapsed_s": self.elapsed_s,
            "best": best.to_dict() if best is not None else None,
        }


class SearchDriver:
    """Driver protocol: a budget declaration and a run loop."""

    name: str = ""

    def declared_budget(self, evaluator: CandidateEvaluator) -> int:
        """Upper bound on requests any invocation simulates."""
        raise NotImplementedError

    def run(self, evaluator: CandidateEvaluator,
            progress: Optional[ProgressCallback] = None) -> TuneResult:
        """Execute the search to completion."""
        raise NotImplementedError

    def _result(self, evaluator: CandidateEvaluator,
                trials: List[TrialEval],
                started: float) -> TuneResult:
        return TuneResult(
            driver=self.name, space=evaluator.space,
            objective=evaluator.objective, trials=trials,
            declared_budget=self.declared_budget(evaluator),
            base_plan_hash=evaluator.plan.content_hash(),
            runs=evaluator.runs, base_seed=evaluator.base_seed,
            elapsed_s=time.perf_counter() - started)


@dataclass
class GridSearch(SearchDriver):
    """Exhaustive sweep of the space's grid, in product order."""

    num_requests: int = 200

    name = "grid"

    def declared_budget(self, evaluator: CandidateEvaluator) -> int:
        return (evaluator.space.size()
                * evaluator.cost_per_trial(self.num_requests))

    def run(self, evaluator: CandidateEvaluator,
            progress: Optional[ProgressCallback] = None) -> TuneResult:
        started = time.perf_counter()
        trials = evaluator.evaluate_many(
            evaluator.space.grid(), self.num_requests,
            progress=progress)
        return self._result(evaluator, trials, started)


@dataclass
class RandomSearch(SearchDriver):
    """Seeded random draws, deduplicated, evaluated in draw order.

    Draws come from ``random.Random(seed)`` only, so the candidate
    sequence is identical in every process.  Duplicate draws are
    skipped (they would be pure cache hits anyway) until ``samples``
    distinct candidates exist or the attempt cap -- covering spaces
    smaller than ``samples`` -- is exhausted.
    """

    samples: int = 8
    seed: int = 0
    num_requests: int = 200

    name = "random"

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise SpecValidationError(
                f"samples must be >= 1, got {self.samples}")

    def declared_budget(self, evaluator: CandidateEvaluator) -> int:
        return (self.samples
                * evaluator.cost_per_trial(self.num_requests))

    def _draw(self, space: SearchSpace) -> List[Dict[str, Any]]:
        rng = random.Random(self.seed)
        drawn: List[Dict[str, Any]] = []
        seen: set = set()
        attempts = 0
        while len(drawn) < self.samples and attempts < self.samples * 50:
            attempts += 1
            assignment = space.sample(rng)
            key = space.assignment_key(assignment)
            if key in seen:
                continue
            seen.add(key)
            drawn.append(assignment)
        return drawn

    def run(self, evaluator: CandidateEvaluator,
            progress: Optional[ProgressCallback] = None) -> TuneResult:
        started = time.perf_counter()
        trials = evaluator.evaluate_many(
            self._draw(evaluator.space), self.num_requests,
            progress=progress)
        return self._result(evaluator, trials, started)


@dataclass
class SuccessiveHalving(SearchDriver):
    """Rung-promoted search: wide and cheap, then narrow and thorough.

    Rung 0 evaluates ``initial`` candidates (default: the full grid;
    larger-than-grid values clip; smaller values draw a seeded random
    subset) at ``budget0`` requests per run.  Each promotion keeps the
    top ``ceil(n / eta)`` by score (ties broken by label, so
    promotion is deterministic) and multiplies the per-run budget by
    ``eta``, until one candidate remains.  Failed trials never
    promote.
    """

    budget0: int = 50
    eta: int = 2
    seed: int = 0
    initial: Optional[int] = None

    name = "halving"

    def __post_init__(self) -> None:
        if self.budget0 < 1:
            raise SpecValidationError(
                f"budget0 must be >= 1, got {self.budget0}")
        if self.eta < 2:
            raise SpecValidationError(
                f"eta must be >= 2, got {self.eta}")
        if self.initial is not None and self.initial < 1:
            raise SpecValidationError(
                f"initial must be >= 1, got {self.initial}")

    # ------------------------------------------------------------------
    def _initial_count(self, space: SearchSpace) -> int:
        size = space.size()
        if self.initial is None:
            return size
        return min(int(self.initial), size)

    def rungs(self, n0: int) -> List[Tuple[int, int]]:
        """The ``(candidates, requests-per-run)`` schedule from *n0*."""
        out: List[Tuple[int, int]] = []
        n, budget = max(1, int(n0)), self.budget0
        while True:
            out.append((n, budget))
            if n == 1:
                break
            n = math.ceil(n / self.eta)
            budget *= self.eta
        return out

    def declared_budget(self, evaluator: CandidateEvaluator) -> int:
        n0 = self._initial_count(evaluator.space)
        return sum(n * evaluator.cost_per_trial(budget)
                   for n, budget in self.rungs(n0))

    # ------------------------------------------------------------------
    def run(self, evaluator: CandidateEvaluator,
            progress: Optional[ProgressCallback] = None) -> TuneResult:
        started = time.perf_counter()
        space = evaluator.space
        candidates = space.grid()
        count = self._initial_count(space)
        if count < len(candidates):
            rng = random.Random(self.seed)
            candidates = rng.sample(candidates, count)
        trials: List[TrialEval] = []
        for rung, (n, budget) in enumerate(self.rungs(len(candidates))):
            current = candidates[:n]
            evals = evaluator.evaluate_many(
                current, budget, rung=rung, progress=progress)
            trials.extend(evals)
            survivors = sorted(
                (t for t in evals if t.score is not None),
                key=lambda t: (-_score_of(t), t.label))
            if not survivors:
                break
            keep = max(1, math.ceil(len(current) / self.eta))
            by_label = {t.label: t.assignment for t in evals}
            candidates = [by_label[t.label]
                          for t in survivors[:keep]]
            if len(current) == 1:
                break
        return self._result(evaluator, trials, started)


#: driver name -> class, the CLI dispatch (with did-you-mean).
SEARCH_DRIVERS: Dict[str, type] = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    SuccessiveHalving.name: SuccessiveHalving,
}


def make_driver(name: str, **kwargs: Any) -> SearchDriver:
    """Build a driver by name (strict, with a did-you-mean)."""
    import difflib

    if name not in SEARCH_DRIVERS:
        close = difflib.get_close_matches(
            str(name), list(SEARCH_DRIVERS), n=1)
        hint = f" -- did you mean {close[0]!r}?" if close else ""
        raise ExperimentError(
            f"unknown search driver {name!r}{hint}; expected one "
            "of: " + ", ".join(sorted(SEARCH_DRIVERS)))
    return SEARCH_DRIVERS[name](**kwargs)
