"""Tests for the autotune search drivers: budgets, determinism, resume."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.api import experiment
from repro.campaign.store import ResultStore
from repro.errors import ExperimentError, SpecValidationError
from repro.tune import (
    BoolTunable,
    CandidateEvaluator,
    CapacityObjective,
    CategoricalTunable,
    GridSearch,
    IntRangeTunable,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
    assignment_label,
    make_driver,
)
from repro.tune.search import TrialEval

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def two_knob_space():
    return SearchSpace(tunables=(
        BoolTunable(name="smt", field="hardware.server.smt"),
        CategoricalTunable(
            name="gov", field="hardware.server.frequency_governor",
            values=("powersave", "performance")),
    ))


def base_plan():
    return experiment("memcached").client("LP").build()


def objective(*qps):
    return CapacityObjective(qps_list=qps or (400_000.0, 800_000.0),
                             qos_target_us=400.0)


class _FakePlan:
    def content_hash(self):
        return "fake"


class FakeEvaluator:
    """Evaluator double: scores from a lookup, counts simulated work.

    Mirrors the CandidateEvaluator protocol the drivers use so budget
    and promotion properties can be checked without simulating.
    """

    def __init__(self, space, scores=None, failing=(), runs=2,
                 sweep_points=3):
        self.space = space
        self.objective = objective(*(
            10_000.0 * (i + 1) for i in range(sweep_points)))
        self.plan = _FakePlan()
        self.runs = runs
        self.base_seed = 0
        self.scores = scores or {}
        self.failing = set(failing)
        self.simulated_requests = 0

    def cost_per_trial(self, num_requests):
        return (self.runs * int(num_requests)
                * len(self.objective.qps_list))

    def evaluate_many(self, assignments, num_requests, rung=0,
                      progress=None):
        trials = []
        for assignment in assignments:
            label = assignment_label(assignment)
            charged = self.cost_per_trial(num_requests)
            self.simulated_requests += charged
            trial = TrialEval(
                assignment=dict(assignment), label=label,
                num_requests=int(num_requests), rung=int(rung),
                executed=len(self.objective.qps_list),
                charged_requests=charged)
            if label in self.failing:
                trial.failed = trial.executed
                trial.executed = 0
                trial.error = "boom"
            else:
                trial.score = float(self.scores.get(label, 0.0))
            trials.append(trial)
        return trials


class TestBudgetAccounting:
    """Total simulated requests never exceed the declared budget."""

    @pytest.mark.parametrize("size,budget0,eta,initial", [
        (8, 20, 2, None),
        (8, 20, 2, 3),
        (12, 10, 3, None),
        (5, 7, 2, None),
        (1, 50, 2, None),
        (16, 25, 4, 9),
    ])
    def test_halving_within_declared_budget(self, size, budget0, eta,
                                            initial):
        space = SearchSpace(tunables=(
            IntRangeTunable(name="n", field="cluster.nodes",
                            low=1, high=size),))
        evaluator = FakeEvaluator(
            space, scores={assignment_label({"n": i}): float(i)
                           for i in range(1, size + 1)})
        driver = SuccessiveHalving(budget0=budget0, eta=eta,
                                   initial=initial)
        result = driver.run(evaluator)
        assert evaluator.simulated_requests <= result.declared_budget
        assert result.charged_requests == evaluator.simulated_requests
        assert result.declared_budget == driver.declared_budget(evaluator)

    def test_rung_schedule_shrinks_to_one(self):
        driver = SuccessiveHalving(budget0=10, eta=2)
        assert driver.rungs(8) == [(8, 10), (4, 20), (2, 40), (1, 80)]
        assert driver.rungs(1) == [(1, 10)]
        assert driver.rungs(5) == [(5, 10), (3, 20), (2, 40), (1, 80)]

    def test_grid_and_random_budgets_are_exact(self):
        space = two_knob_space()
        evaluator = FakeEvaluator(space)
        grid = GridSearch(num_requests=40)
        result = grid.run(evaluator)
        assert evaluator.simulated_requests == result.declared_budget
        evaluator = FakeEvaluator(space)
        rnd = RandomSearch(samples=3, seed=1, num_requests=40)
        result = rnd.run(evaluator)
        assert evaluator.simulated_requests <= result.declared_budget

    def test_cache_hits_still_charge_budget(self):
        """The bound covers worst-case work, so hits are not free."""
        space = two_knob_space()
        plan = base_plan()
        with ResultStore(":memory:") as store:
            first = GridSearch(num_requests=30).run(CandidateEvaluator(
                plan, space, objective(), runs=1, store=store))
            again = GridSearch(num_requests=30).run(CandidateEvaluator(
                plan, space, objective(), runs=1, store=store))
        assert again.executed == 0
        assert again.charged_requests == first.charged_requests


class TestHalvingPromotion:
    def scores(self):
        # gov=performance,smt=off is the unique winner.
        return {
            "gov=powersave,smt=off": 100.0,
            "gov=performance,smt=off": 400.0,
            "gov=powersave,smt=on": 200.0,
            "gov=performance,smt=on": 300.0,
        }

    def test_winner_survives_to_final_rung(self):
        evaluator = FakeEvaluator(two_knob_space(),
                                  scores=self.scores())
        result = SuccessiveHalving(budget0=10, eta=2).run(evaluator)
        final_rung = max(t.rung for t in result.trials)
        finalists = [t for t in result.trials if t.rung == final_rung]
        assert [t.label for t in finalists] == \
            ["gov=performance,smt=off"]
        assert result.best.label == "gov=performance,smt=off"
        # Budgets doubled every promotion.
        assert sorted({t.num_requests for t in result.trials}) == \
            [10, 20, 40]

    def test_failed_trials_never_promote(self):
        evaluator = FakeEvaluator(
            two_knob_space(), scores=self.scores(),
            failing={"gov=performance,smt=off"})
        result = SuccessiveHalving(budget0=10, eta=2).run(evaluator)
        promoted = {t.label for t in result.trials if t.rung > 0}
        assert "gov=performance,smt=off" not in promoted
        assert result.best.label == "gov=performance,smt=on"

    def test_all_failed_stops_search(self):
        labels = {assignment_label(a)
                  for a in two_knob_space().grid()}
        evaluator = FakeEvaluator(two_knob_space(), failing=labels)
        result = SuccessiveHalving(budget0=10, eta=2).run(evaluator)
        assert result.best is None
        assert max(t.rung for t in result.trials) == 0

    def test_driver_parameter_validation(self):
        with pytest.raises(SpecValidationError):
            SuccessiveHalving(budget0=0)
        with pytest.raises(SpecValidationError):
            SuccessiveHalving(eta=1)
        with pytest.raises(SpecValidationError):
            SuccessiveHalving(initial=0)
        with pytest.raises(SpecValidationError):
            RandomSearch(samples=0)

    def test_make_driver_did_you_mean(self):
        assert isinstance(make_driver("grid"), GridSearch)
        with pytest.raises(ExperimentError,
                           match="did you mean 'halving'"):
            make_driver("halvng")


class TestConditions:
    def test_conditions_keep_the_base_plans_counters(self):
        """A condition is a copy of the candidate plan, so a base plan
        that harvests component counters still harvests them."""
        from repro.campaign.executor import run_condition

        evaluator = CandidateEvaluator(
            base_plan().with_policy(metrics=True), two_knob_space(),
            objective(400_000.0), runs=2, base_seed=7)
        assignment = {"smt": True, "gov": "performance"}
        [condition] = evaluator.conditions(assignment, 50)
        plan = condition.to_plan()
        assert plan.policy.metrics
        assert (plan.policy.runs, plan.load.num_requests,
                plan.load.qps) == (2, 50, 400_000.0)
        assert plan.hardware.server.smt
        assert plan.hardware.server_label == assignment_label(assignment)
        assert all(run.obs_metrics
                   for run in run_condition(condition).runs)


class TestSearchOnRealSimulator:
    def test_grid_finds_max_capacity_config(self):
        """The acceptance scenario: smt x governor over memcached."""
        evaluator = CandidateEvaluator(
            base_plan(), two_knob_space(),
            objective(400_000.0, 800_000.0, 1_200_000.0),
            runs=2, base_seed=7)
        result = GridSearch(num_requests=300).run(evaluator)
        assert len(result.trials) == 4
        assert all(t.ok for t in result.trials)
        best = result.best
        assert best.assignment["gov"] == "performance"
        # powersave violates 400us inside the sweep; performance wins.
        worst = min(result.trials, key=lambda t: t.score)
        assert worst.assignment["gov"] == "powersave"
        assert best.score > worst.score

    def test_interpolated_crossing_feeds_score(self):
        evaluator = CandidateEvaluator(
            base_plan(), two_knob_space(),
            objective(400_000.0, 800_000.0, 1_200_000.0),
            runs=2, base_seed=7)
        result = GridSearch(num_requests=300).run(evaluator)
        crossing = [t for t in result.trials
                    if t.capacity.interpolated_capacity_qps is not None]
        assert crossing, "expected at least one interpolated crossing"
        for trial in crossing:
            assert trial.score == \
                trial.capacity.interpolated_capacity_qps
            assert trial.capacity.capacity_qps < trial.score

    def test_evaluation_order_does_not_change_scores(self):
        """Seeds derive from candidate identity, not trial order."""
        space = two_knob_space()
        obj = objective(400_000.0)

        def scores_for(assignments):
            evaluator = CandidateEvaluator(
                base_plan(), space, obj, runs=2, base_seed=7)
            return {t.label: t.score for t in evaluator.evaluate_many(
                assignments, num_requests=100)}

        forward = scores_for(space.grid())
        backward = scores_for(list(reversed(space.grid())))
        assert forward == backward


DETERMINISM_SCRIPT = textwrap.dedent("""\
    import json, sys
    from repro.api import experiment
    from repro.tune import (BoolTunable, CandidateEvaluator,
                            CapacityObjective, CategoricalTunable,
                            RandomSearch, SearchSpace,
                            SuccessiveHalving)
    space = SearchSpace(tunables=(
        BoolTunable(name="smt", field="hardware.server.smt"),
        CategoricalTunable(
            name="gov", field="hardware.server.frequency_governor",
            values=("powersave", "performance")),
    ))
    plan = experiment("memcached").client("LP").build()
    obj = CapacityObjective(qps_list=(400000.0, 800000.0),
                            qos_target_us=400.0)
    out = {}
    res = RandomSearch(samples=3, seed=11, num_requests=60).run(
        CandidateEvaluator(plan, space, obj, runs=1, base_seed=5))
    out["random"] = [(t.label, t.score) for t in res.trials]
    res = SuccessiveHalving(budget0=30, eta=2, seed=11).run(
        CandidateEvaluator(plan, space, obj, runs=1, base_seed=5))
    out["halving"] = [(t.label, t.rung, t.num_requests, t.score)
                      for t in res.trials]
    out["best"] = res.best.label
    json.dump(out, sys.stdout, sort_keys=True)
""")


class TestCrossProcessDeterminism:
    def run_child(self, hashseed):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["PYTHONHASHSEED"] = str(hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_hostile_hash_seeds_agree(self):
        """Trial order, scores, and the winner survive hash
        randomization -- nothing leans on dict/set iteration order."""
        assert self.run_child(0) == self.run_child(424242)


RESUME_SCRIPT = textwrap.dedent("""\
    import os, signal, sys
    from repro.api import experiment
    from repro.campaign.store import ResultStore
    from repro.tune import (BoolTunable, CandidateEvaluator,
                            CapacityObjective, CategoricalTunable,
                            GridSearch, SearchSpace)
    space = SearchSpace(tunables=(
        BoolTunable(name="smt", field="hardware.server.smt"),
        CategoricalTunable(
            name="gov", field="hardware.server.frequency_governor",
            values=("powersave", "performance")),
    ))
    plan = experiment("memcached").client("LP").build()
    obj = CapacityObjective(qps_list=(400000.0, 800000.0),
                            qos_target_us=400.0)
    kill_after = int(sys.argv[2])
    done = 0
    def progress(outcome, completed, total):
        global done
        done += 1
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
    with ResultStore(sys.argv[1]) as store:
        evaluator = CandidateEvaluator(plan, space, obj, runs=1,
                                       base_seed=5, store=store)
        GridSearch(num_requests=60).run(evaluator, progress=progress)
""")


class TestKillAndResume:
    def test_sigkilled_search_resumes_from_store(self, tmp_path):
        """A killed search re-executes only the missing conditions."""
        store_path = str(tmp_path / "resume.sqlite")
        kill_after = 3
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        proc = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT, store_path,
             str(kill_after)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        space = two_knob_space()
        obj = objective(400_000.0, 800_000.0)
        total = space.size() * len(obj.qps_list)
        with ResultStore(store_path) as store:
            survived = store.count()
            # persist_batch=1: everything finished before the kill
            # is on disk.
            assert 1 <= survived < total
            evaluator = CandidateEvaluator(
                base_plan(), space, obj, runs=1, base_seed=5,
                store=store)
            result = GridSearch(num_requests=60).run(evaluator)
            assert result.cache_hits == survived
            assert result.executed == total - survived
            assert result.failed == 0
            # And the store is now complete: one more run is all hits.
            evaluator = CandidateEvaluator(
                base_plan(), space, obj, runs=1, base_seed=5,
                store=store)
            rerun = GridSearch(num_requests=60).run(evaluator)
        assert rerun.executed == 0
        assert rerun.cache_hits == total
        assert rerun.best.label == result.best.label
        assert rerun.best.score == result.best.score

    def test_identical_rerun_is_all_cache_hits(self, tmp_path):
        store_path = str(tmp_path / "memo.sqlite")
        space = two_knob_space()
        obj = objective(400_000.0)
        with ResultStore(store_path) as store:
            cold = GridSearch(num_requests=50).run(CandidateEvaluator(
                base_plan(), space, obj, runs=1, base_seed=5,
                store=store))
            warm = GridSearch(num_requests=50).run(CandidateEvaluator(
                base_plan(), space, obj, runs=1, base_seed=5,
                store=store))
        assert cold.executed == space.size()
        assert cold.cache_hits == 0
        assert warm.executed == 0
        assert warm.cache_hits == space.size()
        assert [t.score for t in warm.trials] == \
            [t.score for t in cold.trials]
