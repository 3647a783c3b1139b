"""Tests for the experiment runner and result summaries."""

import pytest

from repro.api import experiment
from repro.config.presets import HP_CLIENT
from repro.core.experiment import Experiment
from repro.errors import ExperimentError


def plan(runs, base_seed=0, label=""):
    return (experiment("memcached").client(HP_CLIENT)
            .load(qps=50_000, num_requests=120)
            .policy(runs=runs, base_seed=base_seed, label=label)
            .build())


class TestExperiment:
    def test_collects_one_sample_per_run(self):
        result = plan(runs=6, base_seed=0).run()
        assert len(result.runs) == 6
        assert result.avg_samples().shape == (6,)
        assert result.p99_samples().shape == (6,)

    def test_runs_use_distinct_seeds(self):
        result = plan(runs=5, base_seed=100).run()
        assert [run.seed for run in result.runs] == [
            100, 101, 102, 103, 104]

    def test_samples_are_reproducible(self):
        a = plan(runs=4, base_seed=7).run()
        b = plan(runs=4, base_seed=7).run()
        assert (a.avg_samples() == b.avg_samples()).all()

    def test_label_defaults_to_workload(self):
        result = plan(runs=2).run()
        assert result.label == "memcached"
        assert result.workload == "memcached"
        assert result.qps == 50_000

    def test_custom_label(self):
        result = plan(runs=2, label="HP-SMToff").run()
        assert result.label == "HP-SMToff"

    def test_median_cis_computed(self):
        result = plan(runs=10).run()
        ci = result.median_avg_ci()
        assert ci.lower <= ci.point <= ci.upper
        p99_ci = result.median_p99_ci()
        assert p99_ci.point > ci.point

    def test_stats_and_stdev(self):
        result = plan(runs=8).run()
        stats = result.avg_stats()
        assert stats.count == 8
        assert result.stdev_avg_us() == pytest.approx(stats.std)

    def test_true_samples_below_measured(self):
        result = plan(runs=5).run()
        assert (result.true_avg_samples()
                <= result.avg_samples() + 1e-9).all()

    def test_zero_runs_rejected(self):
        with pytest.raises(ExperimentError):
            Experiment(plan(1).builder(), runs=0)

    def test_utilization_averaged(self):
        result = plan(runs=3).run()
        assert 0.0 < result.mean_server_utilization() < 1.0
