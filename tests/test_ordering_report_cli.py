"""Tests for run ordering, the report writer and the CLI."""

import pytest

from repro.analysis.figures import memcached_study
from repro.analysis.report import study_report, write_report
from repro.api import experiment
from repro.cli import main as cli_main
from repro.config.presets import HP_CLIENT, LP_CLIENT
from repro.core.ordering import build_schedule, run_ordered
from repro.errors import ExperimentError


class TestSchedule:
    def test_grouped_runs_conditions_back_to_back(self):
        schedule = build_schedule(["A", "B"], runs=3,
                                  strategy="grouped")
        assert schedule == [("A", 0), ("A", 1), ("A", 2),
                            ("B", 0), ("B", 1), ("B", 2)]

    def test_interleaved_alternates(self):
        schedule = build_schedule(["A", "B"], runs=2,
                                  strategy="interleaved")
        assert schedule == [("A", 0), ("B", 0), ("A", 1), ("B", 1)]

    def test_shuffled_is_permutation(self):
        grouped = build_schedule(["A", "B"], runs=5, strategy="grouped")
        shuffled = build_schedule(["A", "B"], runs=5,
                                  strategy="shuffled", seed=1)
        assert sorted(shuffled) == sorted(grouped)
        assert shuffled != grouped

    def test_shuffle_deterministic_by_seed(self):
        a = build_schedule(["A", "B"], runs=5, strategy="shuffled",
                           seed=2)
        b = build_schedule(["A", "B"], runs=5, strategy="shuffled",
                           seed=2)
        assert a == b

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ExperimentError):
            build_schedule(["A"], runs=1, strategy="sorted")

    def test_empty_conditions_rejected(self):
        with pytest.raises(ExperimentError):
            build_schedule([], runs=1)


class TestRunOrdered:
    def builders(self):
        return {
            "LP": (experiment("memcached").client(LP_CLIENT)
                   .load(qps=50_000, num_requests=100).build().testbed),
            "HP": (experiment("memcached").client(HP_CLIENT)
                   .load(qps=50_000, num_requests=100).build().testbed),
        }

    def test_all_conditions_get_all_runs(self):
        results = run_ordered(self.builders(), runs=3,
                              strategy="shuffled")
        assert set(results) == {"LP", "HP"}
        assert all(len(runs) == 3 for runs in results.values())

    def test_order_invariance_in_simulation(self):
        """Same seeds, different wall-clock order: identical results
        (the simulator has no cross-run state, unlike real hardware)."""
        grouped = run_ordered(self.builders(), runs=3,
                              strategy="grouped")
        shuffled = run_ordered(self.builders(), runs=3,
                               strategy="shuffled", order_seed=9)
        for condition in ("LP", "HP"):
            a = [m.avg_us for m in grouped[condition]]
            b = [m.avg_us for m in shuffled[condition]]
            assert a == b


class TestReport:
    @pytest.fixture(scope="class")
    def grid(self):
        # 10 runs: enough for the CIs (>= 8) and CONFIRM (>= 10).
        return memcached_study(knob="smt", qps_list=(50_000,),
                               runs=10, num_requests=100)

    def test_report_contains_all_sections(self, grid):
        text = study_report(grid, "SMT study", "SMToff", "SMTon")
        assert "# SMT study" in text
        assert "## Conditions" in text
        assert "## Results" in text
        assert "## Conclusions" in text
        assert "LP-SMToff" in text
        assert "Shapiro-Wilk" in text

    def test_report_without_comparison(self, grid):
        text = study_report(grid, "plain")
        assert "## Conclusions" not in text

    def test_write_report(self, grid, tmp_path):
        path = tmp_path / "report.md"
        write_report(str(path), study_report(grid, "t"))
        assert path.read_text().startswith("# t")


class TestCli:
    def test_recommend(self, capsys):
        assert cli_main(["recommend", "--loop", "open",
                         "--interarrival", "block-wait"]) == 0
        output = capsys.readouterr().out
        assert "Recommendation" in output
        assert "HP" in output

    def test_tune_dry_run(self, capsys):
        assert cli_main(["tune", "--config", "LP"]) == 0
        output = capsys.readouterr().out
        assert "Tuning plan" in output
        assert "dry run" in output

    def test_tune_apply_on_fake_host(self, capsys):
        assert cli_main(["tune", "--config", "HP", "--apply"]) == 0
        assert "applied" in capsys.readouterr().out

    def test_study_small(self, capsys):
        assert cli_main([
            "study", "--workload", "memcached", "--knob", "smt",
            "--qps", "50000", "--runs", "3", "--requests", "80",
        ]) == 0
        output = capsys.readouterr().out
        assert "LP-SMToff" in output
