"""End-to-end tests for the ``repro campaign`` CLI."""

import dataclasses
import json

import pytest

from repro.cli import main as cli_main
from repro.workloads.registry import register_workload, workload_by_name

SPEC = {
    "name": "cli-campaign",
    "workload": "memcached",
    "clients": ["LP"],
    "conditions": {
        "SMToff": {"knob": "smt", "enabled": False},
        "SMTon": {"knob": "smt", "enabled": True},
    },
    "qps": [10_000, 50_000],
    "runs": 2,
    "num_requests": 60,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.sqlite")


class TestCampaignRun:
    def test_run_executes_and_persists(self, spec_file, store_path,
                                       capsys):
        assert cli_main(["campaign", "run", "--spec", spec_file,
                         "--store", store_path, "--serial"]) == 0
        output = capsys.readouterr().out
        assert "4 conditions, 0 cached, 4 executed, 0 failed" in output
        assert "LP-SMToff @ 10000" in output

    def test_rerun_is_all_cache_hits(self, spec_file, store_path,
                                     capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        assert cli_main(["campaign", "run", "--spec", spec_file,
                         "--store", store_path, "--serial"]) == 0
        assert ("4 conditions, 4 cached, 0 executed, 0 failed"
                in capsys.readouterr().out)

    def test_parallel_run(self, spec_file, store_path, capsys):
        assert cli_main(["campaign", "run", "--spec", spec_file,
                         "--store", store_path, "--workers", "2"]) == 0
        assert "4 executed" in capsys.readouterr().out

    def test_preset_with_overrides(self, store_path, capsys):
        assert cli_main([
            "campaign", "run", "--preset", "memcached-smt",
            "--qps", "10000", "--runs", "2", "--requests", "60",
            "--seed", "3", "--store", store_path, "--serial"]) == 0
        assert "2 conditions" not in capsys.readouterr().out  # 2x2x1=4

    def test_unknown_preset_fails_cleanly(self, store_path, capsys):
        assert cli_main(["campaign", "run", "--preset", "nope",
                         "--store", store_path, "--serial"]) == 1
        assert "unknown campaign preset" in capsys.readouterr().err

    def test_failed_condition_sets_exit_code(self, tmp_path, store_path,
                                             capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("injected build failure")

        register_workload(dataclasses.replace(
            workload_by_name("memcached"), name="cli-broken-test",
            make_generator=broken), replace=True)
        bad = dict(SPEC, workload="cli-broken-test")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli_main(["campaign", "run", "--spec", str(path),
                         "--store", store_path, "--serial"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_unknown_workload_fails_before_running(self, tmp_path,
                                                   store_path, capsys):
        """Conditions are validated plans: an unregistered workload
        stops the campaign at expansion, before anything runs."""
        bad = dict(SPEC, workload="not-registered")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli_main(["campaign", "run", "--spec", str(path),
                         "--store", store_path, "--serial"]) == 1
        captured = capsys.readouterr()
        assert "unknown workload 'not-registered'" in captured.err
        assert "executed" not in captured.out


class TestCampaignStatus:
    def test_status_reports_completion(self, spec_file, store_path,
                                       capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--spec", spec_file,
                         "--store", store_path]) == 0
        output = capsys.readouterr().out
        assert "complete:   4/4" in output

    def test_status_lists_missing_conditions(self, tmp_path, spec_file,
                                             store_path, capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        wider = dict(SPEC, qps=[10_000, 50_000, 100_000])
        wider_file = tmp_path / "wider.json"
        wider_file.write_text(json.dumps(wider))
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--spec",
                         str(wider_file), "--store", store_path]) == 0
        output = capsys.readouterr().out
        assert "complete:   4/6" in output
        assert "LP-SMToff @ 100000" in output

    def test_status_without_store_errors(self, spec_file, tmp_path,
                                         capsys):
        assert cli_main([
            "campaign", "status", "--spec", spec_file,
            "--store", str(tmp_path / "absent.sqlite")]) == 1
        assert "no result store" in capsys.readouterr().err


class TestCampaignReport:
    def test_report_renders_series_from_store(self, spec_file,
                                              store_path, capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        assert cli_main(["campaign", "report", "--spec", spec_file,
                         "--store", store_path, "--metric", "p99"]) == 0
        output = capsys.readouterr().out
        assert "memcached: p99 (us) by QPS" in output
        assert "LP-SMToff" in output
        # Two conditions: the ratio table renders too.
        assert "SMToff/SMTon ratio" in output

    def test_stdev_metric_skips_the_ratio_section(self, spec_file,
                                                  store_path, capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        assert cli_main(["campaign", "report", "--spec", spec_file,
                         "--store", store_path,
                         "--metric", "stdev_avg"]) == 0
        output = capsys.readouterr().out
        assert "memcached: stdev_avg (us) by QPS" in output
        assert "ratio" not in output

    def test_report_on_incomplete_campaign_errors(self, tmp_path,
                                                  spec_file, store_path,
                                                  capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        wider = dict(SPEC, qps=[10_000, 50_000, 100_000])
        wider_file = tmp_path / "wider.json"
        wider_file.write_text(json.dumps(wider))
        capsys.readouterr()
        assert cli_main(["campaign", "report", "--spec",
                         str(wider_file), "--store", store_path]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_report_matches_equivalent_study(self, spec_file,
                                             store_path, capsys):
        """The store-backed report equals the figure-study rendering:
        one execution path, one set of seeds."""
        from repro.analysis.figures import (
            memcached_study,
            render_latency_series,
        )

        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        cli_main(["campaign", "report", "--spec", spec_file,
                  "--store", store_path])
        report_table = capsys.readouterr().out.split("\n\n")[0].strip()
        grid = memcached_study(
            knob="smt", qps_list=(10_000, 50_000), runs=2,
            num_requests=60)
        lp_rows = [line for line
                   in render_latency_series(grid, "avg").splitlines()
                   if line.startswith("LP-")]
        for row in lp_rows:
            assert row in report_table
