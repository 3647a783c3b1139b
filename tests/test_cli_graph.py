"""The ``repro graph`` subcommand and graph plan printing."""

from repro.cli import main as cli_main


class TestGraphCommand:
    def test_runs_and_reports_tier_counters(self, capsys):
        exit_code = cli_main([
            "graph", "--workload", "memcached",
            "--graph", "memcached-cached",
            "--runs", "2", "--requests", "150",
            "--qps", "50000", "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "service graph 'memcached-cached'" in out
        assert "frontend: single-server -> cache" in out
        assert "median p99 latency" in out
        assert "cache.cache.hit_rate" in out
        assert "resilience.leaf.hedges" in out
        assert "leaf-fanout[n0].subs_completed" in out

    def test_diurnal_arrival_is_reported(self, capsys):
        exit_code = cli_main([
            "graph", "--graph", "memcached-cached",
            "--arrival", "diurnal",
            "--runs", "1", "--requests", "80", "--qps", "50000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "diurnal (period 20000us" in out

    def test_hdsearch_graph_preset_runs(self, capsys):
        exit_code = cli_main([
            "graph", "--workload", "hdsearch",
            "--graph", "hdsearch-graph",
            "--runs", "1", "--requests", "60", "--qps", "1000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "resilience.leaf.retries" in out

    def test_unknown_preset_fails_with_did_you_mean(self, capsys):
        exit_code = cli_main([
            "graph", "--graph", "memcached-cachd",
            "--runs", "1", "--requests", "30"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "did you mean 'memcached-cached'" in err

    def test_vectorized_engine_accepted(self, capsys):
        exit_code = cli_main([
            "graph", "--graph", "memcached-cached",
            "--engine", "vectorized",
            "--runs", "1", "--requests", "80", "--qps", "50000"])
        assert exit_code == 0


class TestPlanPrintsGraphTopology:
    def test_ad_hoc_graph_plan_prints_tiers(self, capsys):
        exit_code = cli_main([
            "plan", "--workload", "memcached",
            "--graph", "memcached-cached",
            "--qps", "50000", "--runs", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "service graph:" in out
        assert "cache: cache (hit 80%" in out
        assert "[policy: hedge x1" in out
        assert "dry run" in out

    def test_preset_campaign_prints_graph_and_arrival(self, capsys):
        exit_code = cli_main([
            "plan", "--preset", "memcached-cached"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "service graph:" in out
        assert "arrival process: diurnal" in out

    def test_unknown_graph_fails_before_expansion(self, capsys):
        exit_code = cli_main([
            "plan", "--workload", "memcached",
            "--graph", "memcached-cachd"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "did you mean 'memcached-cached'" in captured.err
        # Validation happened before any expansion output.
        assert "campaign" not in captured.out

    def test_graph_flag_rejected_with_preset(self, capsys):
        exit_code = cli_main([
            "plan", "--preset", "memcached-smt",
            "--graph", "memcached-cached"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "--graph" in err

    def test_flat_plan_prints_no_graph(self, capsys):
        exit_code = cli_main([
            "plan", "--workload", "memcached", "--qps", "50000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "service graph:" not in out
