"""End-to-end tests for the ``capacity``, ``tune --apply`` and ``run``
CLI handlers, plus ``--seed`` threading through ``study``."""

from repro.cli import main as cli_main

#: A tiny capacity grid: two load points, two runs, generous QoS so
#: both observers find nonzero capacity and the provisioning section
#: renders.
TINY_CAPACITY = [
    "capacity", "--qps", "20000", "40000", "--runs", "2",
    "--requests", "60", "--qos-p99", "5000",
    "--target-qps", "100000",
]


class TestCapacity:
    def test_capacity_end_to_end(self, capsys):
        assert cli_main(list(TINY_CAPACITY)) == 0
        output = capsys.readouterr().out
        # Both observers report a capacity under the QoS target...
        assert "LP: capacity" in output
        assert "HP: capacity" in output
        assert "p99 <= 5000 us" in output
        # ...and the fleet-provisioning comparison renders.
        assert "Fleet sizes for 100000 QPS:" in output
        assert "machines" in output
        assert "the optimistic observer" in output

    def test_capacity_sweep_limited_under_tight_qos(self, capsys):
        assert cli_main([
            "capacity", "--qps", "20000", "--runs", "2",
            "--requests", "60", "--qos-p99", "5000",
            "--target-qps", "100000"]) == 0
        # One sweep point means capacity equals the sweep edge.
        assert "sweep-limited" in capsys.readouterr().out

    def test_capacity_is_seed_deterministic(self, capsys):
        cli_main(list(TINY_CAPACITY) + ["--seed", "7"])
        first = capsys.readouterr().out
        cli_main(list(TINY_CAPACITY) + ["--seed", "7"])
        assert capsys.readouterr().out == first

    def test_capacity_seed_changes_the_samples(self, capsys):
        """Different base seeds draw different runs; the handler must
        actually thread --seed through to the plan's runs."""
        import numpy as np

        from repro.api import experiment
        from repro.config.presets import LP_CLIENT

        def p99(seed):
            result = (experiment("memcached").client(LP_CLIENT)
                      .load(qps=20_000, num_requests=60)
                      .policy(runs=2, base_seed=seed).run())
            return float(np.median(result.p99_samples()))

        assert p99(0) != p99(1_000_000)


class TestTuneApply:
    def test_apply_plans_then_applies(self, capsys):
        assert cli_main(["tune", "--config", "HP", "--apply"]) == 0
        output = capsys.readouterr().out
        assert "Tuning plan" in output
        assert "applied" in output
        assert "dry run" not in output

    def test_apply_reports_reboot_for_boot_knobs(self, capsys):
        # HP wants idle=poll, a grub (boot-time) change on the fake
        # Skylake host, so apply must flag the reboot.
        assert cli_main(["tune", "--config", "HP", "--apply"]) == 0
        assert "reboot required" in capsys.readouterr().out

    def test_dry_run_performs_nothing(self, capsys):
        assert cli_main(["tune", "--config", "HP"]) == 0
        output = capsys.readouterr().out
        assert "dry run" in output
        assert "applied" not in output


class TestStudySeed:
    def test_study_accepts_seed(self, capsys):
        base = ["study", "--workload", "memcached", "--knob", "smt",
                "--qps", "20000", "--runs", "2", "--requests", "60"]
        assert cli_main(base + ["--seed", "11"]) == 0
        seeded = capsys.readouterr().out
        assert cli_main(base) == 0
        unseeded = capsys.readouterr().out
        assert seeded.splitlines()[0] == unseeded.splitlines()[0]
        assert seeded != unseeded


class TestRunPlacement:
    RUN = ["run", "--workload", "memcached", "--qps", "40000",
           "--requests", "200", "--runs", "3"]

    def test_serial_and_pooled_placements_print_the_same(self, capsys):
        assert cli_main(self.RUN + ["--processes", "1"]) == 0
        serial = capsys.readouterr().out
        assert cli_main(self.RUN + ["--processes", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "(3 runs x 200 requests, seed 0)" in serial

    def test_nonpositive_processes_fail_cleanly(self, capsys):
        assert cli_main(self.RUN + ["--processes", "0"]) == 1
        assert "processes must be >= 1" in capsys.readouterr().err

    def test_negative_seed_fails_naming_the_field(self, capsys):
        assert cli_main(self.RUN + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: base_seed must be >= 0, got -1\n"
        assert captured.out == ""
