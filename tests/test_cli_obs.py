"""End-to-end tests for the observability CLI surface:
``repro trace``, the ``repro plan`` sink/tracer preview, and the
campaign timing readout."""

import json
import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.obs import validate_chrome_trace

SPEC = {
    "name": "cli-obs",
    "workload": "memcached",
    "clients": ["LP"],
    "conditions": {"SMToff": {"knob": "smt", "enabled": False}},
    "qps": [50_000],
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


class TestTraceCommand:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert cli_main(["trace", "--workload", "memcached",
                         "--qps", "50000", "--requests", "300",
                         "--seed", "5", "--output",
                         str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "trace events" in output
        assert "stage" in output and "request" in output
        # The default kernel adopts nothing in a traced run.
        assert "engine.kernel.scalar_fallbacks" in output
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) > 0
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"request", "service", "net.out"} <= names

    def test_streaming_sink_flag(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert cli_main(["trace", "--workload", "memcached",
                         "--qps", "50000", "--requests", "300",
                         "--sink", "streaming", "--output",
                         str(out_path)]) == 0
        assert out_path.exists()

    def test_unknown_sink_fails_with_suggestion(self, tmp_path,
                                                capsys):
        assert cli_main(["trace", "--workload", "memcached",
                         "--requests", "100", "--sink", "streamin",
                         "--output",
                         str(tmp_path / "t.json")]) == 1
        assert "did you mean 'streaming'" in capsys.readouterr().err


class TestPlanObservabilityPreview:
    def test_default_policy_line(self, capsys):
        assert cli_main(["plan", "--workload", "memcached",
                         "--qps", "10000", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "observability: sink=columnar" in out
        assert "tracing=off" in out
        assert "hot path runs unobserved" in out
        assert "engine: vectorized (fused-handler" in out

    def test_sink_and_trace_flags(self, capsys):
        assert cli_main(["plan", "--workload", "memcached",
                         "--qps", "10000", "--runs", "1",
                         "--sink", "streaming", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "observability: sink=streaming" in out
        assert "tracing=on" in out
        assert "unobserved" not in out

    def test_unknown_sink_fails_before_expansion(self, capsys):
        assert cli_main(["plan", "--workload", "memcached",
                         "--sink", "streamin"]) == 1
        captured = capsys.readouterr()
        assert "did you mean 'streaming'" in captured.err
        assert "experiments" not in captured.out


class TestCampaignTimings:
    def test_progress_reports_wall_time_and_cache(self, spec_file,
                                                  store_path, capsys):
        assert cli_main(["campaign", "run", "--spec", spec_file,
                         "--store", store_path, "--serial"]) == 0
        first = capsys.readouterr().out
        assert "done" in first and "s)" in first
        assert cli_main(["campaign", "run", "--spec", spec_file,
                         "--store", store_path, "--serial"]) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_status_prints_timing_table(self, spec_file, store_path,
                                        capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--spec", spec_file,
                         "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "timings (stored conditions, slowest first):" in out
        assert "LP-SMToff" in out
        assert "total" in out

    def test_status_without_timings_omits_table(self, spec_file,
                                                store_path, capsys):
        cli_main(["campaign", "run", "--spec", spec_file,
                  "--store", store_path, "--serial"])
        # Zero out the recorded timings, as rows written by
        # pre-timing code read back.
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE results SET elapsed_s = 0.0")
        conn.commit()
        conn.close()
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--spec", spec_file,
                         "--store", store_path]) == 0
        assert "timings" not in capsys.readouterr().out


class TestStoreMigration:
    def test_pre_timing_database_gains_elapsed_column(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE results (
                condition_hash  TEXT PRIMARY KEY,
                campaign        TEXT NOT NULL,
                workload        TEXT NOT NULL,
                label           TEXT NOT NULL,
                qps             REAL NOT NULL,
                runs            INTEGER NOT NULL,
                spec_json       TEXT NOT NULL,
                payload_json    TEXT NOT NULL,
                created_at      REAL NOT NULL
            );
        """)
        conn.execute(
            "INSERT INTO results VALUES "
            "('h1', 'c', 'memcached', 'LP', 1.0, 1, '{}', '{}', 0.0)")
        conn.commit()
        conn.close()

        from repro.campaign.store import ResultStore

        with ResultStore(path) as store:
            assert store.count() == 1
            row = store._conn.execute(
                "SELECT elapsed_s FROM results").fetchone()
            assert row[0] == 0.0
