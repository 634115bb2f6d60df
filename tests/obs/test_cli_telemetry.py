"""The ``repro telemetry`` and ``repro top`` CLI subcommands end-to-end
(at reduced scale)."""

import json

import pytest

from repro.__main__ import main

pytestmark = pytest.mark.telemetry

#: Small enough for tier-1, large enough that the flash crowd sheds and
#: the windows carry real traffic.
ARGS = ["--seed", "11", "--duration", "3.0", "--clients", "6",
        "--objects", "150", "--settle", "1.5"]


class TestTelemetryCli:
    def test_per_window_dump(self, capsys):
        rc = main(["telemetry"] + ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "ev/s=" in out
        assert "requests=" in out
        assert "windows x" in out

    def test_jsonl_export(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        rc = main(["telemetry"] + ARGS + ["--jsonl", str(path)])
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[-1]["rec"] == "summary"
        window = records[0]
        assert window["rec"] == "window"
        assert "heap_depth" in window["gauges"]
        assert "rss_kb" not in window, "host readings are opt-in"

    def test_jsonl_host_export_reads_rss(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        rc = main(["telemetry"] + ARGS + ["--jsonl", str(path), "--host"])
        assert rc == 0
        records = [json.loads(line)
                   for line in path.read_text().strip().split("\n")]
        windows = [r for r in records if r["rec"] == "window"]
        assert windows
        assert all(w["rss_kb"] > 0 for w in windows)

    def test_prometheus_export(self, tmp_path, capsys):
        path = tmp_path / "tel.prom"
        rc = main(["telemetry"] + ARGS + ["--prom", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "# TYPE repro_events_total counter" in text
        assert "repro_requests_total" in text

    def test_exports_identical_across_invocations(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["telemetry"] + ARGS + ["--jsonl", str(a)])
        main(["telemetry"] + ARGS + ["--jsonl", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestTopCli:
    def test_dashboard(self, capsys):
        rc = main(["top"] + ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "== overload episode seed=11 ==" in out
        assert "-- totals --" in out
        assert "-- gauges (last window) --" in out
        assert "-- scheduler --" in out
        assert "heap high-water" in out
        assert "event Timeout" in out
        assert "site  " in out  # callsite attribution lines
        assert "-- slo --" in out
        assert "[PASS] served_p99" in out
        assert "peak rss" in out

    def test_watch_prepends_window_timeline(self, capsys):
        main(["top"] + ARGS + ["--watch"])
        out = capsys.readouterr().out
        assert out.index("ev/s=") < out.index("== overload episode")
