"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


def run_cli(*argv):
    return main(list(argv))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_clients_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--clients", "abc"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--clients", "0"])

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])


class TestCommands:
    def test_schemes(self, capsys):
        assert run_cli("schemes") == 0
        out = capsys.readouterr().out
        assert "partition-ca" in out
        assert "config 3" in out

    def test_overhead(self, capsys):
        assert run_cli("overhead", "--objects", "500",
                       "--lookups", "500") == 0
        out = capsys.readouterr().out
        assert "URL table overhead" in out
        assert "260 KB" in out  # the paper reference line

    def test_run_cell(self, capsys):
        assert run_cli("run", "--scheme", "partition-ca",
                       "--workload", "A", "--clients", "8",
                       "--duration", "2.5", "--warmup", "0.5",
                       "--objects", "300") == 0
        out = capsys.readouterr().out
        assert "throughput req/s" in out
        assert "partition-ca / workload A / 8 clients" in out

    def test_figures_single(self, capsys):
        assert run_cli("figures", "--figure", "4", "--clients", "6,10",
                       "--duration", "2.5", "--warmup", "0.5") == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Figure 2" not in out

    def test_sweep_clients_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert run_cli("sweep-clients", "--scheme", "partition-ca",
                       "--workload", "A", "--clients", "4,8",
                       "--duration", "2.5", "--warmup", "0.5",
                       "--objects", "300", "--output", str(target)) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("scheme,workload,n_clients")
        assert len(lines) == 3

    def test_sweep_runs_spec_and_resumes(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "schema_version": 1, "name": "cli-tiny",
            "blocks": [{
                "target": "openloop",
                "base": {"rate": 150.0, "duration": 0.4, "seed": 42},
                "axes": {"prefork": [4, 8]},
            }],
        }))
        out = tmp_path / "sweeps"
        assert run_cli("sweep", "--spec", str(spec_path),
                       "--out", str(out)) == 0
        first = capsys.readouterr().out
        assert "sweep cli-tiny" in first
        (sweep,) = out.iterdir()
        report = json.loads((sweep / "report.json").read_text())
        assert report["aggregates"]["runs"] == 2
        # resuming a complete sweep runs nothing and reports the same
        assert run_cli("sweep", "--spec", str(spec_path),
                       "--out", str(out), "--resume") == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 resumed" in second

    def test_sweep_list_shows_matrix(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "schema_version": 1, "name": "cli-tiny",
            "blocks": [{"target": "openloop",
                        "base": {"rate": 150.0, "duration": 0.4},
                        "axes": {"seed": [1, 2, 3]}}],
        }))
        assert run_cli("sweep", "--spec", str(spec_path), "--list") == 0
        out = capsys.readouterr().out
        assert out.count("openloop[") == 3

    def test_sweep_rejects_bad_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        assert run_cli("sweep", "--spec", str(spec_path)) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "schemes"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "replication-lard" in result.stdout
