"""Sweep/harness equivalence: a single-cell sweep reproduces exactly the
artifact the direct harness produces -- same chaos episode outcome, same
overload counters, same bench stage digest.  The sweep adds plumbing, not
physics.
"""

import pytest

from repro.experiments.sweep import (SweepEngine, execute_cell, jsonify,
                                     load_artifact, reset_process_counters,
                                     runs_dir, spec_from_dict)

pytestmark = pytest.mark.sweep


def _single_cell_result(tmp_path, target, base):
    spec = spec_from_dict({
        "schema_version": 1, "name": "one",
        "blocks": [{"target": target, "base": base}]})
    out = tmp_path / "s"
    SweepEngine(spec, out, workers=1).run()
    (cell,) = spec.cells()
    artifact = load_artifact(runs_dir(out, spec), cell)
    assert artifact is not None
    return artifact["result"]


class TestHarnessEquivalence:
    def test_cell_matches_direct_deployment_run(self, tmp_path):
        from repro.experiments import ExperimentConfig, build_deployment
        from repro.workload import WORKLOAD_A
        base = {"scheme": "partition-ca", "workload": "A", "duration": 1.5,
                "warmup": 0.5, "n_objects": 120, "n_client_machines": 4,
                "seed": 1234, "clients": 4}
        result = _single_cell_result(tmp_path, "cell", base)
        config = ExperimentConfig(
            scheme="partition-ca", workload=WORKLOAD_A, duration=1.5,
            warmup=0.5, n_objects=120, n_client_machines=4, seed=1234)
        reset_process_counters()
        summary = build_deployment(config).run(4)
        assert result["summary"] == jsonify(summary)
        assert result["completed"] == summary["completed"]
        assert result["errors"] == summary["errors"]

    def test_chaos_matches_direct_runner(self, tmp_path):
        from repro.experiments.chaos import ChaosRunner
        base = {"seed": 1, "episodes": 2, "duration": 3.0, "clients": 6,
                "n_objects": 150, "settle": 1.5}
        result = _single_cell_result(tmp_path, "chaos", base)
        reset_process_counters()
        runner = ChaosRunner(seed=1, episodes=2, duration=3.0, clients=6,
                             n_objects=150, settle=1.5)
        runner.run()
        assert result["report"] == runner.report()
        assert result["survived"] == runner.all_survived
        assert result["completed"] == \
            sum(r.completed for r in runner.results)

    def test_overload_matches_direct_episode(self, tmp_path):
        from repro.experiments.chaos import run_overload_episode
        base = {"seed": 11, "duration": 3.0, "clients": 6,
                "n_objects": 150, "settle": 1.5}
        result = _single_cell_result(tmp_path, "overload", base)
        reset_process_counters()
        direct = run_overload_episode(seed=11, duration=3.0, clients=6,
                                      n_objects=150, settle=1.5)
        assert result["report"] == direct.report()
        assert result["survived"] == direct.survived
        assert result["completed"] == direct.completed
        assert result["shed"] == direct.shed
        assert result["peak_inflight"] == direct.admission_peak_inflight

    def test_openloop_matches_direct_bench_stage(self, tmp_path):
        from repro.experiments.openloop import run_openloop_splice
        base = {"rate": 150.0, "duration": 0.4, "seed": 42}
        result = _single_cell_result(tmp_path, "openloop", base)
        direct = run_openloop_splice(rate=150.0, duration=0.4, seed=42)
        assert result["digest"] == direct["digest"]
        assert result["events"] == direct["events"]
        assert result["flow_forwards"] == direct["flow_forwards"]
        assert "wall_s" not in result


class TestTargetContract:
    def test_unknown_target_rejected(self):
        from repro.experiments.sweep import SweepError, run_target
        with pytest.raises(SweepError, match="unknown target"):
            run_target("nope", {"seed": 1})

    def test_missing_and_unknown_params_rejected(self):
        from repro.experiments.sweep import SweepError, run_target
        with pytest.raises(SweepError, match="missing parameters"):
            run_target("openloop", {})
        with pytest.raises(SweepError, match="unknown parameters"):
            run_target("openloop", {"seed": 1, "bogus": 2})

    def test_execute_cell_digest_covers_result(self, tmp_path):
        from repro.experiments.sweep import (RunCell, canonical_json,
                                             sha256_hex)
        cell = RunCell.make("openloop",
                            {"rate": 150.0, "duration": 0.4, "seed": 42})
        artifact = execute_cell(cell)
        assert artifact["result_sha256"] == \
            sha256_hex(canonical_json(artifact["result"]))
        assert artifact["run_id"] == cell.run_id
