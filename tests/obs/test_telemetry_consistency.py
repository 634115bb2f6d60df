"""Telemetry <-> metrics <-> trace consistency on the golden episode.

The sampler, the MetricSet, and the tracer observe the same run through
independent channels; these tests pin the three views to each other and
pin the plane's two determinism contracts: sampling must not change a
single counter (zero perturbation), and the exported series must be
byte-identical across processes and hash seeds.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import ExperimentConfig, build_deployment
from repro.experiments.chaos import run_overload_episode
from repro.experiments.openloop import run_openloop_splice
from repro.obs import KernelStats, telemetry_to_jsonl
from repro.workload import WORKLOAD_A

pytestmark = pytest.mark.telemetry

#: Mirrors GOLDEN_OVERLOAD_SCALE so the episode exercised here is the
#: same one the golden fixture pins.
SCALE = {"seed": 11, "duration": 5.0, "clients": 10, "n_objects": 200,
         "settle": 2.0}


@pytest.fixture(scope="module")
def episode():
    return run_overload_episode(**SCALE, trace=True, telemetry=0.5,
                                kernel_stats=True)


class TestReconciliation:
    def test_totals_match_episode_counters(self, episode):
        totals = episode.telemetry.summary()["totals"]
        assert totals["requests"] == episode.completed
        assert totals["client_errors"] == episode.errors
        assert totals["sheds"] == episode.shed
        assert totals["timeouts"] == episode.timeouts
        assert totals["breakers_opened"] == episode.breaker_opened

    def test_window_deltas_sum_to_totals(self, episode):
        sampler = episode.telemetry
        assert sampler.dropped == 0, "ring must retain the whole episode"
        totals = sampler.summary()["totals"]
        for name in ("requests", "sheds", "client_errors"):
            assert sum(w.deltas[name] for w in sampler.windows) == \
                totals[name]

    def test_window_events_sum_to_kernel_fired(self, episode):
        sampler = episode.telemetry
        fired = episode.kernel_stats["fired_total"]
        assert sum(w.events for w in sampler.windows) == \
            sampler.events_total == fired

    def test_totals_match_trace_point_counts(self, episode):
        tracer = episode.tracer
        totals = episode.telemetry.summary()["totals"]
        assert totals["sheds"] == \
            len(tracer.find_events(kind="shed", name="shed"))
        opened = [e for e in tracer.find_events(kind="breaker")
                  if e.name.endswith("->open")]
        assert totals["breakers_opened"] == len(opened)

    def test_slo_verdicts_on_golden_episode(self, episode):
        assert episode.slo_results, "telemetry run must evaluate SLOs"
        assert episode.slo_ok
        by_name = {r["name"]: r for r in episode.slo_results}
        assert by_name["served_p99"]["evaluated"]
        assert by_name["shed_budget"]["value"] > 0.0

    def test_kernel_stats_schedule_conservation(self, episode):
        stats = episode.kernel_stats
        assert stats["scheduled_total"] >= stats["fired_total"]
        assert stats["heap_high_water"] >= 1
        classes = dict(stats["event_classes"])
        assert classes.get("Timeout", 0) > 0
        # the request-level fast sites report their hit/fallback split
        assert "cpu" in stats["fast_path"]


class TestDeploymentReconciliation:
    def test_totals_match_metric_set_snapshot(self):
        config = ExperimentConfig(scheme="partition-ca",
                                  workload=WORKLOAD_A, duration=2.0,
                                  warmup=0.5, seed=7, n_objects=150,
                                  telemetry=0.5, kernel_stats=True)
        deployment = build_deployment(config)
        summary = deployment.run(6)
        counters = \
            deployment.frontend.metrics.snapshot()["counters"]
        totals = summary["telemetry"]["totals"]
        assert totals["sheds"] == counters.get("overload/shed", 0)
        assert totals["timeouts"] == counters.get("overload/timeout", 0)
        assert totals["requests"] == deployment.rig.meter.completions
        assert summary["kernel_stats"]["fired_total"] > 0


class TestZeroPerturbation:
    def test_sampled_run_counters_identical(self):
        scale = dict(SCALE, duration=3.0, n_objects=150, clients=6)
        base = run_overload_episode(**scale)
        sampled = run_overload_episode(**scale, telemetry=0.5,
                                       kernel_stats=True)
        assert sampled.events == base.events
        assert sampled.completed == base.completed
        assert sampled.errors == base.errors
        assert sampled.shed == base.shed
        assert sampled.breaker_opened == base.breaker_opened
        assert sampled.error_statuses == base.error_statuses

    def test_openloop_probe_keeps_digest(self):
        """The packet path: a KernelStats probe changes no observable and
        no event count."""
        plain = run_openloop_splice(rate=100.0, duration=0.4)
        probed = run_openloop_splice(rate=100.0, duration=0.4,
                                     kernel_stats=KernelStats(
                                         callsites=True))
        assert probed["digest"] == plain["digest"]
        assert probed["events"] == plain["events"]


_SUBPROCESS_SNIPPET = """
import sys
from repro.experiments.chaos import run_overload_episode
from repro.obs import telemetry_to_jsonl, telemetry_to_prometheus
result = run_overload_episode(seed=11, duration=3.0, clients=6,
                              n_objects=150, settle=1.5, telemetry=0.5)
sys.stdout.write(telemetry_to_jsonl(result.telemetry))
sys.stdout.write(telemetry_to_prometheus(result.telemetry))
"""


class TestByteDeterminism:
    def test_jsonl_identical_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SNIPPET],
                capture_output=True, text=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"rec": "summary"' in outputs[0]

    def test_jsonl_matches_in_process_run(self, episode):
        # windows are sim-domain floats; re-serialising is stable
        text = telemetry_to_jsonl(episode.telemetry)
        reparsed = [json.loads(line)
                    for line in text.strip().split("\n")]
        assert json.dumps(reparsed[-1], sort_keys=True) in text
