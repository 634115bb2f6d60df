"""The DESIGN.md §11 equivalence contract: the kernel fast path buys
wall-clock time only.  Every simulated observable these scenarios digest
is byte-identical to the event-accurate reference, which is the same
simulator run under :func:`~.oracle.forced_fallback` (every fast site on
its per-operation fallback).

Covered surfaces: the packet-level splice fast-forward digest, every
scheme on Workloads A and B, Figure 2/3 golden sections,
``MetricSet.snapshot()``, the overload episode's outcome table and trace
JSONL, three seeded chaos episodes, the mid-run-fault automatic
fallback, and subprocess runs across two ``PYTHONHASHSEED`` values.  The
one sampling-dependent observable, the telemetry series, is pinned to
the exact set of fields in which it may differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ConnectionPool
from repro.experiments import (SCHEMES, ExperimentConfig, build_deployment,
                               figure2, figure3)
from repro.experiments.chaos import ChaosRunner, run_overload_episode
from repro.experiments.golden import GOLDEN_OVERLOAD_SCALE
from repro.experiments.openloop import run_openloop_splice
from repro.net import TcpSocket
from repro.obs import telemetry_to_jsonl, to_jsonl
from repro.sim import Resource, Simulator
from repro.workload import WORKLOAD_A, WORKLOAD_B

from .oracle import forced_fallback

ROOT = Path(__file__).resolve().parents[2]

#: one small cell reused by the snapshot and subprocess tests
CELL = dict(duration=1.5, warmup=0.5, n_objects=120, n_client_machines=4,
            seed=1234)
N_CLIENTS = 4

OVERLOAD_SCALE = dict(seed=11, duration=3.0, clients=6, n_objects=150,
                      settle=1.5)
CHAOS_SCALE = dict(seed=1, episodes=3, duration=3.0, clients=6,
                   n_objects=150, settle=1.5)


def on_both_paths(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` plainly, then under the reference fixture."""
    fast = fn(*args, **kwargs)
    with forced_fallback():
        reference = fn(*args, **kwargs)
    return fast, reference


def _reset_process_counters():
    """Rewind the process-wide id counters that show up in trace attrs.

    Request/dispatch/connection ids are labels drawn from module-level
    counters, so two episodes in one process label their traffic with
    different numbers.  Resetting them lets trace JSONL from back-to-back
    runs compare byte-for-byte (run-order hygiene, not a fast-path
    concern -- subprocess runs need no reset).
    """
    import itertools

    from repro.core import conn_pool, frontend
    from repro.mgmt import messages
    from repro.net import http

    http._request_ids = itertools.count(1)
    messages._dispatch_ids = itertools.count(1)
    conn_pool._conn_ids = itertools.count(1)
    frontend._client_ports = itertools.count(40000)


def _run_cell(scheme="partition-ca", workload=WORKLOAD_A,
              fault_window=None):
    config = ExperimentConfig(scheme=scheme, workload=workload, **CELL)
    deployment = build_deployment(config)
    if fault_window is not None:
        start, stop, extra = fault_window
        lan = deployment.lan
        deployment.sim.schedule(start, lambda: lan.add_delay(extra))
        deployment.sim.schedule(stop, lambda: lan.remove_delay(extra))
    summary = deployment.run(N_CLIENTS)
    return deployment, summary


class TestReferenceFixture:
    def test_patches_are_scoped_to_the_block(self):
        """A patch leaking out of forced_fallback() would turn every
        later test into a reference run and hide a broken fast site."""
        sites = [(Resource, "try_acquire"), (Resource, "can_acquire"),
                 (ConnectionPool, "try_acquire"),
                 (Simulator, "fits_horizon"), (TcpSocket, "send_data")]
        originals = [owner.__dict__[name] for owner, name in sites]
        with pytest.raises(RuntimeError):
            with forced_fallback():
                sim = Simulator()
                assert Resource(sim).try_acquire() is None
                assert not Resource(sim).can_acquire
                assert not sim.fits_horizon(0.0)
                raise RuntimeError("leave the block by an exception")
        assert [owner.__dict__[name] for owner, name in sites] == originals
        sim = Simulator()
        assert Resource(sim).can_acquire
        assert sim.fits_horizon(0.0)


class TestSpliceFastForward:
    def test_packet_path_byte_identical_and_collapsed(self):
        fast, reference = on_both_paths(run_openloop_splice, rate=150.0,
                                        duration=0.4)
        # same completions, bytes, segment counts, relay counters, and
        # per-request completion timeline -- byte for byte
        assert reference["digest"] == fast["digest"]
        # the reference never coalesces; the fast path must have
        assert reference["flow_forwards"] == 0
        assert fast["flow_forwards"] > 0
        # and coalescing is the point: far fewer scheduled events
        assert fast["events"] < reference["events"] / 2


class TestRequestLevelEquivalence:
    def test_metricset_snapshot_identical(self):
        (dep_fast, fast_summary), (dep_ref, ref_summary) = \
            on_both_paths(_run_cell)
        assert ref_summary == fast_summary
        now = dep_ref.config.duration
        assert dep_ref.frontend.metrics.snapshot(now) == \
            dep_fast.frontend.metrics.snapshot(now)

    @pytest.mark.parametrize("workload", [WORKLOAD_A, WORKLOAD_B],
                             ids=["A", "B"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_cell_identical(self, scheme, workload):
        (dep_fast, fast_summary), (dep_ref, ref_summary) = \
            on_both_paths(_run_cell, scheme, workload)
        assert json.dumps(ref_summary, sort_keys=True) == \
            json.dumps(fast_summary, sort_keys=True)
        assert fast_summary["completed"] > 0
        assert dep_fast.sim.event_count < dep_ref.sim.event_count

    def test_figure2_golden_sections_identical(self):
        fast, reference = on_both_paths(figure2, clients=(8,),
                                        duration=2.5, warmup=1.0, seed=42)
        assert json.dumps(reference, sort_keys=True) == \
            json.dumps(fast, sort_keys=True)

    def test_figure3_golden_sections_identical(self):
        fast, reference = on_both_paths(figure3, clients=(8,),
                                        duration=2.5, warmup=1.0, seed=42)
        assert json.dumps(reference, sort_keys=True) == \
            json.dumps(fast, sort_keys=True)

    def test_overload_outcome_and_trace_jsonl_identical(self):
        def episode():
            _reset_process_counters()
            return run_overload_episode(**OVERLOAD_SCALE, trace=True)

        fast, reference = on_both_paths(episode)
        assert reference.report() == fast.report()
        assert to_jsonl(reference.tracer) == to_jsonl(fast.tracer)
        # the fast path really engaged (fewer kernel events, same outcome)
        assert fast.events < reference.events


class TestChaosEquivalence:
    def test_chaos_episode_outcomes_identical(self):
        def episodes():
            runner = ChaosRunner(**CHAOS_SCALE)
            runner.run()
            return runner

        fast, reference = on_both_paths(episodes)
        assert len(fast.results) >= 3
        assert reference.report() == fast.report()

    def test_mid_transfer_fault_forces_fallback(self):
        """A LAN fault mid-run must push in-window transfers off the fast
        path (deterministic automatic fallback), without changing any
        observable."""
        window = (0.6, 1.1, 0.0005)     # delay fault inside the run
        (dep_fast, fast_summary), (_, ref_summary) = \
            on_both_paths(_run_cell, fault_window=window)
        assert ref_summary == fast_summary
        lan = dep_fast.lan
        # transfers outside the window used the fast branch; transfers
        # inside it fell back to the event-accurate branch
        assert 0 < lan.fast_transfers < lan.total_transfers


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in record.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten(value, name))
        else:
            out[name] = value
    return out


class TestSamplingDependentObservables:
    def test_telemetry_differs_only_in_event_counts_and_cache_gauges(self):
        """The golden overload episode's telemetry JSONL differs between
        the paths in exactly these fields.

        Event counts differ because the fast path schedules fewer
        events.  The cache-hit fast-forward in ``BackendServer.serve``
        calls ``cache.access`` when the request starts, the fallback at
        the end of the parse burst, so a window that closes inside that
        burst samples a different ``cache_hit_rate`` gauge.  Any other
        differing field is a broken equivalence.
        """
        def episode():
            _reset_process_counters()
            result = run_overload_episode(**GOLDEN_OVERLOAD_SCALE,
                                          trace=True, telemetry=0.5)
            return [json.loads(line) for line in
                    telemetry_to_jsonl(result.telemetry).splitlines()]

        fast, reference = on_both_paths(episode)
        assert len(fast) == len(reference)
        differing = set()
        for fast_rec, ref_rec in zip(fast, reference):
            fast_flat, ref_flat = _flatten(fast_rec), _flatten(ref_rec)
            assert fast_flat.keys() == ref_flat.keys()
            differing |= {key for key in fast_flat
                          if fast_flat[key] != ref_flat[key]}
        assert differing == {
            "events", "events_per_sec", "events_total",
            "peak_events_per_sec",
            "gauges.s150-0/cache_hit_rate", "gauges.s150-1/cache_hit_rate",
            "gauges.s150-2/cache_hit_rate", "gauges.s350-1/cache_hit_rate",
            "gauges.s350-3/cache_hit_rate",
        }


_SUBPROCESS_SCRIPT = """\
import contextlib
import json
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A
from tests.experiments.oracle import forced_fallback

config = ExperimentConfig(workload=WORKLOAD_A, scheme="partition-ca",
                          duration=1.5, warmup=0.5, n_objects=120,
                          n_client_machines=4, seed=1234)
with forced_fallback() if {reference} else contextlib.nullcontext():
    summary = build_deployment(config).run(4)
print(json.dumps(summary, sort_keys=True))
"""


def _run_subprocess(hash_seed: str, reference: bool) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    script = _SUBPROCESS_SCRIPT.format(reference=reference)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHashSeedIndependence:
    def test_fast_path_identical_across_hash_seeds_and_paths(self):
        fast_h0 = _run_subprocess("0", reference=False)
        fast_h1 = _run_subprocess("1", reference=False)
        reference_h0 = _run_subprocess("0", reference=True)
        assert fast_h0 == fast_h1
        assert fast_h0 == reference_h0
