"""Unit tests for the kernel telemetry plane (DESIGN §15).

KernelStats and TelemetrySampler on toy simulations: counting semantics,
window-edge placement, ring eviction, exporters, SLO evaluation.  The
full-episode consistency battery lives in
``test_telemetry_consistency.py``.
"""

import json

import pytest

from repro.obs import (DEFAULT_CHAOS_SLOS, DEFAULT_OVERLOAD_SLOS,
                       KernelStats, SloSpec, TelemetrySampler, evaluate_slos,
                       render_top, render_windows, telemetry_to_jsonl,
                       telemetry_to_prometheus)
from repro.sim import Simulator

pytestmark = pytest.mark.telemetry


def _ticker(sim, period, count):
    def proc():
        for _ in range(count):
            yield sim.timeout(period)
    sim.process(proc())


class TestKernelStats:
    def test_counts_scheduled_and_fired(self):
        stats = KernelStats()
        sim = Simulator()
        stats.attach(sim)
        _ticker(sim, 0.1, 5)
        sim.run()
        report = stats.report()
        assert report["scheduled_total"] == report["fired_total"]
        assert report["scheduled_total"] >= 6  # init + 5 timeouts
        classes = dict(report["event_classes"])
        assert classes.get("Timeout", 0) == 5

    def test_cancellation_counted(self):
        stats = KernelStats()
        sim = Simulator()
        stats.attach(sim)

        def sleeper():
            yield sim.timeout(10.0)

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(0.1)
            proc.interrupt("stop")

        sim.process(killer())
        sim.run()
        assert stats.report()["cancelled_total"] >= 1

    def test_heap_high_water_tracks_depth(self):
        stats = KernelStats()
        sim = Simulator()
        stats.attach(sim)
        for _ in range(8):
            _ticker(sim, 0.5, 1)
        sim.run()
        assert stats.report()["heap_high_water"] >= 8

    def test_callsite_attribution_optional(self):
        on = KernelStats(callsites=True)
        sim = Simulator()
        on.attach(sim)
        _ticker(sim, 0.1, 3)
        sim.run()
        report = on.report()
        assert report["callsites"], "callsites=True must attribute sites"
        # every key is subsystem:module.function
        for name, _count in report["callsites"]:
            assert ":" in name and "." in name
        off = KernelStats()
        sim2 = Simulator()
        off.attach(sim2)
        _ticker(sim2, 0.1, 3)
        sim2.run()
        assert "callsites" not in off.report()

    def test_fast_path_layer_counters(self):
        stats = KernelStats()
        stats.on_fast_path("cpu", True)
        stats.on_fast_path("cpu", True)
        stats.on_fast_path("cpu", False)
        report = stats.report()
        assert report["fast_path"]["cpu"] == {"hits": 2, "fallbacks": 1}


class TestTelemetrySampler:
    def test_windows_close_on_sim_clock(self):
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        _ticker(sim, 0.25, 12)  # runs to t=3.0
        sim.run()
        sampler.finalize(sim.now)
        # three full windows plus the zero-width finalize tail holding
        # the events fired at exactly t=3.0 (kept so totals reconcile)
        assert [w.start for w in sampler.windows] == [0.0, 1.0, 2.0, 3.0]
        assert sum(w.events for w in sampler.windows) == \
            sampler.events_total

    def test_gauges_and_cumulative_deltas(self):
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        seen = {"n": 0}

        def proc():
            for _ in range(4):
                yield sim.timeout(0.9)
                seen["n"] += 10

        sampler.add_gauge("n_now", lambda: float(seen["n"]))
        sampler.add_cumulative("n_cum", lambda: seen["n"])
        sim.process(proc())
        sim.run()
        sampler.finalize(sim.now)
        total = sampler.summary()["totals"]["n_cum"]
        assert total == 40
        assert sum(w.deltas["n_cum"] for w in sampler.windows) == 40

    def test_duplicate_source_rejected(self):
        sampler = TelemetrySampler()
        sampler.add_gauge("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_gauge("x", lambda: 1.0)

    def test_ring_bounds_retention(self):
        sampler = TelemetrySampler(window=0.1, ring=4)
        sim = Simulator()
        sampler.attach(sim)
        _ticker(sim, 0.1, 20)
        sim.run()
        sampler.finalize(sim.now)
        assert len(sampler.windows) == 4
        assert sampler.dropped > 0
        assert sampler.summary()["retained"] == 4

    def test_zero_width_tail_has_zero_rate(self):
        # finalize at an exact window edge must not divide by ~0
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        _ticker(sim, 1.0, 2)
        sim.run()
        sampler.finalize(sim.now)
        assert all(w.events_per_sec >= 0.0 for w in sampler.windows)
        peak = sampler.summary()["peak_events_per_sec"]
        assert peak < 1e6

    def test_series_by_name(self):
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        sampler.add_gauge("g", lambda: 7.0)
        _ticker(sim, 0.5, 4)
        sim.run()
        sampler.finalize(sim.now)
        n = len(sampler.windows)
        assert sampler.series("g") == [7.0] * n
        assert len(sampler.series("events_per_sec")) == n
        with pytest.raises(KeyError):
            sampler.series("nope")


class TestExporters:
    @pytest.fixture()
    def sampler(self):
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        sampler.add_gauge("depth", lambda: float(sim.heap_depth))
        _ticker(sim, 0.4, 5)
        sim.run()
        sampler.finalize(sim.now)
        return sampler

    def test_jsonl_schema(self, sampler):
        lines = telemetry_to_jsonl(sampler).strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["rec"] for r in records[:-1]] == \
            ["window"] * (len(records) - 1)
        assert records[-1]["rec"] == "summary"
        for rec in records[:-1]:
            assert "rss_kb" not in rec, "host readings are opt-in"

    def test_jsonl_host_rss_opt_in(self, sampler):
        line = telemetry_to_jsonl(sampler, include_host=True).split("\n")[0]
        assert json.loads(line)["rss_kb"] > 0

    def test_prometheus_text_format(self, sampler):
        text = telemetry_to_prometheus(sampler)
        assert "# TYPE repro_events_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        for line in text.strip().split("\n"):
            assert line.startswith("#") or " " in line

    def test_renderers(self, sampler):
        dump = render_windows(sampler)
        assert "ev/s=" in dump
        top = render_top(sampler, title="toy")
        assert "== toy ==" in top
        assert "peak" in top


class TestSlo:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec("bad", "m", 1.0, op="!=")
        with pytest.raises(ValueError):
            SloSpec("bad", "m", 1.0, scope="everywhere")

    def test_episode_scope(self):
        specs = (SloSpec("lat", "p99", 1.0),
                 SloSpec("err", "error_rate", 0.1, op="<"))
        results = evaluate_slos(specs, {"p99": 0.5, "error_rate": 0.2})
        assert [r["ok"] for r in results] == [True, False]
        assert all(r["evaluated"] for r in results)

    def test_window_scope_reads_series(self):
        sampler = TelemetrySampler(window=1.0)
        sim = Simulator()
        sampler.attach(sim)
        values = iter([1.0, 5.0, 2.0, 0.0])
        sampler.add_gauge("load", lambda: next(values))
        _ticker(sim, 1.0, 3)
        sim.run()
        sampler.finalize(sim.now)
        spec = SloSpec("burst", "load", 4.0, scope="window_max")
        (res,) = evaluate_slos((spec,), {}, sampler)
        assert res["evaluated"] and not res["ok"]
        assert res["value"] == 5.0

    def test_missing_metric_is_vacuous(self):
        (res,) = evaluate_slos((SloSpec("x", "absent", 1.0),), {})
        assert res["ok"] and not res["evaluated"]
        assert res["value"] is None

    def test_default_spec_tuples(self):
        for specs in (DEFAULT_OVERLOAD_SLOS, DEFAULT_CHAOS_SLOS):
            names = [s.name for s in specs]
            assert len(names) == len(set(names))
            assert all(s.scope == "episode" for s in specs)
