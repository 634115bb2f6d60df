"""Per-layer metrics derived from the traced and kernel-stats runs.

A span's layer is the part of its name before the first dot
(``content.*`` counts toward ``workload``); samples outside every span
(``""``) are the kernel's dispatch loop and count toward ``sim``.

Self time is a span's share of the traced run's samples (tracing
overhead left out) times the *untraced* load time, so the layers' self
times add up to what an uninstrumented run spends.  Counts are exact.

:func:`layer_metrics` turns one workload's traced runs, its kernel-stats
run and its untraced load time into the per-layer metrics of
``BENCHMARK.json``.  A metric whose source a refactor removed is left
out, not guessed.
"""

from __future__ import annotations

import statistics

__all__ = ["LAYERS", "REPORTED_SPANS", "span_self_ns", "layer_metrics",
           "unit_of"]

LAYERS = ("sim", "net", "core", "cluster", "mgmt", "workload")

#: spans reported one by one (calls and share of traced host time)
REPORTED_SPANS = (
    "net.tcp_send", "net.deliver", "net.lan_transfer",
    "core.submit", "core.route", "core.url_lookup", "core.url_write",
    "core.mapping", "core.splice", "core.pool", "core.admission",
    "core.rebalance",
    "cluster.serve", "cluster.cache", "cluster.cpu", "cluster.disk",
    "mgmt.execute", "mgmt.wal_append", "mgmt.checkpoint",
    "workload.sample", "workload.record",
)

_COUNTS = ("sim.events", "sim.fastpath_hits", "sim.fastpath_fallbacks",
           "sim.heap_high_water", "trace.spans", "trace.samples")
_UNITS = {"sim.events_per_req": "events/req",
          "sim.batch_avg": "events/batch",
          "net.segments_per_req": "segments/req"}


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name in _COUNTS:
        return "count"
    if name.endswith(("_ns_per_event", "_ns_per_req")):
        return "ns"
    return _UNITS.get(name, "ratio")


def layer_of(span: str) -> str:
    if not span:
        return "sim"
    prefix = span.split(".", 1)[0]
    return "workload" if prefix == "content" else prefix


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_self_ns(samples: dict, untraced_run_s: float) -> dict:
    """Self ns per span name (``""``: outside every span) of one run."""
    counted = {k: v for k, v in samples.items() if k != "trace"}
    total = sum(counted.values())
    return {name: _ratio(n, total) * untraced_run_s * 1e9
            for name, n in counted.items()}


def _one_traced(run: dict, untraced_run_s: float) -> dict:
    """Time-based layer metrics of one traced run."""
    own = span_self_ns(run["samples"], untraced_run_s)
    total = sum(own.values())
    layer_ns = {layer: 0.0 for layer in LAYERS}
    for name, value in own.items():
        layer = layer_of(name)
        if layer in layer_ns:
            layer_ns[layer] += value
    events, requests = run["events"], run["requests"]
    out = {"sim.self_ns_per_event": _ratio(layer_ns["sim"], events)}
    for layer in ("net", "core", "cluster", "workload"):
        out[f"{layer}.self_ns_per_req"] = _ratio(layer_ns[layer], requests)
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(layer_ns[layer], total)
    for name in REPORTED_SPANS:
        out[f"{name}.share"] = _ratio(own.get(name, 0.0), total)
    setup = {k: v for k, v in run["setup_samples"].items() if k != "trace"}
    setup_total = sum(setup.values())
    out["core.placement.setup_share"] = _ratio(
        setup.get("core.placement", 0), setup_total)
    out["content.catalog.setup_share"] = _ratio(
        setup.get("content.catalog", 0), setup_total)
    sampled = sum(run["samples"].values())
    out["trace.overhead_share"] = _ratio(run["samples"].get("trace", 0),
                                         sampled)
    out["trace.run_s"] = run["run_s"]
    return out


def layer_metrics(traced: list[dict], stats: dict,
                  untraced_run_s: float) -> dict:
    """Per-layer metrics of one workload (see the module docstring)."""
    per_run = [_one_traced(run, untraced_run_s) for run in traced]
    out = {name: statistics.median(r[name] for r in per_run)
           for name in per_run[0]}
    out["trace.overhead_ratio"] = out.pop("trace.run_s") / untraced_run_s
    first = traced[0]
    calls = first["calls"]
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["trace.spans"] = sum(calls.values())
    out["trace.samples"] = sum(sum(run["samples"].values())
                               for run in traced)
    events, requests = first["events"], first["requests"]
    out["sim.events"] = events
    out["sim.events_per_req"] = _ratio(events, requests)

    c = first["counters"]
    out["core.url_cache_hit_ratio"] = _ratio(c["url_cache_hits"],
                                             c["url_lookups"])
    out["core.pool_wait_ratio"] = _ratio(c["pool_waits"], c["pool_acquired"])
    out["core.shed_ratio"] = _ratio(c["admission_shed"],
                                    c["admission_submitted"])
    out["cluster.cache_hit_ratio"] = _ratio(
        c["cache_hits"], c["cache_hits"] + c["cache_misses"])
    out["mgmt.write_fail_ratio"] = _ratio(c["writes_failed"],
                                          c["writes_attempted"])
    out["net.segments_per_req"] = _ratio(c["segments_sent"], requests)

    ks = stats.get("kernel_stats") or {}
    fast = ks.get("fast_path")
    if fast is not None:
        hits = sum(v.get("hits", 0) for v in fast.values())
        fallbacks = sum(v.get("fallbacks", 0) for v in fast.values())
        out["sim.fastpath_hits"] = hits
        out["sim.fastpath_fallbacks"] = fallbacks
        out["sim.fastpath_hit_ratio"] = _ratio(hits, hits + fallbacks)
    batch = ks.get("batch_dispatch")
    if batch is not None:
        out["sim.batch_avg"] = _ratio(batch.get("events", 0),
                                      batch.get("batches", 0))
    if "heap_high_water" in ks:
        out["sim.heap_high_water"] = ks["heap_high_water"]
    pool = ks.get("pool")
    if pool is not None:
        out["sim.timeout_recycle_ratio"] = _ratio(
            pool.get("hits", 0), pool.get("hits", 0) + pool.get("misses", 0))
    if stats.get("floor_ns_per_event") is not None:
        out["sim.floor_ns_per_event"] = stats["floor_ns_per_event"]
    return out
