"""Reproduction of every table and figure in the paper's evaluation (§5).

* :func:`figure2`  -- throughput vs #clients, Workload A, three placement
  schemes (Figure 2);
* :func:`figure3`  -- throughput vs #clients, Workload B, full replication +
  WLC vs content partition + content-aware routing (Figure 3);
* :func:`figure4`  -- per-class throughput at saturation (120 clients) and
  the percentage gains from segregation (Figure 4);
* :func:`url_table_overhead` -- the §5.2 measurements: URL-table memory at
  the authors' site scale (~8 700 objects -> ~260 KB) and mean lookup
  latency (~4.32 us), with and without the entry cache.

Each function returns plain data (dicts/lists) and every result can be
rendered with :func:`render_table` for the terminal.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..content import ContentType, generate_catalog
from ..core import UrlTable
from ..sim import RngStream, ZipfSampler
from ..workload import WORKLOAD_A, WORKLOAD_B
from .testbed import ExperimentConfig, build_deployment

__all__ = ["figure2", "figure3", "figure4", "url_table_overhead",
           "render_table", "DEFAULT_CLIENTS"]

DEFAULT_CLIENTS = (15, 30, 60, 90, 120)


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """Plain-text table rendering for figure/table reproductions."""
    str_rows = [[f"{c:.1f}" if isinstance(c, float) else str(c)
                 for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _sweep(scheme: str, workload, clients: Sequence[int],
           duration: float, warmup: float, seed: int) -> list[dict]:
    results = []
    for n in clients:
        config = ExperimentConfig(scheme=scheme, workload=workload,
                                  duration=duration, warmup=warmup,
                                  seed=seed)
        deployment = build_deployment(config)
        results.append(deployment.run(n))
        results[-1]["n_clients"] = n
    return results


def figure2(clients: Sequence[int] = DEFAULT_CLIENTS,
            duration: float = 14.0, warmup: float = 4.0,
            seed: int = 42) -> dict:
    """Figure 2: Workload A throughput for the three placement schemes.

    Expected shape (the paper's result): NFS far below both, flat (the
    file server is the bottleneck); content partition + content-aware
    routing consistently above full replication (better cache hit rates
    from the reduced per-node working set).
    """
    schemes = ("replication-l4", "nfs-l4", "partition-ca")
    series = {scheme: _sweep(scheme, WORKLOAD_A, clients,
                             duration, warmup, seed)
              for scheme in schemes}
    rows = []
    for i, n in enumerate(clients):
        rows.append([n] + [round(series[s][i]["throughput_rps"], 1)
                           for s in schemes])
    return {
        "workload": "A",
        "clients": list(clients),
        "series": {s: [r["throughput_rps"] for r in series[s]]
                   for s in schemes},
        "details": series,
        "rendered": render_table(
            "Figure 2: benefit of content partition (Workload A), req/s",
            ["clients", "full-replication+WLC", "shared-NFS+WLC",
             "partition+content-aware"],
            rows),
    }


def figure3(clients: Sequence[int] = DEFAULT_CLIENTS,
            duration: float = 14.0, warmup: float = 4.0,
            seed: int = 42) -> dict:
    """Figure 3: Workload B throughput, replication+WLC vs partition+CA.

    Expected shape: the content-aware configuration outperforms
    full replication with WLC -- content-blind dispatch keeps sending
    CPU-heavy dynamic requests to the slow/low-memory nodes.
    """
    schemes = ("replication-l4", "partition-ca")
    series = {scheme: _sweep(scheme, WORKLOAD_B, clients,
                             duration, warmup, seed)
              for scheme in schemes}
    rows = []
    for i, n in enumerate(clients):
        rows.append([n] + [round(series[s][i]["throughput_rps"], 1)
                           for s in schemes])
    return {
        "workload": "B",
        "clients": list(clients),
        "series": {s: [r["throughput_rps"] for r in series[s]]
                   for s in schemes},
        "details": series,
        "rendered": render_table(
            "Figure 3: benefit of content partition (Workload B), req/s",
            ["clients", "full-replication+WLC", "partition+content-aware"],
            rows),
    }


def figure4(n_clients: int = 120, duration: float = 16.0,
            warmup: float = 4.0, seed: int = 42) -> dict:
    """Figure 4: per-class throughput at saturation (120 WebBench clients).

    The paper reports the content-aware router with content segregation
    raising average CGI / ASP / static throughput by 45 % / 42 % / 58 %
    over the baseline.  We reproduce the direction and magnitude band
    (tens of percent per class).
    """
    out: dict = {"n_clients": n_clients, "classes": {}}
    per_scheme: dict[str, dict[str, float]] = {}
    for scheme in ("replication-l4", "partition-ca"):
        config = ExperimentConfig(scheme=scheme, workload=WORKLOAD_B,
                                  duration=duration, warmup=warmup,
                                  seed=seed)
        deployment = build_deployment(config)
        result = deployment.run(n_clients)
        by_class = result["by_class"]
        per_scheme[scheme] = {
            "cgi": by_class.get("cgi", 0.0),
            "asp": by_class.get("asp", 0.0),
            "static": (by_class.get("html", 0.0) +
                       by_class.get("image", 0.0)),
        }
    rows = []
    for klass in ("cgi", "asp", "static"):
        base = per_scheme["replication-l4"][klass]
        segr = per_scheme["partition-ca"][klass]
        gain = (segr / base - 1.0) * 100.0 if base else float("inf")
        out["classes"][klass] = {"baseline_rps": base,
                                 "segregated_rps": segr,
                                 "gain_pct": gain}
        rows.append([klass, round(base, 1), round(segr, 1),
                     round(gain, 1)])
    out["rendered"] = render_table(
        f"Figure 4: benefit of content segregation at {n_clients} clients",
        ["class", "baseline req/s", "segregated req/s", "gain %"],
        rows)
    return out


def url_table_overhead(n_objects: int = 8700, lookups: int = 20000,
                       seed: int = 42,
                       cache_entries: Optional[int] = None) -> dict:
    """§5.2: URL-table memory footprint and mean lookup latency.

    The paper: "Our Web site contains about 8700 Web objects.  In such
    scale, the memory consumed by the URL table is about 260k bytes.
    During the peak load, the average lookup time is about 4.32 usecs."

    Lookup latency is measured in *real* microseconds on this host over a
    Zipf-distributed request stream.  ``cache_entries=0`` disables the
    recently-accessed entry cache (the ablation for [28]'s technique).
    """
    rng = RngStream(seed, "url-overhead")
    catalog = generate_catalog(n_objects, rng=rng.substream("catalog"))
    table = UrlTable() if cache_entries is None else \
        UrlTable(cache_entries=cache_entries)
    for item in catalog:
        table.insert(item, {"node-1"})
    paths = sorted(catalog.paths())
    zipf = ZipfSampler(len(paths), alpha=0.8, rng=rng.substream("zipf"))
    stream = [paths[zipf.sample() - 1] for _ in range(lookups)]
    start = time.perf_counter()   # det: allow[wall-clock] -- §5.2 measures
    for url in stream:            # real lookup latency on this host
        table.lookup(url)
    elapsed = time.perf_counter() - start  # det: allow[wall-clock]
    mean_us = elapsed / lookups * 1e6
    footprint = table.memory_footprint_bytes()
    return {
        "n_objects": n_objects,
        "memory_bytes": footprint,
        "memory_kb": footprint / 1024.0,
        "mean_lookup_us": mean_us,
        "cache_hit_rate": table.cache_hit_rate,
        "rendered": render_table(
            "Section 5.2: URL table overhead",
            ["objects", "memory KB", "mean lookup us", "entry-cache hits"],
            [[n_objects, round(footprint / 1024.0, 1), round(mean_us, 2),
              f"{table.cache_hit_rate:.0%}"]]),
    }
