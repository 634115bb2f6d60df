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
rendered with :func:`render_table` for the terminal.  The figures run on
:func:`sweep_clients`, which sweeps any (scheme, workload) cell over
client counts; :func:`write_csv` exports such a sweep for external
plotting.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path
from typing import Optional, Sequence

from ..content import ContentType, generate_catalog
from ..core import UrlTable
from ..sim import RngStream, ZipfSampler
from ..workload import WORKLOAD_A, WORKLOAD_B, WorkloadSpec
from .testbed import ExperimentConfig, build_deployment

__all__ = ["figure2", "figure3", "figure4", "url_table_overhead",
           "render_table", "sweep_clients", "write_csv", "DEFAULT_CLIENTS"]

DEFAULT_CLIENTS = (15, 30, 60, 90, 120)

#: The flat columns every CSV row carries (class columns appended).
BASE_COLUMNS = ("scheme", "workload", "n_clients", "throughput_rps",
                "latency_p50", "latency_p95", "completed", "errors",
                "mean_cache_hit_rate")


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


def sweep_clients(scheme: str, workload: WorkloadSpec,
                  clients: Sequence[int], **config) -> list[dict]:
    """Run one (scheme, workload) cell at each client count.

    Returns each point's :meth:`Deployment.run` summary, tagged with
    ``n_clients``; ``config`` holds further :class:`ExperimentConfig`
    fields.
    """
    points = []
    for n in clients:
        deployment = build_deployment(ExperimentConfig(
            scheme=scheme, workload=workload, **config))
        point = deployment.run(n)
        point["n_clients"] = n
        points.append(point)
    return points


def write_csv(points: Sequence[dict], path: str | Path) -> None:
    """Write sweep points as CSV: one row per point, the base columns
    first, then any class and telemetry columns in sorted order."""
    rows = []
    for point in points:
        row = {column: point[column] for column in BASE_COLUMNS}
        for klass, rps in point.get("by_class", {}).items():
            row[f"class_{klass}_rps"] = rps
        # additive: present only when the cell sampled windowed telemetry
        # (sweep_clients(..., telemetry=...))
        tel = point.get("telemetry")
        if tel is not None:
            row["telemetry_windows"] = tel["windows"]
            row["telemetry_peak_eps"] = tel["peak_events_per_sec"]
        rows.append(row)
    extra = sorted({k for row in rows for k in row
                    if k.startswith(("class_", "telemetry_"))})
    columns = list(BASE_COLUMNS) + extra
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def _throughput_figure(title: str, workload: WorkloadSpec,
                       schemes: dict[str, str], clients: Sequence[int],
                       duration: float, warmup: float, seed: int) -> dict:
    """Throughput vs client count for ``schemes`` (scheme -> column)."""
    series = {scheme: sweep_clients(scheme, workload, clients,
                                    duration=duration, warmup=warmup,
                                    seed=seed)
              for scheme in schemes}
    rows = []
    for i, n in enumerate(clients):
        rows.append([n] + [round(series[s][i]["throughput_rps"], 1)
                           for s in schemes])
    return {
        "workload": workload.name,
        "clients": list(clients),
        "series": {s: [r["throughput_rps"] for r in series[s]]
                   for s in schemes},
        "details": series,
        "rendered": render_table(title, ["clients", *schemes.values()],
                                 rows),
    }


def figure2(clients: Sequence[int] = DEFAULT_CLIENTS,
            duration: float = 14.0, warmup: float = 4.0,
            seed: int = 42) -> dict:
    """Figure 2: Workload A throughput for the three placement schemes.

    Expected shape (the paper's result): NFS far below both, flat (the
    file server is the bottleneck); content partition + content-aware
    routing consistently above full replication (better cache hit rates
    from the reduced per-node working set).
    """
    return _throughput_figure(
        "Figure 2: benefit of content partition (Workload A), req/s",
        WORKLOAD_A, {"replication-l4": "full-replication+WLC",
                     "nfs-l4": "shared-NFS+WLC",
                     "partition-ca": "partition+content-aware"},
        clients, duration, warmup, seed)


def figure3(clients: Sequence[int] = DEFAULT_CLIENTS,
            duration: float = 14.0, warmup: float = 4.0,
            seed: int = 42) -> dict:
    """Figure 3: Workload B throughput, replication+WLC vs partition+CA.

    Expected shape: the content-aware configuration outperforms
    full replication with WLC -- content-blind dispatch keeps sending
    CPU-heavy dynamic requests to the slow/low-memory nodes.
    """
    return _throughput_figure(
        "Figure 3: benefit of content partition (Workload B), req/s",
        WORKLOAD_B, {"replication-l4": "full-replication+WLC",
                     "partition-ca": "partition+content-aware"},
        clients, duration, warmup, seed)


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
        (point,) = sweep_clients(scheme, WORKLOAD_B, (n_clients,),
                                 duration=duration, warmup=warmup, seed=seed)
        by_class = point["by_class"]
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
