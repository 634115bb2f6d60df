"""repro.obs -- deterministic tracing and the flight recorder.

The observability backbone for the reproduction: structured spans + point
events keyed by sim-time and monotone ids (:mod:`~repro.obs.tracer`), a
bounded last-N ring dumped on invariant/chaos failures
(:mod:`~repro.obs.recorder`), JSONL / Chrome trace-event exporters
(:mod:`~repro.obs.export`), the aggregation experiments assert against
(:mod:`~repro.obs.summary`), and the per-request waterfall renderer
(:mod:`~repro.obs.waterfall`).  The continuous-telemetry plane adds
scheduler introspection + windowed time-series with JSONL/Prometheus
exporters (:mod:`~repro.obs.telemetry`), declarative SLO evaluation
(:mod:`~repro.obs.slo`), and source-path subsystem attribution
(:mod:`~repro.obs.profile`).

Everything here obeys the repository's determinism contract: no wall
clock, no global RNG, sorted iteration everywhere -- the
``repro.analysis`` linter covers this package like any other.
"""

from .export import to_chrome_trace, to_jsonl
from .profile import classify_path, peak_rss_kb
from .recorder import FlightRecorder, format_event
from .slo import (DEFAULT_CHAOS_SLOS, DEFAULT_OVERLOAD_SLOS, SloSpec,
                  evaluate_slos, slo_metrics_from_rig)
from .summary import TraceSummary
from .telemetry import (KernelStats, TelemetrySampler, TelemetryWindow,
                        render_top, render_windows, telemetry_to_jsonl,
                        telemetry_to_prometheus)
from .tracer import Span, TraceEvent, Tracer
from .waterfall import pick_waterfall_trace, render_waterfall

__all__ = [
    "Tracer", "TraceEvent", "Span",
    "FlightRecorder", "format_event",
    "to_jsonl", "to_chrome_trace",
    "TraceSummary",
    "render_waterfall", "pick_waterfall_trace",
    "KernelStats", "TelemetrySampler", "TelemetryWindow",
    "telemetry_to_jsonl", "telemetry_to_prometheus",
    "render_top", "render_windows",
    "classify_path", "peak_rss_kb",
    "SloSpec", "evaluate_slos", "slo_metrics_from_rig",
    "DEFAULT_OVERLOAD_SLOS", "DEFAULT_CHAOS_SLOS",
]
