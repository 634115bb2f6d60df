"""The repository benchmark: five workloads, end-to-end and per-layer
metrics, and a correctness gate on every simulated output.

Usage (from the repository root)::

    python benchmarks/suite/run.py                       # all workloads
    python benchmarks/suite/run.py --workload static_partition \\
        --seed 7 --seconds 12 --trace 0                  # one workload
    python benchmarks/suite/run.py --out new.json        # keep results
    python benchmarks/suite/run.py --compare base.json new.json
    python benchmarks/suite/run.py --update-expected [--smoke]

Every measured run is a fresh child process (``run.py --child ...``),
started one at a time; repeats rotate ``PYTHONHASHSEED`` over 0/1/2.  A
run reports host time (set-up and load phase, also scaled to a nominal
host speed read during the load, see :mod:`hostspeed`), peak RSS, the
simulated metrics and a SHA-256 digest of every simulated observable.
The digest
must be the same across repeats, between traced and untraced runs, and,
for pinned seeds, equal to ``expected.json``; a seed that is not pinned
is checked by a smoke-scale reference run of seed 42 instead.  Any
mismatch marks all of the workload's operations failed and the exit
code nonzero.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics ``BENCHMARK.json`` declares (``--trace 0``) or its
per-layer metrics from a traced run (``--trace 1``).  ``attempted``
counts the simulated operations of every child run; ``failed`` counts
those whose outputs failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")

WORKLOAD_NAMES = ("static_partition", "dynamic_wlc", "splice_openloop",
                  "content_churn", "overload_flash")
DEFAULT_SEED = 42
REFERENCE_SEED = 42
#: untraced repeats per workload in a full invocation
FULL_REPEATS = 5
#: the fewest untraced repeats of a --workload run, however short
#: --seconds is
MIN_REPEATS = 3
MAX_REPEATS = 40
CHILD_TIMEOUT_S = 170

#: end-to-end metrics reported per workload: name -> (unit, better, the
#: BENCHMARK.json metric whose bound ``--compare`` applies).  Simulated
#: metrics have no bound: they are deterministic for a seed and must
#: match exactly.
E2E = {
    "sim_req_per_ref_s": ("req/ref_s", "higher", "sim_req_per_ref_s"),
    "setup_s": ("s", "lower", "setup_s"),
    "peak_rss_mb": ("MiB", "lower", "peak_rss_mb"),
    "sim_req_per_host_s": ("req/s", "higher", "sim_req_per_ref_s"),
    "run_s": ("s", "lower", "sim_req_per_ref_s"),
    "setup_host_s": ("s", "lower", "setup_s"),
    "sim_throughput_rps": ("req/sim_s", "higher", None),
    "sim_latency_p50_ms": ("sim_ms", "lower", None),
    "sim_latency_p99_ms": ("sim_ms", "lower", None),
    "sim_success_rate": ("ratio", "higher", None),
}
SIMULATED = tuple(name for name, spec in E2E.items() if spec[2] is None)

class ChildFailed(RuntimeError):
    """A measured child process crashed or timed out."""


# -- the child: one measured run ----------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, SRC)
    from repro.net import HttpRequest
    from repro.obs import KernelStats

    import floor
    import layers
    from hostspeed import HostSpeedProbe
    from spans import LayerTracer, StackSampler
    from workloads import SCALES, WORKLOADS, Probe, digest_of

    tracer = sampler = speed = None
    if args.mode == "traced":
        tracer = LayerTracer(HttpRequest, keep_records=bool(args.spans_dir))
        if StackSampler.available():
            sampler = StackSampler(tracer.codes)
    if args.mode == "plain" and HostSpeedProbe.available():
        speed = HostSpeedProbe()
    stats: list = []
    on_sim = None
    if args.mode == "stats":
        def on_sim(sim):
            if not stats:
                stats.append(KernelStats().attach(sim))
    probe = Probe(tracer, on_simulator=on_sim)
    probe.install()
    missing = layers.install(tracer) if tracer is not None else []
    marks: dict = {}

    def at_start():
        marks["counters"] = _counters(probe)
        if stats:
            marks["kernel_stats"] = stats[0].report()
        if tracer is not None:
            tracer.reset()
            marks["origin_ns"] = time.perf_counter_ns()
        if sampler is not None:
            marks["setup_samples"] = sampler.take()
        if speed is not None:
            speed.start()

    def at_end():
        if sampler is not None:
            sampler.stop()
            marks["samples"] = sampler.take()
        if speed is not None:
            speed.stop()

    probe.on_start.append(at_start)
    probe.on_end.append(at_end)
    if sampler is not None:
        sampler.start()
    probe.t_entry = time.perf_counter()
    params = SCALES[args.scale][args.workload]
    out = WORKLOADS[args.workload](probe, args.seed, params)

    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "mode": args.mode,
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
        "setup_s": probe.t_start - probe.t_entry,
        "run_s": probe.t_end - probe.t_start - (speed.spent_s if speed
                                                 else 0.0),
        "host_slowness": speed.slowness if speed else None,
        "events": probe.events,
        "requests": out["requests"],
        "sim": out["sim"],
        "ops": out["ops"],
        "checks": out["checks"],
        "digest": digest_of(out["observables"]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counters = _counters(probe)
    result["counters"] = {k: v - marks["counters"].get(k, 0)
                          for k, v in counters.items()}
    writes = out.get("writes", {"attempted": 0, "failed": 0})
    result["counters"]["writes_attempted"] = writes["attempted"]
    result["counters"]["writes_failed"] = writes["failed"]
    if tracer is not None:
        result.update({
            "calls": dict(tracer.calls),
            "samples": marks.get("samples", {}),
            "setup_samples": marks.get("setup_samples", {}),
            "missing_spans": missing})
        if args.spans_dir:
            tracer.write_records(
                args.spans_dir,
                f"{args.workload}-seed{args.seed}-{args.rep}.jsonl",
                marks["origin_ns"])
    if stats:
        end = stats[0].report()
        report = _kernel_stats_delta(marks["kernel_stats"], end)
        result["kernel_stats"] = report
        batch = report.get("batch_dispatch", {})
        scheduled = max(1, report.get("scheduled_total", 0))
        result["floor_ns_per_event"] = floor.floor_ns_per_event(
            events=probe.events,
            same_time_share=1.0 - (batch.get("batches", 0) /
                                   max(1, batch.get("events", 0))),
            cancel_share=report.get("cancelled_total", 0) / scheduled,
            population=report.get("heap_high_water", 1),
            seed=args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0


def _counters(probe) -> dict:
    """Cumulative counters of the objects the run built."""
    inst = probe.instances
    return {
        "url_lookups": sum(t.lookups for t in inst["UrlTable"]),
        "url_cache_hits": sum(t.cache_hits for t in inst["UrlTable"]),
        "pool_acquired": sum(p.acquired for p in inst["ConnectionPool"]),
        "pool_waits": sum(p.waits for p in inst["ConnectionPool"]),
        "admission_submitted": sum(
            a.submitted for a in inst["AdmissionController"]),
        "admission_shed": sum(a.shed for a in inst["AdmissionController"]),
        "cache_hits": sum(c.hits for c in inst["LruCache"]),
        "cache_misses": sum(c.misses for c in inst["LruCache"]),
        "segments_sent": sum(n.segments_sent for n in inst["Network"]),
    }


def _kernel_stats_delta(start: dict, end: dict) -> dict:
    """Load-phase KernelStats: counts at load end minus load start (the
    heap high-water mark is a maximum, kept as is)."""
    def sub(key):
        return end.get(key, 0) - start.get(key, 0)

    out = {"heap_high_water": end.get("heap_high_water", 0),
           "scheduled_total": sub("scheduled_total"),
           "cancelled_total": sub("cancelled_total")}
    if "pool" in end:
        out["pool"] = {k: end["pool"].get(k, 0) - start["pool"].get(k, 0)
                       for k in ("hits", "misses")}
    if "batch_dispatch" in end:
        b0, b1 = start.get("batch_dispatch", {}), end["batch_dispatch"]
        out["batch_dispatch"] = {k: b1.get(k, 0) - b0.get(k, 0)
                                 for k in ("batches", "events")}
    if "fast_path" in end:
        f0 = start.get("fast_path", {})
        out["fast_path"] = {
            layer: {k: counts.get(k, 0) - f0.get(layer, {}).get(k, 0)
                    for k in ("hits", "fallbacks")}
            for layer, counts in end["fast_path"].items()}
    return out


# -- the parent: spawning and checking ----------------------------------------

def spawn(workload: str, seed: int, scale: str, mode: str, rep: int,
          spans_dir: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(rep % 3)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--mode", mode, "--rep", str(rep)]
    if spans_dir:
        cmd += ["--spans-dir", spans_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} run timed out after "
                          f"{exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-12:])
        raise ChildFailed(f"{workload} {mode} run exited "
                          f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def load_expected() -> dict:
    try:
        with open(EXPECTED_JSON, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def pinned(expected: dict, scale: str, workload: str, seed: int):
    return expected.get(scale, {}).get(workload, {}).get(str(seed))


def reference_entry(run: dict) -> dict:
    return {"digest": run["digest"], "ops": run["ops"],
            "sim": {k: run["sim"][k] for k in SIMULATED}}


def verify(workload: str, seed: int, scale: str, runs: list[dict],
           expected: dict) -> list[str]:
    """Every correctness problem of one workload's runs (empty = sound);
    an unpinned seed adds the smoke-scale reference run."""
    problems = []
    for run in runs:
        problems += [f"{run['mode']} run (hash seed {run['hashseed']}): "
                     f"{msg}" for msg in run["checks"]]
    digests = sorted({run["digest"] for run in runs})
    if len(digests) > 1:
        modes = {run["digest"][:12]: run["mode"] for run in runs}
        problems.append(f"digest differs across runs: {modes}")
    reference = pinned(expected, scale, workload, seed)
    if reference is None:
        problems += reference_check(workload, expected)
    elif reference_entry(runs[0]) != reference:
        problems.append(f"output differs from expected.json ({scale}, "
                        f"seed {seed}): got {reference_entry(runs[0])}, "
                        f"expected {reference}")
    return problems


def reference_check(workload: str, expected: dict) -> list[str]:
    """Smoke-scale run of the reference seed against ``expected.json``."""
    reference = pinned(expected, "smoke", workload, REFERENCE_SEED)
    if reference is None:
        return [f"expected.json has no smoke reference for {workload}"]
    run = spawn(workload, REFERENCE_SEED, "smoke", "plain", 0)
    got = reference_entry(run)
    problems = [f"reference run: {msg}" for msg in run["checks"]]
    if got != reference:
        problems.append(f"reference run (smoke, seed {REFERENCE_SEED}) "
                        f"differs from expected.json: got {got}, expected "
                        f"{reference}")
    return problems


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def _log_run(run: dict) -> None:
    print(f"  {run['workload']} {run['mode']} run (hash seed "
          f"{run['hashseed']}): setup {run['setup_s']:.4f} s, load "
          f"{run['run_s']:.4f} s, rss {run['peak_rss_mb']:.1f} MiB, digest "
          f"{run['digest'][:12]}", flush=True)


def plain_runs(workload: str, seed: int, scale: str,
               seconds: float) -> list[dict]:
    """Untraced repeats until their load phases add up to ``seconds``."""
    runs: list[dict] = []
    while len(runs) < MAX_REPEATS and (
            len(runs) < MIN_REPEATS or
            sum(r["run_s"] for r in runs) < seconds):
        runs.append(spawn(workload, seed, scale, "plain", len(runs)))
        _log_run(runs[-1])
    return runs


def traced_runs(workload: str, seed: int, scale: str, seconds: float,
                spans_dir: str | None):
    """Traced runs until their load phases add up to ``seconds`` (at
    least one), then one kernel-stats run."""
    traced: list[dict] = []
    while not traced or sum(r["run_s"] for r in traced) < seconds:
        traced.append(spawn(workload, seed, scale, "traced",
                            len(traced) + 1, spans_dir))
        _log_run(traced[-1])
    stats = spawn(workload, seed, scale, "stats", 2)
    _log_run(stats)
    return traced, stats


def summarize(workload: str, seed: int, scale: str, plain: list[dict],
              traced: list[dict] = (), stats: dict | None = None) -> dict:
    """Check every run of one workload; returns its results entry."""
    runs = [*plain, *traced, *([stats] if stats else [])]
    problems = verify(workload, seed, scale, runs, load_expected())
    first = runs[0]
    slow = [hostspeed.factor(r["host_slowness"]) for r in plain]
    e2e = {
        "sim_req_per_ref_s": [r["requests"] / r["run_s"] * s
                              for r, s in zip(plain, slow)],
        "setup_s": [r["setup_s"] / s for r, s in zip(plain, slow)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "sim_req_per_host_s": [r["requests"] / r["run_s"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "setup_host_s": [r["setup_s"] for r in plain],
    }
    for name in SIMULATED:
        e2e[name] = [r["sim"][name] for r in plain]
    entry = {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": not problems,
        "problems": problems,
        "digest": first["digest"],
        "digests": {run["mode"]: run["digest"] for run in runs},
        "ops": first["ops"],
        "attempted": sum(r["ops"]["attempted"] for r in runs),
        "p99_tail_samples": first["sim"]["p99_tail_samples"],
        "e2e": {name: dict(_summary(values), unit=E2E[name][0])
                for name, values in e2e.items()},
    }
    if traced:
        untraced_run_s = entry["e2e"]["run_s"]["median"]
        values = metrics.layer_metrics(traced, stats, untraced_run_s)
        entry["layers"] = {name: {"value": values[name],
                                  "unit": metrics.unit_of(name)}
                           for name in sorted(values)}
        entry["spans"] = _span_table(traced[0], untraced_run_s)
        entry["missing_spans"] = traced[0]["missing_spans"]
    return entry


def _span_table(run: dict, untraced_run_s: float) -> dict:
    """Every span of a traced run: calls, samples, self time per call."""
    own = metrics.span_self_ns(run["samples"], untraced_run_s)
    table = {}
    for name in sorted(set(own) | set(run["calls"])):
        calls = run["calls"].get(name, 0)
        self_ns = own.get(name, 0.0)
        table[name or "(kernel dispatch)"] = {
            "calls": calls, "samples": run["samples"].get(name, 0),
            "self_ns": self_ns,
            "ns_per_call": self_ns / calls if calls else None}
    return table


# -- reports ------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4f}"
    return f"{value:.4e}"


def render(entry: dict) -> str:
    lines = [f"== {entry['workload']} (seed {entry['seed']}, "
             f"{entry['scale']} scale): "
             f"{'correct' if entry['correct'] else 'INCORRECT'}, "
             f"digest {entry['digest'][:16]}, ops attempted "
             f"{entry['ops']['attempted']} failed {entry['ops']['failed']}"]
    for msg in entry["problems"]:
        lines.append(f"   problem: {msg}")
    if "e2e" in entry:
        lines.append(f"   {'metric':24s} {'unit':10s} {'median':>12s} "
                     f"{'min':>12s} {'max':>12s}   n")
        for name, m in entry["e2e"].items():
            lines.append(f"   {name:24s} {m['unit']:10s} "
                         f"{_fmt(m['median']):>12s} {_fmt(m['min']):>12s} "
                         f"{_fmt(m['max']):>12s} {m['n']:3d}")
    if "layers" in entry:
        lines.append(f"   per-layer (traced run), {'unit':12s} value")
        for name, m in entry["layers"].items():
            lines.append(f"   {name:36s} {m['unit']:12s} "
                         f"{_fmt(m['value'])}")
        lines.append(f"   {'span':24s} {'calls':>9s} {'samples':>8s} "
                     f"{'self ms':>9s} {'ns/call':>9s}")
        for name, s in entry["spans"].items():
            per_call = "" if s["ns_per_call"] is None else \
                f"{s['ns_per_call']:.0f}"
            lines.append(f"   {name:24s} {s['calls']:9d} {s['samples']:8d} "
                         f"{s['self_ns'] / 1e6:9.1f} {per_call:>9s}")
    return "\n".join(lines)


def contract_line(entry: dict, trace: bool, names: list[str]) -> dict:
    source = entry["layers"] if trace else {
        name: {"value": m["median"], "unit": m["unit"]}
        for name, m in entry["e2e"].items()}
    metrics = {name: {"value": source[name]["value"],
                      "unit": source[name]["unit"]}
               for name in names if name in source}
    attempted = max(1, entry["attempted"])
    return {"correct": entry["correct"], "attempted": attempted,
            "failed": 0 if entry["correct"] else attempted,
            "metrics": metrics}


def benchmark_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# -- --compare ----------------------------------------------------------------

def compare(base: dict, new: dict, bounds: dict) -> tuple[list, bool]:
    """One row per (workload, metric); returns (rows, regressed)."""
    rows = []
    regressed = False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][workload], new["workloads"][workload]
        for name, (_unit, _better, bounded_by) in E2E.items():
            if name not in b.get("e2e", {}) or name not in n.get("e2e", {}):
                continue
            verdict, change = _verdict(name, b["e2e"][name], n["e2e"][name],
                                       bounds.get(bounded_by, 0.0))
            regressed |= verdict == "regressed"
            rows.append((workload, name, b["e2e"][name]["median"],
                         n["e2e"][name]["median"], change, verdict))
        b_share = b["ops"]["failed"] / max(1, b["ops"]["attempted"])
        n_share = n["ops"]["failed"] / max(1, n["ops"]["attempted"])
        verdict = ("regressed" if n_share > b_share else
                   "improved" if n_share < b_share else "unchanged")
        regressed |= verdict == "regressed"
        rows.append((workload, "ops.failed_share", b_share, n_share,
                     n_share - b_share, verdict))
        rows.append((workload, "digest", b["digest"][:12], n["digest"][:12],
                     "", "unchanged" if b["digest"] == n["digest"]
                     else "changed"))
    return rows, regressed


def _verdict(name: str, b: dict, n: dict, bound: float):
    lower = E2E[name][1] == "lower"
    base, new = b["median"], n["median"]
    change = (new - base) / base if base else 0.0
    worse = change if lower else -change
    if name in SIMULATED:
        if new == base:
            return "unchanged", change
        return ("regressed" if worse > 0 else "improved"), change
    spread = max(_quartile_spread(m["samples"]) for m in (b, n))
    if spread > bound:
        if lower:
            clear = max(n["samples"]) < min(b["samples"])
        else:
            clear = min(n["samples"]) > max(b["samples"])
        return ("improved" if clear else "unresolved"), change
    if worse > bound:
        return "regressed", change
    if worse < -bound:
        return "improved", change
    return "unchanged", change


def _quartile_spread(samples: list[float]) -> float:
    """Distance between the quartiles over the median (0 for one sample)."""
    if len(samples) < 2 or not statistics.median(samples):
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def render_compare(rows: list) -> str:
    lines = [f"{'workload':18s} {'metric':22s} {'base':>12s} {'new':>12s} "
             f"{'change':>9s}  verdict"]
    for workload, name, base, new, change, verdict in rows:
        shown = f"{change:+.2%}" if isinstance(change, float) else change
        base = _fmt(base) if isinstance(base, (int, float)) else base
        new = _fmt(new) if isinstance(new, (int, float)) else new
        lines.append(f"{workload:18s} {name:22s} {base:>12s} {new:>12s} "
                     f"{shown:>9s}  {verdict}")
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description="Run the repository benchmark (see the module doc).")
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="measure one workload (default: all five)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed all generated inputs (default %(default)s)")
    p.add_argument("--seconds", type=float, default=None,
                   help="repeat until the load phases add up to this "
                        "many host seconds (with --workload)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics of a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at smoke scale (~0.5 s each)")
    p.add_argument("--spans-dir", default=None,
                   help="write sampled span records here (outside the "
                        "repository tree)")
    p.add_argument("--out", default=None,
                   help="write the results JSON to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two results files; exit 1 on regression")
    p.add_argument("--update-expected", action="store_true",
                   help="refresh expected.json for the chosen scale")
    # internal: one measured run in this process
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--mode", default="plain",
                   choices=("plain", "traced", "stats"),
                   help=argparse.SUPPRESS)
    p.add_argument("--scale", default=None, help=argparse.SUPPRESS)
    p.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return cmd_compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.spans_dir:
        spans = os.path.abspath(args.spans_dir)
        if os.path.commonpath([spans, ROOT]) == ROOT:
            print("error: --spans-dir must be outside the repository tree",
                  file=sys.stderr)
            return 2
        args.spans_dir = spans
    scale = "smoke" if args.smoke else "full"
    try:
        if args.update_expected:
            return cmd_update_expected(args, scale)
        if args.workload:
            return cmd_contract(args, scale)
        return cmd_full(args, scale)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_contract(args, scale: str) -> int:
    seconds = args.seconds if args.seconds is not None else 0.0
    trace = bool(args.trace)
    w, seed = args.workload, args.seed
    if trace:
        plain = [spawn(w, seed, scale, "plain", 0)]
        _log_run(plain[0])
        traced, stats = traced_runs(w, seed, scale, seconds, args.spans_dir)
        entry = summarize(w, seed, scale, plain, traced, stats)
    else:
        entry = summarize(w, seed, scale,
                          plain_runs(w, seed, scale, seconds))
    print(render(entry))
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if args.out:
        write_results(args.out, {entry["workload"]: entry}, args.seed, scale)
    line = contract_line(entry, trace, names)
    print(json.dumps(line, sort_keys=True))
    return 0 if entry["correct"] else 1


def cmd_full(args, scale: str) -> int:
    """Every workload: untraced repeats taken round-robin across the
    workloads (so a burst of host contention hits them all alike), then
    a traced and a kernel-stats run each."""
    started = time.perf_counter()
    plain: dict[str, list] = {w: [] for w in WORKLOAD_NAMES}
    for rep in range(FULL_REPEATS):
        for workload in WORKLOAD_NAMES:
            plain[workload].append(spawn(workload, args.seed, scale,
                                         "plain", rep))
            _log_run(plain[workload][-1])
    entries = {}
    for workload in WORKLOAD_NAMES:
        traced, stats = traced_runs(workload, args.seed, scale, 0.0,
                                    args.spans_dir)
        entry = summarize(workload, args.seed, scale, plain[workload],
                          traced, stats)
        print(render(entry), flush=True)
        entries[workload] = entry
    if args.out:
        write_results(args.out, entries, args.seed, scale)
    bad = sorted(w for w, e in entries.items() if not e["correct"])
    print(f"\n{len(entries) - len(bad)}/{len(entries)} workloads correct "
          f"in {time.perf_counter() - started:.1f} s"
          + (f"; INCORRECT: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


def write_results(path: str, entries: dict, seed: int, scale: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "seed": seed, "scale": scale,
                   "workloads": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_compare(base_path: str, new_path: str) -> int:
    try:
        with open(base_path, encoding="utf-8") as fh:
            base = json.load(fh)
        with open(new_path, encoding="utf-8") as fh:
            new = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return 1
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    rows, regressed = compare(base, new, bounds)
    print(render_compare(rows))
    return 1 if regressed else 0


def cmd_update_expected(args, scale: str) -> int:
    expected = load_expected()
    section = expected.setdefault(scale, {})
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for workload in workloads:
        entries = section.setdefault(workload, {})
        seeds = sorted({int(s) for s in entries} | {args.seed})
        for seed in seeds:
            run = spawn(workload, seed, scale, "plain", 0)
            if run["checks"]:
                print(f"{workload} seed {seed}: {run['checks']}",
                      file=sys.stderr)
                return 1
            entries[str(seed)] = reference_entry(run)
            print(f"{scale} {workload} seed {seed}: {run['digest'][:16]}")
    with open(EXPECTED_JSON, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
