"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``   reproduce the paper's Figures 2/3/4 (all by default)
``overhead``  the §5.2 URL-table overhead table
``run``       one experiment cell (scheme x workload x clients)
``schemes``   list available placement/routing schemes
``check``     run the repro.analysis correctness passes (exit 1 on findings)
``chaos``     seeded fault-injection episodes (exit 1 if any fails)
``overload``  flash-crowd + slow-disk overload episode (exit 1 on failure)
``trace``     traced overload episode: summary, waterfall, JSONL/Chrome export
``telemetry`` sampled overload episode: windowed series as JSONL or
              Prometheus text format (DESIGN §15)
``top``       telemetry dashboard for the overload episode: totals, gauges,
              scheduler introspection, SLO verdicts
``recover``   controller crash/recovery episode; ``--explore`` crashes the
              controller at every WAL/dispatch boundary (DESIGN §14)
``sweep``     run a SweepSpec matrix across worker processes and merge the
              per-run artifacts into one deterministic report (DESIGN §13)
``sweep-clients``  sweep client counts for one cell, write CSV
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (SCHEMES, ExperimentConfig, build_deployment,
                          figure2, figure3, figure4, render_table,
                          sweep_clients, url_table_overhead, write_csv)
from .workload import WORKLOAD_A, WORKLOAD_B


def _parse_clients(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError("client counts must be >= 1")
    return counts


def cmd_figures(args: argparse.Namespace) -> int:
    wanted = args.figure
    if wanted in ("2", "all"):
        print(figure2(clients=args.clients, duration=args.duration,
                      warmup=args.warmup, seed=args.seed)["rendered"], "\n")
    if wanted in ("3", "all"):
        print(figure3(clients=args.clients, duration=args.duration,
                      warmup=args.warmup, seed=args.seed)["rendered"], "\n")
    if wanted in ("4", "all"):
        print(figure4(n_clients=args.clients[-1], duration=args.duration,
                      warmup=args.warmup, seed=args.seed)["rendered"])
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    result = url_table_overhead(n_objects=args.objects,
                                lookups=args.lookups, seed=args.seed)
    print(result["rendered"])
    print("paper reports: ~8700 objects, ~260 KB, ~4.32 us")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = WORKLOAD_A if args.workload == "A" else WORKLOAD_B
    config = ExperimentConfig(scheme=args.scheme, workload=workload,
                              duration=args.duration, warmup=args.warmup,
                              seed=args.seed, n_objects=args.objects,
                              debug_invariants=args.debug_invariants)
    deployment = build_deployment(config)
    result = deployment.run(args.clients[-1])
    rows = [["throughput req/s", round(result["throughput_rps"], 1)],
            ["completed", result["completed"]],
            ["errors", result["errors"]],
            ["latency p50 ms", round(result["latency_p50"] * 1000, 1)],
            ["latency p95 ms", round(result["latency_p95"] * 1000, 1)],
            ["mean cache hit rate",
             round(result["mean_cache_hit_rate"], 3)]]
    for klass, rps in sorted(result["by_class"].items()):
        rows.append([f"  {klass} req/s", round(rps, 1)])
    print(render_table(
        f"{args.scheme} / workload {workload.name} / "
        f"{args.clients[-1]} clients", ["metric", "value"], rows))
    return 0


def cmd_sweep_clients(args: argparse.Namespace) -> int:
    workload = WORKLOAD_A if args.workload == "A" else WORKLOAD_B
    result = sweep_clients(args.scheme, workload, args.clients,
                           seed=args.seed, duration=args.duration,
                           warmup=args.warmup, n_objects=args.objects)
    write_csv(result, args.output)
    print(f"wrote {len(result.rows)} rows to {args.output}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .chaos import explore_crash_points, render_exploration
    from .experiments.recovery import (recovery_episode_fn, render_recovery,
                                       run_recovery_episode)
    from .mgmt import CrashPlan
    kwargs = dict(n_objects=args.objects, restart_delay=args.restart_delay,
                  checkpoint_every=args.checkpoint_every)
    if args.explore:
        report = explore_crash_points(
            recovery_episode_fn(args.seed, **kwargs),
            offset=args.offset, limit=args.limit)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_exploration(report, verbose=args.verbose))
        return 0 if report["all_converged"] else 1
    plan = (CrashPlan(at_boundary=args.boundary)
            if args.boundary is not None else None)
    outcome = run_recovery_episode(args.seed, crash_plan=plan, **kwargs)
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        print(render_recovery(outcome))
    return 0 if outcome["converged"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .experiments.sweep import (SweepEngine, SweepError, compare_reports,
                                    load_spec, merge_sweep, render_compare,
                                    render_report, write_report)
    try:
        spec = load_spec(args.spec)
        engine = SweepEngine(spec, args.out, workers=args.workers,
                             resume=args.resume, cell_filter=args.filter,
                             limit=args.limit)
        if args.list:
            for cell in engine.selected_cells():
                print(f"{cell.run_id}  {cell.cell_id}")
            return 0
        if args.workers == 1:
            # serial runs narrate per cell; parallel completion order is
            # nondeterministic, so only the merged report speaks for it
            engine.on_progress = \
                lambda cell_id, kind: print(f"  [{kind:>7s}] {cell_id}")
        status = engine.run()
        print(f"sweep {spec.name} [{spec.spec_hash}] -> {status.directory}")
        print(f"  {len(status.executed)} executed, "
              f"{len(status.resumed)} resumed, "
              f"{len(status.invalidated)} re-run (corrupt artifact)")
        if not status.complete:
            print(f"  partial: {len(status.pending)} cells pending; "
                  f"continue with --resume")
            return 0
        report = merge_sweep(spec, args.out, cell_filter=args.filter)
        path = write_report(spec, args.out, cell_filter=args.filter,
                            report=report)
        print(render_report(report))
        print(f"report: {path}")
        if args.compare is not None:
            try:
                with open(args.compare, encoding="utf-8") as fh:
                    prior = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"cannot read prior report {args.compare}: {exc}",
                      file=sys.stderr)
                return 1
            comparison = compare_reports(report, prior)
            print(render_compare(comparison))
            if comparison["regressed"]:
                return 1
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis.__main__ import main as analysis_main
    passes = "deep" if args.deep else args.passes
    argv = ["--pass", passes]
    if args.smoke_duration is not None:
        argv += ["--smoke-duration", str(args.smoke_duration)]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.format != "text":
        argv += ["--format", args.format]
    return analysis_main(argv)


def cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments.chaos import ChaosRunner
    runner = ChaosRunner(seed=args.seed, episodes=args.episodes,
                         duration=args.duration, clients=args.clients,
                         n_objects=args.objects, settle=args.settle)
    runner.run()
    print(runner.report())
    return 0 if runner.all_survived else 1


def cmd_overload(args: argparse.Namespace) -> int:
    from .experiments.chaos import run_overload_episode
    result = run_overload_episode(
        seed=args.seed, duration=args.duration, clients=args.clients,
        n_objects=args.objects, settle=args.settle,
        multiplier=args.multiplier, enabled=not args.disabled)
    print(result.report())
    return 0 if result.survived else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .experiments.chaos import run_overload_episode
    from .obs import (TraceSummary, format_event, pick_waterfall_trace,
                      render_waterfall, to_chrome_trace, to_jsonl)
    result = run_overload_episode(
        seed=args.seed, duration=args.duration, clients=args.clients,
        n_objects=args.objects, settle=args.settle,
        multiplier=args.multiplier, trace=True)
    tracer = result.tracer
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(to_jsonl(tracer))
        print(f"wrote {len(tracer.events)} events / {len(tracer.spans)} "
              f"spans to {args.jsonl}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(to_chrome_trace(tracer))
        print(f"wrote Chrome trace-event file to {args.chrome}")
    if args.kind or args.node:
        events = tracer.find_events(kind=args.kind, node=args.node,
                                    trace_id=args.request)
        for event in events:
            print(format_event(event))
        print(f"{len(events)} events matched")
        return 0 if result.survived else 1
    print(TraceSummary.from_tracer(tracer).render())
    trace_id = args.request if args.request is not None \
        else pick_waterfall_trace(tracer)
    if trace_id is not None:
        print()
        print(render_waterfall(tracer, trace_id))
    return 0 if result.survived else 1


def cmd_telemetry(args: argparse.Namespace) -> int:
    from .experiments.chaos import run_overload_episode
    from .obs import (render_windows, telemetry_to_jsonl,
                      telemetry_to_prometheus)
    result = run_overload_episode(
        seed=args.seed, duration=args.duration, clients=args.clients,
        n_objects=args.objects, settle=args.settle,
        multiplier=args.multiplier, telemetry=args.window)
    sampler = result.telemetry
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(telemetry_to_jsonl(sampler, include_host=args.host))
        print(f"wrote {len(sampler.windows)} windows + summary "
              f"to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(telemetry_to_prometheus(sampler))
        print(f"wrote Prometheus text format to {args.prom}")
    if args.per_window or not (args.jsonl or args.prom):
        print(render_windows(sampler))
    summary = sampler.summary()
    print(f"{summary['windows']} windows x {summary['window_s']:g}s, "
          f"{summary['events_total']} events, "
          f"peak {summary['peak_events_per_sec']:.0f} ev/s")
    return 0 if result.survived else 1


def cmd_top(args: argparse.Namespace) -> int:
    from .experiments.chaos import run_overload_episode
    from .obs import render_top, render_windows
    result = run_overload_episode(
        seed=args.seed, duration=args.duration, clients=args.clients,
        n_objects=args.objects, settle=args.settle,
        multiplier=args.multiplier, telemetry=args.window,
        kernel_stats=True)
    if args.watch:
        print(render_windows(result.telemetry))
        print()
    print(render_top(result.telemetry, kernel_stats=result.kernel_stats,
                     slo_results=result.slo_results,
                     title=f"overload episode seed={args.seed}"))
    return 0 if result.survived and result.slo_ok else 1


def cmd_schemes(args: argparse.Namespace) -> int:
    descriptions = {
        "replication-l4": "full replication + L4 router (WLC) -- config 1",
        "nfs-l4": "shared NFS + L4 router (WLC) -- config 2",
        "partition-ca": "content partition + content-aware distributor "
                        "-- config 3 (the paper's proposal)",
        "replication-lard": "full replication + LARD (extension)",
    }
    for scheme in SCHEMES:
        print(f"{scheme:18s} {descriptions.get(scheme, '')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Yang & Luo, ICDCS 2000: content "
                    "placement and management for distributed web servers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--duration", type=float, default=14.0,
                       help="simulated seconds per point")
        p.add_argument("--warmup", type=float, default=4.0)
        p.add_argument("--clients", type=_parse_clients,
                       default=(15, 30, 60, 90, 120),
                       help="comma-separated client counts")

    p_fig = sub.add_parser("figures", help="reproduce Figures 2/3/4")
    p_fig.add_argument("--figure", choices=("2", "3", "4", "all"),
                       default="all")
    common(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_ovh = sub.add_parser("overhead", help="the §5.2 URL-table table")
    p_ovh.add_argument("--objects", type=int, default=8700)
    p_ovh.add_argument("--lookups", type=int, default=20000)
    p_ovh.add_argument("--seed", type=int, default=42)
    p_ovh.set_defaults(func=cmd_overhead)

    p_run = sub.add_parser("run", help="run one experiment cell")
    p_run.add_argument("--scheme", choices=SCHEMES, default="partition-ca")
    p_run.add_argument("--workload", choices=("A", "B"), default="A")
    p_run.add_argument("--objects", type=int, default=None)
    p_run.add_argument("--debug-invariants", action="store_true",
                       help="run the repro.analysis coherence checks "
                            "periodically during the simulation")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_swc = sub.add_parser("sweep-clients",
                           help="sweep client counts for one cell, "
                                "write CSV")
    p_swc.add_argument("--scheme", choices=SCHEMES, default="partition-ca")
    p_swc.add_argument("--workload", choices=("A", "B"), default="A")
    p_swc.add_argument("--objects", type=int, default=None)
    p_swc.add_argument("--output", default="sweep.csv")
    common(p_swc)
    p_swc.set_defaults(func=cmd_sweep_clients)

    p_swp = sub.add_parser("sweep",
                           help="run a SweepSpec matrix across worker "
                                "processes, write per-run artifacts, and "
                                "merge them into one deterministic report")
    p_swp.add_argument("--spec", required=True,
                       help="SweepSpec JSON file (e.g. "
                            "specs/sweep_smoke.json)")
    p_swp.add_argument("--out", default="sweeps",
                       help="output root; artifacts land under "
                            "OUT/<name>-<spec_hash>/runs/")
    p_swp.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1: serial, "
                            "in-process)")
    p_swp.add_argument("--resume", action="store_true",
                       help="keep valid artifacts from a previous "
                            "(interrupted) sweep; re-run missing or "
                            "corrupt ones")
    p_swp.add_argument("--filter", default=None,
                       help="only run/merge cells whose cell id contains "
                            "this substring")
    p_swp.add_argument("--limit", type=int, default=None,
                       help="run at most N pending cells, then stop "
                            "without merging (finish with --resume)")
    p_swp.add_argument("--list", action="store_true",
                       help="print the expanded run matrix and exit")
    p_swp.add_argument("--compare", default=None, metavar="PRIOR_REPORT",
                       help="after merging, diff the report against this "
                            "prior report.json (per-cell and per-axis "
                            "deltas; exit 1 on regression)")
    p_swp.set_defaults(func=cmd_sweep)

    p_rec = sub.add_parser("recover",
                           help="controller crash/recovery episode; "
                                "--explore crashes it at every WAL/"
                                "dispatch boundary and checks convergence")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument("--objects", type=int, default=60)
    p_rec.add_argument("--restart-delay", type=float, default=0.6,
                       help="simulated seconds the controller stays down")
    p_rec.add_argument("--checkpoint-every", type=int, default=24,
                       help="WAL records between checkpoints")
    p_rec.add_argument("--boundary", type=int, default=None,
                       help="crash at this single boundary (1-based)")
    p_rec.add_argument("--explore", action="store_true",
                       help="crash at every boundary; exit 1 unless every "
                            "crash point converges")
    p_rec.add_argument("--offset", type=int, default=0,
                       help="with --explore: skip the first N boundaries")
    p_rec.add_argument("--limit", type=int, default=None,
                       help="with --explore: explore at most N boundaries")
    p_rec.add_argument("--verbose", action="store_true",
                       help="with --explore: list every crash point, not "
                            "just failures")
    p_rec.add_argument("--json", action="store_true",
                       help="emit the raw report as JSON")
    p_rec.set_defaults(func=cmd_recover)

    p_sch = sub.add_parser("schemes", help="list placement/routing schemes")
    p_sch.set_defaults(func=cmd_schemes)

    p_cha = sub.add_parser("chaos",
                           help="run seeded fault-injection episodes and "
                                "check the survival properties")
    p_cha.add_argument("--seed", type=int, default=1)
    p_cha.add_argument("--episodes", type=int, default=20)
    p_cha.add_argument("--duration", type=float, default=6.0,
                       help="simulated seconds of load per episode")
    p_cha.add_argument("--clients", type=int, default=10,
                       help="closed-loop clients per episode")
    p_cha.add_argument("--objects", type=int, default=300)
    p_cha.add_argument("--settle", type=float, default=2.5,
                       help="drain window after the load stops")
    p_cha.set_defaults(func=cmd_chaos)

    p_ovl = sub.add_parser("overload",
                           help="run the flash-crowd + slow-disk overload "
                                "episode and check the graceful-degradation "
                                "properties")
    p_ovl.add_argument("--seed", type=int, default=1)
    p_ovl.add_argument("--duration", type=float, default=6.0,
                       help="simulated seconds of load")
    p_ovl.add_argument("--clients", type=int, default=10,
                       help="steady closed-loop clients (the flash crowd "
                            "multiplies this)")
    p_ovl.add_argument("--multiplier", type=float, default=4.0,
                       help="flash-crowd client multiplier")
    p_ovl.add_argument("--objects", type=int, default=300)
    p_ovl.add_argument("--settle", type=float, default=2.5,
                       help="drain window after the load stops")
    p_ovl.add_argument("--disabled", action="store_true",
                       help="run the same episode with overload control "
                            "off (the unprotected baseline)")
    p_ovl.set_defaults(func=cmd_overload)

    p_trc = sub.add_parser("trace",
                           help="run the overload episode with tracing on "
                                "and inspect the resulting timeline")
    p_trc.add_argument("--seed", type=int, default=1)
    p_trc.add_argument("--duration", type=float, default=6.0,
                       help="simulated seconds of load")
    p_trc.add_argument("--clients", type=int, default=10)
    p_trc.add_argument("--multiplier", type=float, default=4.0,
                       help="flash-crowd client multiplier")
    p_trc.add_argument("--objects", type=int, default=300)
    p_trc.add_argument("--settle", type=float, default=2.5)
    p_trc.add_argument("--request", type=int, default=None,
                       help="waterfall this trace id (default: the trace "
                            "with the most events)")
    p_trc.add_argument("--kind", default=None,
                       help="list raw events of this kind (e.g. breaker, "
                            "shed) instead of the summary")
    p_trc.add_argument("--node", default=None,
                       help="list raw events for this node instead of the "
                            "summary")
    p_trc.add_argument("--jsonl", default=None,
                       help="write the full trace to this JSONL file")
    p_trc.add_argument("--chrome", default=None,
                       help="write a Chrome trace-event file (load in "
                            "chrome://tracing or Perfetto)")
    p_trc.set_defaults(func=cmd_trace)

    def episode_opts(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--duration", type=float, default=6.0,
                       help="simulated seconds of load")
        p.add_argument("--clients", type=int, default=10)
        p.add_argument("--multiplier", type=float, default=4.0,
                       help="flash-crowd client multiplier")
        p.add_argument("--objects", type=int, default=300)
        p.add_argument("--settle", type=float, default=2.5)
        p.add_argument("--window", type=float, default=0.5,
                       help="telemetry window length (sim seconds)")

    p_tel = sub.add_parser("telemetry",
                           help="run the overload episode with windowed "
                                "telemetry sampling and export the series")
    episode_opts(p_tel)
    p_tel.add_argument("--jsonl", default=None,
                       help="write one JSON object per window (plus a "
                            "summary record) to this file")
    p_tel.add_argument("--prom", default=None,
                       help="write Prometheus text exposition format "
                            "to this file")
    p_tel.add_argument("--per-window", action="store_true",
                       help="also print the per-window dump when writing "
                            "export files")
    p_tel.add_argument("--host", action="store_true",
                       help="include host RSS readings in the JSONL "
                            "(breaks byte-determinism across machines)")
    p_tel.set_defaults(func=cmd_telemetry)

    p_top = sub.add_parser("top",
                           help="telemetry dashboard for the overload "
                                "episode: totals, gauges, scheduler "
                                "introspection, SLO verdicts")
    episode_opts(p_top)
    p_top.add_argument("--watch", action="store_true",
                       help="print the per-window dump above the "
                            "dashboard (a --watch-style timeline)")
    p_top.set_defaults(func=cmd_top)

    p_chk = sub.add_parser("check",
                           help="determinism lint + state-machine check + "
                                "runtime invariants + deep gate/leak/"
                                "stale-state analysis")
    p_chk.add_argument("--pass", dest="passes",
                       choices=("determinism", "state-machine",
                                "invariants", "deep", "all"),
                       default="all")
    p_chk.add_argument("--deep", action="store_true",
                       help="shorthand for --pass deep (the whole-program "
                            "gate/leak/stale-state analyzer)")
    p_chk.add_argument("--baseline", default=None,
                       help="baseline file of accepted deep findings")
    p_chk.add_argument("--format", choices=("text", "jsonl"),
                       default="text")
    p_chk.add_argument("--smoke-duration", type=float, default=None)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
