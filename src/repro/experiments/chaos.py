"""Chaos episodes: seeded fault schedules against the full testbed.

Each episode builds a fresh §5.1 deployment (partition-ca scheme, HA
distributor pair, management plane with a cluster monitor), drives
closed-loop WebBench clients through it, injects a generated
:class:`~repro.chaos.FaultSchedule`, drains the clients, lets the cluster
reconverge, and then asserts the survival properties:

* every request was eventually answered or cleanly errored (no client
  process is stuck mid-request after the drain);
* the routing directory, the catalog, and the physical stores are
  coherent -- INV001-INV008 from :mod:`repro.analysis.invariants`;
* no leaked mapping entries or connection-pool leases on either
  distributor;
* replicas reconverge after the faults heal (the management plane's
  audit comes back clean, possibly after a reconcile pass).

The whole run is a pure function of its seed: same seed, byte-identical
report, regardless of PYTHONHASHSEED.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..analysis.invariants import check_invariants
from ..chaos import ChaosTargets, DiskSlowdown, FAULT_KINDS, FaultSchedule, \
    FlashCrowd, generate_schedule
from ..core import HaDistributorPair, OverloadConfig
from ..mgmt import ClusterMonitor
from ..sim import RngStream
from ..workload import WORKLOAD_A, WebBenchRig
from .figures import render_table
from .testbed import Deployment, ExperimentConfig, build_deployment

__all__ = ["EpisodeResult", "ChaosRunner", "OverloadEpisodeResult",
           "OVERLOAD_EPISODE_CONFIG", "run_overload_episode"]

#: simulated seconds the harness allows the final audit/reconcile pass
FINALIZE_BUDGET = 6.0


class _HaEpisode:
    """The HA testbed both episode kinds run on.

    On one §5.1 deployment it builds, in this order: the §2.3 backup
    distributor, the §3.1 management plane (1 s dispatch timeout), a
    cluster monitor, the primary/backup pair, and a closed-loop client
    rig submitting through the pair, installed as ``deployment.rig`` so
    the deployment's telemetry probes sample it.  Brokers, collectors,
    the monitor and the pair each start processes, so this order is
    their place in the event order.  Every component finds the
    deployment's observers on the simulator.

    With overload control on, dispatch timeouts feed the data plane's
    breaker board and the pair's outage retries draw on the retry
    budget.  A failover rebinds the management plane onto the backup.
    Each hook stays dormant where it does not apply: chaos episodes have
    no overload control, and nothing crashes an overload episode's
    primary.
    """

    def __init__(self, deployment: Deployment, rng: RngStream):
        sim = deployment.sim
        primary = deployment.frontend
        ctl = primary.overload
        self.deployment = deployment
        self.backup = deployment.backup_distributor()
        self.controller, self.brokers = deployment.management_plane()
        self.controller.default_timeout = 1.0
        if ctl is not None:
            self.controller.health_sink = ctl.breakers
        self.monitor = ClusterMonitor(sim, self.controller, primary.view,
                                      interval=0.3, misses_to_fail=2,
                                      probe_timeout=0.5)
        self.monitor.start()
        self.pair = HaDistributorPair(
            sim, primary, self.backup, heartbeat_interval=0.2,
            misses_to_fail=2,
            retry_budget=ctl.retry_budget if ctl is not None else None,
            on_failover=self._rebind_after_failover)
        config = deployment.config
        self.rig = WebBenchRig(sim, self.pair.submit, deployment.sampler,
                               n_machines=config.n_client_machines,
                               warmup=config.warmup,
                               think_time=config.workload.think_time,
                               rng=rng.substream("rig"))
        deployment.rig = self.rig

    def _rebind_after_failover(self, pair: HaDistributorPair) -> None:
        # the backup's replicated URL table becomes the live directory:
        # the management plane must mutate *it* from now on, and the
        # backup's routing view must learn which nodes are down
        backup = self.backup
        self.controller.rebind(backup.url_table, backup.nic)
        for node in sorted(self.monitor.down_nodes):
            backup.view.mark_down(node)
        self.monitor.view = backup.view

    def drive(self, schedule: FaultSchedule, clients: int, duration: float,
              settle: float, loss_rng: Optional[RngStream] = None,
              agent_rng: Optional[RngStream] = None) -> list[str]:
        """Install ``schedule``, run ``clients`` until ``duration``, then
        drain for ``settle``: clients finish their in-flight request and
        exit.  Returns the clients still mid-request after the drain."""
        dep = self.deployment
        schedule.install(ChaosTargets(
            sim=dep.sim, lan=dep.lan, servers=dep.servers, pair=self.pair,
            brokers=self.brokers, loss_rng=loss_rng, agent_rng=agent_rng,
            rig=self.rig))
        self.rig.start_clients(clients)
        dep.sim.run(until=duration)
        self.rig.request_stop()
        dep.sim.run(until=duration + settle)
        return sorted(c.client_id for c in self.rig.clients
                      if c.process.is_alive)

    def stop(self) -> None:
        """Stop the monitor, the pair's heartbeats and every broker."""
        self.monitor.stop()
        self.pair.stop()
        for name in sorted(self.brokers):
            self.brokers[name].stop()

    def audit(self) -> tuple[list[str], list[str]]:
        """``(invariant violations, leaks)``: INV001-INV010 over the
        active distributor, then mapping entries and pool leases left
        on either distributor."""
        dep, active = self.deployment, self.pair.active
        violations = check_invariants(active.url_table, servers=dep.servers,
                                      frontend=active, catalog=dep.catalog)
        leaks: list[str] = []
        for frontend in (dep.frontend, self.backup):
            if len(frontend.mapping) != 0:
                leaks.append(f"{frontend.name}: {len(frontend.mapping)} "
                             f"mapping entries leaked")
            pools = frontend.pools.pools()
            for backend in sorted(pools):
                if pools[backend].leased_count != 0:
                    leaks.append(f"{frontend.name}/pool:{backend}: "
                                 f"{pools[backend].leased_count} leases "
                                 f"leaked")
        return ([f"{v.rule} {v.path}: {v.message}" for v in violations],
                leaks)

    def evaluate_slos(self, specs, shed: int = 0) -> list:
        """Close the telemetry windows and judge ``specs`` against the
        rig's outcomes and the windowed series."""
        from ..obs import evaluate_slos, slo_metrics_from_rig
        sim = self.deployment.sim
        sim.telemetry.finalize(sim.now)
        return evaluate_slos(specs, slo_metrics_from_rig(self.rig, shed=shed),
                             sim.telemetry)


class _Verdict:
    """Survival as a list of failure reasons, shared by both episode
    results: an episode survived when it has none."""

    # the outcome fields every episode result declares
    completed: int
    stuck_clients: list
    invariant_violations: list
    leak_violations: list
    slo_results: list

    def _failures(self) -> list[str]:
        reasons = []
        if self.completed == 0:
            reasons.append("no requests completed")
        if self.stuck_clients:
            reasons.append(f"stuck clients: {self.stuck_clients}")
        if self.invariant_violations:
            reasons.append(
                f"invariants: {'; '.join(self.invariant_violations)}")
        if self.leak_violations:
            reasons.append(f"leaks: {'; '.join(self.leak_violations)}")
        return reasons

    @property
    def survived(self) -> bool:
        return not self._failures()

    @property
    def slo_ok(self) -> bool:
        return all(r["ok"] for r in self.slo_results)

    def failure_summary(self) -> str:
        return "; ".join(self._failures()) or "ok"


@dataclasses.dataclass
class EpisodeResult(_Verdict):
    """Everything one chaos episode observed."""

    episode: int
    schedule: FaultSchedule
    completed: int
    errors: int
    failed_over: bool
    retries: int
    stuck_clients: list[str]
    invariant_violations: list[str]
    leak_violations: list[str]
    audit_clean: bool
    reconciled: bool          # final audit needed a reconcile pass
    finalize_done: bool
    #: flight-recorder dump captured when the episode failed (traced runs)
    timeline: str = ""
    #: repro.obs SLO verdicts (empty unless the runner samples telemetry);
    #: reported alongside survival, never folded into it -- an episode can
    #: survive its faults and still blow its latency objective
    slo_results: list = dataclasses.field(default_factory=list)
    #: whole-run telemetry aggregate (empty unless sampled)
    telemetry_summary: dict = dataclasses.field(default_factory=dict)

    def _failures(self) -> list[str]:
        reasons = super()._failures()
        if not self.finalize_done:
            reasons.append("audit/reconcile pass did not finish")
        elif not self.audit_clean:
            reasons.append("cluster did not reconverge (audit dirty)")
        return reasons


class ChaosRunner:
    """Run N seeded chaos episodes and aggregate a per-fault-class table."""

    def __init__(self, seed: int = 1, episodes: int = 20,
                 duration: float = 6.0, clients: int = 10,
                 n_objects: int = 300, settle: float = 2.5,
                 extra_faults: int = 2, trace: bool = False,
                 telemetry: Optional[float] = None):
        if episodes < 1:
            raise ValueError("need at least one episode")
        if duration <= 1.0:
            raise ValueError("episodes shorter than 1 s prove nothing")
        self.seed = seed
        self.episodes = episodes
        self.duration = duration
        self.clients = clients
        self.n_objects = n_objects
        self.settle = settle
        self.extra_faults = extra_faults
        #: attach a repro.obs tracer to every episode; a failed episode's
        #: result then carries the flight recorder's final timeline
        self.trace = trace
        #: sample windowed telemetry with this window length (sim seconds)
        #: and evaluate the chaos SLOs per episode; None = off
        self.telemetry = telemetry
        self.results: list[EpisodeResult] = []

    # -- one episode --------------------------------------------------------
    def run_episode(self, index: int) -> EpisodeResult:
        config = ExperimentConfig(
            scheme="partition-ca", workload=WORKLOAD_A,
            seed=self.seed * 1000 + index, n_objects=self.n_objects,
            warmup=0.5, duration=self.duration, n_client_machines=6,
            trace=self.trace, telemetry=self.telemetry)
        deployment = build_deployment(config)
        ep_rng = RngStream(self.seed, f"chaos/episode/{index}")
        ha = _HaEpisode(deployment, ep_rng)
        forced = FAULT_KINDS[index % len(FAULT_KINDS)]
        schedule = generate_schedule(
            ep_rng.substream("schedule"), sorted(deployment.servers),
            self.duration, forced=forced, extra_faults=self.extra_faults)
        stuck = ha.drive(schedule, self.clients, self.duration, self.settle,
                         loss_rng=ep_rng.substream("loss"),
                         agent_rng=ep_rng.substream("agents"))

        # reconvergence: the management plane audits itself; divergence
        # left behind by abandoned (timed-out) agents is reconciled once,
        # after which the audit must come back clean
        controller = ha.controller
        finalize: dict = {}

        def finalize_pass():
            audit, summaries = yield from controller.converge(1.0)
            finalize["reconciled"] = bool(summaries)
            finalize["audit"] = audit
            finalize["done"] = True

        sim = deployment.sim
        sim.process(finalize_pass(), name="chaos-finalize")
        sim.run(until=self.duration + self.settle + FINALIZE_BUDGET)
        ha.stop()

        violations, leaks = ha.audit()
        audit = finalize.get("audit", {})
        audit_clean = bool(audit) and not audit.get("missing") and \
            not audit.get("orphaned")
        slo_results: list = []
        telemetry_summary: dict = {}
        if sim.telemetry is not None:
            from ..obs import DEFAULT_CHAOS_SLOS
            slo_results = ha.evaluate_slos(DEFAULT_CHAOS_SLOS)
            telemetry_summary = sim.telemetry.summary()
        result = EpisodeResult(
            episode=index,
            schedule=schedule,
            completed=ha.rig.meter.completions,
            errors=ha.rig.errors,
            failed_over=ha.pair.failed_over,
            retries=ha.pair.retries,
            stuck_clients=stuck,
            invariant_violations=violations,
            leak_violations=leaks,
            audit_clean=audit_clean,
            reconciled=finalize.get("reconciled", False),
            finalize_done=finalize.get("done", False),
            slo_results=slo_results,
            telemetry_summary=telemetry_summary)
        if sim.tracer is not None and not result.survived:
            # the failed episode's last moments, for the postmortem
            result.timeline = sim.tracer.recorder.render()
        return result

    # -- the whole run -------------------------------------------------------
    def run(self) -> list[EpisodeResult]:
        self.results = [self.run_episode(i) for i in range(self.episodes)]
        return self.results

    @property
    def all_survived(self) -> bool:
        return bool(self.results) and all(r.survived for r in self.results)

    def outcome_table(self) -> str:
        """Per-fault-class outcomes across every episode."""
        injected: dict[str, int] = {cls.kind: 0 for cls in FAULT_KINDS}
        episodes: dict[str, set[int]] = {cls.kind: set()
                                         for cls in FAULT_KINDS}
        survived: dict[str, int] = {cls.kind: 0 for cls in FAULT_KINDS}
        for result in self.results:
            for kind in result.schedule.kinds():
                injected[kind] += sum(
                    1 for f in result.schedule if f.kind == kind)
                episodes[kind].add(result.episode)
                if result.survived:
                    survived[kind] += 1
        rows = [[kind, injected[kind], len(episodes[kind]),
                 f"{survived[kind]}/{len(episodes[kind])}"]
                for kind in sorted(injected) if episodes[kind]]
        return render_table(
            f"chaos: seed={self.seed} episodes={self.episodes} "
            f"duration={self.duration:.1f}s clients={self.clients}",
            ["fault class", "faults", "episodes", "survived"], rows)

    def report(self) -> str:
        lines = [self.outcome_table(), ""]
        for result in self.results:
            status = "ok  " if result.survived else "FAIL"
            lines.append(
                f"episode {result.episode:3d} [{status}] "
                f"completed={result.completed} errors={result.errors} "
                f"retries={result.retries}"
                f"{' failover' if result.failed_over else ''}"
                f"{' reconciled' if result.reconciled else ''}  "
                f"{result.schedule.describe()}")
            if result.slo_results:
                passed = sum(1 for r in result.slo_results if r["ok"])
                verdicts = " ".join(
                    f"{r['name']}={'ok' if r['ok'] else 'FAIL'}"
                    for r in result.slo_results)
                lines.append(f"            slo {passed}/"
                             f"{len(result.slo_results)}: {verdicts}")
            if not result.survived:
                lines.append(f"            {result.failure_summary()}")
                if result.timeline:
                    lines.extend("    " + ln
                                 for ln in result.timeline.splitlines())
        failed = sum(1 for r in self.results if not r.survived)
        lines.append("")
        lines.append(f"{len(self.results) - failed}/{len(self.results)} "
                     f"episodes survived"
                     + ("" if not failed else f" -- {failed} FAILED"))
        return "\n".join(lines)


# -- the dedicated overload episode (flash crowd + slow disk) ---------------

#: the episode's protection knobs: capacity low enough that the 4x flash
#: crowd overruns it (10 steady clients -> 40 in the burst, against
#: 16 + 8 admission slots), a request timeout short enough that the slowed
#: disk's queueing delay trips its breaker, and a cooldown short enough
#: that the breaker re-closes within the episode once the disk heals
OVERLOAD_EPISODE_CONFIG = OverloadConfig(
    max_inflight=16, max_queue=8, retry_after=0.3, request_timeout=0.8,
    breaker_failures=3, breaker_open_duration=1.0, slow_start_window=1.5)


@dataclasses.dataclass
class OverloadEpisodeResult(_Verdict):
    """Everything the overload episode observed."""

    seed: int
    enabled: bool
    duration: float
    schedule: FaultSchedule
    completed: int
    errors: int
    #: client-observed error statuses; with overload control every entry
    #: must be a clean 503 (no transport exceptions reach clients)
    error_statuses: dict
    shed: int
    degraded: int
    timeouts: int
    replica_retries: int
    budget_denied: int
    admission_peak_inflight: int
    admission_peak_queue: int
    admission_inflight_after: int
    admission_queued_after: int
    #: raw concurrency high-water inside the front end (always tracked,
    #: even with overload disabled -- the unbounded-queue observable)
    raw_peak_inflight: int
    pool_peak_waiting: int
    breaker_opened: int
    breaker_reclosed: int
    breakers_all_closed: bool
    open_nodes: tuple
    stuck_clients: list
    invariant_violations: list
    leak_violations: list
    config: Optional[OverloadConfig]
    #: the episode's repro.obs tracer (None unless ``trace=True``)
    tracer: Optional[object] = None
    #: flight-recorder dump captured when a traced episode failed
    timeline: str = ""
    #: kernel events scheduled over the episode (``Simulator.event_count``);
    #: read by the fast-path equivalence test, not part of the outcome table
    events: int = 0
    #: the episode's repro.obs TelemetrySampler (None unless sampled)
    telemetry: Optional[object] = None
    #: SLO verdicts (empty unless telemetry/SLOs were requested); reported
    #: alongside survival, never folded into it
    slo_results: list = dataclasses.field(default_factory=list)
    #: scheduler introspection report (None unless ``kernel_stats=True``)
    kernel_stats: Optional[dict] = None

    @property
    def goodput(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def bounds_held(self) -> bool:
        if self.config is None:
            return False
        return (self.admission_peak_inflight <= self.config.max_inflight
                and self.admission_peak_queue <= self.config.max_queue)

    def _failures(self) -> list[str]:
        reasons = super()._failures()
        if self.enabled:
            dirty = {s for s in self.error_statuses if s != 503}
            if dirty:
                reasons.append(f"unclean client errors: {sorted(map(str, dirty))}")
            if not self.bounds_held:
                reasons.append(
                    f"admission bounds exceeded: inflight "
                    f"{self.admission_peak_inflight}, queue "
                    f"{self.admission_peak_queue}")
            if not self.breakers_all_closed:
                reasons.append(f"breakers still open: {self.open_nodes}")
            if self.admission_inflight_after or self.admission_queued_after:
                reasons.append("admission not drained after settle")
        return reasons

    def report(self) -> str:
        mode = "overload control ON" if self.enabled else \
            "overload control OFF (unprotected data plane)"
        lines = [
            f"overload episode: seed={self.seed} "
            f"duration={self.duration:.1f}s -- {mode}",
            f"  faults: {self.schedule.describe()}",
            f"  completed={self.completed} errors={self.errors} "
            f"goodput={self.goodput:.1f} req/s",
            f"  raw peak inflight={self.raw_peak_inflight} "
            f"pool peak waiting={self.pool_peak_waiting}",
        ]
        if self.enabled:
            lines += [
                f"  shed={self.shed} degraded={self.degraded} "
                f"timeouts={self.timeouts} "
                f"replica-retries={self.replica_retries} "
                f"budget-denied={self.budget_denied}",
                f"  admission peaks: inflight="
                f"{self.admission_peak_inflight}/"
                f"{self.config.max_inflight} queue="
                f"{self.admission_peak_queue}/{self.config.max_queue}",
                f"  breakers: opened={self.breaker_opened} "
                f"reclosed={self.breaker_reclosed} "
                f"all-closed={self.breakers_all_closed}",
                f"  client error statuses: "
                f"{dict(sorted(self.error_statuses.items(), key=repr))}",
            ]
        for res in self.slo_results:
            verdict = "PASS" if res["ok"] else "FAIL"
            shown = f"{res['value']:g}" if res["value"] is not None else "n/a"
            lines.append(f"  slo [{verdict}] {res['name']}: "
                         f"{res['metric']}={shown} {res['op']} "
                         f"{res['threshold']:g}")
        status = "SURVIVED" if self.survived else \
            f"FAILED -- {self.failure_summary()}"
        lines.append(f"  {status}")
        if not self.survived and self.timeline:
            lines.extend("  " + ln for ln in self.timeline.splitlines())
        return "\n".join(lines)


def run_overload_episode(seed: int = 1, duration: float = 6.0,
                         clients: int = 10, n_objects: int = 300,
                         settle: float = 2.5, multiplier: float = 4.0,
                         config: OverloadConfig = OVERLOAD_EPISODE_CONFIG,
                         enabled: bool = True,
                         trace: bool = False,
                         telemetry: Optional[float] = None,
                         kernel_stats: bool = False) -> OverloadEpisodeResult:
    """One seeded flash-crowd + slow-disk episode against the HA testbed.

    A 4x client burst overruns the admission bounds (shedding), while a
    concurrent disk slowdown on the busiest node pushes its service times
    past the request timeout (tripping that node's breaker); the disk
    heals mid-episode, so by the end the breaker must have probed its way
    back to CLOSED.  ``enabled=False`` runs the identical scenario on the
    paper's unprotected data plane -- the regression baseline showing the
    raw inflight population blowing through the bounds.

    Caches start cold (``prewarm=False``); a prewarmed hot set would serve
    the whole episode from memory and the slow disk would never be felt.

    ``telemetry`` samples the windowed series with that window length and
    evaluates the default overload SLOs; ``kernel_stats`` attaches the
    scheduler observer.  Both are passive: the outcome table and the
    event timeline are byte-identical either way.
    """
    exp = ExperimentConfig(
        scheme="partition-ca", workload=WORKLOAD_A, seed=seed,
        n_objects=n_objects, warmup=0.5, duration=duration,
        n_client_machines=6, prewarm=False,
        overload=config if enabled else None, trace=trace,
        kernel_stats=kernel_stats, telemetry=telemetry)
    deployment = build_deployment(exp)
    sim, servers = deployment.sim, deployment.servers
    ha = _HaEpisode(deployment, RngStream(seed, "chaos/overload"))
    # the node holding the most content sees the most traffic -- slow
    # *its* disk, so breaker trips are all but guaranteed under the burst
    slow_node = max(sorted(servers),
                    key=lambda n: len(servers[n].store))
    schedule = FaultSchedule([
        FlashCrowd(multiplier=multiplier, at=0.15 * duration,
                   duration=0.45 * duration),
        DiskSlowdown(node=slow_node, factor=10.0, at=0.20 * duration,
                     duration=0.25 * duration),
    ])
    stuck = ha.drive(schedule, clients, duration, settle)
    ha.stop()
    violations, leaks = ha.audit()

    primary = deployment.frontend
    ctl = primary.overload
    count = primary.metrics.counter
    shed = count("overload/shed").count
    slo_results: list = []
    if sim.telemetry is not None:
        from ..obs import DEFAULT_OVERLOAD_SLOS
        slo_results = ha.evaluate_slos(DEFAULT_OVERLOAD_SLOS, shed=shed)
    result = OverloadEpisodeResult(
        seed=seed,
        enabled=enabled,
        duration=duration,
        schedule=schedule,
        completed=ha.rig.meter.completions,
        errors=ha.rig.errors,
        error_statuses=dict(ha.rig.error_statuses),
        shed=shed,
        degraded=count("overload/degraded").count,
        timeouts=count("overload/timeout").count,
        replica_retries=count("overload/replica-retry").count,
        budget_denied=ha.pair.budget_denied,
        admission_peak_inflight=ctl.admission.peak_inflight if ctl else 0,
        admission_peak_queue=ctl.admission.peak_queue if ctl else 0,
        admission_inflight_after=ctl.admission.inflight if ctl else 0,
        admission_queued_after=ctl.admission.queued if ctl else 0,
        raw_peak_inflight=primary.peak_inflight,
        pool_peak_waiting=primary.pools.peak_waiting(),
        breaker_opened=ctl.breakers.opened_total() if ctl else 0,
        breaker_reclosed=ctl.breakers.reclosed_total() if ctl else 0,
        breakers_all_closed=ctl.breakers.all_closed() if ctl else True,
        open_nodes=tuple(ctl.breakers.open_nodes()) if ctl else (),
        stuck_clients=stuck,
        invariant_violations=violations,
        leak_violations=leaks,
        config=config if enabled else None,
        tracer=sim.tracer,
        events=sim.event_count,
        telemetry=sim.telemetry,
        slo_results=slo_results,
        kernel_stats=(sim.kernel_stats.report()
                      if sim.kernel_stats is not None else None))
    if sim.tracer is not None and not result.survived:
        result.timeline = sim.tracer.recorder.render()
    return result
