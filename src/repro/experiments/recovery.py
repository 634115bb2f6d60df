"""Recovery episodes: crash the management brain, prove it converges.

Two harnesses over the durability layer (:mod:`repro.mgmt.durability`):

* :func:`run_recovery_episode` -- a scripted management workload (place,
  replicate, update, offload, rename, remove) against the §5.1 testbed
  with a WAL-backed controller.  An optional
  :class:`~repro.mgmt.durability.CrashPlan` kills the controller at an
  exact WAL/dispatch boundary; the driver restarts it after a fixed
  delay, runs :func:`~repro.mgmt.durability.recover`, finishes the
  script, and a crash-tolerant finalize pass audits the cluster.  The
  outcome dict is plain sorted data -- a pure function of the seed and
  the crash boundary.

* :func:`run_promotion_episode` -- the HA variant: the primary
  distributor *and* the controller die mid-placement; the standby's
  lease-based promotion (:class:`~repro.core.failover.DistributorLease`)
  restores routing state from the WAL before serving, and recovery
  resolves the interrupted placement against node truth.  Used by the
  promotion-timing tests that sweep every crash instant between dispatch
  and agent ack.

:func:`recovery_episode_fn` adapts the first harness to the crash-point
explorer (:func:`repro.chaos.explore_crash_points`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..analysis.invariants import check_invariants
from ..content import ContentItem, ContentType
from ..core.failover import DistributorLease, HaDistributorPair
from ..core.url_table import UrlTableError
from ..mgmt import Controller, ManagementError
from ..mgmt.durability import (ControllerCrashed, ControllerDurability,
                               CrashPlan, DurabilityConfig, recover)
from ..workload import WORKLOAD_A
from .testbed import ExperimentConfig, build_deployment

__all__ = ["run_recovery_episode", "recovery_episode_fn",
           "run_promotion_episode", "render_recovery",
           "collect_recovery_golden", "GOLDEN_RECOVERY_SCALE"]


def _build(seed: int, n_objects: int, trace: bool, *,
           checkpoint_every: int, crash_plan: Optional[CrashPlan],
           backup: bool = False):
    """The §5.1 testbed both episodes run on: a deployment, optionally
    the §2.3 backup distributor, then the management plane with
    durability attached.  Returns ``(deployment, backup, controller,
    brokers, durability)``."""
    config = ExperimentConfig(
        scheme="partition-ca", workload=WORKLOAD_A, seed=seed,
        n_objects=n_objects, warmup=0.25, duration=4.0,
        n_client_machines=2, prewarm=False, trace=trace)
    deployment = build_deployment(config)
    standby = deployment.backup_distributor() if backup else None
    controller, registry = deployment.management_plane()
    controller.default_timeout = 1.0
    durability = ControllerDurability(DurabilityConfig(
        checkpoint_every=checkpoint_every, recovery_grace=0.4))
    durability.attach(controller)
    durability.crash_plan = crash_plan
    return deployment, standby, controller, registry, durability


def _scripted_ops(controller: Controller, deployment) \
        -> list[tuple[str, Callable[[], Any]]]:
    """The episode's management workload, fully determined by the seed.

    Rename/remove touch only documents the script itself placed (never
    catalog content), so INV008 -- every catalog item resolvable -- holds
    at every crash point.
    """
    nodes = sorted(deployment.servers)
    new_a = ContentItem("/wal/reports/alpha.html", 24576,
                        ContentType.HTML, mutable=True)
    new_a_v2 = ContentItem("/wal/reports/alpha.html", 30720,
                           ContentType.HTML, mutable=True)
    new_b = ContentItem("/wal/media/banner.gif", 40960, ContentType.IMAGE)
    new_b2 = ContentItem("/wal/media/banner2.gif", 40960,
                         ContentType.IMAGE)
    cat_path = min(item.path for item in deployment.catalog)
    cat_holders = deployment.url_table.locations(cat_path)
    cat_target = [n for n in nodes if n not in cat_holders][0]
    return [
        ("place-a", lambda: controller.place(new_a, nodes[0])),
        ("place-b", lambda: controller.place(new_b, nodes[1])),
        ("replicate-a",
         lambda: controller.replicate(new_a.path, nodes[2])),
        ("replicate-catalog",
         lambda: controller.replicate(cat_path, cat_target)),
        ("update-a", lambda: controller.update_content(new_a_v2)),
        ("offload-a", lambda: controller.offload(new_a.path, nodes[0])),
        ("rename-b",
         lambda: controller.rename_document(new_b.path, new_b2)),
        ("remove-a", lambda: controller.remove_document(new_a.path)),
    ]


def run_recovery_episode(seed: int = 1,
                         crash_plan: Optional[CrashPlan] = None, *,
                         n_objects: int = 60,
                         restart_delay: float = 0.6,
                         checkpoint_every: int = 24,
                         trace: bool = False) -> dict[str, Any]:
    """One scripted management episode, optionally crashed at a boundary.

    Returns a plain dict: boundary enumeration, per-op outcomes, the
    recovery report, the final audit, WAL counters, the live-vs-replay
    consistency check, and the invariant verdict.  ``converged`` is the
    survival property the crash-point explorer asserts.
    """
    deployment, _, controller, registry, durability = _build(
        seed, n_objects, trace, checkpoint_every=checkpoint_every,
        crash_plan=crash_plan)
    sim = deployment.sim
    ops = _scripted_ops(controller, deployment)

    state: dict[str, Any] = {
        "completed": [], "failed": [], "interrupted": [],
        "recovery": None, "crashed_at": None, "restarted_at": None,
        "audit": None, "done": False,
    }

    def handle_crash():
        state["crashed_at"] = sim.now
        yield sim.timeout(restart_delay)
        controller.restart()
        state["restarted_at"] = sim.now
        state["recovery"] = yield from recover(controller, timeout=1.0)

    def orchestrate():
        for name, factory in ops:
            try:
                yield from factory()
                state["completed"].append(name)
            except ControllerCrashed:
                state["interrupted"].append(name)
                yield from handle_crash()
            except (ManagementError, UrlTableError) as exc:
                state["failed"].append([name, str(exc)])
        # finalize: a crash-tolerant audit/reconcile pass (the crash
        # boundary may land inside these dispatches too)
        while True:
            try:
                state["audit"], _ = yield from controller.converge(1.0)
                state["done"] = True
                return
            except ControllerCrashed:
                yield from handle_crash()

    sim.process(orchestrate(), name="recovery-driver")
    sim.run()
    for name in sorted(registry):
        registry[name].stop()

    violations = check_invariants(
        controller.url_table, servers=deployment.servers,
        frontend=deployment.frontend, catalog=deployment.catalog)
    consistency = durability.verify_consistency()
    audit = state["audit"] or {"missing": [], "orphaned": [],
                               "nodes_audited": 0}
    recovery = state["recovery"]
    failures = []
    if not state["done"]:
        failures.append("episode did not finish")
    if audit["missing"] or audit["orphaned"]:
        failures.append(f"audit dirty: {len(audit['missing'])} missing, "
                        f"{len(audit['orphaned'])} orphaned")
    if violations:
        failures.append(f"{len(violations)} invariant violations")
    if consistency:
        failures.append("live state diverges from WAL replay")
    if durability.open:
        failures.append(f"{len(durability.open)} intents still open")
    return {
        "seed": seed,
        "boundaries": durability.boundaries,
        "descriptors": list(durability.boundary_log),
        "crashed": crash_plan.fired if crash_plan is not None else False,
        "crash_boundary": (crash_plan.at_boundary
                           if crash_plan is not None else None),
        "crashed_at": state["crashed_at"],
        "restarted_at": state["restarted_at"],
        "ops": {"completed": state["completed"],
                "failed": state["failed"],
                "interrupted": state["interrupted"]},
        "recovery": recovery.to_dict() if recovery is not None else None,
        "resolutions": (recovery.action_counts()
                        if recovery is not None else {}),
        "audit": {"missing": len(audit["missing"]),
                  "orphaned": len(audit["orphaned"]),
                  "nodes_audited": audit["nodes_audited"]},
        "wal": durability.counters(),
        "consistency": consistency,
        "invariant_violations": [f"{v.rule} {v.path}: {v.message}"
                                 for v in violations],
        "converged": not failures,
        "failure": "; ".join(failures),
    }


def recovery_episode_fn(seed: int = 1, **kwargs) \
        -> Callable[[Optional[CrashPlan]], dict[str, Any]]:
    """Adapt :func:`run_recovery_episode` for the crash-point explorer."""
    def episode(plan: Optional[CrashPlan]) -> dict[str, Any]:
        return run_recovery_episode(seed, crash_plan=plan, **kwargs)
    return episode


def render_recovery(outcome: dict[str, Any]) -> str:
    """A terminal rendering of one recovery episode outcome."""
    lines = [f"recovery episode: seed={outcome['seed']} "
             f"boundaries={outcome['boundaries']}"]
    ops = outcome["ops"]
    lines.append(f"  ops: {len(ops['completed'])} completed, "
                 f"{len(ops['failed'])} failed, "
                 f"{len(ops['interrupted'])} interrupted")
    if outcome["crashed"]:
        lines.append(f"  crashed at boundary "
                     f"{outcome['crash_boundary']} "
                     f"(t={outcome['crashed_at']:.3f}s), restarted at "
                     f"t={outcome['restarted_at']:.3f}s")
    recovery = outcome["recovery"]
    if recovery is not None:
        lines.append(f"  recovery: replayed "
                     f"{recovery['records_replayed']} records "
                     f"({recovery['applies_replayed']} applies), "
                     f"{recovery['open_intents']} open intents")
        for resolution in recovery["resolutions"]:
            lines.append(f"    intent #{resolution['op_id']} "
                         f"{resolution['op']}: {resolution['action']} "
                         f"-- {resolution['reason']}")
    wal = outcome["wal"]
    lines.append(f"  wal: {wal['appends']} appends, "
                 f"{wal['checkpoints']} checkpoints, "
                 f"{wal['open_intents']} open")
    audit = outcome["audit"]
    lines.append(f"  audit: {audit['missing']} missing, "
                 f"{audit['orphaned']} orphaned over "
                 f"{audit['nodes_audited']} nodes")
    lines.append("  CONVERGED" if outcome["converged"] else
                 f"  FAILED -- {outcome['failure']}")
    return "\n".join(lines)


# -- golden surface ---------------------------------------------------------

#: The scale the recovery golden fixture is captured at, and the crash
#: boundaries it pins.  The boundaries are spread across the scripted
#: episode so the fixture exercises roll-back (pre-delivery), roll-forward
#: (post-delivery) and already-applied resolutions.
GOLDEN_RECOVERY_SCALE = {"seed": 1, "n_objects": 60,
                         "checkpoint_every": 24,
                         "crash_boundaries": (2, 13, 37, 41)}


def _golden_projection(outcome: dict[str, Any]) -> dict[str, Any]:
    """The fixture-worthy slice of one episode outcome.

    Everything here is simulated (deterministic) state; nothing reads the
    host clock.  Boundary descriptors are dropped -- they are pinned
    implicitly by the crash episodes landing on the expected records.
    """
    recovery = outcome["recovery"]
    if recovery is not None:
        recovery = {
            "checkpoint_lsn": recovery["checkpoint_lsn"],
            "records_replayed": recovery["records_replayed"],
            "applies_replayed": recovery["applies_replayed"],
            "open_intents": recovery["open_intents"],
            "resolutions": [{"op": r["op"], "action": r["action"]}
                            for r in recovery["resolutions"]],
            "clean": recovery["clean"],
        }
    return {
        "boundaries": outcome["boundaries"],
        "crashed": outcome["crashed"],
        "crash_boundary": outcome["crash_boundary"],
        "ops": {"completed": list(outcome["ops"]["completed"]),
                "failed": list(outcome["ops"]["failed"]),
                "interrupted": list(outcome["ops"]["interrupted"])},
        "recovery": recovery,
        "resolutions": dict(outcome["resolutions"]),
        "audit": dict(outcome["audit"]),
        "wal": dict(outcome["wal"]),
        "consistency": list(outcome["consistency"]),
        "converged": outcome["converged"],
    }


def collect_recovery_golden() -> dict[str, Any]:
    """Baseline + pinned-boundary crash episodes as one golden dict."""
    scale = GOLDEN_RECOVERY_SCALE
    kwargs = {"n_objects": scale["n_objects"],
              "checkpoint_every": scale["checkpoint_every"]}
    baseline = run_recovery_episode(scale["seed"], **kwargs)
    crashes = {}
    for boundary in scale["crash_boundaries"]:
        outcome = run_recovery_episode(
            scale["seed"], crash_plan=CrashPlan(at_boundary=boundary),
            **kwargs)
        crashes[str(boundary)] = _golden_projection(outcome)
    return {
        "scale": {"seed": scale["seed"],
                  "n_objects": scale["n_objects"],
                  "checkpoint_every": scale["checkpoint_every"],
                  "crash_boundaries": list(scale["crash_boundaries"])},
        "baseline": _golden_projection(baseline),
        "crashes": crashes,
    }


# -- HA promotion under a mid-placement crash -------------------------------

def run_promotion_episode(crash_at: Optional[float], seed: int = 1, *,
                          trace: bool = False) -> dict[str, Any]:
    """Kill primary + controller at ``crash_at`` during a placement.

    With ``crash_at=None`` nothing crashes -- the baseline run reports
    ``dispatched_at``/``acked_at``, the window the promotion-timing test
    sweeps.  Otherwise the standby promotes once the lease expires,
    restores routing state from the WAL (``recover_state``), and
    recovery resolves the interrupted placement.  The no-duplicate /
    no-loss property reported is ``routed == stored``: the placement
    either fully exists (routed and physically present) or fully does
    not, never half of it.
    """
    deployment, backup, controller, registry, durability = _build(
        seed, 40, trace, checkpoint_every=24, crash_plan=None, backup=True)
    sim, servers = deployment.sim, deployment.servers
    primary = deployment.frontend

    state: dict[str, Any] = {
        "dispatched_at": None, "acked_at": None, "placed": False,
        "interrupted": False,
    }

    def recover_state() -> None:
        # the standby takes over from durable truth: rebind the
        # management plane onto the backup, rebuild its table from the
        # WAL, and resolve interrupted intents against node truth
        controller.rebind(backup.url_table, backup.nic)
        durability.restore_tables(backup.url_table, deployment.doctree)
        controller.restart()
        sim.process(recover(controller, timeout=1.0),
                    name="ha-recovery")

    pair = HaDistributorPair(
        sim, primary, backup, heartbeat_interval=0.2, misses_to_fail=2,
        lease=DistributorLease(sim, 0.5), recover_state=recover_state)

    doc = ContentItem("/ha/promo.html", 16384, ContentType.HTML)
    target = sorted(servers)[0]

    def driver():
        yield sim.timeout(0.3)
        state["dispatched_at"] = sim.now
        try:
            yield from controller.place(doc, target)
            state["placed"] = True
        except ControllerCrashed:
            state["interrupted"] = True
        state["acked_at"] = sim.now

    sim.process(driver(), name="ha-driver")
    if crash_at is not None:
        def crash() -> None:
            primary.crash()
            controller.crash()
        sim.schedule(crash_at, crash)
    sim.run(until=6.0)
    pair.stop()
    for name in sorted(registry):
        registry[name].stop()

    table = pair.active.url_table
    routed = doc.path in table and target in table.locations(doc.path)
    stored = servers[target].holds(doc.path)
    recovery = durability.last_recovery
    return {
        "crash_at": crash_at,
        "dispatched_at": state["dispatched_at"],
        "acked_at": state["acked_at"],
        "placed": state["placed"],
        "interrupted": state["interrupted"],
        "promoted": pair.failed_over,
        "lease_waits": pair.lease_waits,
        "routed": routed,
        "stored": stored,
        "atomic": routed == stored,
        "open_intents": len(durability.open),
        "consistency": durability.verify_consistency(),
        "recovery": (recovery.to_dict()
                     if recovery is not None else None),
    }
