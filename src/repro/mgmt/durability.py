"""Management-plane durability: controller WAL, checkpoints, recovery.

The paper's controller (§3.1-3.3) is the single authority for content
placement, but the original system treats its state as ephemeral: a crash
mid-placement strands replicas, leaks URL-table intents, or double-applies
a placement on restart.  This module gives the controller a durable state
contract:

* **Write-ahead log** -- every state mutation (placement decisions,
  URL-table updates, dispatch intents) is appended as a checksummed
  :class:`WalRecord` *before* the in-memory tables change.  Record kinds:

  - ``intent``   an operation has been decided (op + args, open until a
                 matching ``commit``/``abort``);
  - ``dispatch`` an agent is about to be handed to a broker;
  - ``apply``    a routing mutation is about to be applied to the URL
                 table / document tree (idempotent-apply contract: the
                 same ``apply`` may be replayed any number of times);
  - ``commit`` / ``abort``  the intent reached a terminal state.

* **Checkpoints** -- periodically the live tables are snapshotted into the
  log head and the record list truncated, so replay cost stays bounded.

* **Recovery** -- :func:`recover` replays checkpoint+WAL, recomputes the
  set of open intents, then resolves each one against node-agent truth
  (VerifyAgent probes, re-dispatched Delete/Update/Rename agents, and a
  final audit + :meth:`Controller.reconcile_node` anti-entropy pass).
  Every resolution is emitted as a reasoned ``recovery`` trace event via
  :mod:`repro.obs`.

* **Crash points** -- every WAL append and broker hand-off is a numbered
  *boundary*.  A :class:`CrashPlan` kills the controller at an exact
  boundary index; because the simulation prefix up to any boundary is
  deterministic, boundary *k* names the same instant in every run, which
  is what makes exhaustive crash-point exploration
  (:mod:`repro.chaos.crashpoints`) byte-reproducible.

Everything is strictly gated: a controller with ``durability=None``
(the default) behaves byte-identically to the pre-durability code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Generator, Optional

from ..content import ContentItem, ContentType, DocTree, Priority
from ..core.url_table import UrlTable

__all__ = [
    "ControllerCrashed",
    "ControllerDurability",
    "ControllerWal",
    "CrashPlan",
    "DurabilityConfig",
    "RecoveryReport",
    "WalCorruption",
    "WalRecord",
    "item_from_payload",
    "item_to_payload",
    "recover",
    "replay_apply",
    "snapshot_records",
]


class ControllerCrashed(Exception):
    """The controller process died; in-flight operations must not proceed."""


class WalCorruption(Exception):
    """A WAL record failed its checksum or cannot be replayed."""


# -- payload helpers --------------------------------------------------------

def item_to_payload(item: ContentItem) -> dict[str, Any]:
    """A JSON-able, checksummable rendering of a content item."""
    return {
        "path": item.path,
        "size_bytes": item.size_bytes,
        "ctype": item.ctype.value,
        "priority": int(item.priority),
        "mutable": item.mutable,
        "cpu_work": item.cpu_work,
    }


def item_from_payload(payload: dict[str, Any]) -> ContentItem:
    return ContentItem(
        path=payload["path"],
        size_bytes=payload["size_bytes"],
        ctype=ContentType(payload["ctype"]),
        priority=Priority(payload["priority"]),
        mutable=payload.get("mutable", False),
        cpu_work=payload.get("cpu_work", 0.0),
    )


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_checksum(lsn: int, kind: str, payload: dict[str, Any]) -> str:
    digest = hashlib.sha256(
        _canonical([lsn, kind, payload]).encode("utf-8")).hexdigest()
    return digest[:16]


# -- the log ----------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class WalRecord:
    """One durable log entry; ``checksum`` covers (lsn, kind, payload)."""

    lsn: int
    kind: str
    payload: dict[str, Any]
    checksum: str

    def verify(self) -> None:
        expected = record_checksum(self.lsn, self.kind, self.payload)
        if expected != self.checksum:
            raise WalCorruption(
                f"lsn {self.lsn} ({self.kind}): checksum mismatch "
                f"{self.checksum!r} != {expected!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"lsn": self.lsn, "kind": self.kind,
                "payload": self.payload, "checksum": self.checksum}


class ControllerWal:
    """An in-simulation write-ahead log: checkpoint head + record tail.

    The log models a durable medium: it survives a controller crash
    (which only wipes the controller's *volatile* state -- pending
    dispatch events and its right to mutate the tables).
    """

    def __init__(self) -> None:
        self.checkpoint: Optional[dict[str, Any]] = None
        self.records: list[WalRecord] = []
        self.next_lsn = 1
        self.appends = 0
        self.truncations = 0

    def append(self, kind: str, payload: dict[str, Any]) -> WalRecord:
        record = WalRecord(
            lsn=self.next_lsn, kind=kind, payload=payload,
            checksum=record_checksum(self.next_lsn, kind, payload))
        self.records.append(record)
        self.next_lsn += 1
        self.appends += 1
        return record

    def set_checkpoint(self, snapshot: dict[str, Any]) -> None:
        """Install a snapshot and truncate the record tail."""
        self.checkpoint = snapshot
        self.records = []
        self.truncations += 1

    def replay(self) -> tuple[Optional[dict[str, Any]], tuple[WalRecord, ...]]:
        """Verify every record checksum and return (checkpoint, records)."""
        for record in self.records:
            record.verify()
        return self.checkpoint, tuple(self.records)


# -- snapshots & the idempotent-apply contract ------------------------------

def snapshot_records(url_table: UrlTable) -> list[dict[str, Any]]:
    """A canonical (sorted, JSON-able) rendering of the routing state."""
    rows = []
    for record in url_table.records():
        row = item_to_payload(record.item)
        row["locations"] = sorted(record.locations)
        rows.append(row)
    rows.sort(key=lambda row: row["path"])
    return rows


def replay_apply(url_table: UrlTable, doctree: DocTree,
                 action: str, payload: dict[str, Any]) -> bool:
    """Apply one routing mutation idempotently.

    Every action is an *ensure* operation: replaying it against a table
    that already reflects it (or reflects any later history) is a no-op.
    Returns True when state changed.  Raises :class:`WalCorruption` for
    an apply that cannot be interpreted (e.g. ``route-add`` for an
    unknown document with no item payload).
    """
    if action == "route-add":
        path, node = payload["path"], payload["node"]
        if path in url_table:
            if node in url_table.locations(path):
                return False
            url_table.add_location(path, node)
            if doctree.exists(path):
                doctree.file(path).locations.add(node)
            return True
        item_payload = payload.get("item")
        if item_payload is None:
            # a location-only add for a document this table no longer
            # knows: a later record in the suffix removed it, so the
            # add is moot (verify_consistency catches real corruption)
            return False
        item = item_from_payload(item_payload)
        url_table.insert(item, {node})
        doctree.insert(item, {node})
        return True
    if action == "route-drop":
        path, node = payload["path"], payload["node"]
        if path not in url_table:
            return False
        locations = url_table.locations(path)
        if node not in locations or len(locations) <= 1:
            return False
        url_table.remove_location(path, node)
        if doctree.exists(path):
            doctree.file(path).locations.discard(node)
        return True
    if action == "route-remove":
        path = payload["path"]
        if path not in url_table:
            return False
        url_table.remove(path)
        if doctree.exists(path):
            doctree.delete(path)
        return True
    if action == "route-rename":
        old, item_payload = payload["old"], payload["item"]
        new_item = item_from_payload(item_payload)
        if old in url_table:
            record = url_table.remove(old)
            locations = set(record.locations)
            if doctree.exists(old):
                doctree.delete(old)
        elif new_item.path in url_table:
            return False
        else:
            locations = set(payload["nodes"])
        url_table.insert(new_item, locations)
        if not doctree.exists(new_item.path):
            doctree.insert(new_item, locations)
        return True
    if action == "route-size":
        path, size = payload["path"], payload["size_bytes"]
        if path not in url_table:
            return False
        record = url_table.record(path)
        if record.item.size_bytes == size:
            return False
        record.item.size_bytes = size
        return True
    raise WalCorruption(f"unknown apply action {action!r}")


# -- configuration / crash plans --------------------------------------------

@dataclasses.dataclass(slots=True)
class DurabilityConfig:
    """Tuning for the WAL + recovery machinery."""

    #: take a checkpoint after this many appends since the last one
    checkpoint_every: int = 24
    #: settle time at the start of recovery so agents that were in
    #: flight at the crash land (their results are discarded) before
    #: intent resolution probes node truth
    recovery_grace: float = 0.5


@dataclasses.dataclass(slots=True)
class CrashPlan:
    """Kill the controller at exactly one WAL/dispatch boundary."""

    at_boundary: int
    fired: bool = False
    fired_at: Optional[float] = None
    descriptor: str = ""


class ControllerDurability:
    """The durable half of a controller: WAL, checkpoints, crash plumbing.

    Attach with :meth:`attach`, which takes the initial checkpoint of the
    live tables.  The object models the durable medium, so it survives
    :meth:`Controller.crash` -- only the controller's volatile state
    (pending dispatches) is lost.
    """

    def __init__(self, config: Optional[DurabilityConfig] = None):
        self.config = config if config is not None else DurabilityConfig()
        self.wal = ControllerWal()
        self.controller = None
        #: monotone operation ids; persisted via checkpoints
        self.next_op_id = 1
        #: live map of open intents (rebuilt from the WAL on recovery)
        self.open: dict[int, dict[str, Any]] = {}
        #: crash-point boundary bookkeeping
        self.boundaries = 0
        self.boundary_log: list[str] = []
        self.crash_plan: Optional[CrashPlan] = None
        self.checkpoints = 0
        self.commits = 0
        self.aborts = 0
        self._since_checkpoint = 0
        self.last_recovery: Optional["RecoveryReport"] = None

    # -- wiring ----------------------------------------------------------
    def attach(self, controller) -> "ControllerDurability":
        """Bind to a controller and take the initial checkpoint."""
        self.controller = controller
        controller.durability = self
        self.take_checkpoint()
        return self

    # -- boundaries ------------------------------------------------------
    def boundary(self, descriptor: str) -> None:
        """Mark one crash point; fire the crash plan if it names it."""
        self.boundaries += 1
        self.boundary_log.append(descriptor)
        plan = self.crash_plan
        if plan is None or plan.fired:
            return
        if self.boundaries == plan.at_boundary:
            plan.fired = True
            plan.descriptor = descriptor
            if self.controller is not None:
                plan.fired_at = self.controller.sim.now
                self.controller.crash()
            raise ControllerCrashed(
                f"crash point {plan.at_boundary} ({descriptor})")

    # -- logging primitives ---------------------------------------------
    def log_intent(self, op: str, payload: dict[str, Any]) -> int:
        op_id = self.next_op_id
        self.next_op_id += 1
        body = {"op_id": op_id, "op": op}
        body.update(payload)
        self.open[op_id] = body
        self._append("intent", body, f"wal:intent/{op}#{op_id}")
        return op_id

    def log_dispatch(self, dispatch_id: int, agent: str, node: str) -> None:
        self._append(
            "dispatch",
            {"dispatch_id": dispatch_id, "agent": agent, "node": node},
            f"wal:dispatch/{agent}@{node}")

    def log_apply(self, action: str, payload: dict[str, Any]) -> None:
        body = {"action": action}
        body.update(payload)
        self._append("apply", body, f"wal:apply/{action}:{payload['path']}")

    def log_commit(self, op_id: int, resolution: str = "") -> None:
        self.open.pop(op_id, None)
        self.commits += 1
        payload: dict[str, Any] = {"op_id": op_id}
        if resolution:
            payload["resolution"] = resolution
        self._append("commit", payload, f"wal:commit#{op_id}")
        self.maybe_checkpoint()

    def log_abort(self, op_id: int, reason: str) -> None:
        self.open.pop(op_id, None)
        self.aborts += 1
        self._append("abort", {"op_id": op_id, "reason": reason},
                     f"wal:abort#{op_id}")
        self.maybe_checkpoint()

    def _append(self, kind: str, payload: dict[str, Any],
                descriptor: str) -> None:
        self.wal.append(kind, payload)
        self._since_checkpoint += 1
        self.boundary(descriptor)

    # -- checkpoints -----------------------------------------------------
    def maybe_checkpoint(self) -> None:
        if self._since_checkpoint >= self.config.checkpoint_every:
            self.take_checkpoint()
            self.boundary("wal:checkpoint")

    def take_checkpoint(self) -> None:
        if self.controller is None:
            raise ValueError("durability is not attached to a controller")
        snapshot = {
            "records": snapshot_records(self.controller.url_table),
            "open_intents": [self.open[op_id]
                             for op_id in sorted(self.open)],
            "next_op_id": self.next_op_id,
            "lsn": self.wal.next_lsn - 1,
        }
        self.wal.set_checkpoint(snapshot)
        self.checkpoints += 1
        self._since_checkpoint = 0

    # -- replay ----------------------------------------------------------
    def open_intents_from_wal(self) -> list[dict[str, Any]]:
        """Recompute the open-intent set from durable state alone."""
        checkpoint, records = self.wal.replay()
        intents: dict[int, dict[str, Any]] = {}
        if checkpoint is not None:
            for intent in checkpoint["open_intents"]:
                intents[intent["op_id"]] = intent
        for record in records:
            if record.kind == "intent":
                intents[record.payload["op_id"]] = record.payload
            elif record.kind in ("commit", "abort"):
                intents.pop(record.payload["op_id"], None)
        return [intents[op_id] for op_id in sorted(intents)]

    def replay_state(self) -> tuple[UrlTable, DocTree]:
        """Rebuild routing state from scratch: checkpoint + applies."""
        table = UrlTable()
        doctree = DocTree()
        checkpoint, records = self.wal.replay()
        if checkpoint is not None:
            for row in checkpoint["records"]:
                item = item_from_payload(row)
                locations = set(row["locations"])
                table.insert(item, locations)
                doctree.insert(item, locations)
        for record in records:
            if record.kind == "apply":
                payload = dict(record.payload)
                action = payload.pop("action")
                replay_apply(table, doctree, action, payload)
        return table, doctree

    def restore_tables(self, url_table: UrlTable, doctree: DocTree) -> int:
        """Rebuild ``url_table``/``doctree`` in place from durable state.

        Used when the volatile tables themselves are gone (a standby
        distributor taking over).  Returns the number of records
        restored.
        """
        replayed, replayed_tree = self.replay_state()
        for path in [record.path for record in url_table.records()]:
            url_table.remove(path)
        for path in list(doctree.files()):
            if doctree.exists(path):
                doctree.delete(path)
        count = 0
        for record in replayed.records():
            locations = set(record.locations)
            url_table.insert(record.item, locations)
            if doctree.exists(record.path):
                doctree.file(record.path).locations.update(locations)
            else:
                doctree.insert(record.item, locations)
            count += 1
        del replayed_tree
        return count

    def verify_consistency(self) -> list[str]:
        """Check the live tables against a from-scratch WAL replay.

        Proves the idempotent-apply contract end to end: the durable log
        alone reconstructs exactly the live routing state (no duplicate
        and no lost placements).  Returns a sorted list of discrepancy
        descriptions (empty = consistent).
        """
        if self.controller is None:
            raise ValueError("durability is not attached to a controller")
        live = {row["path"]: row
                for row in snapshot_records(self.controller.url_table)}
        replayed_table, _tree = self.replay_state()
        replayed = {row["path"]: row
                    for row in snapshot_records(replayed_table)}
        problems = []
        for path in sorted(set(live) | set(replayed)):
            if path not in replayed:
                problems.append(f"{path}: live but not in WAL replay")
            elif path not in live:
                problems.append(f"{path}: in WAL replay but not live")
            elif live[path] != replayed[path]:
                problems.append(
                    f"{path}: live {_canonical(live[path])} != "
                    f"replay {_canonical(replayed[path])}")
        return problems

    def counters(self) -> dict[str, int]:
        return {
            "appends": self.wal.appends,
            "truncations": self.wal.truncations,
            "records": len(self.wal.records),
            "checkpoints": self.checkpoints,
            "commits": self.commits,
            "aborts": self.aborts,
            "open_intents": len(self.open),
            "boundaries": self.boundaries,
        }


# -- recovery ---------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class RecoveryReport:
    """What one recovery pass replayed, resolved, and concluded."""

    checkpoint_lsn: int
    records_replayed: int
    applies_replayed: int
    open_intents: int
    resolutions: list[dict[str, Any]]
    audit: dict[str, Any]
    reconciled_nodes: list[str]
    consistency: list[str]
    clean: bool

    def action_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for resolution in self.resolutions:
            action = resolution["action"]
            counts[action] = counts.get(action, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_lsn": self.checkpoint_lsn,
            "records_replayed": self.records_replayed,
            "applies_replayed": self.applies_replayed,
            "open_intents": self.open_intents,
            "resolutions": self.resolutions,
            "actions": self.action_counts(),
            "audit": self.audit,
            "reconciled_nodes": self.reconciled_nodes,
            "consistency": self.consistency,
            "clean": self.clean,
        }


def _trace_resolution(controller, resolution: dict[str, Any]) -> None:
    if controller.tracer is not None:
        controller.tracer.point(
            "recovery", "resolve",
            op=resolution["op"], op_id=resolution["op_id"],
            action=resolution["action"], reason=resolution["reason"])


def _apply_and_log(controller, action: str,
                   payload: dict[str, Any]) -> None:
    """WAL the apply, then mutate the live tables idempotently."""
    durability = controller.durability
    if durability is not None:
        durability.log_apply(action, payload)
    replay_apply(controller.url_table, controller.doctree, action, payload)


def _resolve_placement(controller, intent, timeout) -> Generator:
    """place/replicate: roll forward iff the copy materialized."""
    from .agents import VerifyAgent
    path, node = intent["path"], intent["node"]
    routed = (path in controller.url_table
              and node in controller.url_table.locations(path))
    if routed:
        return "already-applied", "routing already reflects the copy"
    result = yield from controller.execute(
        VerifyAgent(path, expected_present=True), node, timeout=timeout)
    if not result.ok:
        return "deferred", f"cannot probe {node}: {result.detail}"
    if result.detail["present"]:
        payload: dict[str, Any] = {"path": path, "node": node}
        if intent.get("item") is not None:
            payload["item"] = intent["item"]
        _apply_and_log(controller, "route-add", payload)
        return "rolled-forward", f"copy found on {node}; routing re-added"
    return "rolled-back", f"no copy on {node}; placement abandoned"


def _resolve_offload(controller, intent, timeout) -> Generator:
    """offload: the delete is re-driven only if routing already dropped."""
    from .agents import DeleteAgent, VerifyAgent
    path, node = intent["path"], intent["node"]
    still_routed = (path in controller.url_table
                    and node in controller.url_table.locations(path))
    if still_routed:
        return ("rolled-back",
                f"routing still includes {node}; copy kept")
    result = yield from controller.execute(
        VerifyAgent(path, expected_present=False), node, timeout=timeout)
    if not result.ok:
        return "deferred", f"cannot probe {node}: {result.detail}"
    if not result.detail["present"]:
        return "already-applied", f"copy already gone from {node}"
    result = yield from controller.execute(
        DeleteAgent(path), node, timeout=timeout)
    if not result.ok:
        return "deferred", f"delete on {node} failed: {result.detail}"
    return "rolled-forward", f"re-drove delete of {path} on {node}"


def _resolve_remove(controller, intent, timeout) -> Generator:
    """remove: always roll forward (deletes may have partially run)."""
    from .agents import DeleteAgent, VerifyAgent
    path = intent["path"]
    for node in intent["nodes"]:
        result = yield from controller.execute(
            VerifyAgent(path, expected_present=False), node,
            timeout=timeout)
        if not result.ok:
            return "deferred", f"cannot probe {node}: {result.detail}"
        if not result.detail["present"]:
            continue
        result = yield from controller.execute(
            DeleteAgent(path), node, timeout=timeout)
        if not result.ok:
            return "deferred", f"delete on {node} failed: {result.detail}"
    if path in controller.url_table:
        _apply_and_log(controller, "route-remove", {"path": path})
    return "rolled-forward", f"removal of {path} completed everywhere"


def _resolve_update(controller, intent, timeout) -> Generator:
    """update: re-push the new version to every current replica."""
    from .agents import UpdateAgent
    path = intent["path"]
    if path not in controller.url_table:
        return "rolled-back", f"{path} no longer routed; update dropped"
    item = item_from_payload(intent["item"])
    for node in sorted(controller.url_table.locations(path)):
        result = yield from controller.execute(
            UpdateAgent(item), node, timeout=timeout)
        if not result.ok:
            return "deferred", f"update on {node} failed: {result.detail}"
    _apply_and_log(controller, "route-size",
                   {"path": path, "size_bytes": item.size_bytes})
    return "rolled-forward", f"re-pushed {path} to all replicas"


def _resolve_rename(controller, intent, timeout) -> Generator:
    """rename: drive every node to the new name, then fix routing."""
    from .agents import RenameAgent, VerifyAgent
    old = intent["old"]
    new_item = item_from_payload(intent["item"])
    if old not in controller.url_table \
            and new_item.path in controller.url_table:
        return "already-applied", "routing already reflects the rename"
    for node in intent["nodes"]:
        result = yield from controller.execute(
            VerifyAgent(new_item.path, expected_present=True), node,
            timeout=timeout)
        if not result.ok:
            return "deferred", f"cannot probe {node}: {result.detail}"
        if result.detail["present"]:
            continue
        result = yield from controller.execute(
            RenameAgent(old, new_item), node, timeout=timeout)
        if not result.ok:
            return "deferred", f"rename on {node} failed: {result.detail}"
    _apply_and_log(controller, "route-rename",
                   {"old": old, "path": new_item.path,
                    "item": intent["item"], "nodes": intent["nodes"]})
    return "rolled-forward", f"renamed {old} -> {new_item.path}"


_RESOLVERS = {
    "place": _resolve_placement,
    "replicate": _resolve_placement,
    "offload": _resolve_offload,
    "remove": _resolve_remove,
    "update": _resolve_update,
    "rename": _resolve_rename,
}


def recover(controller, *, timeout: Optional[float] = 1.0) -> Generator:
    """Replay durable state and resolve open intents against node truth.

    A simulation generator (run it under ``sim.process``).  Returns a
    :class:`RecoveryReport`.  The controller must be alive (restarted)
    and have durability attached.
    """
    durability = controller.durability
    if durability is None:
        raise ValueError("controller has no durability attached")
    if not controller.alive:
        raise ValueError("restart the controller before recovering")
    if controller.tracer is not None:
        controller.tracer.point("recovery", "begin",
                                boundaries=durability.boundaries)
    grace = durability.config.recovery_grace
    if grace > 0:
        # let agents that were in flight at the crash land; their
        # results are discarded (their dispatch ids are no longer
        # pending), so probes below see settled node truth
        yield controller.sim.timeout(grace)

    checkpoint, records = durability.wal.replay()
    checkpoint_lsn = checkpoint["lsn"] if checkpoint is not None else 0
    applies = 0
    for record in records:
        if record.kind == "apply":
            payload = dict(record.payload)
            action = payload.pop("action")
            replay_apply(controller.url_table, controller.doctree,
                         action, payload)
            applies += 1
    open_intents = durability.open_intents_from_wal()
    # the durable truth replaces whatever the volatile map held
    durability.open = {intent["op_id"]: intent for intent in open_intents}
    if controller.tracer is not None:
        controller.tracer.point("recovery", "replay",
                                checkpoint_lsn=checkpoint_lsn,
                                records=len(records), applies=applies,
                                open_intents=len(open_intents))

    resolutions: list[dict[str, Any]] = []
    for intent in open_intents:
        resolver = _RESOLVERS.get(intent["op"])
        if resolver is None:
            action, reason = "deferred", f"unknown op {intent['op']!r}"
        else:
            action, reason = yield from resolver(controller, intent,
                                                 timeout)
        resolution = {"op_id": intent["op_id"], "op": intent["op"],
                      "action": action, "reason": reason}
        resolutions.append(resolution)
        _trace_resolution(controller, resolution)
        if action in ("rolled-forward", "already-applied"):
            durability.log_commit(intent["op_id"], resolution=action)
        elif action == "rolled-back":
            durability.log_abort(intent["op_id"], f"recovery: {reason}")
        # "deferred" leaves the intent open for the next pass

    reconciled: list[str] = []
    audit = yield from controller.audit()
    dirty = sorted({node for _path, node in audit["missing"]}
                   | {node for _path, node in audit["orphaned"]})
    for node in dirty:
        summary = yield from controller.reconcile_node(node, timeout=timeout)
        if "error" not in summary:
            reconciled.append(node)
    if dirty:
        audit = yield from controller.audit()
    if controller.tracer is not None:
        controller.tracer.point(
            "recovery", "audit",
            missing=len(audit["missing"]),
            orphaned=len(audit["orphaned"]),
            reconciled=len(reconciled))

    consistency = durability.verify_consistency()
    report = RecoveryReport(
        checkpoint_lsn=checkpoint_lsn,
        records_replayed=len(records),
        applies_replayed=applies,
        open_intents=len(open_intents),
        resolutions=resolutions,
        audit={"missing": len(audit["missing"]),
               "orphaned": len(audit["orphaned"]),
               "nodes_audited": audit["nodes_audited"]},
        reconciled_nodes=reconciled,
        consistency=consistency,
        clean=(not audit["missing"] and not audit["orphaned"]
               and not consistency and not durability.open),
    )
    durability.last_recovery = report
    if controller.tracer is not None:
        controller.tracer.point("recovery", "done",
                                clean=report.clean,
                                resolutions=len(resolutions))
    return report
