"""The controller: the management brain on the distributor node (§3.1-3.3).

"One special daemon, called the controller, is responsible for receiving
requests from the administrator and then invoking brokers to perform the
delegated tasks by dispatching the corresponding agents.  The controller
resides on the distributor."

Every management operation follows the same shape: open a WAL intent
(``_intent``), dispatch agent(s), await their results, and -- only on
success -- change routing through :meth:`Controller.apply`, so the
distributor routes to the new reality.  ``apply`` writes the mutation ahead
to the WAL, then hands it to :func:`repro.mgmt.durability.apply_route`, the
one definition of what a mutation does to the URL table and the document
tree, which WAL replay shares.  ``reconcile_node`` and the cluster monitor
change routing through ``apply`` too; ``converge`` is the audit/reconcile
anti-entropy pass and ``rebind`` moves the plane onto a promoted standby
distributor.  The controller also implements the
:class:`repro.core.loadbalance.ReplicationActuator` protocol
(``replicate``/``offload``), which is how §3.3's auto-replication acts on
the cluster.
"""

from __future__ import annotations

import contextlib
from typing import Any, Generator, Iterator, Optional

from ..content import ContentItem, DocTree
from ..core.url_table import UrlTable, UrlTableError
from ..net import Nic
from ..sim import SimEvent, Simulator
from .agents import (Agent, CopyAgent, DeleteAgent, InventoryAgent,
                     RenameAgent, StatusAgent, UpdateAgent, VerifyAgent)
from .broker import Broker
from .durability import ControllerCrashed, apply_route, item_to_payload
from .messages import AgentDispatch, AgentResult, StatusReport

__all__ = ["Controller", "ManagementError"]


class ManagementError(Exception):
    """A management operation could not be carried out."""


class Controller:
    """Receives admin commands, dispatches agents, updates routing state."""

    def __init__(self, sim: Simulator, nic: Nic,
                 url_table: UrlTable, doctree: DocTree):
        self.sim = sim
        self.nic = nic
        self.url_table = url_table
        self.doctree = doctree
        #: the simulator's repro.obs tracer; every dispatch becomes an
        #: "agent" span
        self.tracer = sim.tracer
        self.brokers: dict[str, Broker] = {}
        self._pending: dict[int, SimEvent] = {}
        #: applied to every dispatch that doesn't pass an explicit timeout;
        #: None preserves the original wait-forever behaviour
        self.default_timeout: Optional[float] = None
        #: data-plane health sink (a repro.core.overload BreakerBoard):
        #: dispatch timeouts are reported per node so the management and
        #: data planes agree on which backend is sick
        self.health_sink = None
        #: durable-state plumbing (a repro.mgmt.durability
        #: ControllerDurability); None preserves the original
        #: fire-and-forget, volatile-state behaviour byte for byte
        self.durability = None
        #: a crashed controller refuses dispatches until restart()
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        self.dispatches = 0
        self.failures = 0
        self.timeouts = 0
        self.log: list[tuple[float, str, str, str]] = []  # (t, op, path, node)

    # -- broker wiring ------------------------------------------------------
    def register_broker(self, broker: Broker) -> None:
        if broker.name in self.brokers:
            raise ManagementError(f"broker {broker.name} already registered")
        self.brokers[broker.name] = broker
        self.sim.process(self._collect(broker), name=f"collect:{broker.name}")

    def _collect(self, broker: Broker) -> Generator:
        while True:
            result: AgentResult = yield broker.results.get()
            ev = self._pending.pop(result.dispatch_id, None)
            if ev is not None:
                ev.succeed(result)

    def rebind(self, url_table: UrlTable, nic: Nic) -> None:
        """Move the management plane onto a promoted standby distributor:
        mutate its URL table, send from its NIC, and have every broker
        answer there."""
        self.url_table = url_table
        self.nic = nic
        for name in sorted(self.brokers):
            self.brokers[name].controller_nic = nic

    # -- crash / restart (durable-state contract) ---------------------------
    def crash(self) -> None:
        """Kill the controller process.

        Volatile state -- the pending-dispatch map -- is lost: every
        operation waiting on an agent result observes
        :class:`ControllerCrashed` at its next yield and unwinds without
        mutating routing state.  The WAL (``durability``), modelling a
        durable medium, survives.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        pending = len(self._pending)
        exc = ControllerCrashed(
            f"controller crashed at t={self.sim.now:.6f}")
        for dispatch_id in sorted(self._pending):
            ev = self._pending[dispatch_id]
            if not ev.triggered:
                ev.fail(exc)
                ev.defuse()
        self._pending.clear()
        if self.tracer is not None:
            self.tracer.point("recovery", "controller-crash",
                              pending=pending)

    def restart(self) -> None:
        """Bring a crashed controller back (state recovery is separate:
        run :func:`repro.mgmt.durability.recover` afterwards)."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        if self.tracer is not None:
            self.tracer.point("recovery", "controller-restart")

    # -- routing mutations ---------------------------------------------------
    def apply(self, action: str, **payload: Any) -> None:
        """Change the URL table and the document tree.

        The mutation is written ahead to the WAL (when durability is
        attached), then applied by :func:`apply_route`.  ``item``, where
        given, is the :class:`ContentItem` itself; only the WAL record
        encodes it.
        """
        if self.durability is not None:
            logged = payload
            if "item" in payload:
                logged = {**payload, "item": item_to_payload(payload["item"])}
            self.durability.log_apply(action, logged)
        apply_route(self.url_table, self.doctree, action, payload)

    @contextlib.contextmanager
    def _intent(self, op: str, payload: dict[str, Any]) -> Iterator[None]:
        """Bracket one management operation in the WAL.

        The intent is logged before the body runs and committed after
        it.  A body that raises :class:`ManagementError` or
        :class:`UrlTableError` aborts it; a crash leaves it open for
        :func:`repro.mgmt.durability.recover` to resolve.
        """
        durability = self.durability
        if durability is None:
            yield
            return
        op_id = durability.log_intent(op, payload)
        try:
            yield
        except (ManagementError, UrlTableError) as exc:
            durability.log_abort(op_id, str(exc))
            raise
        durability.log_commit(op_id)

    # -- the dispatch primitive ----------------------------------------------
    def execute(self, agent: Agent, node: str,
                timeout: Optional[float] = None) -> Generator:
        """Send one agent to one broker and await its result.

        With ``timeout`` set, a dispatch whose result never comes back
        (broker dead, agent lost in flight) resolves to a synthetic failed
        :class:`AgentResult` after ``timeout`` simulated seconds instead of
        blocking forever.
        """
        if not self.alive:
            raise ControllerCrashed(
                f"controller is down ({agent.name} -> {node})")
        broker = self.brokers.get(node)
        if broker is None:
            raise ManagementError(f"no broker registered for {node!r}")
        dispatch = AgentDispatch(agent=agent, target=node,
                                 sent_at=self.sim.now)
        done = self.sim.event()
        self._pending[dispatch.dispatch_id] = done
        self.dispatches += 1
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("agent", agent.name, node=node,
                                     dispatch=dispatch.dispatch_id)
        if self.durability is not None:
            self.durability.log_dispatch(dispatch.dispatch_id,
                                         agent.name, node)
        broker.deliver(dispatch)
        if self.durability is not None:
            self.durability.boundary(f"deliver:{agent.name}@{node}")
        if timeout is None:
            timeout = self.default_timeout
        timed_out = False
        if timeout is None:
            result: AgentResult = yield done
        else:
            yield self.sim.any_of([done, self.sim.timeout(timeout)])
            if done.triggered:
                result = done.value
            else:
                timed_out = True
                self._pending.pop(dispatch.dispatch_id, None)
                self.timeouts += 1
                if self.health_sink is not None:
                    self.health_sink.record_mgmt_timeout(node)
                result = AgentResult(dispatch_id=dispatch.dispatch_id,
                                     node=node, agent_name=agent.name,
                                     ok=False, detail={"error": "timeout"},
                                     completed_at=self.sim.now)
        if not result.ok:
            self.failures += 1
        if span is not None:
            status = "ok" if result.ok else (
                "timeout" if timed_out else "failed")
            self.tracer.end(span, status=status)
        return result

    # -- content management operations (§3.2) ------------------------------
    def place(self, item: ContentItem, node: str,
              source: Optional[str] = None) -> Generator:
        """Install a document on ``node`` and make it routable there."""
        with self._intent("place", {"path": item.path, "node": node,
                                    "source": source,
                                    "item": item_to_payload(item)}):
            result = yield from self.execute(
                CopyAgent(item, source=source), node)
            if not (result.ok and result.detail.get("copied")):
                raise ManagementError(
                    f"place {item.path} on {node} failed: {result.detail}")
            self.apply("route-add", path=item.path, node=node, item=item)
            self.log.append((self.sim.now, "place", item.path, node))
        return result

    def replicate(self, path: str, node: str) -> Generator:
        """Copy an existing document to one more node (§3.3 and §1.2)."""
        record = self.url_table.lookup(path)
        if node in record.locations:
            return None
        source = sorted(record.locations)[0]
        with self._intent("replicate", {"path": path, "node": node,
                                        "source": source,
                                        "item": item_to_payload(record.item)}):
            result = yield from self.execute(
                CopyAgent(record.item, source=source), node)
            if not (result.ok and result.detail.get("copied")):
                raise ManagementError(
                    f"replicate {path} to {node} failed: {result.detail}")
            self.apply("route-add", path=path, node=node)
            self.log.append((self.sim.now, "replicate", path, node))
        return result

    def offload(self, path: str, node: str) -> Generator:
        """Drop one node's copy (§3.3: 'decrease the content copies of that
        server').  Routing is updated *before* the physical delete so no
        request races onto the disappearing copy; the last copy is never
        offloaded."""
        with self._intent("offload", {"path": path, "node": node}):
            self.apply("route-drop", path=path, node=node)
            result = yield from self.execute(DeleteAgent(path), node)
            if not result.ok:
                raise ManagementError(
                    f"offload {path} from {node} failed: {result.detail}")
            self.log.append((self.sim.now, "offload", path, node))
        return result

    def remove_document(self, path: str) -> Generator:
        """Delete a document everywhere and unregister it."""
        nodes = sorted(self.url_table.lookup(path).locations)
        with self._intent("remove", {"path": path, "nodes": nodes}):
            for node in nodes:
                yield from self.execute(DeleteAgent(path), node)
            self.apply("route-remove", path=path)
            self.log.append((self.sim.now, "remove", path, ",".join(nodes)))

    def rename_document(self, old: str, new_item: ContentItem) -> Generator:
        """Rename a document on every node holding it.

        A target that is already routed (including ``old`` itself) is
        refused before any agent runs.
        """
        nodes = sorted(self.url_table.lookup(old).locations)
        if new_item.path in self.url_table:
            raise ManagementError(
                f"rename {old}: {new_item.path} is already routed")
        with self._intent("rename", {"old": old, "path": new_item.path,
                                     "item": item_to_payload(new_item),
                                     "nodes": nodes}):
            for node in nodes:
                result = yield from self.execute(
                    RenameAgent(old, new_item), node)
                if not (result.ok and result.detail.get("renamed")):
                    raise ManagementError(
                        f"rename {old} on {node} failed: {result.detail}")
            self.apply("route-rename", old=old, path=new_item.path,
                       item=new_item, nodes=nodes)
            self.log.append((self.sim.now, "rename", old, new_item.path))

    def update_content(self, item: ContentItem) -> Generator:
        """Push a new version of a mutable document to all replicas (§4)."""
        record = self.url_table.lookup(item.path)
        with self._intent("update", {"path": item.path,
                                     "item": item_to_payload(item),
                                     "nodes": sorted(record.locations)}):
            for node in sorted(record.locations):
                result = yield from self.execute(UpdateAgent(item), node)
                if not (result.ok and result.detail.get("updated")):
                    raise ManagementError(
                        f"update {item.path} on {node} failed: "
                        f"{result.detail}")
            # the dispatch loop yields: a concurrent remove/rename may have
            # dropped the record while agents were in flight
            if record.path not in self.url_table:
                raise ManagementError(
                    f"update {item.path}: document removed during update")
            self.apply("route-size", path=item.path,
                       size_bytes=item.size_bytes)
            self.log.append((self.sim.now, "update", item.path,
                             ",".join(sorted(record.locations))))

    # -- monitoring / consistency -----------------------------------------
    def status_all(self) -> Generator:
        """Gather a StatusReport from every broker, in parallel."""
        events = []
        for node in sorted(self.brokers):
            events.append(self.sim.process(
                self.execute(StatusAgent(), node)))
        results = yield self.sim.all_of(events)
        reports: dict[str, StatusReport] = {}
        for ev in events:
            result: AgentResult = ev.value
            reports[result.node] = result.detail
        return reports

    def audit(self) -> Generator:
        """Cluster-wide consistency audit: URL table vs physical stores.

        One InventoryAgent per node (in parallel), then a pure comparison.
        Returns a dict with two lists of (path, node) pairs:

        * ``missing``  -- routed there by the URL table, not on the node;
        * ``orphaned`` -- on the node, unknown to (or unrouted by) the
          URL table.
        """
        events = []
        for node in sorted(self.brokers):
            events.append(self.sim.process(
                self.execute(InventoryAgent(), node)))
        yield self.sim.all_of(events)
        # a node whose inventory failed (e.g. dispatch timeout) cannot be
        # audited this round; it is simply not counted
        inventories = {ev.value.node: ev.value.detail["paths"]
                       for ev in events if ev.value.ok}
        nodes = sorted(inventories)
        missing: list[tuple[str, str]] = []
        orphaned: list[tuple[str, str]] = []
        routed: dict[str, set[str]] = {n: set() for n in nodes}
        for record in self.url_table.records():
            for node in sorted(record.locations):
                if node in routed:
                    routed[node].add(record.path)
        for node in nodes:
            for path in sorted(routed[node] - inventories[node]):
                missing.append((path, node))
            for path in sorted(inventories[node] - routed[node]):
                orphaned.append((path, node))
        return {"missing": missing, "orphaned": orphaned,
                "nodes_audited": len(nodes)}

    def reconcile_node(self, node: str,
                       timeout: Optional[float] = None) -> Generator:
        """Reconcile one (typically just-recovered) node with the URL table.

        A node that crashed and came back may hold documents the monitor
        re-routed away from it while it was down (stored-but-unrouted), and
        the table may still route documents the node never finished
        receiving (routed-but-missing).  Both break INV003.  The repair:

        * stored + record still exists  -> re-add the location ("rejoined");
        * stored + record gone          -> DeleteAgent ("purged");
        * routed but missing, >1 copies -> drop this location ("dropped");
        * routed but missing, last copy -> remove the record ("lost").

        Returns the four lists, or ``{"error": ...}`` when the inventory
        itself failed (caller should retry).
        """
        result = yield from self.execute(InventoryAgent(), node,
                                         timeout=timeout)
        if not result.ok:
            return {"error": result.detail}
        stored: set[str] = set(result.detail["paths"])
        routed = {record.path for record in self.url_table.records()
                  if node in record.locations}
        summary: dict[str, list[str]] = {
            "rejoined": [], "purged": [], "dropped": [], "lost": []}
        for path in sorted(stored - routed):
            if path in self.url_table:
                self.apply("route-add", path=path, node=node)
                summary["rejoined"].append(path)
            else:
                yield from self.execute(DeleteAgent(path), node,
                                        timeout=timeout)
                summary["purged"].append(path)
        for path in sorted(routed - stored):
            if len(self.url_table.locations(path)) > 1:
                self.apply("route-drop", path=path, node=node)
                summary["dropped"].append(path)
            else:
                self.apply("route-remove", path=path)
                summary["lost"].append(path)
        if any(summary.values()):
            self.log.append((self.sim.now, "reconcile", node,
                             ",".join(f"{k}={len(v)}"
                                      for k, v in sorted(summary.items()))))
        return summary

    def converge(self, timeout: Optional[float] = None) -> Generator:
        """The anti-entropy pass: audit the cluster, reconcile every node
        the audit finds dirty, and audit again if there was one.

        Returns ``(audit, summaries)``: the last audit and each dirty
        node's :meth:`reconcile_node` summary, in node order.
        """
        audit = yield from self.audit()
        dirty = sorted({node for _path, node in audit["missing"]}
                       | {node for _path, node in audit["orphaned"]})
        summaries = {}
        for node in dirty:
            summaries[node] = yield from self.reconcile_node(
                node, timeout=timeout)
        if dirty:
            audit = yield from self.audit()
        return audit, summaries

    def verify_placement(self, path: str) -> Generator:
        """Cross-check the URL table against every node's store."""
        record = self.url_table.lookup(path)
        inconsistencies = []
        for node in sorted(self.brokers):
            expected = node in record.locations
            result = yield from self.execute(
                VerifyAgent(path, expected_present=expected), node)
            if not result.detail["consistent"]:
                inconsistencies.append(node)
        return inconsistencies
