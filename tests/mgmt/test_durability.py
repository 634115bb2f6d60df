"""Unit tests for the controller WAL / checkpoint / replay machinery."""

import dataclasses

import pytest

from repro.cluster import BackendServer, paper_testbed_specs
from repro.content import ContentItem, ContentType, DocTree, Priority
from repro.core import UrlTable
from repro.mgmt import (Broker, Controller, ControllerDurability,
                        ControllerWal, DurabilityConfig, WalCorruption,
                        WalRecord)
from repro.mgmt.durability import (item_from_payload, item_to_payload,
                                   record_checksum, replay_apply,
                                   snapshot_records)
from repro.net import Lan, Nic
from repro.sim import Simulator


def item(path, size=8192, ctype=ContentType.HTML, **kw):
    return ContentItem(path, size, ctype, **kw)


def build(n_nodes=3, checkpoint_every=24):
    sim = Simulator()
    lan = Lan(sim)
    specs = paper_testbed_specs()[:n_nodes]
    servers = {s.name: BackendServer(sim, lan, s) for s in specs}
    controller_nic = Nic(sim, 100, name="controller")
    controller = Controller(sim, controller_nic, UrlTable(), DocTree())
    registry: dict[str, Broker] = {}
    for server in servers.values():
        broker = Broker(sim, lan, server, controller_nic, registry)
        controller.register_broker(broker)
    durability = ControllerDurability(
        DurabilityConfig(checkpoint_every=checkpoint_every))
    durability.attach(controller)
    return sim, servers, controller, durability


def run_op(sim, controller, op):
    proc = sim.process(op)
    sim.run()
    return proc.value


class TestWalRecords:
    def test_append_assigns_monotone_lsns_and_checksums(self):
        wal = ControllerWal()
        r1 = wal.append("intent", {"op_id": 1, "op": "place"})
        r2 = wal.append("commit", {"op_id": 1})
        assert (r1.lsn, r2.lsn) == (1, 2)
        r1.verify()
        r2.verify()
        assert r1.checksum == record_checksum(1, "intent", r1.payload)

    def test_corrupted_record_fails_verification(self):
        wal = ControllerWal()
        good = wal.append("intent", {"op_id": 1, "op": "place"})
        bad = WalRecord(lsn=good.lsn, kind=good.kind,
                        payload={"op_id": 2, "op": "place"},
                        checksum=good.checksum)
        wal.records[0] = bad
        with pytest.raises(WalCorruption):
            wal.replay()

    def test_checksum_depends_on_lsn_kind_and_payload(self):
        base = record_checksum(1, "intent", {"a": 1})
        assert record_checksum(2, "intent", {"a": 1}) != base
        assert record_checksum(1, "commit", {"a": 1}) != base
        assert record_checksum(1, "intent", {"a": 2}) != base

    def test_checkpoint_truncates_record_tail(self):
        wal = ControllerWal()
        for n in range(5):
            wal.append("apply", {"action": "route-add", "path": f"/{n}",
                                 "node": "a"})
        wal.set_checkpoint({"records": [], "open_intents": [],
                            "next_op_id": 1, "lsn": 5})
        assert wal.records == []
        assert wal.truncations == 1
        assert wal.next_lsn == 6  # lsns keep counting past the checkpoint

    def test_item_payload_roundtrip(self):
        original = item("/a/b.html", 1234, ContentType.CGI,
                        priority=Priority.CRITICAL, mutable=True,
                        cpu_work=0.25)
        restored = item_from_payload(item_to_payload(original))
        assert restored == original
        assert restored.priority is Priority.CRITICAL
        assert restored.mutable and restored.cpu_work == 0.25


class TestReplayApply:
    def setup_method(self):
        self.table = UrlTable()
        self.tree = DocTree()
        self.doc = item("/d/x.html")
        self.table.insert(self.doc, {"a"})
        self.tree.insert(self.doc, {"a"})

    def test_route_add_is_idempotent(self):
        payload = {"path": "/d/x.html", "node": "b"}
        assert replay_apply(self.table, self.tree, "route-add", payload)
        assert not replay_apply(self.table, self.tree, "route-add", payload)
        assert self.table.locations("/d/x.html") == {"a", "b"}

    def test_route_add_inserts_unknown_doc_from_item_payload(self):
        payload = {"path": "/new.html", "node": "a",
                   "item": item_to_payload(item("/new.html"))}
        assert replay_apply(self.table, self.tree, "route-add", payload)
        assert self.table.locations("/new.html") == {"a"}

    def test_route_add_without_item_for_unknown_doc_is_noop(self):
        # a location-only add whose doc a later suffix record removed
        assert not replay_apply(self.table, self.tree, "route-add",
                                {"path": "/gone.html", "node": "a"})

    def test_route_drop_never_drops_last_copy(self):
        assert not replay_apply(self.table, self.tree, "route-drop",
                                {"path": "/d/x.html", "node": "a"})
        replay_apply(self.table, self.tree, "route-add",
                     {"path": "/d/x.html", "node": "b"})
        assert replay_apply(self.table, self.tree, "route-drop",
                            {"path": "/d/x.html", "node": "a"})
        assert not replay_apply(self.table, self.tree, "route-drop",
                                {"path": "/d/x.html", "node": "a"})

    def test_route_remove_is_idempotent(self):
        payload = {"path": "/d/x.html"}
        assert replay_apply(self.table, self.tree, "route-remove", payload)
        assert not replay_apply(self.table, self.tree, "route-remove",
                                payload)
        assert "/d/x.html" not in self.table

    def test_route_rename_replays_from_either_state(self):
        new = item("/d/y.html")
        payload = {"old": "/d/x.html", "path": "/d/y.html",
                   "item": item_to_payload(new), "nodes": ["a"]}
        assert replay_apply(self.table, self.tree, "route-rename", payload)
        assert "/d/y.html" in self.table and "/d/x.html" not in self.table
        # replaying once renamed is a no-op
        assert not replay_apply(self.table, self.tree, "route-rename",
                                payload)

    def test_route_size_is_idempotent(self):
        payload = {"path": "/d/x.html", "size_bytes": 999}
        assert replay_apply(self.table, self.tree, "route-size", payload)
        assert not replay_apply(self.table, self.tree, "route-size",
                                payload)
        assert self.table.record("/d/x.html").item.size_bytes == 999

    def test_unknown_action_raises(self):
        with pytest.raises(WalCorruption):
            replay_apply(self.table, self.tree, "route-bogus", {})

    def test_snapshot_records_sorted_and_canonical(self):
        self.table.insert(item("/a.html"), {"b", "a"})
        rows = snapshot_records(self.table)
        assert [row["path"] for row in rows] == sorted(
            row["path"] for row in rows)
        assert rows[0]["locations"] == sorted(rows[0]["locations"])


class TestControllerDurability:
    def test_operations_append_intent_applies_and_commit(self):
        sim, servers, controller, durability = build()
        node = sorted(servers)[0]
        run_op(sim, controller, controller.place(item("/p.html"), node))
        kinds = [r.kind for r in durability.wal.records]
        assert kinds == ["intent", "dispatch", "apply", "commit"]
        assert durability.commits == 1
        assert durability.open == {}
        assert durability.verify_consistency() == []

    def test_checkpoint_triggers_after_configured_appends(self):
        sim, servers, controller, durability = build(checkpoint_every=4)
        node = sorted(servers)[0]
        run_op(sim, controller, controller.place(item("/p1.html"), node))
        # one op = 4 appends >= checkpoint_every -> checkpointed at commit
        assert durability.checkpoints == 2  # initial (attach) + periodic
        assert durability.wal.records == []
        assert durability.wal.checkpoint is not None
        run_op(sim, controller, controller.place(item("/p2.html"), node))
        assert durability.checkpoints == 3
        assert durability.verify_consistency() == []

    def test_failed_op_appends_abort_and_closes_intent(self):
        sim, servers, controller, durability = build()
        node = sorted(servers)[0]
        doc = item("/only.html")
        run_op(sim, controller, controller.place(doc, node))
        with pytest.raises(Exception):
            run_op(sim, controller, controller.offload(doc.path, node))
        assert durability.aborts == 1
        assert durability.open == {}
        assert durability.verify_consistency() == []

    def test_open_intents_recomputed_from_wal(self):
        sim, servers, controller, durability = build()
        op_id = durability.log_intent("place", {"path": "/x.html",
                                                "node": "a", "source": None,
                                                "item": None})
        assert [i["op_id"] for i in durability.open_intents_from_wal()] == \
            [op_id]
        durability.log_commit(op_id)
        assert durability.open_intents_from_wal() == []

    def test_open_intents_survive_checkpoint(self):
        sim, servers, controller, durability = build()
        op_id = durability.log_intent("place", {"path": "/x.html",
                                                "node": "a", "source": None,
                                                "item": None})
        durability.take_checkpoint()
        assert durability.wal.records == []
        assert [i["op_id"] for i in durability.open_intents_from_wal()] == \
            [op_id]

    def test_monitor_and_reconcile_mutations_are_walled(self):
        sim, servers, controller, durability = build()
        nodes = sorted(servers)
        doc = item("/w.html")
        run_op(sim, controller, controller.place(doc, nodes[0]))
        run_op(sim, controller, controller.replicate(doc.path, nodes[1]))
        # simulate the monitor dropping a dead node's routes
        controller.wal_apply("route-drop", path=doc.path, node=nodes[1])
        controller.url_table.remove_location(doc.path, nodes[1])
        controller.doctree.file(doc.path).locations.discard(nodes[1])
        assert durability.verify_consistency() == []

    def test_take_checkpoint_requires_attachment(self):
        durability = ControllerDurability()
        with pytest.raises(ValueError):
            durability.take_checkpoint()

    def test_config_fields(self):
        config = DurabilityConfig(checkpoint_every=7, recovery_grace=0.1)
        fields = {f.name for f in dataclasses.fields(config)}
        assert fields == {"checkpoint_every", "recovery_grace"}
