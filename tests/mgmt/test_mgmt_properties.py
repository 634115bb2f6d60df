"""The WAL contract as a property over generated management schedules.

Hypothesis draws up to ten concurrent operations (``place``,
``replicate``, ``offload``, ``remove_document``, ``rename_document``,
``update_content``, ``reconcile_node``) over four documents and three
nodes, each starting at 0, 2, 20 or 80 ms, so they overlap while their
agents are in flight.  Before the schedule one document is routed on two
nodes and one on a single node.  Refused operations are fine; whatever
the interleaving, once the simulator is idle:

* no intent is left open;
* the checkpoint plus WAL replay reconstructs the live URL table;
* the URL table and the document tree hold the same paths, each with
  the same locations.

The two regression tests below pin interleavings that once broke it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.content import DocTreeError
from repro.core import UrlTableError
from repro.mgmt import ManagementError
from tests.mgmt.test_durability import build, item, run_op

PATHS = [f"/p/{k}.html" for k in range(4)]
STARTS = [0.0, 0.002, 0.020, 0.080]
OPS = ["place", "replicate", "offload", "remove_document",
       "rename_document", "update_content", "reconcile_node"]

operation = st.tuples(st.sampled_from(OPS), st.sampled_from(PATHS),
                      st.integers(0, 2), st.sampled_from(PATHS),
                      st.sampled_from(STARTS))


def start(controller, op, path, node, other, serial):
    """The generator for one drawn operation."""
    if op == "place":
        return controller.place(item(path), node)
    if op == "replicate":
        return controller.replicate(path, node)
    if op == "offload":
        return controller.offload(path, node)
    if op == "remove_document":
        return controller.remove_document(path)
    if op == "rename_document":
        return controller.rename_document(path, item(other))
    if op == "update_content":
        return controller.update_content(
            item(path, size=8192 + 512 * serial, mutable=True))
    return controller.reconcile_node(node)


def run_schedule(schedule):
    sim, servers, controller, durability = build()
    nodes = sorted(servers)
    # before the schedule: /p/0.html on two nodes, /p/1.html on one
    run_op(sim, controller, controller.place(item(PATHS[0]), nodes[0]))
    run_op(sim, controller, controller.replicate(PATHS[0], nodes[1]))
    run_op(sim, controller, controller.place(item(PATHS[1]), nodes[2]))

    def scheduled(serial, op, path, node, other, at):
        yield sim.timeout(at)
        try:
            yield from start(controller, op, path, nodes[node], other,
                             serial)
        except (ManagementError, UrlTableError, DocTreeError):
            pass

    for serial, (op, path, node, other, at) in enumerate(schedule):
        sim.process(scheduled(serial, op, path, node, other, at))
    sim.run()
    return controller, durability


def routing(controller):
    """``(URL table, document tree)``, each as {path: sorted locations}."""
    table = {record.path: sorted(record.locations)
             for record in controller.url_table.records()}
    tree = {path: sorted(node.locations)
            for path, node in controller.doctree.walk()}
    return table, tree


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, max_size=10))
def test_wal_replays_to_the_live_tables(schedule):
    controller, durability = run_schedule(schedule)
    assert durability.open == {}
    assert durability.verify_consistency() == []
    table, tree = routing(controller)
    assert table == tree


def test_concurrent_removes_close_both_intents():
    sim, servers, controller, durability = build()
    doc = item("/r.html")
    run_op(sim, controller, controller.place(doc, sorted(servers)[0]))
    failed = []

    def remove():
        try:
            yield from controller.remove_document(doc.path)
        except UrlTableError as exc:
            failed.append(str(exc))

    sim.process(remove())
    sim.process(remove())
    sim.run()
    assert len(failed) == 1
    assert durability.open == {}
    assert durability.aborts == 1
    assert durability.verify_consistency() == []
    assert routing(controller) == ({}, {})


def test_rename_onto_a_routed_path_is_refused_before_any_agent():
    sim, servers, controller, durability = build()
    node = sorted(servers)[0]
    run_op(sim, controller, controller.place(item("/a.html"), node))
    run_op(sim, controller, controller.place(item("/b.html", 4096), node))
    dispatches, appends = controller.dispatches, durability.wal.appends
    with pytest.raises(ManagementError):
        run_op(sim, controller,
               controller.rename_document("/a.html", item("/b.html")))
    with pytest.raises(ManagementError):
        run_op(sim, controller,
               controller.rename_document("/a.html", item("/a.html")))
    assert controller.dispatches == dispatches
    assert durability.wal.appends == appends
    assert servers[node].store.get("/b.html").size_bytes == 4096
    table, tree = routing(controller)
    assert table == tree == {"/a.html": [node], "/b.html": [node]}
    assert durability.verify_consistency() == []
