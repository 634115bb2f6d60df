"""Shared replica sets: the URL table, the document tree and the
placement plans hold one immutable location set per distinct replica
set, and a replica change assigns the set for the new value."""

import tracemalloc

import pytest

from repro.cluster import paper_testbed_specs
from repro.content import DocTree, paper_catalog, replica_set
from repro.core import UrlTable, full_replication
from repro.experiments import ExperimentConfig, build_deployment
from repro.sim import RngStream
from repro.workload import WORKLOAD_A, WORKLOAD_B


def deploy(scheme, workload):
    return build_deployment(ExperimentConfig(
        scheme=scheme, workload=workload, duration=1.0, warmup=0.25,
        n_objects=120, n_client_machines=2, seed=7))


def location_sets(dep):
    """Every location set the deployment's URL table and tree hold."""
    return ([r.locations for r in dep.url_table.records()]
            + [node.locations for _path, node in dep.doctree.walk()])


def test_replica_set_interns_equal_sets():
    shared = replica_set(["n2", "n1"])
    assert shared == {"n1", "n2"}
    assert isinstance(shared, frozenset)
    assert replica_set({"n1", "n2"}) is shared
    assert replica_set(iter(("n1", "n2", "n1"))) is shared


def test_full_replication_holds_one_set_object():
    dep = deploy("replication-l4", WORKLOAD_B)
    sets = location_sets(dep)
    assert len(sets) == 2 * len(dep.catalog)
    assert len({id(s) for s in sets}) == 1
    assert sets[0] == set(dep.servers)


def test_partition_holds_one_object_per_distinct_set():
    dep = deploy("partition-ca", WORKLOAD_A)
    sets = location_sets(dep)
    distinct = set(sets)
    assert len(distinct) > 1
    assert len({id(s) for s in sets}) == len(distinct)


@pytest.fixture()
def partition():
    return deploy("partition-ca", WORKLOAD_A)


def _single_copy_record(dep):
    return next(r for r in sorted(dep.url_table.records(),
                                  key=lambda r: r.path)
                if len(r.locations) == 1)


def _objects(dep, skip):
    return {r.path: r.locations for r in dep.url_table.records()
            if r.path != skip}


def test_add_and_remove_location_swap_in_the_interned_set(partition):
    table = partition.url_table
    record = _single_copy_record(partition)
    (holder,) = record.locations
    extra = sorted(set(partition.servers) - {holder})[0]
    others = _objects(partition, record.path)

    table.add_location(record.path, extra)
    assert record.locations is replica_set({holder, extra})
    table.remove_location(record.path, holder)
    assert record.locations is replica_set({extra})
    after = _objects(partition, record.path)
    assert all(after[p] is others[p] for p in others)


def test_controller_route_add_and_drop_swap_in_the_interned_set(partition):
    controller, _brokers = partition.management_plane()
    record = _single_copy_record(partition)
    path = record.path
    (holder,) = record.locations
    extra = sorted(set(partition.servers) - {holder})[0]
    file = partition.doctree.file(path)
    others = _objects(partition, path)

    controller.apply("route-add", path=path, node=extra)
    assert record.locations is replica_set({holder, extra})
    assert file.locations is record.locations
    controller.apply("route-drop", path=path, node=holder)
    assert record.locations is replica_set({extra})
    assert file.locations is record.locations
    after = _objects(partition, path)
    assert all(after[p] is others[p] for p in others)


def test_location_sets_cannot_be_mutated(partition):
    record = next(iter(partition.url_table.records()))
    with pytest.raises(AttributeError):
        record.locations.add("ghost-node")
    with pytest.raises(AttributeError):
        partition.doctree.file(record.path).locations.discard("ghost-node")


def test_full_replication_footprint(monkeypatch):
    """§5.2 scale (8 700 objects) under full replication: the URL table
    and the document tree together retain under 6 MB of Python objects,
    the path-split cache they fill included (one location set per
    document used to cost about 16 MB)."""
    catalog = paper_catalog(rng=RngStream(1, "catalog"))
    plan = full_replication(catalog,
                            [spec.name for spec in paper_testbed_specs()])
    # an empty split cache, so the figure does not depend on test order
    monkeypatch.setattr("repro.net.http._split_cache", {})
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table, tree = UrlTable(), DocTree()
        for item in catalog:
            nodes = plan.locations[item.path]
            table.insert(item, nodes)
            tree.insert(item, nodes)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(table) == len(catalog) == 8700
    assert retained < 6_000_000, f"{retained / 1e6:.1f} MB retained"
