"""End-to-end integration: distributor + management plane + load.

These tests wire the complete system the way the paper deploys it -- the
content-aware distributor routing live traffic while the controller/broker
management plane mutates content placement underneath it -- and check that
the two planes stay consistent.
"""

import pytest

from repro.cluster import distributor_spec, paper_testbed_specs, BackendServer
from repro.content import ContentItem, ContentType
from repro.core import (AutoReplicator, ContentAwareDistributor,
                        LoadAccountant, UrlTable)
from repro.experiments import ExperimentConfig, build_deployment
from repro.mgmt import RemoteConsole
from repro.net import HttpRequest, Lan, Nic
from repro.sim import RngStream, Simulator
from repro.workload import WORKLOAD_A, WorkloadSpec


def small_config(**kw):
    defaults = dict(scheme="partition-ca", workload=WORKLOAD_A,
                    n_objects=400, duration=4.0, warmup=1.0,
                    n_client_machines=4)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestManagementUnderLoad:
    def test_insert_new_document_while_serving(self):
        deployment = build_deployment(small_config())
        controller, _ = deployment.management_plane()
        console = RemoteConsole(controller)
        sim = deployment.sim
        new_doc = ContentItem("/launch/announce.html", 4096,
                              ContentType.HTML)
        target = sorted(deployment.servers)[0]
        outcomes = []

        def admin():
            yield sim.timeout(1.5)
            yield from console.insert_file(new_doc, {target})

        def late_client():
            yield sim.timeout(3.0)  # after the insert completes
            outcome = yield sim.process(deployment.frontend.submit(
                HttpRequest(new_doc.path), deployment.rig.machine_nics[0]))
            outcomes.append(outcome)

        sim.process(admin())
        sim.process(late_client())
        deployment.rig.start_clients(8)
        sim.run(until=4.0)
        deployment.rig.stop_clients()
        assert outcomes and outcomes[0].response.ok
        assert outcomes[0].backend == target
        assert deployment.servers[target].holds(new_doc.path)

    def test_offload_under_load_keeps_service_consistent(self):
        deployment = build_deployment(small_config())
        controller, _ = deployment.management_plane()
        sim = deployment.sim
        # replicate one popular document, then offload the original copy
        item = sorted(deployment.catalog.static_items(),
                      key=lambda i: i.size_bytes)[0]
        original = sorted(deployment.url_table.locations(item.path))[0]
        other = next(n for n in sorted(deployment.servers)
                     if n != original)

        def admin():
            yield sim.timeout(1.0)
            yield from controller.replicate(item.path, other)
            yield sim.timeout(0.5)
            yield from controller.offload(item.path, original)

        sim.process(admin())
        deployment.rig.start_clients(8)
        sim.run(until=4.0)
        deployment.rig.stop_clients()
        assert deployment.rig.errors == 0
        assert deployment.url_table.locations(item.path) == {other}
        assert not deployment.servers[original].holds(item.path)
        # management log recorded both actions
        ops = [op for _, op, path, _ in controller.log
               if path == item.path]
        assert ops == ["replicate", "offload"]

    def test_mutable_content_update_invalidates_caches(self):
        """§4: mutable documents -- a push updates every replica and the
        next request serves the new version."""
        deployment = build_deployment(small_config())
        controller, _ = deployment.management_plane()
        sim = deployment.sim
        item = sorted(deployment.catalog.static_items(),
                      key=lambda i: i.size_bytes)[0]
        new_version = ContentItem(item.path, item.size_bytes + 1000,
                                  item.ctype, mutable=True)
        sizes = []

        def admin():
            yield sim.timeout(1.0)
            yield from controller.update_content(new_version)
            outcome = yield sim.process(deployment.frontend.submit(
                HttpRequest(item.path), deployment.rig.machine_nics[0]))
            sizes.append(outcome.response.content_length)

        sim.process(admin())
        deployment.rig.start_clients(4)
        sim.run(until=4.0)
        deployment.rig.stop_clients()
        assert sizes == [item.size_bytes]  # item object mutated in place
        # every replica's store now has the new size
        for node in deployment.url_table.locations(item.path):
            assert deployment.servers[node].store.get(
                item.path).size_bytes == item.size_bytes

    def test_verify_placement_consistent_after_churn(self):
        deployment = build_deployment(small_config())
        controller, _ = deployment.management_plane()
        sim = deployment.sim
        item = sorted(deployment.catalog.static_items(),
                      key=lambda i: i.size_bytes)[1]
        other = next(n for n in sorted(deployment.servers)
                     if n not in deployment.url_table.locations(item.path))
        bad = []

        def admin():
            yield from controller.replicate(item.path, other)
            result = yield from controller.verify_placement(item.path)
            bad.extend(result)

        sim.process(admin())
        sim.run(until=5.0)
        assert bad == []


class TestAutoReplicationIntegration:
    def test_hotspot_triggers_real_replication(self):
        hotspot = WorkloadSpec(name="hot", catalog_mix=WORKLOAD_A.catalog_mix,
                               request_mix=WORKLOAD_A.request_mix,
                               zipf_alpha=1.4, n_objects=300)
        deployment = build_deployment(small_config(
            workload=hotspot, duration=8.0))
        controller, _ = deployment.management_plane()
        accountant = LoadAccountant(
            {n: s.spec.weight for n, s in deployment.servers.items()})
        deployment.frontend.on_response = accountant.record
        replicator = AutoReplicator(
            deployment.sim, accountant, deployment.url_table, controller,
            interval=1.0, threshold=0.25, max_actions_per_interval=2)
        replicator.start()
        deployment.rig.start_clients(20)
        deployment.sim.run(until=8.0)
        deployment.rig.stop_clients()
        replicator.stop()
        assert replicator.history, "hot spot must trigger actions"
        assert any(a.kind == "replicate" for a in replicator.history)
        # after arbitrary churn (replications may later be offloaded), the
        # URL table and the physical stores must agree exactly
        for record in deployment.url_table.records():
            assert record.locations, record.path
            for node in record.locations:
                assert deployment.servers[node].holds(record.path), \
                    f"{record.path} routed to {node} but not present"

    def test_no_actions_on_balanced_load(self):
        deployment = build_deployment(small_config(duration=6.0))
        controller, _ = deployment.management_plane()
        accountant = LoadAccountant(
            {n: s.spec.weight for n, s in deployment.servers.items()})
        deployment.frontend.on_response = accountant.record
        replicator = AutoReplicator(
            deployment.sim, accountant, deployment.url_table, controller,
            interval=1.0, threshold=3.0,  # huge threshold: nothing qualifies
            max_actions_per_interval=2)
        replicator.start()
        deployment.rig.start_clients(10)
        deployment.sim.run(until=6.0)
        deployment.rig.stop_clients()
        replicator.stop()
        assert replicator.history == []


class TestEndToEndDeterminism:
    def test_full_stack_run_is_reproducible(self):
        r1 = build_deployment(small_config(seed=11)).run(10)
        r2 = build_deployment(small_config(seed=11)).run(10)
        assert r1["completed"] == r2["completed"]
        assert r1["throughput_rps"] == r2["throughput_rps"]

    def test_different_seeds_differ(self):
        r1 = build_deployment(small_config(seed=11)).run(10)
        r2 = build_deployment(small_config(seed=12)).run(10)
        assert r1["completed"] != r2["completed"]
