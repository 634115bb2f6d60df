"""Tests for testbed construction and experiment execution (fast scales)."""

import pytest

from repro.content import ContentType
from repro.experiments import (ExperimentConfig, SCHEMES, build_deployment)
from repro.workload import WORKLOAD_A, WORKLOAD_B


def small(scheme, workload=WORKLOAD_A, **kw):
    defaults = dict(n_objects=600, duration=3.0, warmup=1.0,
                    n_client_machines=6)
    defaults.update(kw)
    return ExperimentConfig(scheme=scheme, workload=workload, **defaults)


class TestConfigValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="magic", workload=WORKLOAD_A)

    def test_warmup_before_duration(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                             warmup=5.0, duration=5.0)


class TestBuildDeployment:
    def test_nine_backends_always(self):
        for scheme in SCHEMES:
            dep = build_deployment(small(scheme))
            assert len(dep.servers) == 9

    def test_replication_places_everything_everywhere(self):
        dep = build_deployment(small("replication-l4"))
        for server in dep.servers.values():
            assert len(server.store) == len(dep.catalog)

    def test_nfs_exports_everything_stores_empty(self):
        dep = build_deployment(small("nfs-l4"))
        assert dep.nfs is not None
        assert len(dep.nfs.store) == len(dep.catalog)
        for server in dep.servers.values():
            assert len(server.store) == 0

    def test_partition_splits_content(self):
        dep = build_deployment(small("partition-ca"))
        assert dep.nfs is None
        copies = sum(len(s.store) for s in dep.servers.values())
        assert len(dep.catalog) <= copies < 2 * len(dep.catalog)

    def test_url_table_covers_catalog(self):
        for scheme in SCHEMES:
            dep = build_deployment(small(scheme))
            assert len(dep.url_table) == len(dep.catalog)
            assert len(dep.doctree.files()) == len(dep.catalog)

    def test_prewarm_fills_caches(self):
        dep = build_deployment(small("partition-ca"))
        warmed = [s for s in dep.servers.values() if s.cache.used_bytes > 0]
        assert len(warmed) == 9

    def test_prewarm_disabled(self):
        dep = build_deployment(small("partition-ca", prewarm=False))
        assert all(s.cache.used_bytes == 0 for s in dep.servers.values())

    def test_nfs_scheme_prewarms_only_file_server(self):
        dep = build_deployment(small("nfs-l4"))
        assert dep.nfs.cache.used_bytes > 0
        assert all(s.cache.used_bytes == 0 for s in dep.servers.values())

    def test_same_seed_same_catalog(self):
        a = build_deployment(small("partition-ca", seed=7))
        b = build_deployment(small("partition-ca", seed=7))
        assert a.catalog.paths() == b.catalog.paths()


class TestDeploymentRun:
    def test_run_produces_summary(self):
        dep = build_deployment(small("partition-ca"))
        result = dep.run(10)
        assert result["throughput_rps"] > 0
        assert result["scheme"] == "partition-ca"
        assert result["workload"] == "A"
        assert 0.0 <= result["mean_cache_hit_rate"] <= 1.0
        assert result["errors"] == 0

    def test_run_nfs_reports_file_server_stats(self):
        dep = build_deployment(small("nfs-l4"))
        result = dep.run(10)
        assert result["nfs_rpcs"] > 0
        assert 0.0 <= result["nfs_disk_utilization"] <= 1.0

    def test_workload_b_serves_dynamic(self):
        dep = build_deployment(small("partition-ca", workload=WORKLOAD_B))
        result = dep.run(10)
        assert result["by_class"].get("cgi", 0) > 0
        assert result["by_class"].get("asp", 0) > 0

    def test_deterministic_runs(self):
        r1 = build_deployment(small("replication-l4", seed=3)).run(8)
        r2 = build_deployment(small("replication-l4", seed=3)).run(8)
        assert r1["throughput_rps"] == r2["throughput_rps"]
        assert r1["completed"] == r2["completed"]

    def test_more_clients_more_throughput_until_saturation(self):
        lo = build_deployment(small("partition-ca")).run(2)
        hi = build_deployment(small("partition-ca")).run(20)
        assert hi["throughput_rps"] > lo["throughput_rps"]


class TestManagementPlane:
    def test_one_broker_per_backend_in_node_order(self):
        dep = build_deployment(small("partition-ca"))
        controller, brokers = dep.management_plane()
        nodes = sorted(dep.servers)
        assert list(brokers) == nodes
        assert list(controller.brokers) == nodes
        assert controller.nic is dep.frontend.nic
        assert controller.url_table is dep.url_table
        assert controller.doctree is dep.doctree
        for name, broker in brokers.items():
            assert controller.brokers[name] is broker
            assert broker.server is dep.servers[name]
            assert broker.controller_nic is dep.frontend.nic
        # the brokers share one registry, so each can fetch from its peers
        assert brokers[nodes[0]].peer(nodes[-1]) is brokers[nodes[-1]]

    def test_tracer_passed_through(self):
        plain = build_deployment(small("partition-ca"))
        assert plain.management_plane()[0].tracer is None
        traced = build_deployment(small("partition-ca", trace=True))
        controller, _ = traced.management_plane()
        assert traced.tracer is not None
        assert controller.tracer is traced.tracer


class TestBackupDistributor:
    def test_named_with_the_config_pool_and_warmup(self):
        dep = build_deployment(small("partition-ca", prefork=4,
                                     max_pool_size=12, warmup=0.75))
        backup = dep.backup_distributor()
        assert backup.name == "dist-backup"
        assert backup.pools.prefork == 4
        assert backup.pools.max_size == 12
        assert backup.meter.warmup == 0.75
        assert backup.servers == dep.servers
        assert backup.overload is None
        # an empty table of its own, filled by the HA pair's state syncs
        assert backup.url_table is not dep.url_table
        assert len(backup.url_table) == 0

    def test_tracer_passed_through(self):
        dep = build_deployment(small("partition-ca", trace=True))
        assert dep.backup_distributor().tracer is dep.tracer
