"""Content placement schemes.

§1.2 proposes partitioning (or partially replicating) content across the
cluster instead of the two traditional schemes:

* **full replication** -- every document on every node (config 1);
* **shared NFS** -- every document on one file server (config 2);
* **content partition** -- documents spread by type/size/priority so each
  node serves what it is good at (config 3):

  - dynamic content (CGI/ASP) on the nodes with powerful CPUs,
  - large files and multimedia on nodes with large, fast disks,
  - plain HTML/images on the remaining nodes,
  - critical documents replicated for availability.

A :class:`PlacementPlan` is pure data (path -> set of node names) so it can
be inspected, diffed, and tested without a simulator; ``apply_plan`` loads
it into real backend stores, a URL table, and a document tree.  A plan's
location sets are the shared replica sets of :func:`repro.content.replica_set`
(one object per distinct set), and ``apply_plan`` hands the same objects to
the URL table and the document tree.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..cluster import BackendServer, NfsServer, NodeSpec
from ..content import (ContentItem, ContentType, DocTree, Priority,
                       SiteCatalog, replica_set)
from .url_table import UrlTable

__all__ = ["PlacementPlan", "full_replication", "shared_nfs",
           "partition_by_type", "partition_by_priority",
           "partial_replication", "apply_plan"]


@dataclasses.dataclass
class PlacementPlan:
    """Which nodes hold a copy of each document."""

    #: path -> shared replica set (assigned on change, never mutated)
    locations: dict[str, frozenset[str]]
    uses_nfs: bool = False

    def nodes_for(self, path: str) -> set[str]:
        return set(self.locations[path])

    def paths_on(self, node: str) -> list[str]:
        return [p for p, nodes in self.locations.items() if node in nodes]

    def replica_count(self, path: str) -> int:
        return len(self.locations[path])

    def bytes_on(self, node: str, catalog: SiteCatalog) -> int:
        return sum(catalog.get(p).size_bytes for p in self.paths_on(node))

    def add_replica(self, path: str, node: str) -> None:
        self.locations[path] = replica_set(self.locations[path] | {node})

    def validate(self, catalog: SiteCatalog,
                 node_names: Iterable[str]) -> None:
        """Every document placed somewhere; every location a known node."""
        known = set(node_names)
        for item in catalog:
            nodes = self.locations.get(item.path)
            if not nodes:
                raise ValueError(f"{item.path} has no placement")
            unknown = nodes - known
            if unknown:
                raise ValueError(f"{item.path} placed on unknown {unknown}")

    # -- persistence (ops tooling: plans are reviewable artifacts) ---------
    def to_json_dict(self) -> dict:
        return {
            "uses_nfs": self.uses_nfs,
            "locations": {path: sorted(nodes)
                          for path, nodes in sorted(self.locations.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlacementPlan":
        return cls(
            locations={path: replica_set(nodes)
                       for path, nodes in data["locations"].items()},
            uses_nfs=bool(data.get("uses_nfs", False)))

    def save(self, path: str | Path) -> None:
        """Write the plan as reviewable JSON."""
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "PlacementPlan":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))

    def diff(self, other: "PlacementPlan") -> dict:
        """What changes when moving from this plan to ``other``: per-path
        (added_nodes, removed_nodes).  The management console can turn a
        diff directly into replicate/offload operations."""
        changes: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        for path in sorted(set(self.locations) | set(other.locations)):
            before = self.locations.get(path, frozenset())
            after = other.locations.get(path, frozenset())
            if before != after:
                changes[path] = (after - before, before - after)
        return changes


def full_replication(catalog: SiteCatalog,
                     node_names: Sequence[str]) -> PlacementPlan:
    """Configuration 1: the entire document set on every node."""
    if not node_names:
        raise ValueError("need at least one node")
    all_nodes = replica_set(node_names)
    return PlacementPlan(
        locations={item.path: all_nodes for item in catalog})


def shared_nfs(catalog: SiteCatalog,
               node_names: Sequence[str]) -> PlacementPlan:
    """Configuration 2: content on the file server; any web node can serve
    any document by reading it over NFS, so the routable location set is
    the whole cluster while local stores stay empty."""
    if not node_names:
        raise ValueError("need at least one node")
    all_nodes = replica_set(node_names)
    return PlacementPlan(
        locations={item.path: all_nodes for item in catalog},
        uses_nfs=True)


def _weighted_spread(items: Sequence[ContentItem],
                     nodes: Sequence[NodeSpec]) -> dict[str, frozenset[str]]:
    """Deterministic weighted assignment: each item goes to the eligible
    node with the least assigned load per unit weight (size-aware, so one
    node does not accumulate all the big files)."""
    load = {n.name: 0.0 for n in nodes}
    weight = {n.name: n.weight for n in nodes}
    alone = {n.name: replica_set((n.name,)) for n in nodes}
    out: dict[str, frozenset[str]] = {}
    for item in sorted(items, key=lambda i: (-i.size_bytes, i.path)):
        target = min(load, key=lambda n: (load[n] / weight[n], n))
        # 1 unit of expected request cost + bytes as a tiebreaker proxy
        load[target] += 1.0 + item.size_bytes / (256 * 1024)
        out[item.path] = alone[target]
    return out


def partition_by_type(catalog: SiteCatalog,
                      specs: Sequence[NodeSpec],
                      replicate_critical: bool = True) -> PlacementPlan:
    """Configuration 3: partition the document tree by content type.

    Mirrors §5.3's manual partitioning: dynamic content on the powerful-CPU
    nodes, large/multimedia files on the big fast-disk nodes, plain
    HTML/images on the remaining (slower) nodes -- falling back to the whole
    cluster when a class of nodes is not needed (e.g. workload A has no
    dynamic content, so every node serves static files).
    """
    if not specs:
        raise ValueError("need at least one node spec")
    specs = list(specs)
    max_mhz = max(s.cpu_mhz for s in specs)
    fast_cpu = [s for s in specs if s.cpu_mhz >= max_mhz * 0.999]
    big_disk = sorted(specs, key=lambda s: (s.disk.transfer_mbps,
                                            s.disk.capacity_gb),
                      reverse=True)
    big_disk = [s for s in big_disk
                if s.disk.transfer_mbps >= big_disk[0].disk.transfer_mbps * 0.7]
    slower = [s for s in specs if s not in fast_cpu]

    dynamic_items = catalog.dynamic_items()
    multimedia = [i for i in catalog
                  if i.ctype.is_multimedia or
                  (i.ctype.is_static and i.is_large)]
    multimedia_paths = {i.path for i in multimedia}
    plain = [i for i in catalog.static_items()
             if i.path not in multimedia_paths]

    locations: dict[str, frozenset[str]] = {}
    if dynamic_items:
        locations.update(_weighted_spread(dynamic_items, fast_cpu))
        static_pool = slower or specs
    else:
        static_pool = specs
    locations.update(_weighted_spread(multimedia, big_disk))
    locations.update(_weighted_spread(plain, static_pool))

    plan = PlacementPlan(locations=locations)
    if replicate_critical:
        # §1.2: replicate critical content for availability; put the extra
        # copy on a powerful node that does not already hold it.
        by_power = sorted(specs, key=lambda s: s.weight, reverse=True)
        for item in catalog:
            if item.priority is Priority.CRITICAL:
                current = plan.locations[item.path]
                for spec in by_power:
                    if spec.name not in current:
                        # dynamic content must stay on capable CPUs
                        if item.ctype.is_dynamic and spec not in fast_cpu:
                            continue
                        plan.add_replica(item.path, spec.name)
                        break
    return plan


def partition_by_priority(catalog: SiteCatalog,
                          specs: Sequence[NodeSpec],
                          critical_replicas: int = 2) -> PlacementPlan:
    """§1.2's other partitioning axis: "by some other policy (e.g.,
    priority)".

    * CRITICAL documents go to the most powerful nodes, replicated
      ``critical_replicas`` times ("place critical content on more
      powerful machines ... replicate some critical content to multiple
      nodes for achieving high availability");
    * NORMAL documents spread over the whole cluster by weight;
    * LOW-priority documents are confined to the least powerful nodes, so
      they can never crowd out anything that matters.

    Dynamic content is still constrained to the fastest CPUs regardless of
    priority (a slow node cannot execute it acceptably).
    """
    if not specs:
        raise ValueError("need at least one node spec")
    if critical_replicas < 1:
        raise ValueError("critical_replicas must be >= 1")
    by_power = sorted(specs, key=lambda s: (s.weight, s.name), reverse=True)
    n = len(by_power)
    powerful = by_power[:max(1, n // 3)]
    weak = by_power[-max(1, n // 3):]
    max_mhz = max(s.cpu_mhz for s in specs)
    fast_cpu = [s for s in specs if s.cpu_mhz >= max_mhz * 0.999]

    critical = [i for i in catalog if i.priority is Priority.CRITICAL]
    low = [i for i in catalog if i.priority is Priority.LOW]
    normal = [i for i in catalog if i.priority is Priority.NORMAL]

    locations: dict[str, frozenset[str]] = {}
    locations.update(_weighted_spread(normal, list(specs)))
    locations.update(_weighted_spread(low, weak))
    locations.update(_weighted_spread(critical, powerful))
    plan = PlacementPlan(locations=locations)

    # replicate critical content across distinct powerful nodes
    for item in critical:
        pool = powerful if not item.ctype.is_dynamic else \
            [s for s in powerful if s in fast_cpu] or fast_cpu
        for spec in pool:
            if plan.replica_count(item.path) >= critical_replicas:
                break
            plan.add_replica(item.path, spec.name)
    # dynamic content must stay on capable CPUs
    fast_names = {s.name for s in fast_cpu}
    for item in catalog.dynamic_items():
        bad = plan.locations[item.path] - fast_names
        if bad:
            keep = plan.locations[item.path] & fast_names
            if not keep:
                keep = _weighted_spread([item], fast_cpu)[item.path]
            plan.locations[item.path] = replica_set(keep)
    return plan


def partial_replication(plan: PlacementPlan, paths: Iterable[str],
                        nodes: Iterable[str]) -> PlacementPlan:
    """Replicate the given documents onto additional nodes (§1.2: "The
    administrator can replicate some critical content to multiple nodes")."""
    node_list = list(nodes)
    for path in paths:
        if path not in plan.locations:
            raise KeyError(f"plan has no document {path}")
        for node in node_list:
            plan.add_replica(path, node)
    return plan


def apply_plan(plan: PlacementPlan, catalog: SiteCatalog,
               servers: dict[str, BackendServer],
               nfs: Optional[NfsServer] = None,
               url_table: Optional[UrlTable] = None,
               doctree: Optional[DocTree] = None
               ) -> tuple[UrlTable, DocTree]:
    """Load a plan into backend stores, the URL table, and the doc tree."""
    plan.validate(catalog, servers.keys())
    if plan.uses_nfs:
        if nfs is None:
            raise ValueError("plan uses NFS but no NFS server given")
        nfs.export(catalog)
    url_table = url_table or UrlTable()
    doctree = doctree or DocTree()
    for item in catalog:
        nodes = plan.locations[item.path]
        if not plan.uses_nfs:
            for node in nodes:
                # dynamic content is installed (scripts), static is copied;
                # both occupy the node's store
                servers[node].place(item)
        url_table.insert(item, nodes)
        doctree.insert(item, nodes)
    return url_table, doctree
