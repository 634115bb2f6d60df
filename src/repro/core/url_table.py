"""The URL table: the distributor's content-location directory.

§2.2: "Based on the content requested, the distributor consults an internal
data structure called URL table to select the server that is best suited to
this request.  The URL table holds content-related information (e.g.,
location of the document, document sizes, priority, hits, etc.)."

§5.2: "we implemented the URL table as a multi-level hash table, in which
each level corresponds to a level in the content tree. ... we also
implemented a mechanism to cache recently accessed entries, which is a
proven technique for demultiplexing speedup."  At the authors' site scale
(~8 700 objects) the table consumed ~260 KB and lookups averaged 4.32 us.

This module reproduces that structure exactly: a tree of per-directory hash
tables, one level per path segment, with an LRU cache of recently resolved
full URLs in front of it, plus an analytic memory-footprint estimator that
the §5.2 benchmark reports.

A record's ``locations`` is a shared, immutable replica set
(:func:`repro.content.replica_set`): records of documents held by the
same nodes hold the same ``frozenset``, shared with the document tree
and the placement plan, so the Python-side table stays close to the
paper's per-object cost.  :meth:`UrlTable.add_location` and
:meth:`UrlTable.remove_location` assign the set for the new value;
nothing mutates a record's set in place.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Iterable, Iterator

from ..content import ContentItem, Priority, replica_set
from ..net.http import split_path

__all__ = ["UrlRecord", "UrlTable", "UrlTableError"]


class UrlTableError(Exception):
    """Invalid URL-table operation (unknown path, duplicate insert, ...)."""


@dataclasses.dataclass(slots=True)
class UrlRecord:
    """One content entry: everything the distributor needs per document."""

    item: ContentItem
    #: the shared replica set (assigned on change, never mutated)
    locations: frozenset[str]
    hits: int = 0

    @property
    def path(self) -> str:
        return self.item.path

    @property
    def size_bytes(self) -> int:
        return self.item.size_bytes

    @property
    def priority(self) -> Priority:
        return self.item.priority


class _Level:
    """One directory level: a hash table over child names."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: dict[str, "_Level | UrlRecord"] = {}


class UrlTable:
    """Multi-level hash table over URL paths with an entry cache."""

    def __init__(self, cache_entries: int = 512):
        if cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        self._root = _Level()
        self._count = 0
        self._cache_capacity = cache_entries
        self._cache: OrderedDict[str, UrlRecord] = OrderedDict()
        # instrumentation (what §5.2 measures)
        self.lookups = 0
        self.cache_hits = 0
        self.levels_touched = 0
        #: bumped on every mutation; lets a backup distributor sync cheaply
        self.version = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, url: str) -> bool:
        try:
            self._find(split_path(url))
            return True
        except UrlTableError:
            return False

    # -- mutation --------------------------------------------------------
    def insert(self, item: ContentItem, locations: Iterable[str]) -> UrlRecord:
        """Register a document and the nodes holding it."""
        nodes = replica_set(locations)
        if not nodes:
            raise UrlTableError(f"{item.path}: a document needs >=1 location")
        segments = split_path(item.path)
        if not segments:
            raise UrlTableError("cannot insert the root path")
        level = self._root
        for seg in segments[:-1]:
            child = level.children.get(seg)
            if child is None:
                child = _Level()
                level.children[seg] = child
            elif isinstance(child, UrlRecord):
                raise UrlTableError(
                    f"{item.path}: {seg!r} is a document, not a directory")
            level = child
        leaf = segments[-1]
        if leaf in level.children:
            raise UrlTableError(f"duplicate document {item.path}")
        record = UrlRecord(item=item, locations=nodes)
        level.children[leaf] = record
        self._count += 1
        self.version += 1
        return record

    def remove(self, url: str) -> UrlRecord:
        """Delete a document entry (and prune empty directory levels)."""
        segments = split_path(url)
        if not segments:
            raise UrlTableError("cannot remove the root path")
        trail: list[tuple[_Level, str]] = []
        level = self._root
        for seg in segments[:-1]:
            child = level.children.get(seg)
            if not isinstance(child, _Level):
                raise UrlTableError(f"no such document {url}")
            trail.append((level, seg))
            level = child
        leaf = segments[-1]
        record = level.children.get(leaf)
        if not isinstance(record, UrlRecord):
            raise UrlTableError(f"no such document {url}")
        del level.children[leaf]
        self._count -= 1
        self._cache.pop(url, None)
        # prune now-empty intermediate levels
        for parent, seg in reversed(trail):
            child = parent.children[seg]
            if isinstance(child, _Level) and not child.children:
                del parent.children[seg]
            else:
                break
        self.version += 1
        return record

    def add_location(self, url: str, node: str) -> UrlRecord:
        """Record a new replica (after the controller copies content)."""
        record = self._find(split_path(url))
        record.locations = replica_set(record.locations | {node})
        self.version += 1
        return record

    def remove_location(self, url: str, node: str) -> UrlRecord:
        """Drop a replica; refuses to drop the last copy."""
        record = self._find(split_path(url))
        if node not in record.locations:
            raise UrlTableError(f"{url} has no copy on {node}")
        if len(record.locations) == 1:
            raise UrlTableError(
                f"{url}: refusing to remove the last copy (on {node})")
        record.locations = replica_set(record.locations - {node})
        self.version += 1
        return record

    # -- lookup ----------------------------------------------------------
    def _find(self, segments: tuple[str, ...]) -> UrlRecord:
        node: "_Level | UrlRecord" = self._root
        for seg in segments:
            if isinstance(node, UrlRecord):
                break
            nxt = node.children.get(seg)
            if nxt is None:
                raise UrlTableError("/" + "/".join(segments))
            node = nxt
        if not isinstance(node, UrlRecord):
            raise UrlTableError("/" + "/".join(segments))
        return node

    def lookup(self, url: str) -> UrlRecord:
        """Resolve a request URL to its record (counting the hit).

        Checks the recently-accessed entry cache first; on a cache miss,
        walks one hash level per path segment and caches the result.
        Raises :class:`UrlTableError` for unknown documents.
        """
        self.lookups += 1
        cached = self._cache.get(url)
        if cached is not None:
            self._cache.move_to_end(url)
            self.cache_hits += 1
            cached.hits += 1
            return cached
        segments = split_path(url)
        self.levels_touched += len(segments)
        record = self._find(segments)
        record.hits += 1
        if self._cache_capacity:
            self._cache[url] = record
            if len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
        return record

    def lookup_cost_levels(self, url: str) -> int:
        """How many hash levels a (cache-miss) lookup of ``url`` touches."""
        return len(split_path(url))

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.lookups if self.lookups else 0.0

    # -- iteration / reporting ---------------------------------------------
    def records(self) -> Iterator[UrlRecord]:
        stack: list[_Level] = [self._root]
        while stack:
            level = stack.pop()
            # deliberately a live generator: callers (top_by_hits, sweep
            # candidates) materialize it immediately and never yield to
            # the simulator mid-iteration
            for child in level.children.values():  # det: allow[yld002]
                if isinstance(child, UrlRecord):
                    yield child
                else:
                    stack.append(child)

    def top_by_hits(self, n: int) -> list[UrlRecord]:
        """The hottest documents (drives auto-replication candidate choice)."""
        return sorted(self.records(), key=lambda r: r.hits, reverse=True)[:n]

    def locations(self, url: str) -> set[str]:
        return set(self._find(split_path(url)).locations)

    def record(self, url: str) -> UrlRecord:
        """Resolve a path *without* counting a hit (management-plane
        reads must not perturb the hit counters §3.3 replication acts
        on)."""
        return self._find(split_path(url))

    def sync_from(self, other: "UrlTable") -> bool:
        """Replicate another table's content into this one (backup state
        replication, §2.3).  Returns True if anything changed; a no-op when
        versions already match, so heartbeat-driven syncs are cheap."""
        if self.version == other.version and len(self) == len(other):
            return False
        self._root = _Level()
        self._count = 0
        self._cache.clear()
        for record in other.records():
            self.insert(record.item, record.locations)
        self.version = other.version
        return True

    def memory_footprint_bytes(self) -> int:
        """Estimate of the table's memory use, as a C implementation in the
        kernel would pay it (the paper reports ~260 KB for 8 700 objects,
        i.e. ~30 B/object):

        * per directory level: a small hash header,
        * per child slot: pointer + hashed-name cost,
        * per record: sizes/priority/hits fields plus location list.
        """
        LEVEL_HEADER = 16
        SLOT = 12
        RECORD = 16
        PER_LOCATION = 2
        total = 0
        stack: list[_Level] = [self._root]
        while stack:
            level = stack.pop()
            total += LEVEL_HEADER + SLOT * len(level.children)
            for child in level.children.values():
                if isinstance(child, UrlRecord):
                    total += RECORD + PER_LOCATION * len(child.locations)
                else:
                    stack.append(child)
        return total
