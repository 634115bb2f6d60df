"""Layer boundaries of the traced run.

:data:`SPANS` names every ``repro`` function the traced run wraps (to
count its calls) and the span its samples count toward;
:data:`ATTRIBUTED` names functions whose samples count toward a span
without a wrapper, for calls too cheap and too frequent to wrap.
:func:`install` applies both.  A span's layer is the part of its name
before the first dot (see :mod:`metrics`).  A boundary that a refactor
removed is reported as missing, not guessed.
"""

from __future__ import annotations

import sys

from repro.cluster import BackendServer, Cpu, Disk, LruCache
from repro.core import (AdmissionController, AutoReplicator, ConnectionPool,
                        ContentAwareDistributor, Frontend, L4Router,
                        LardRouter, MappingTable, SplicingDistributor,
                        UrlTable)
from repro.experiments import build_deployment
from repro.mgmt import (ClusterMonitor, Controller, ControllerDurability,
                        ControllerWal, CopyAgent, DeleteAgent,
                        InventoryAgent, RenameAgent, StatusAgent,
                        UpdateAgent, VerifyAgent)
from repro.net import Lan, Network, TcpSocket
from repro.sim import Resource, SimEvent, Simulator, Store
from repro.workload import RequestSampler, WebBenchClient, WebBenchRig

__all__ = ["SPANS", "ATTRIBUTED", "SETUP_SPANS", "install"]

#: sampled without a wrapper: (owner, attribute names, span name)
ATTRIBUTED = [
    (Simulator, ("timeout", "hot_timeout", "hot_timeout_at", "schedule",
                 "event", "process", "any_of", "all_of", "hot_any_of",
                 "recycle_any_of"), "sim.schedule"),
    (SimEvent, ("succeed", "fail"), "sim.schedule"),
    (Resource, ("request", "try_acquire", "release", "hold_segmented",
                "utilization"), "sim.resource"),
    (Store, ("put", "get", "try_get", "cancel_get"), "sim.resource"),
    (WebBenchClient, ("_run",), "workload.client"),
]

#: wrapped and sampled: (owner, attribute names, span name)
SPANS = [
    (Lan, ("transfer",), "net.lan_transfer"),
    (TcpSocket, ("send", "send_data"), "net.tcp_send"),
    (TcpSocket, ("connect", "close", "abort"), "net.tcp_conn"),
    (Frontend, ("submit",), "core.submit"),
    (ContentAwareDistributor, ("route",), "core.route"),
    (L4Router, ("route",), "core.route"),
    (LardRouter, ("route",), "core.route"),
    (UrlTable, ("lookup",), "core.url_lookup"),
    (UrlTable, ("insert", "remove", "add_location", "remove_location"),
     "core.url_write"),
    (MappingTable, ("create", "transition", "bind", "close", "delete",
                    "abort"), "core.mapping"),
    (ConnectionPool, ("acquire", "try_acquire", "release"), "core.pool"),
    (AdmissionController, ("admit", "release"), "core.admission"),
    (AutoReplicator, ("rebalance_once",), "core.rebalance"),
    (BackendServer, ("serve",), "cluster.serve"),
    (Cpu, ("run", "run_pair"), "cluster.cpu"),
    (Disk, ("read", "write"), "cluster.disk"),
    (LruCache, ("access", "admit", "invalidate"), "cluster.cache"),
    (Controller, ("execute",), "mgmt.execute"),
    (Controller, ("place", "replicate", "offload", "remove_document",
                  "rename_document", "update_content", "status_all",
                  "audit", "reconcile_node", "verify_placement"), "mgmt.op"),
    (CopyAgent, ("execute",), "mgmt.agent"),
    (DeleteAgent, ("execute",), "mgmt.agent"),
    (InventoryAgent, ("execute",), "mgmt.agent"),
    (RenameAgent, ("execute",), "mgmt.agent"),
    (StatusAgent, ("execute",), "mgmt.agent"),
    (UpdateAgent, ("execute",), "mgmt.agent"),
    (VerifyAgent, ("execute",), "mgmt.agent"),
    (ClusterMonitor, ("sweep_once",), "mgmt.monitor"),
    (ControllerWal, ("append",), "mgmt.wal_append"),
    (ControllerDurability, ("take_checkpoint",), "mgmt.checkpoint"),
    (RequestSampler, ("request",), "workload.sample"),
    (WebBenchRig, ("record_completion", "record_error"), "workload.record"),
]

#: set-up functions, patched where the testbed module binds them
SETUP_SPANS = [
    ("generate_catalog", "content.catalog"),
    ("partition_by_type", "core.placement"),
    ("full_replication", "core.placement"),
    ("shared_nfs", "core.placement"),
    ("apply_plan", "core.placement"),
]


def install(tracer) -> list[str]:
    """Apply :data:`SPANS`, :data:`ATTRIBUTED` and :data:`SETUP_SPANS`;
    returns the boundaries that no longer exist."""
    missing = []
    for table, apply in ((SPANS, tracer.patch),
                         (ATTRIBUTED, tracer.attribute)):
        for owner, attrs, name in table:
            for attr in attrs:
                if not apply(owner, attr, name):
                    missing.append(f"{owner.__name__}.{attr}")
    testbed = sys.modules[build_deployment.__module__]
    for attr, name in SETUP_SPANS:
        if not tracer.patch(testbed, attr, name):
            missing.append(f"{testbed.__name__}.{attr}")
    register = Network.register

    def traced_register(net, ip, handler):
        owner = getattr(handler, "__self__", None)
        name = ("core.splice" if isinstance(owner, SplicingDistributor)
                else "net.deliver")
        return register(net, ip, tracer.wrap(handler, name))

    Network.register = traced_register
    return missing
