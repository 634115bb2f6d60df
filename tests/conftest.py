"""Fixtures shared by the tests that pin a run's output byte for byte."""

import hashlib
import json

import pytest

from repro.core import conn_pool, frontend
from repro.experiments.sweep.targets import reset_process_counters
from repro.mgmt import Controller, messages
from repro.mgmt.durability import snapshot_records
from repro.net import http
from repro.obs import to_jsonl
from repro.obs.tracer import Tracer

#: module-level id counters that label trace attributes
COUNTERS = [(http, "_request_ids"), (messages, "_dispatch_ids"),
            (conn_pool, "_conn_ids"), (frontend, "_client_ports")]


@pytest.fixture
def fresh_counters(monkeypatch):
    """Start every run from rewound id counters, and put the process's
    own counters back afterwards."""
    for module, name in COUNTERS:
        monkeypatch.setattr(module, name, getattr(module, name))
    reset_process_counters()


@pytest.fixture
def trace_digests(monkeypatch):
    """Collect every :class:`~repro.obs.Tracer` built during the test;
    the returned function gives the sha256 of each one's JSONL export,
    in construction order."""
    built = []
    init = Tracer.__init__

    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tracer, "__init__", collect)
    return lambda: [hashlib.sha256(to_jsonl(t).encode()).hexdigest()
                    for t in built]


@pytest.fixture
def table_digests(monkeypatch):
    """Collect every :class:`~repro.mgmt.Controller` built during the
    test; the returned function gives the sha256 of each one's URL table,
    document tree and operation log as they stand, in construction
    order."""
    built = []
    init = Controller.__init__

    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def state(controller) -> str:
        return json.dumps({
            "records": snapshot_records(controller.url_table),
            "version": controller.url_table.version,
            "tree": controller.doctree.render("/", max_entries=10**6),
            "log": controller.log,
        }, sort_keys=True)

    monkeypatch.setattr(Controller, "__init__", collect)
    return lambda: [hashlib.sha256(state(c).encode()).hexdigest()
                    for c in built]
