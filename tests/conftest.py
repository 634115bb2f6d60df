"""Fixtures shared by the tests that pin a run's output byte for byte."""

import hashlib

import pytest

from repro.core import conn_pool, frontend
from repro.experiments.sweep.targets import reset_process_counters
from repro.mgmt import messages
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
