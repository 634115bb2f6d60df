"""Gate-dominance analysis (GATE001-004): fixtures and mutation tests."""

import ast
import inspect

import pytest

from repro.analysis.deep import analyze_source
from repro.analysis.deep.gates import (GATES, _class_optional_attrs,
                                       analyze_gates)
from repro.core import conn_pool, failover, frontend, splicer
from repro.mgmt import controller, monitor


def codes(src: str) -> list[tuple[str, int]]:
    tree = ast.parse(src)
    return [(v.rule, v.line) for v in analyze_gates(tree, "fixture.py")]


# -- GATE001: tracer ---------------------------------------------------

TRACER_GUARDED = '''
class Node:
    def __init__(self, tracer=None):
        self.tracer = tracer
    def handle(self):
        if self.tracer is not None:
            self.tracer.point("a", "b")
'''


def test_gate001_unguarded_tracer_use():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        self.tracer.point('a', 'b')\n"
    ) == [("GATE001", 5)]


def test_gate001_guarded_is_clean():
    assert codes(TRACER_GUARDED) == []


def test_gate001_mutation_removing_guard_trips():
    """Deleting the dominating guard from a clean snippet fires GATE001."""
    mutated = TRACER_GUARDED.replace(
        "        if self.tracer is not None:\n    ", "    ")
    assert mutated != TRACER_GUARDED
    assert [c for c, _ in codes(mutated)] == ["GATE001"]


def test_gate001_alias_and_early_return():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        tracer = self.tracer\n"
        "        if tracer is None:\n"
        "            return\n"
        "        tracer.begin('s', 'x')\n"
    ) == []


def test_gate001_witness_variable():
    # span being non-None proves the tracer was non-None when it was made
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        span = None\n"
        "        if self.tracer is not None:\n"
        "            span = self.tracer.begin('s', 'x')\n"
        "        self.work()\n"
        "        if span is not None:\n"
        "            self.tracer.end(span)\n"
    ) == []


def test_gate001_not_optional_in_this_class():
    # a class that always constructs its tracer has no gate to check
    assert codes(
        "class Node:\n"
        "    def __init__(self):\n"
        "        self.tracer = Tracer()\n"
        "    def handle(self):\n"
        "        self.tracer.point('a', 'b')\n"
    ) == []


def test_gate001_boolop_inline_guard():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, ok):\n"
        "        if self.tracer is not None and ok:\n"
        "            self.tracer.point('a', 'b')\n"
    ) == []


def test_gate001_guard_inside_with_body():
    """The with-head node must scan only the context managers, not the
    body -- otherwise guarded uses inside the body are re-scanned with
    the with-entry facts and false-positive."""
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, pool):\n"
        "        with pool as p:\n"
        "            for item in p.work():\n"
        "                if self.tracer is not None:\n"
        "                    self.tracer.point('a', item)\n"
    ) == []


def test_gate001_unguarded_use_in_with_still_flagged():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, pool):\n"
        "        with pool as p:\n"
        "            self.tracer.point('a', 'b')\n"
    ) == [("GATE001", 6)]


def test_gate001_gate_use_in_context_manager_expr_flagged():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        with self.tracer.begin('s', 'x') as span:\n"
        "            pass\n"
    ) == [("GATE001", 5)]


def test_gate001_sim_tracer_copy_is_a_gate():
    """The observer idiom: a component copies the simulator's Optional
    slot once, and its tracer calls still need their guard."""
    guarded = ("class Node:\n"
               "    def __init__(self, sim):\n"
               "        self.tracer = sim.tracer\n"
               "    def handle(self):\n"
               "        if self.tracer is not None:\n"
               "            self.tracer.point('a', 'b')\n")
    assert codes(guarded) == []
    mutated = guarded.replace(
        "        if self.tracer is not None:\n    ", "    ")
    assert mutated != guarded
    assert codes(mutated) == [("GATE001", 5)]


@pytest.mark.parametrize("module, cls_name", [
    (frontend, "Frontend"),
    (conn_pool, "ConnectionPool"),
    (failover, "HaDistributorPair"),
    (splicer, "SplicingDistributor"),
    (controller, "Controller"),
    (monitor, "ClusterMonitor"),
])
def test_components_reading_sim_tracer_are_gated(module, cls_name):
    """Every component that copies ``sim.tracer`` keeps its tracer calls
    under GATE001."""
    tree = ast.parse(inspect.getsource(module))
    (cls,) = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == cls_name]
    assert "tracer" in _class_optional_attrs(cls)


# -- GATE002: overload control and friends -----------------------------

def test_gate002_unguarded_overload():
    assert codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def shed(self):\n"
        "        return self.overload.config.retry_after\n"
    ) == [("GATE002", 5)]


def test_gate002_conditional_expression_guard():
    assert codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def shed(self):\n"
        "        return (self.overload.config.retry_after\n"
        "                if self.overload is not None else 0.0)\n"
    ) == []


# -- GATE004: use under a known-None gate ------------------------------

def test_gate004_use_in_none_branch():
    found = codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def handle(self):\n"
        "        if self.overload is None:\n"
        "            self.overload.breakers.on_dispatch('b')\n")
    assert [c for c, _ in found] == ["GATE004"]


# -- registry ----------------------------------------------------------

def test_registry_is_one_table():
    attrs = [spec.attr for spec in GATES]
    assert "tracer" in attrs and "overload" in attrs
    assert len(attrs) == len(set(attrs))


def test_pragma_suppresses_gate_finding():
    src = ("class Node:\n"
           "    def __init__(self, tracer=None):\n"
           "        self.tracer = tracer\n"
           "    def handle(self):\n"
           "        self.tracer.point('a', 'b')  # det: allow[gate001]\n")
    assert analyze_source(src, "fixture.py") == []


# -- kernel telemetry plane gates (DESIGN §15) -------------------------

def test_kernel_stats_unguarded_hook_call_trips():
    found = codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def _enqueue(self, event):\n"
        "        self.kernel_stats.on_scheduled(event, 1)\n")
    assert [c for c, _ in found] == ["GATE002"]


def test_kernel_stats_alias_guard_is_clean():
    # the engine's actual idiom: snapshot to a local, guard, call
    assert codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def _enqueue(self, event):\n"
        "        ks = self.kernel_stats\n"
        "        if ks is not None:\n"
        "            ks.on_scheduled(event, 1)\n"
    ) == []


def test_kernel_stats_consumer_read_needs_no_guard():
    # report()/attribute reads are post-run consumer API, not hot hooks
    assert codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def summarize(self):\n"
        "        return self.kernel_stats.heap_high_water\n"
    ) == []


def test_telemetry_unguarded_on_event_trips():
    found = codes(
        "class Simulator:\n"
        "    def __init__(self):\n"
        "        self.telemetry = None\n"
        "    def step(self, when):\n"
        "        self.telemetry.on_event(when)\n")
    assert [c for c, _ in found] == ["GATE002"]


def test_telemetry_mutation_removing_guard_trips():
    good = ("class Simulator:\n"
            "    def __init__(self):\n"
            "        self.telemetry = None\n"
            "    def step(self, when):\n"
            "        tel = self.telemetry\n"
            "        if tel is not None:\n"
            "            tel.on_event(when)\n")
    assert codes(good) == []
    mutated = good.replace("        if tel is not None:\n"
                           "            tel.on_event(when)\n",
                           "        tel.on_event(when)\n")
    assert [c for c, _ in codes(mutated)] == ["GATE002"]


def test_telemetry_gates_registered():
    by_attr = {spec.attr: spec for spec in GATES}
    assert by_attr["kernel_stats"].api is not None
    assert "on_scheduled" in by_attr["kernel_stats"].api
    assert by_attr["telemetry"].api is not None
    assert "on_event" in by_attr["telemetry"].api
