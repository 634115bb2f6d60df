"""Whole-program static analysis for the reproduction's contracts.

``repro check --deep`` runs three CFG-based passes over ``src/repro``:

* :mod:`gates` -- every use of an opt-in subsystem (tracer, overload
  control, loss injection, NFS, lifecycle hooks) is dominated by its
  gate check (GATE001, GATE002, GATE004).
* :mod:`leaks` -- acquire/release pairing for connection leases,
  mapping-table entries, and admission slots across exception and
  early-return paths (LEAK001-003).
* :mod:`staleness` -- shared-state handles that cross a yield and then
  mutate without revalidation; live-view iteration over a yield
  (YLD001-002).

All passes share :mod:`cfg` (per-function control-flow graphs with
exception edges, ``finally`` weaving, dominator/dataflow solving) and
:mod:`baseline` (pragmas, the checked-in baseline file, byte-stable
rendering).  See DESIGN.md section 12 for the model and the registration
recipe for new gated subsystems.
"""

from __future__ import annotations

from pathlib import Path

from ..violations import Violation
from .baseline import (apply_baseline, default_baseline_path, filter_pragmas,
                       load_baseline, render_jsonl, sort_violations)
from .cfg import build_cfg, conditions, dominators, solve
from .gates import GATES, GateSpec, analyze_gates
from .leaks import RESOURCES, ResourceSpec, analyze_leaks
from .staleness import analyze_staleness

__all__ = [
    "analyze_source", "analyze_file", "analyze_tree",
    "analyze_gates", "analyze_leaks", "analyze_staleness",
    "GATES", "GateSpec", "RESOURCES", "ResourceSpec",
    "build_cfg", "conditions", "dominators", "solve",
    "apply_baseline", "default_baseline_path", "load_baseline",
    "render_jsonl", "sort_violations",
]


def analyze_source(source: str, path: str) -> list[Violation]:
    """All three deep passes over one module's source, pragma-filtered."""
    import ast

    tree = ast.parse(source, filename=path)
    violations = (analyze_gates(tree, path)
                  + analyze_leaks(tree, path)
                  + analyze_staleness(tree, path))
    return sort_violations(filter_pragmas(violations, source))


def analyze_file(file_path: Path, rel_path: str) -> list[Violation]:
    return analyze_source(file_path.read_text(), rel_path)


def analyze_tree(root: Path) -> list[Violation]:
    """Deep-analyze every ``.py`` under ``root`` (sorted traversal).

    Paths in findings are repo-relative POSIX strings for the canonical
    ``src/repro`` layout, so reports are stable across machines.
    """
    root = root.resolve()
    if root.name == "repro" and root.parent.name == "src":
        base = root.parent.parent
    else:
        base = root
    violations: list[Violation] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(base).as_posix()
        violations.extend(analyze_file(path, rel))
    return sort_violations(violations)
