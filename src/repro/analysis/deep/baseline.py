"""Pragmas, baseline file, and deterministic rendering for deep checks.

Suppression has two layers, mirroring the determinism linter:

* **Pragmas** -- a trailing ``# det: allow[tag]`` on the flagged line.
  Accepted tags: the exact rule code (``gate001``), the rule family
  (``gate``/``leak``/``yld``), ``deep``, or ``*``.
* **Baseline** -- a checked-in sorted file of rendered findings
  (``deep-baseline.txt`` at the repo root).  Findings present in the
  baseline are not *new* and do not fail the build; the file is kept
  empty on purpose -- real findings get fixed, not baselined -- but the
  mechanism exists so a future justified exception is one reviewed line,
  not a disabled rule.

All output is sorted on (path, line, rule, message) and serialized with
sorted keys, so reports are byte-identical across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..violations import Violation

__all__ = [
    "PRAGMA", "allowed_tags", "suppressed", "filter_pragmas",
    "load_baseline", "apply_baseline", "default_baseline_path",
    "render_jsonl", "sort_violations",
]

PRAGMA = re.compile(r"det:\s*allow\[([^\]]*)\]")


def allowed_tags(rule: str) -> frozenset[str]:
    """Pragma tags that suppress ``rule`` (e.g. GATE001)."""
    family = rule.rstrip("0123456789").lower()
    return frozenset({rule.lower(), family, "deep", "*"})


def suppressed(violation: Violation, source_lines: list[str]) -> bool:
    if not (1 <= violation.line <= len(source_lines)):
        return False
    match = PRAGMA.search(source_lines[violation.line - 1])
    if match is None:
        return False
    tags = {t.strip().lower() for t in match.group(1).split(",")}
    return bool(tags & allowed_tags(violation.rule))


def filter_pragmas(violations: list[Violation],
                   source: str) -> list[Violation]:
    lines = source.splitlines()
    return [v for v in violations if not suppressed(v, lines)]


def sort_violations(violations: list[Violation]) -> list[Violation]:
    return sorted(set(violations),
                  key=lambda v: (v.path, v.line, v.rule, v.message))


def default_baseline_path(root: Path) -> Path:
    """``deep-baseline.txt`` at the repo root for the canonical
    ``src/repro`` layout, else next to the analyzed tree."""
    root = root.resolve()
    if root.name == "repro" and root.parent.name == "src":
        return root.parent.parent / "deep-baseline.txt"
    return root / "deep-baseline.txt"


def load_baseline(path: Path) -> frozenset[str]:
    """Rendered finding lines accepted as pre-existing."""
    if not path.exists():
        return frozenset()
    entries = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return frozenset(entries)


def apply_baseline(violations: list[Violation],
                   baseline: frozenset[str]) -> list[Violation]:
    return [v for v in violations if str(v) not in baseline]


def render_jsonl(violations: list[Violation]) -> str:
    """One JSON object per finding, keys sorted -- byte-stable."""
    lines = []
    for v in sort_violations(violations):
        lines.append(json.dumps(
            {"rule": v.rule, "path": v.path, "line": v.line,
             "message": v.message, "pass": v.pass_name},
            sort_keys=True))
    return "\n".join(lines)
