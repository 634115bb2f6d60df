"""Subsystem attribution of source paths and process-resource helpers.

``classify_path`` buckets a source file into a repository subsystem
(sim kernel / net / splicer / cluster / ...), which names the call sites
in :class:`~repro.obs.telemetry.KernelStats` reports.  Attribution is
purely lexical: the path segment after the ``repro`` package root names
the subsystem, with the splicer split out of ``core`` because it is the
packet path's hot spot.  Everything outside the package is ``stdlib``
(interpreter / standard library) or ``other``.

``peak_rss_kb`` reads the process high-water RSS.  It is host-dependent
by nature, so it never feeds a deterministic export -- the ``repro top``
dashboard and opt-in host telemetry only.
"""

from __future__ import annotations

import sys

__all__ = ["SUBSYSTEMS", "classify_path", "peak_rss_kb"]

#: package directories that name their own attribution bucket
SUBSYSTEMS = ("sim", "net", "core", "splicer", "cluster", "mgmt", "obs",
              "chaos", "workload", "content", "experiments", "analysis")

_PACKAGE_DIRS = frozenset(SUBSYSTEMS) - {"splicer"}


def classify_path(path: str) -> str:
    """Map a source-file path to its attribution bucket.

    ``.../repro/core/splicer.py`` -> ``splicer`` (the hot path gets its
    own bucket), ``.../repro/sim/engine.py`` -> ``sim``, top-level
    package modules -> ``repro``, test files -> ``tests``, interpreter
    builtins and standard-library files -> ``stdlib``, anything else ->
    ``other``.
    """
    norm = path.replace("\\", "/")
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx >= 0:
        rest = norm[idx + len(marker):]
        if rest.startswith("core/splicer"):
            return "splicer"
        head = rest.split("/", 1)[0]
        if head in _PACKAGE_DIRS:
            return head
        return "repro"
    if "/tests/" in norm or norm.startswith("tests/"):
        return "tests"
    if norm in ("~", "") or norm.startswith("<"):
        # pstats uses "~" for C builtins and "<...>" for synthetic code
        return "stdlib"
    prefix = sys.prefix.replace("\\", "/")
    if norm.startswith(prefix) or "/lib/python" in norm:
        return "stdlib"
    return "other"


def peak_rss_kb() -> int:
    """Process peak resident-set size in KiB (0 where unsupported).

    Host-dependent: report it, never pin it.  Linux reports ru_maxrss in
    KiB already; macOS reports bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-posix platforms
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - host-specific
        rss //= 1024
    return int(rss)
