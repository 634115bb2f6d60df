"""Parallel sweep engine with deterministic merge (DESIGN.md §13).

A :class:`SweepSpec` describes a matrix of simulation runs -- seed
ranges, workload scales, policy knobs, chaos schedules -- over the
existing evidence harnesses (experiment cells, chaos episodes, the
overload episode, the open-loop splice run).  The engine
expands the matrix into a deterministic run list, fans it across
``multiprocessing`` worker processes, writes one content-addressed JSON
artifact per run, and merges the artifacts into a single byte-stable
sweep report that is independent of worker count, completion order, and
``PYTHONHASHSEED``.  Completed artifacts are detected and skipped on
``resume=True``, so an interrupted sweep continues where it stopped and
the resumed report is identical to an uninterrupted one.
"""

from .engine import (ARTIFACT_SCHEMA_VERSION, SweepEngine, SweepStatus,
                     execute_cell, load_artifact, runs_dir, sweep_dir,
                     write_artifact)
from .merge import (REPORT_SCHEMA_VERSION, compare_reports, merge_sweep,
                    render_compare, render_report, write_report)
from .spec import (MatrixBlock, RunCell, SPEC_SCHEMA_VERSION, SweepError,
                   SweepSpec, canonical_json, load_spec, sha256_hex,
                   short_hash, spec_from_dict)
from .targets import TARGETS, jsonify, reset_process_counters, run_target

__all__ = [
    "SweepError", "SweepSpec", "MatrixBlock", "RunCell",
    "SPEC_SCHEMA_VERSION", "ARTIFACT_SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSION",
    "canonical_json", "sha256_hex", "short_hash",
    "load_spec", "spec_from_dict",
    "SweepEngine", "SweepStatus", "execute_cell", "load_artifact",
    "write_artifact", "sweep_dir", "runs_dir",
    "merge_sweep", "write_report", "render_report",
    "compare_reports", "render_compare",
    "TARGETS", "jsonify", "reset_process_counters", "run_target",
]
