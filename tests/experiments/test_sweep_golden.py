"""Golden sweep report: the checked-in ``specs/sweep_smoke.json`` matrix
must merge to exactly the committed fixture, byte for byte.

The sweep is seeded and deterministic, so this is an equality check, not
a tolerance band.  If a change legitimately moves the numbers, regenerate
the fixture and review the diff like any other behavioural change
(``make golden`` regenerates it with the other golden fixtures):

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/experiments/test_sweep_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.golden import diff_metrics
from repro.experiments.sweep import (SweepEngine, canonical_json, load_spec,
                                     merge_sweep)

pytestmark = pytest.mark.sweep

REPO = Path(__file__).resolve().parents[2]
SPEC = REPO / "specs" / "sweep_smoke.json"
FIXTURE = REPO / "tests" / "fixtures" / "sweep_smoke_report.json"


def test_smoke_sweep_matches_golden_report(tmp_path):
    spec = load_spec(SPEC)
    SweepEngine(spec, tmp_path, workers=2).run()
    report = merge_sweep(spec, tmp_path)
    actual = canonical_json(report)
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(actual, encoding="utf-8")
        return
    assert FIXTURE.exists(), (
        f"{FIXTURE} missing; regenerate with REPRO_UPDATE_GOLDEN=1")
    expected_bytes = FIXTURE.read_text(encoding="utf-8")
    if actual != expected_bytes:
        drift = diff_metrics(json.loads(expected_bytes), report)
        raise AssertionError(
            "sweep smoke report drifted (REPRO_UPDATE_GOLDEN=1 regenerates "
            "after review):\n  " + "\n  ".join(drift or
                                               ["<byte-level difference>"]))
