"""Smoke test of the benchmark suite.

Run with ``python -m pytest benchmarks/suite`` (about a minute).  Every
workload runs at smoke scale, twice, through the real command line; the
checks are on what the suite reports, never on host timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import run as suite  # noqa: E402


def _suite(*args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two full smoke invocations, as results files."""
    results = []
    for name in ("first.json", "second.json"):
        out = tmp_path_factory.mktemp("suite") / name
        proc = _suite("--smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
        with open(out, encoding="utf-8") as fh:
            results.append(json.load(fh)["workloads"])
    return results


def test_every_declared_metric_is_reported_with_its_unit(smoke_runs):
    spec = _spec()
    workloads = smoke_runs[0]
    assert sorted(workloads) == sorted(w["name"] for w in spec["workloads"])
    for name, entry in workloads.items():
        assert entry["correct"], (name, entry["problems"])
        for metric in spec["end_to_end"]:
            assert entry["e2e"][metric["name"]]["unit"] == metric["unit"]
        for metric in spec["per_layer"]:
            assert entry["layers"][metric["name"]]["unit"] == \
                metric["unit"], (name, metric["name"])


def test_traced_and_untraced_digests_match(smoke_runs):
    for name, entry in smoke_runs[0].items():
        assert set(entry["digests"]) == {"plain", "traced", "stats"}
        assert len(set(entry["digests"].values())) == 1, name


def test_layer_shares_sum_to_one(smoke_runs):
    for name, entry in smoke_runs[0].items():
        layers = entry["layers"]
        total = sum(layers[f"{layer}.share"]["value"]
                    for layer in ("sim", "net", "core", "cluster", "mgmt",
                                  "workload"))
        assert abs(total - 1.0) < 0.01, (name, total)


def test_two_smoke_runs_agree_exactly(smoke_runs):
    first, second = smoke_runs
    for name in first:
        a, b = first[name], second[name]
        assert a["digest"] == b["digest"], name
        assert a["ops"] == b["ops"], name
        for metric in suite.SIMULATED:
            assert a["e2e"][metric]["samples"] == \
                b["e2e"][metric]["samples"], (name, metric)
        counts = [m for m, v in a["layers"].items() if v["unit"] == "count"
                  and m not in ("trace.samples",)]
        assert counts
        for metric in counts:
            assert a["layers"][metric] == b["layers"][metric], (name, metric)


def test_contract_line_holds_exactly_the_declared_metrics():
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _suite("--workload", "splice_openloop", "--seed", "7",
                      "--seconds", "0.1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_compare_flags_a_regression_beyond_the_bound():
    def results(median, samples, failed=0):
        e2e = {"sim_req_per_ref_s": {"median": median, "min": min(samples),
                                     "max": max(samples), "n": len(samples),
                                     "samples": samples}}
        return {"workloads": {"w": {"e2e": e2e, "digest": "d" * 16,
                                    "ops": {"attempted": 100,
                                            "failed": failed}}}}

    bounds = {"sim_req_per_ref_s": 0.2}
    base = results(1000.0, [990.0, 1000.0, 1010.0])
    rows, regressed = suite.compare(base, base, bounds)
    assert not regressed
    assert {r[-1] for r in rows} == {"unchanged"}
    slower = results(500.0, [495.0, 500.0, 505.0])
    rows, regressed = suite.compare(base, slower, bounds)
    assert regressed and rows[0][-1] == "regressed"
    noisy = results(1000.0, [600.0, 1000.0, 1400.0])
    rows, regressed = suite.compare(base, noisy, bounds)
    assert not regressed and rows[0][-1] == "unresolved"
    rows, regressed = suite.compare(base, results(1000.0, [990.0, 1000.0,
                                                           1010.0], 1),
                                    bounds)
    assert regressed


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits nonzero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "suite" / "run.py"),
         "--workload", "static_partition", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
