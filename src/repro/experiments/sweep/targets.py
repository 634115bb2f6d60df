"""Run targets: the existing evidence harnesses, callable per sweep cell.

Each target is a pure function ``params -> result dict``.  The result
must be JSON-serialisable, deterministic (a function of the params
alone), and free of wall-clock quantities -- it is hashed into the
artifact digest and compared byte-for-byte across worker counts and
``PYTHONHASHSEED`` values.  Every result carries uniform ``completed``
and ``errors`` counters so the merge step can aggregate across targets,
plus a ``survived`` flag where the harness defines one.

Targets reuse the one-at-a-time harnesses unchanged -- a cell run under
the sweep produces exactly the artifact the direct harness produces
(``tests/experiments/test_sweep_equivalence.py`` pins this).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .spec import SweepError

__all__ = ["TARGETS", "run_target", "reset_process_counters", "jsonify"]


def reset_process_counters() -> None:
    """Rewind the process-wide id counters before every run.

    Request/dispatch/connection ids are labels drawn from module-level
    counters, so two runs in one worker process would otherwise label
    their traffic differently from the same runs split across two
    workers.  Resetting them before each run makes every artifact a pure
    function of its cell -- independent of which worker ran it, and of
    how many cells that worker ran first.
    """
    from ...core import conn_pool, frontend
    from ...mgmt import messages
    from ...net import http

    http._request_ids = itertools.count(1)
    messages._dispatch_ids = itertools.count(1)
    conn_pool._conn_ids = itertools.count(1)
    frontend._client_ports = itertools.count(40000)


def jsonify(obj: Any) -> Any:
    """Deterministic JSON projection of a harness result.

    Numbers, strings, bools, and ``None`` pass through; mappings get
    string keys; tuples/lists/sets become lists (sets sorted by their
    rendered form); anything else falls back to ``repr``.
    """
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        converted = {str(key): jsonify(value) for key, value in obj.items()}
        if len(converted) != len(obj):
            raise SweepError(f"result mapping keys collide after str(): "
                             f"{sorted(converted)}")
        return converted
    if isinstance(obj, (list, tuple)):
        return [jsonify(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((jsonify(item) for item in obj), key=repr)
    return repr(obj)


def _check_params(target: str, params: dict, required: frozenset[str],
                  optional: frozenset[str]) -> None:
    missing = sorted(required - set(params))
    if missing:
        raise SweepError(f"target {target!r}: missing parameters {missing}")
    unknown = sorted(set(params) - required - optional)
    if unknown:
        raise SweepError(f"target {target!r}: unknown parameters {unknown} "
                         f"(allowed: {sorted(required | optional)})")


# -- experiment cell: one scheme x workload x client-count point ------------

_CELL_REQUIRED = frozenset({"seed", "clients"})
_CELL_OPTIONAL = frozenset({"scheme", "workload", "duration", "warmup",
                            "n_objects", "n_client_machines", "prewarm"})


def _target_cell(params: dict) -> dict:
    from ...workload import WORKLOAD_A, WORKLOAD_B
    from ..testbed import ExperimentConfig, build_deployment
    _check_params("cell", params, _CELL_REQUIRED, _CELL_OPTIONAL)
    workloads = {"A": WORKLOAD_A, "B": WORKLOAD_B}
    workload_name = params.get("workload", "A")
    if workload_name not in workloads:
        raise SweepError(f"target 'cell': unknown workload "
                         f"{workload_name!r} (pick from "
                         f"{sorted(workloads)})")
    config = ExperimentConfig(
        scheme=params.get("scheme", "partition-ca"),
        workload=workloads[workload_name],
        seed=params["seed"],
        n_objects=params.get("n_objects"),
        warmup=params.get("warmup", 2.0),
        duration=params.get("duration", 8.0),
        n_client_machines=params.get("n_client_machines", 24),
        prewarm=params.get("prewarm", True))
    summary = build_deployment(config).run(params["clients"])
    return {"completed": summary["completed"],
            "errors": summary["errors"],
            "summary": jsonify(summary)}


# -- chaos: N seeded fault-injection episodes -------------------------------

_CHAOS_REQUIRED = frozenset({"seed"})
_CHAOS_OPTIONAL = frozenset({"episodes", "duration", "clients", "n_objects",
                             "settle", "extra_faults", "telemetry"})


def _target_chaos(params: dict) -> dict:
    from ..chaos import ChaosRunner
    _check_params("chaos", params, _CHAOS_REQUIRED, _CHAOS_OPTIONAL)
    telemetry = params.get("telemetry")
    runner = ChaosRunner(
        seed=params["seed"],
        episodes=params.get("episodes", 1),
        duration=params.get("duration", 6.0),
        clients=params.get("clients", 10),
        n_objects=params.get("n_objects", 300),
        settle=params.get("settle", 2.5),
        extra_faults=params.get("extra_faults", 2),
        telemetry=telemetry)
    runner.run()
    episodes = [{"episode": r.episode,
                 "survived": r.survived,
                 "completed": r.completed,
                 "errors": r.errors,
                 "retries": r.retries,
                 "failed_over": r.failed_over,
                 "reconciled": r.reconciled,
                 "schedule": r.schedule.describe()}
                for r in runner.results]
    out = {"completed": sum(e["completed"] for e in episodes),
           "errors": sum(e["errors"] for e in episodes),
           "survived": runner.all_survived,
           "episodes": episodes,
           "report": runner.report()}
    if telemetry is not None:
        # additive keys: only cells that opt into telemetry carry them,
        # so specs without it keep byte-identical artifacts and digests
        out["slo"] = jsonify([res for r in runner.results
                              for res in r.slo_results])
        out["slo_ok"] = all(r.slo_ok for r in runner.results)
        out["telemetry"] = jsonify([r.telemetry_summary
                                    for r in runner.results])
    return out


# -- overload: the flash-crowd + slow-disk graceful-degradation episode -----

_OVERLOAD_REQUIRED = frozenset({"seed"})
_OVERLOAD_OPTIONAL = frozenset({"duration", "clients", "n_objects", "settle",
                                "multiplier", "enabled", "telemetry"})


def _target_overload(params: dict) -> dict:
    from ..chaos import run_overload_episode
    _check_params("overload", params, _OVERLOAD_REQUIRED, _OVERLOAD_OPTIONAL)
    telemetry = params.get("telemetry")
    result = run_overload_episode(
        seed=params["seed"],
        duration=params.get("duration", 6.0),
        clients=params.get("clients", 10),
        n_objects=params.get("n_objects", 300),
        settle=params.get("settle", 2.5),
        multiplier=params.get("multiplier", 4.0),
        enabled=params.get("enabled", True),
        telemetry=telemetry)
    out = {"completed": result.completed,
           "errors": result.errors,
           "survived": result.survived,
           "enabled": result.enabled,
           "error_statuses": jsonify(result.error_statuses),
           "shed": result.shed,
           "degraded": result.degraded,
           "timeouts": result.timeouts,
           "replica_retries": result.replica_retries,
           "budget_denied": result.budget_denied,
           "peak_inflight": result.admission_peak_inflight,
           "peak_queue": result.admission_peak_queue,
           "raw_peak_inflight": result.raw_peak_inflight,
           "breaker_opened": result.breaker_opened,
           "breaker_reclosed": result.breaker_reclosed,
           "report": result.report()}
    if telemetry is not None:
        # additive keys, same contract as the chaos target above
        out["slo"] = jsonify(result.slo_results)
        out["slo_ok"] = result.slo_ok
        out["telemetry"] = jsonify(result.telemetry.summary())
    return out


# -- recover: exhaustive crash-point exploration (DESIGN §14) ---------------

_RECOVER_REQUIRED = frozenset({"seed"})
_RECOVER_OPTIONAL = frozenset({"offset", "limit", "restart_delay",
                               "n_objects", "checkpoint_every"})


def _target_recover(params: dict) -> dict:
    """Crash the controller at every WAL/dispatch boundary of the scripted
    management episode; ``offset``/``limit`` shard the boundary space so a
    sweep can fan the exploration across workers."""
    from ...chaos import explore_crash_points
    from ..recovery import recovery_episode_fn
    _check_params("recover", params, _RECOVER_REQUIRED, _RECOVER_OPTIONAL)
    episode = recovery_episode_fn(
        params["seed"],
        n_objects=params.get("n_objects", 60),
        restart_delay=params.get("restart_delay", 0.6),
        checkpoint_every=params.get("checkpoint_every", 24))
    report = explore_crash_points(episode,
                                  offset=params.get("offset", 0),
                                  limit=params.get("limit"))
    converged = sum(1 for e in report["explored"] if e["converged"])
    return {"completed": converged,
            "errors": len(report["failures"]),
            "survived": report["all_converged"],
            "boundaries": report["boundaries"],
            "coverage": jsonify(report["coverage"]),
            "failures": jsonify(report["failures"]),
            "explored": jsonify(report["explored"])}


# -- openloop: the packet-level open-loop splice run (digest only) ----------

_OPENLOOP_REQUIRED = frozenset({"seed"})
_OPENLOOP_OPTIONAL = frozenset({"rate", "duration", "prefork", "mss"})


def _target_openloop(params: dict) -> dict:
    from ..openloop import run_openloop_splice
    _check_params("openloop", params, _OPENLOOP_REQUIRED, _OPENLOOP_OPTIONAL)
    out = run_openloop_splice(
        rate=params.get("rate", 400.0),
        duration=params.get("duration", 2.0),
        seed=params["seed"],
        prefork=params.get("prefork", 8),
        mss=params.get("mss", 1460))
    return {"completed": out["requests"],
            "errors": 0,
            "digest": out["digest"],
            "events": out["events"],
            "flow_forwards": out["flow_forwards"],
            "sim_seconds": out["sim_seconds"]}


TARGETS: dict[str, Callable[[dict], dict]] = {
    "cell": _target_cell,
    "chaos": _target_chaos,
    "overload": _target_overload,
    "openloop": _target_openloop,
    "recover": _target_recover,
}


def run_target(target: str, params: dict) -> dict:
    """Reset process-global counters, then run one target."""
    if target not in TARGETS:
        raise SweepError(f"unknown target {target!r}; "
                         f"pick from {sorted(TARGETS)}")
    reset_process_counters()
    return TARGETS[target](params)
