"""§2.3 ablation: primary/backup distributor failover under load.

"If the primary distributor fails, the backup takes over the job of the
primary..."  We crash the primary mid-run: clients see connection errors
for exactly the detection window (misses x heartbeat interval), then the
backup -- whose URL table was replicated on each heartbeat -- takes over
and throughput recovers.
"""

from conftest import emit
from repro.core import HaDistributorPair
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A, RequestSampler, WebBenchRig
from repro.sim import RngStream

HEARTBEAT = 0.25
MISSES = 3
CRASH_AT = 6.0
DURATION = 14.0


def run_failover(clients=40):
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              duration=DURATION, warmup=2.0, seed=42,
                              n_objects=3000)
    deployment = build_deployment(config)
    sim = deployment.sim
    primary = deployment.frontend
    backup = deployment.backup_distributor()
    # retry_attempts=0: this benchmark measures the *raw* outage window,
    # so clients must fail fast instead of riding out the takeover
    pair = HaDistributorPair(sim, primary, backup,
                             heartbeat_interval=HEARTBEAT,
                             misses_to_fail=MISSES,
                             retry_attempts=0)
    rig = WebBenchRig(sim, pair.submit, deployment.sampler,
                      n_machines=config.n_client_machines,
                      warmup=config.warmup, rng=RngStream(42, "rig"))
    sim.schedule(CRASH_AT, primary.crash)
    rig.start_clients(clients)
    sim.run(until=DURATION)
    rig.stop_clients()
    pair.stop()
    recovered_completions = backup.meter.completions
    return {
        "pair": pair,
        "rig": rig,
        "failover_at": pair.failover_at,
        "detection": pair.failover_at - CRASH_AT,
        "errors": rig.errors,
        "error_window": (rig.last_error_at - rig.first_error_at
                         if rig.errors else 0.0),
        "primary_completions": primary.meter.completions,
        "backup_completions": recovered_completions,
        "throughput": rig.throughput(DURATION),
    }


class TestFailover:
    def test_failover_restores_service(self, benchmark):
        result = benchmark.pedantic(run_failover, rounds=1, iterations=1)
        emit("Ablation: §2.3 primary/backup distributor failover\n"
             f"  crash at t={CRASH_AT:.1f}s, takeover at "
             f"t={result['failover_at']:.2f}s "
             f"(detection {result['detection']:.2f}s)\n"
             f"  client errors={result['errors']} over "
             f"{result['error_window']:.2f}s; "
             f"served: primary={result['primary_completions']}, "
             f"backup={result['backup_completions']}")
        pair = result["pair"]
        assert pair.failed_over
        # detection window depends on the crash's phase relative to the
        # heartbeat: between (misses-1) and (misses+1) intervals
        assert (MISSES - 1) * HEARTBEAT - 1e-6 <= result["detection"] \
            <= (MISSES + 1) * HEARTBEAT + 1e-6
        # clients saw errors only around the outage window
        assert result["errors"] > 0
        assert result["rig"].first_error_at >= CRASH_AT
        assert result["rig"].last_error_at <= result["failover_at"] + 0.5
        # the backup carried real load after takeover
        assert result["backup_completions"] > 100
        # the replicated URL table let it route everything
        assert result["backup_completions"] + result["errors"] > 0
