"""Failover drill: the §2.3 primary/backup distributor under live load.

The primary distributor crashes mid-run.  Requests submitted during the
detection window (three missed 250 ms heartbeats) wait it out with the
pair's bounded retry backoff, then the backup -- whose URL table was
replicated on every heartbeat -- takes over and answers them.

Run:  python examples/failover_drill.py
"""

from repro.core import HaDistributorPair
from repro.experiments import ExperimentConfig, build_deployment
from repro.sim import RngStream
from repro.workload import WORKLOAD_A, WebBenchRig

CRASH_AT = 5.0
DURATION = 12.0


def main():
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              duration=DURATION, warmup=1.0, seed=42,
                              n_objects=2000)
    deployment = build_deployment(config)
    sim = deployment.sim
    primary = deployment.frontend
    backup = deployment.backup_distributor()
    pair = HaDistributorPair(sim, primary, backup,
                             heartbeat_interval=0.25, misses_to_fail=3)
    rig = WebBenchRig(sim, pair.submit, deployment.sampler,
                      n_machines=8, warmup=1.0, rng=RngStream(42, "rig"))
    sim.schedule(CRASH_AT, primary.crash)
    rig.start_clients(30)
    sim.run(until=DURATION)
    rig.stop_clients()
    pair.stop()

    print("Failover drill (30 clients, primary crashes at t=5.0 s):\n")
    print(f"  heartbeats observed: {pair.heartbeats}, "
          f"state syncs: {pair.state_syncs}")
    print(f"  takeover at t={pair.failover_at:.2f} s "
          f"(detection {pair.failover_at - CRASH_AT:.2f} s)")
    print(f"  requests that rode out the outage via retry: {pair.retries}, "
          f"client errors: {rig.errors}")
    print(f"  requests served: primary={primary.meter.completions}, "
          f"backup={backup.meter.completions}")
    print(f"  overall throughput: {rig.throughput(DURATION):.1f} req/s")
    assert pair.failed_over and backup.meter.completions > 0
    assert pair.retries > 0 and rig.errors == 0
    print("\nOK: the backup took over; no client saw an error")


if __name__ == "__main__":
    main()
