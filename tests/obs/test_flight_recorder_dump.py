"""Flight-recorder auto-dump: an invariant violation carries the timeline.

When a traced deployment trips one of the INV001-INV010 coherence checks,
the raised :class:`InvariantError` must include the flight recorder's
rendering of the last events -- the black box that explains *how* the
system reached the incoherent state.  Without a tracer the error must
still raise, just without a timeline.
"""

import pytest

from repro.analysis import InvariantError
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A

pytestmark = pytest.mark.trace


def tiny_config(**kw):
    defaults = dict(scheme="partition-ca", workload=WORKLOAD_A, seed=7,
                    n_objects=60, duration=2.0, warmup=0.25,
                    n_client_machines=2, debug_invariants=True)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def corrupt_and_run(deployment):
    """Point one URL record at a nonexistent server (INV001) mid-run."""
    sim = deployment.sim

    def corrupt():
        yield sim.timeout(0.5)
        record = next(iter(deployment.url_table.records()))
        record.locations.add("bogus-node")

    sim.process(corrupt())
    deployment.rig.start_clients(3)
    sim.run(until=2.0)


class TestFlightRecorderDump:
    def test_invariant_violation_dumps_timeline(self):
        deployment = build_deployment(tiny_config(trace=True))
        with pytest.raises(InvariantError) as excinfo:
            corrupt_and_run(deployment)
        err = excinfo.value
        assert any(v.rule == "INV001" for v in err.violations)
        assert "flight recorder:" in err.timeline
        # the timeline rides along in the message operators actually see
        assert "flight recorder:" in str(err)
        # the recorder captured real data-plane traffic leading up to it
        assert "request/" in err.timeline

    def test_untraced_deployment_raises_without_timeline(self):
        deployment = build_deployment(tiny_config(trace=False))
        assert deployment.sim.tracer is None
        with pytest.raises(InvariantError) as excinfo:
            corrupt_and_run(deployment)
        assert excinfo.value.timeline == ""
        assert "flight recorder:" not in str(excinfo.value)
