"""Shared sweep specs for the tests/experiments/test_sweep*.py battery.

``TINY_SPEC_DICT`` is the small matrix every determinism/resume/
subprocess test reuses: two packet-level openloop cells (two pool
sizes) and two request-level experiment cells (two seeds) -- four runs,
a couple of seconds serial, touching both the packet stack and the full
testbed.
"""

import copy

from repro.experiments.sweep import spec_from_dict

TINY_SPEC_DICT = {
    "schema_version": 1,
    "name": "tiny",
    "blocks": [
        {
            "target": "openloop",
            "base": {"rate": 150.0, "duration": 0.4, "seed": 42},
            "axes": {"prefork": [4, 8]},
        },
        {
            "target": "cell",
            "base": {"scheme": "partition-ca", "workload": "A",
                     "duration": 1.5, "warmup": 0.5, "n_objects": 120,
                     "n_client_machines": 4, "clients": 4},
            "axes": {"seed": [1234, 1235]},
        },
    ],
}


def tiny_spec():
    return spec_from_dict(copy.deepcopy(TINY_SPEC_DICT))
