"""Source-path attribution into repo subsystems, and peak RSS."""

import pytest

from repro.obs import classify_path, peak_rss_kb

pytestmark = pytest.mark.telemetry


class TestClassifyPath:
    def test_subsystem_buckets(self):
        assert classify_path("/x/src/repro/sim/engine.py") == "sim"
        assert classify_path("/x/src/repro/net/tcp.py") == "net"
        assert classify_path("/x/src/repro/cluster/cpu.py") == "cluster"
        assert classify_path("/x/src/repro/obs/telemetry.py") == "obs"

    def test_splicer_carved_out_of_core(self):
        assert classify_path("/x/src/repro/core/splicer.py") == "splicer"
        assert classify_path("/x/src/repro/core/frontend.py") == "core"

    def test_stdlib_and_other(self):
        assert classify_path("~") == "stdlib"
        assert classify_path("<built-in>") == "stdlib"
        assert classify_path("/usr/lib/python3.11/json/encoder.py") == \
            "stdlib"
        assert classify_path("/somewhere/else.py") == "other"

    def test_tests_bucket(self):
        assert classify_path("/x/tests/obs/test_profile.py") == "tests"


def test_peak_rss_is_plausible():
    kb = peak_rss_kb()
    # a running CPython interpreter needs >4 MB and <64 GB
    assert 4 * 1024 < kb < 64 * 1024 * 1024
