"""Tests for the client-count sweep and its CSV export."""

import csv

from repro.experiments import sweep_clients, write_csv
from repro.workload import WORKLOAD_A, WORKLOAD_B

FAST = dict(n_objects=300, duration=2.5, warmup=0.5, n_client_machines=4)


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


class TestSweepClients:
    def test_one_row_per_point(self):
        points = sweep_clients("partition-ca", WORKLOAD_A, (4, 8), **FAST)
        assert len(points) == 2
        assert [p["n_clients"] for p in points] == [4, 8]
        assert all(p["scheme"] == "partition-ca" for p in points)

    def test_series_extraction(self):
        points = sweep_clients("partition-ca", WORKLOAD_A, (4, 8), **FAST)
        series = [p["throughput_rps"] for p in points]
        assert len(series) == 2
        assert all(v > 0 for v in series)

    def test_class_columns_present_for_workload_b(self, tmp_path):
        points = sweep_clients("partition-ca", WORKLOAD_B, (6,), **FAST)
        path = tmp_path / "b.csv"
        write_csv(points, path)
        header = read_csv(path)[0]
        assert "class_cgi_rps" in header
        assert "class_html_rps" in header


class TestCsvExport:
    def test_csv_roundtrip(self, tmp_path):
        points = sweep_clients("partition-ca", WORKLOAD_A, (4, 8), **FAST)
        path = tmp_path / "sweep.csv"
        write_csv(points, path)
        rows = read_csv(path)
        assert rows[0][:4] == ["scheme", "workload", "n_clients",
                               "throughput_rps"]
        assert len(rows) == 3  # header + 2 points
        assert rows[1][0] == "partition-ca"
        assert float(rows[1][3]) > 0

    def test_missing_class_cells_blank(self, tmp_path):
        points = sweep_clients("partition-ca", WORKLOAD_A, (4,), **FAST)
        path = tmp_path / "g.csv"
        write_csv(points, path)
        header = read_csv(path)[0]
        assert "class_cgi_rps" not in header  # A has no dynamic traffic
