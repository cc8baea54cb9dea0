"""Reporting helpers tests."""

import pytest

from repro.experiments.reporting import (
    ascii_table,
    curve_sparkline,
    format_value,
    records_to_csv,
    throughput_matrix,
)

RECORDS = [
    {"mechanism": "PolSP", "traffic": "uniform", "accepted": 0.75},
    {"mechanism": "PolSP", "traffic": "uniform", "accepted": 0.70},
    {"mechanism": "Valiant", "traffic": "uniform", "accepted": 0.50},
]


class TestAsciiTable:
    def test_contains_headers_and_values(self):
        out = ascii_table(RECORDS, title="t")
        assert "mechanism" in out and "PolSP" in out and "0.7500" in out

    def test_empty_records(self):
        assert "(no records)" in ascii_table([], title="x")

    def test_column_selection(self):
        out = ascii_table(RECORDS, columns=["mechanism"])
        assert "accepted" not in out

    def test_missing_column_blank(self):
        out = ascii_table(RECORDS, columns=["mechanism", "nope"])
        assert "nope" in out


class TestCsv:
    def test_round_trips_values(self):
        out = records_to_csv(RECORDS)
        lines = out.strip().splitlines()
        assert lines[0] == "mechanism,traffic,accepted"
        assert lines[1] == "PolSP,uniform,0.75"

    def test_empty(self):
        assert records_to_csv([]) == ""


class TestThroughputMatrix:
    def test_pivots_to_max(self):
        out = throughput_matrix(RECORDS)
        assert "0.7500" in out  # the max of PolSP/uniform
        assert "0.7000" not in out

    def test_min_aggregation_skips_none(self):
        recs = [
            {"mechanism": "A", "traffic": "u", "accepted": 5.0},
            {"mechanism": "A", "traffic": "u", "accepted": 3.0},
            {"mechanism": "A", "traffic": "u", "accepted": None},
        ]
        out = throughput_matrix(recs, agg="min")
        assert "3.0000" in out and "5.0000" not in out

    def test_rejects_unknown_agg(self):
        with pytest.raises(ValueError, match="agg"):
            throughput_matrix(RECORDS, agg="median")


def collective_matrix(records):
    """The JCT pivot ``fig-collectives`` prints."""
    return throughput_matrix(
        records, row_key=("mechanism", "collective"),
        col_key=("topology", "schedule"), value_key="jct_cycles", agg="min",
    )


class TestCollectiveMatrix:
    RECS = [
        {"mechanism": "PolSP", "collective": "allreduce_ring",
         "topology": "hyperx", "schedule": "none", "jct_cycles": 1680},
        {"mechanism": "PolSP", "collective": "allreduce_ring",
         "topology": "hyperx", "schedule": "downup", "jct_cycles": 1712},
        {"mechanism": "Minimal", "collective": "allreduce_ring",
         "topology": "torus", "schedule": "none", "jct_cycles": None},
    ]

    def test_pivots_jct_min_with_empty_cells(self):
        out = collective_matrix(self.RECS)
        assert "PolSP:allreduce_ring" in out
        assert "hyperx/none" in out and "hyperx/downup" in out
        assert "1680" in out and "1712" in out
        # The undrained Minimal cell stays empty (nan), not a fake time.
        assert "Minimal:allreduce_ring" in out

    def test_single_network_records_without_topology_key(self):
        recs = [
            {"mechanism": "PolSP", "collective": "allgather_ring",
             "schedule": "none", "jct_cycles": 848},
        ]
        out = collective_matrix(recs)
        assert "848" in out and "none" in out


class TestSparkline:
    def test_renders_range(self):
        s = curve_sparkline([(0, 0.0), (1, 0.5), (2, 1.0)])
        assert "[0..1]" in s

    def test_empty(self):
        assert curve_sparkline([]) == "(empty)"


class TestFormatValue:
    def test_floats_and_bools(self):
        assert format_value(0.5) == "0.5000"
        assert format_value(1234.5) == "1234.5"
        assert format_value(True) == "yes"
        assert format_value("x") == "x"
