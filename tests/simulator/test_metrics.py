"""Metrics tests: Jain index and the collector's windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.metrics import MetricsCollector, jain_index
from repro.simulator.packet import Packet


class TestJainIndex:
    def test_perfect_equity(self):
        assert jain_index(np.full(16, 7)) == pytest.approx(1.0)

    def test_single_user_monopoly(self):
        x = np.zeros(10)
        x[0] = 5
        assert jain_index(x) == pytest.approx(0.1)

    def test_paper_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = (6.0**2) / (3 * (1 + 4 + 9))
        assert jain_index(x) == pytest.approx(expected)

    def test_all_zero_is_fair(self):
        assert jain_index(np.zeros(5)) == 1.0

    def test_empty_is_fair(self):
        assert jain_index(np.array([])) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index(np.array([1.0, -1.0]))

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=64).map(np.array)
    )
    @settings(max_examples=100)
    def test_bounds(self, loads):
        j = jain_index(loads)
        assert 0.0 < j <= 1.0 + 1e-12

    @given(
        st.lists(st.integers(1, 1000), min_size=2, max_size=32),
        st.integers(2, 5),
    )
    @settings(max_examples=50)
    def test_scale_invariance(self, loads, factor):
        x = np.array(loads, dtype=float)
        assert jain_index(x) == pytest.approx(jain_index(x * factor))


def eject(collector, birth, slot, pid=0, hops=2, escape=0):
    p = Packet(pid, 0, 4, 0, 1, birth)
    p.hops = hops
    p.escape_hops = escape
    p.eject_slot = slot
    collector.on_ejected(p, slot)
    return p


class TestCollector:
    def test_measurement_window_gates_counts(self):
        m = MetricsCollector(n_servers=4, cycles_per_slot=16)
        m.on_generated(0, 5)
        eject(m, 0, 8)
        assert m.delivered_measured == 0  # not yet measuring
        m.start_measurement(10)
        m.on_generated(1, 11)
        eject(m, 11, 15, pid=1)
        assert m.delivered_measured == 1
        assert m.generated_measured[1] == 1
        assert m.generated_measured[0] == 0

    def test_latency_only_for_measured_births(self):
        m = MetricsCollector(4, 16)
        m.start_measurement(10)
        eject(m, 5, 12)  # born before warmup ended: excluded
        eject(m, 10, 14, pid=1)  # included: 4 slots = 64 cycles
        res = m.result(offered=0.5, measure_slots=10, in_flight_end=0,
                       deadlocked=False)
        assert res.avg_latency_cycles == pytest.approx(64.0)

    def test_accepted_load_normalisation(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16)
        m.start_measurement(0)
        for i in range(10):
            eject(m, 0, i, pid=i)
        res = m.result(offered=1.0, measure_slots=5, in_flight_end=0,
                       deadlocked=False)
        assert res.accepted == pytest.approx(10 / (2 * 5))

    def test_escape_fraction(self):
        m = MetricsCollector(2, 16)
        m.start_measurement(0)
        eject(m, 0, 1, hops=4, escape=2)
        res = m.result(1.0, 1, 0, False)
        assert res.escape_hop_fraction == pytest.approx(0.5)
        assert res.avg_hops == pytest.approx(4.0)

    def test_time_series_binning(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16, series_interval=10)
        m.start_measurement(0)
        eject(m, 0, 3)
        eject(m, 0, 7, pid=1)
        eject(m, 0, 15, pid=2)
        series = m.time_series()
        assert series == [(0, 2 / 20), (10, 1 / 20)]

    def test_series_excludes_warmup_ejections(self):
        """Regression: pre-measurement ejections used to be binned into
        the accepted-load series, polluting it with warmup traffic."""
        m = MetricsCollector(n_servers=2, cycles_per_slot=16, series_interval=10)
        eject(m, 0, 3)  # warmup: must not appear anywhere in the series
        m.start_measurement(10)
        eject(m, 10, 12, pid=1)
        assert m.time_series() == [(10, 1 / 20)]

    def test_transient_series_bins_latency_stalls_drops(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16, series_interval=10)
        m.start_measurement(0)
        eject(m, 2, 6)  # 4 slots = 64 cycles, bin 0
        p = Packet(9, 0, 4, 0, 1, 0)
        m.on_stalled((p.pid,), 14)
        m.on_dropped(p, 23)
        series = m.transient_series()
        assert [rec["slot"] for rec in series] == [0, 10, 20]
        assert series[0]["accepted"] == pytest.approx(1 / 20)
        assert series[0]["latency_cycles"] == pytest.approx(64.0)
        assert series[1] == {
            "slot": 10, "accepted": 0.0, "latency_cycles": pytest.approx(float("nan"), nan_ok=True),
            "stalls": 1, "dropped": 0,
        }
        assert series[2]["dropped"] == 1

    def test_on_stalled_many_matches_loop(self):
        # The array backend's batch replay must be indistinguishable
        # from the scalar loops' one-pid-at-a-time calls.
        pids = [3, 5, 5, 8]
        loop = MetricsCollector(2, 16, series_interval=10)
        batch = MetricsCollector(2, 16, series_interval=10)
        for m in (loop, batch):
            m.start_measurement(0)
        for pid in pids:
            loop.on_stalled((pid,), 14)
        batch.on_stalled(pids, 14)
        assert batch.stalled_pids == loop.stalled_pids == {3, 5, 8}
        # Straight dict equality would trip on NaN latency bins; the
        # stall counts are the field the batch path touches.
        assert (
            [rec["stalls"] for rec in batch.transient_series()]
            == [rec["stalls"] for rec in loop.transient_series()]
            == [4]
        )

    def test_dropped_counted_outside_series(self):
        m = MetricsCollector(2, 16)
        m.start_measurement(0)
        m.on_dropped(Packet(0, 0, 4, 0, 1, 0), 5)
        res = m.result(0.5, 10, 0, False)
        assert res.dropped_packets == 1
        assert "dropped=1" in res.summary()

    def test_result_summary_mentions_deadlock(self):
        m = MetricsCollector(2, 16)
        m.start_measurement(0)
        res = m.result(0.5, 10, 3, deadlocked=True)
        assert "DEADLOCK" in res.summary()

    def test_completion_cycles_conversion(self):
        m = MetricsCollector(2, 16)
        m.start_measurement(0)
        res = m.result(1.0, 10, 0, False, completion_slot=100)
        assert res.completion_cycles == 1600

    def test_jct_cycles_first_class(self):
        m = MetricsCollector(2, 16)
        m.start_measurement(0)
        res = m.result(1.0, 10, 0, False, completion_slot=100)
        assert res.jct_cycles == 1600
        assert res.completion_cycles == res.jct_cycles  # alias holds
        unfinished = MetricsCollector(2, 16)
        unfinished.start_measurement(0)
        res = unfinished.result(1.0, 10, 5, False)
        assert res.jct_cycles is None and res.completion_cycles is None


class TestPhaseSeries:
    """Zero-slot phase guard: a phase covering no measured slots is
    dropped even when wall-clock tallies landed on it (regression — the
    old guard kept such phases and divided by a zero denominator)."""

    def test_zero_slot_phase_with_deliveries_is_dropped(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16)
        m.start_measurement(0)
        m.on_phase(0, "steady")
        eject(m, 0, 3)
        # Second phase opens exactly at the window end: zero measured
        # slots, yet a straggler delivery attributes to it by wall clock.
        m.on_phase(10, "late")
        eject(m, 1, 10, pid=1)
        series = m.phase_series(measure_slots=10)
        assert [ph["label"] for ph in series] == ["steady"]
        assert series[0]["slots"] == 10
        # The straggler's delivery still counts in the run totals.
        assert m.delivered_measured == 2

    def test_zero_slot_empty_phase_is_dropped(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16)
        m.start_measurement(0)
        m.on_phase(0, "steady")
        m.on_phase(10, "never-ran")
        series = m.phase_series(measure_slots=10)
        assert [ph["label"] for ph in series] == ["steady"]

    def test_phase_entirely_after_window_is_dropped(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16)
        m.start_measurement(0)
        m.on_phase(0, "steady")
        m.on_phase(50, "beyond")
        series = m.phase_series(measure_slots=10)
        assert [ph["label"] for ph in series] == ["steady"]

    def test_surviving_phases_renumber_contiguously(self):
        m = MetricsCollector(n_servers=2, cycles_per_slot=16)
        m.start_measurement(0)
        m.on_phase(0, "a")
        m.on_phase(4, "zero")  # zero-slot: next phase opens same slot
        m.on_phase(4, "b")
        eject(m, 5, 6)
        series = m.phase_series(measure_slots=10)
        assert [ph["label"] for ph in series] == ["a", "b"]
        assert [ph["phase"] for ph in series] == [0, 1]
