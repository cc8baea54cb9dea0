"""WorkloadSchedule tests: validation, canonical form, engine semantics."""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.simulator.config import SimConfig
from repro.simulator.injection import BatchInjection
from repro.simulator.workload import (
    SET_OFFERED,
    SET_PATTERN,
    WorkloadEvent,
    WorkloadSchedule,
)


class TestEvents:
    def test_offered_event_normalises_value(self):
        ev = WorkloadEvent(10, SET_OFFERED, "0.5")
        assert ev.value == 0.5
        assert ev.label == "offered=0.5"

    def test_pattern_event_normalises_name(self):
        ev = WorkloadEvent(10, SET_PATTERN, "  Hotspot ")
        assert ev.value == "hotspot"
        assert ev.label == "pattern=hotspot"
        # An alias resolves like everywhere else: same canonical name,
        # hence the same cache-key payload as the short name.
        alias = WorkloadEvent(10, SET_PATTERN, "Bit Reverse")
        assert alias == WorkloadEvent(10, SET_PATTERN, "bitrev")
        assert alias.value == "bitrev"

    def test_rejects_bad_events(self):
        with pytest.raises(ValueError, match="slot"):
            WorkloadEvent(-1, SET_OFFERED, 0.5)
        with pytest.raises(ValueError, match="offered load"):
            WorkloadEvent(0, SET_OFFERED, 1.5)
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            WorkloadEvent(0, SET_PATTERN, "nope")
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            WorkloadEvent(0, SET_PATTERN, "bit revers")  # typo of an alias
        with pytest.raises(ValueError, match="kind"):
            WorkloadEvent(0, "faults", 0.5)


class TestSchedule:
    def test_sorts_by_slot_and_is_hashable(self):
        sched = WorkloadSchedule(
            [(50, SET_PATTERN, "shift"), (10, SET_OFFERED, 0.2)]
        )
        assert [ev.slot for ev in sched] == [10, 50]
        assert sched.max_slot == 50
        assert len(sched) == 2
        hash(sched)  # rides inside frozen PointJobs

    def test_canonical_payload(self):
        sched = WorkloadSchedule(
            [(10, SET_OFFERED, 0.2), (50, SET_PATTERN, "shift")]
        )
        assert sched.canonical() == [[10, "offered", 0.2], [50, "pattern", "shift"]]

    def test_pattern_names_deduplicated_in_order(self):
        sched = WorkloadSchedule.pattern_steps(
            [(10, "shift"), (20, "uniform"), (30, "shift")]
        )
        assert sched.pattern_names() == ["shift", "uniform"]

    def test_convenience_constructors(self):
        loads = WorkloadSchedule.load_steps([(10, 0.2), (20, 0.8)])
        assert all(ev.kind == SET_OFFERED for ev in loads)
        pats = WorkloadSchedule.pattern_steps([(10, "shift")])
        assert all(ev.kind == SET_PATTERN for ev in pats)


class TestEngine:
    def _sim(self, net2d, schedule, **kw):
        runner = ExperimentRunner(net2d, config=kw.pop("config", SimConfig()))
        return runner.build_simulator(
            "PolSP", "uniform", kw.pop("offered", 0.4), seed=0,
            workload_schedule=schedule, **kw,
        )

    def test_offered_event_changes_generation_rate(self, net2d):
        sched = WorkloadSchedule.load_steps([(40, 0.0)])
        sim = self._sim(net2d, sched)
        res = sim.run(warmup=0, measure=80)
        # After slot 40 nothing is generated; phase 2 accepted only drains
        # the backlog and generation stops entirely.
        assert sim.injection.offered == 0.0
        phases = res.phase_series
        assert [p["label"] for p in phases] == ["initial", "offered=0"]
        assert phases[1]["generated"] == 0
        assert phases[0]["generated"] > 0

    def test_pattern_event_swaps_traffic(self, net2d):
        sched = WorkloadSchedule.pattern_steps([(30, "shift")])
        sim = self._sim(net2d, sched)
        before = sim.traffic
        sim.run(warmup=0, measure=60)
        assert sim.traffic is not before
        assert sim.traffic.name == "Shift"

    def test_unsupported_pattern_fails_at_construction(self, net2d):
        sched = WorkloadSchedule.pattern_steps([(30, "adversarial")])
        with pytest.raises(TypeError, match="Dragonfly"):
            self._sim(net2d, sched)

    def test_event_beyond_run_window_rejected(self, net2d):
        sched = WorkloadSchedule.load_steps([(500, 0.1)])
        sim = self._sim(net2d, sched)
        with pytest.raises(ValueError, match="workload schedule"):
            sim.run(warmup=10, measure=20)

    def test_offered_event_on_batch_injection_fails_loudly(self, net2d):
        sched = WorkloadSchedule.load_steps([(5, 0.1)])
        runner = ExperimentRunner(net2d)
        sim = runner.build_simulator(
            "PolSP", "uniform", 1.0, seed=0,
            injection=BatchInjection(net2d.n_servers, 2),
            workload_schedule=sched,
        )
        with pytest.raises(NotImplementedError, match="no offered-load knob"):
            sim.run(warmup=0, measure=30)

    def test_no_schedule_means_no_phase_series(self, net2d):
        runner = ExperimentRunner(net2d)
        res = runner.run_point("PolSP", "uniform", 0.3, warmup=20, measure=40)
        assert res.phase_series == []

    def test_phases_clip_to_measurement_window(self, net2d):
        # One event during warmup, one in measurement: the warmup phase
        # contributes nothing; the measured phases tile the window.
        sched = WorkloadSchedule.load_steps([(10, 0.3), (60, 0.2)])
        sim = self._sim(net2d, sched, offered=0.5)
        res = sim.run(warmup=40, measure=60)
        phases = res.phase_series
        assert [p["label"] for p in phases] == ["offered=0.3", "offered=0.2"]
        assert [p["start_slot"] for p in phases] == [40, 60]
        assert sum(p["slots"] for p in phases) == 60
