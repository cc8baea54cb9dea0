"""Workload-diversity subsystem: sweeps, executor identity, cache keys.

Any two jobs that could produce different records get different cache
keys (the cache can never alias two workloads); the ``serial == parallel
== cached`` guarantee for every injection process and for phased
schedules is pinned by ``test_sweep_contract.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.executor import job_key, run_job
from repro.experiments.figures import fig_workloads
from repro.experiments.reporting import throughput_matrix
from repro.experiments.sweeps import (
    DEFAULT_INJECTIONS,
    run_sweep,
    workload_sweep_jobs,
)
from repro.simulator.workload import WorkloadSchedule
from repro.topology.base import Network
from repro.topology.hyperx import HyperX

from _helpers import BuildOnlyExecutor

SWEEP_KW = dict(warmup=30, measure=60)


@pytest.fixture(scope="module")
def small_net():
    return Network(HyperX((4, 4), 2))


def _jobs(net, **kw):
    merged = {**SWEEP_KW, **kw}
    return workload_sweep_jobs(
        net, ["Minimal", "PolSP"], ["uniform", "hotspot"], [0.3], **merged
    )


class TestJobs:
    def test_one_block_per_injection_process(self, small_net):
        jobs = _jobs(small_net)
        assert len(jobs) == len(DEFAULT_INJECTIONS) * 2 * 2
        assert [j.config.injection for j in jobs] == (
            ["bernoulli"] * 4 + ["onoff"] * 4
        )

    def test_workload_jobs_run_split_streams(self, small_net):
        assert all(j.config.rng_streams == "split" for j in _jobs(small_net))

    def test_distinct_burst_parameters_distinct_job_keys(self, small_net):
        """The cache can never alias two workloads (satellite)."""
        base = _jobs(small_net, injections=("onoff",))
        longer_burst = _jobs(small_net, injections=("onoff",), burst_slots=16)
        longer_idle = _jobs(small_net, injections=("onoff",), idle_slots=16)
        bernoulli = _jobs(small_net, injections=("bernoulli",))
        keys = {
            job_key(j)
            for j in base + longer_burst + longer_idle + bernoulli
        }
        assert len(keys) == len(base) * 4

    def test_distinct_phase_schedules_distinct_job_keys(self, small_net):
        a = _jobs(small_net, workload=WorkloadSchedule.load_steps([(40, 0.1)]))
        b = _jobs(small_net, workload=WorkloadSchedule.load_steps([(40, 0.2)]))
        c = _jobs(small_net, workload=WorkloadSchedule.pattern_steps([(40, "shift")]))
        plain = _jobs(small_net)
        assert len({job_key(j) for j in a + b + c + plain}) == len(a) * 4

    def test_unsupported_phase_pattern_rejected_early(self, small_net):
        with pytest.raises(ValueError, match="unsupported"):
            _jobs(small_net, workload=WorkloadSchedule.pattern_steps([(40, "adversarial")]))

    def test_unsupported_traffic_rejected_upfront(self, small_net):
        """A bad pattern fails before any job runs — one clean error, not
        a traceback from inside a pool worker mid-sweep."""
        with pytest.raises(ValueError, match=r"\['transpose'\] unsupported"):
            workload_sweep_jobs(
                small_net, ["PolSP"], ["uniform", "transpose"], [0.3], **SWEEP_KW
            )  # 32 servers = 5 bits: transpose needs an even bit count

    def test_load_above_duty_cycle_rejected_upfront(self, small_net):
        """An on-off source cannot offer more than its duty cycle
        burst / (burst + idle): the sweep says so before any job exists."""
        with pytest.raises(ValueError, match="exceeds the duty cycle 0.2500"):
            _jobs(small_net, burst_slots=2, idle_slots=6)
        assert _jobs(small_net, injections=("bernoulli",), burst_slots=2, idle_slots=6)

    @pytest.mark.parametrize("burst,idle", [(0, 8), (8, 0), (0, 0)])
    @pytest.mark.parametrize("injections", [DEFAULT_INJECTIONS, ("bernoulli",)])
    def test_sojourn_below_one_slot_rejected(self, small_net, injections, burst, idle):
        with pytest.raises(ValueError, match="must be >= 1"):
            _jobs(small_net, injections=injections, burst_slots=burst, idle_slots=idle)

    def test_default_loads_reject_sojourn_below_one_slot(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            fig_workloads("tiny", burst_slots=0, executor=BuildOnlyExecutor())


class TestDifferential:
    def test_onoff_record_differs_from_bernoulli(self, small_net):
        """The burst knob is live: same load, different dynamics."""
        bern = run_job(_jobs(small_net, injections=("bernoulli",))[1])
        onoff = run_job(_jobs(small_net, injections=("onoff",))[1])
        assert bern["traffic"] == onoff["traffic"] == "uniform"
        assert bern != onoff


class TestPhasedRecords:
    def test_phase_series_in_record(self, small_net):
        sched = WorkloadSchedule.load_steps([(60, 0.05)])
        job = _jobs(small_net, workload=sched, injections=("bernoulli",))[1]
        rec = run_job(job)
        assert rec["workload_events"] == 1
        phases = rec["phase_series"]
        assert [p["label"] for p in phases] == ["initial", "offered=0.05"]
        # The load drop is visible in the per-phase accepted series.
        assert phases[1]["accepted"] < phases[0]["accepted"]
        assert sum(p["slots"] for p in phases) == job.measure

    def test_pattern_switch_changes_phase_throughput(self, small_net):
        # Hotspot saturates a single server; switching to it mid-run must
        # show up as a throughput collapse in the second phase.
        sched = WorkloadSchedule.pattern_steps([(60, "hotspot")])
        job = workload_sweep_jobs(
            small_net, ["PolSP"], ["uniform"], [0.4],
            injections=("bernoulli",), workload=sched, **SWEEP_KW,
        )[0]
        rec = run_job(job)
        phases = rec["phase_series"]
        assert phases[1]["label"] == "pattern=hotspot"
        assert phases[1]["accepted"] < phases[0]["accepted"]


class TestSweepAndFigure:
    def test_workload_sweep_annotates_records(self, small_net):
        recs = run_sweep(workload_sweep_jobs(
            small_net, ["PolSP"], ["uniform"], [0.3],
            burst_slots=12, idle_slots=4, **SWEEP_KW,
        ))
        assert [r["workload"] for r in recs] == ["bernoulli", "onoff(12/4)"]
        assert all(set(("injection", "burst_slots", "idle_slots")) <= set(r) for r in recs)

    def test_fig_workloads_emits_mechanism_by_pattern_table(self):
        recs = fig_workloads(
            "tiny", mechanisms=("PolSP",), traffics=("uniform", "shift"),
            loads=(0.3,), injections=("bernoulli", "onoff"),
        )
        assert {r["traffic"] for r in recs} == {"uniform", "shift"}
        table = throughput_matrix(recs, row_key=("mechanism", "workload"))
        assert "PolSP:bernoulli" in table and "PolSP:onoff(8/8)" in table
        assert "uniform" in table and "shift" in table

    def test_fig_workloads_filters_unsupported_patterns(self):
        # tiny 3D HyperX has 256 servers (8 bits): transpose applies; the
        # rectangular default filter must keep only constructible ones.
        recs = fig_workloads(
            "tiny", dims=3, mechanisms=("PolSP",), loads=(0.3,),
            injections=("bernoulli",), executor=BuildOnlyExecutor(),
        )
        assert "transpose" in {r["traffic"] for r in recs}
        assert "adversarial" not in {r["traffic"] for r in recs}
