"""Sweep-runner tests (records, filtering, nested fault prefixes)."""

import pytest

from repro.experiments.sweeps import (
    collective_sweep_jobs,
    fault_sweep_jobs,
    filter_records,
    load_sweep_jobs,
    run_sweep,
    saturation_throughput,
)
from repro.topology.base import Network
from repro.topology.faults import row_faults


class TestLoadSweep:
    def test_record_per_point(self, net2d):
        recs = run_sweep(load_sweep_jobs(
            net2d, ["Minimal", "PolSP"], ["uniform"], [0.1, 0.3],
            warmup=40, measure=80,
        ))
        assert len(recs) == 4
        keys = {(r["mechanism"], r["offered"]) for r in recs}
        assert keys == {("Minimal", 0.1), ("Minimal", 0.3),
                        ("PolSP", 0.1), ("PolSP", 0.3)}

    def test_accepted_tracks_offered_below_saturation(self, net2d):
        recs = run_sweep(load_sweep_jobs(
            net2d, ["PolSP"], ["uniform"], [0.2], warmup=80, measure=200
        ))
        assert recs[0]["accepted"] == pytest.approx(0.2, abs=0.05)


class TestFaultSweep:
    def test_counts_are_prefixes(self, hx2d):
        recs = run_sweep(fault_sweep_jobs(
            hx2d, ["PolSP"], ["uniform"], [0, 4, 8],
            warmup=40, measure=80, fault_seed=3,
        ))
        counts = sorted({r["faults"] for r in recs})
        assert counts == [0, 4, 8]

    def test_throughput_degrades_gracefully(self, hx2d):
        recs = run_sweep(fault_sweep_jobs(
            hx2d, ["PolSP"], ["uniform"], [0, 12],
            warmup=150, measure=300, fault_seed=3,
        ))
        healthy = [r for r in recs if r["faults"] == 0][0]
        faulty = [r for r in recs if r["faults"] == 12][0]
        assert faulty["accepted"] > 0.25 * healthy["accepted"]
        assert not faulty["deadlocked"]


class TestShapeRun:
    def test_runs_on_shaped_network(self, hx2d):
        net = Network(hx2d, row_faults(hx2d))
        recs = run_sweep(load_sweep_jobs(
            net, ["OmniSP", "PolSP"], ["uniform"], [1.0],
            warmup=60, measure=120, n_vcs=4,
        ))
        assert len(recs) == 2
        for r in recs:
            assert r["faults"] == len(net.faults)
            assert r["accepted"] > 0.0


class TestHelpers:
    def test_filter_records(self):
        recs = [
            {"mechanism": "A", "traffic": "u", "accepted": 0.5},
            {"mechanism": "B", "traffic": "u", "accepted": 0.6},
        ]
        assert filter_records(recs, mechanism="A") == [recs[0]]

    def test_saturation_throughput(self):
        recs = [
            {"mechanism": "A", "traffic": "u", "accepted": 0.5},
            {"mechanism": "A", "traffic": "u", "accepted": 0.7},
        ]
        assert saturation_throughput(recs, "A", "u") == 0.7
        with pytest.raises(ValueError):
            saturation_throughput(recs, "Z", "u")


class TestCollectiveSweep:
    def _net(self):
        from repro.topology.hyperx import HyperX

        return Network(HyperX((4, 4), 2))

    def test_records_carry_jct_keys(self):
        recs = run_sweep(collective_sweep_jobs(
            self._net(), ("PolSP",), ("allreduce_tree",), max_slots=50_000
        ))
        assert len(recs) == 1
        r = recs[0]
        assert r["collective"] == "allreduce_tree"
        assert r["traffic"] == "allreduce_tree"  # self-describing record
        assert r["schedule"] == "none"
        assert r["drained"] and r["jct_cycles"] > 0
        assert r["jct_cycles"] == r["completion_slot"] * 16
        assert r["retransmitted"] == 0

    def test_unknown_collective_rejected_before_any_run(self):

        with pytest.raises(ValueError, match="collective"):
            collective_sweep_jobs(
                self._net(), ("PolSP",), ("alltoall_hypercube",)
            )

    def test_schedule_validated_upfront(self):
        from repro.simulator.schedule import FaultSchedule

        with pytest.raises(ValueError):
            collective_sweep_jobs(
                self._net(), ("PolSP",), ("allreduce_tree",),
                schedules=(
                    ("bad", FaultSchedule.link_down(10, [(0, 99)])),
                ),
            )

    def test_workload_schedule_rejected_on_collective_job(self):
        import dataclasses

        from repro.experiments.executor import run_job
        from repro.simulator.workload import WorkloadSchedule

        jobs = collective_sweep_jobs(
            self._net(), ("PolSP",), ("allreduce_tree",)
        )
        bad = dataclasses.replace(
            jobs[0], workload=WorkloadSchedule([(10, "offered", 0.1)])
        )
        with pytest.raises(ValueError, match="workload"):
            run_job(bad)

    def test_disconnected_collective_record_shape(self):
        from repro.experiments.executor import run_job
        from repro.topology.hyperx import HyperX

        # Fail every link of switch 0: its servers are unreachable.
        topo = HyperX((4, 4), 2)
        cut = tuple(sorted((0, n) for n in topo.neighbours(0)))
        net = Network(topo, cut)
        jobs = collective_sweep_jobs(
            net, ("PolSP",), ("allreduce_tree",)
        )
        rec = run_job(jobs[0])
        assert rec["disconnected"]
        assert rec["collective"] == "allreduce_tree"
        assert rec["jct_cycles"] is None
        assert rec["drained"] is False

    def test_ladder_sized_from_topology(self):
        """A fixed 4 VCs is shorter than Minimal's up-then-down routes on
        the tiny fat-tree, which stranded the ring all-reduce; the
        topology's own budget drains it."""
        from repro.experiments.executor import run_job
        from repro.experiments.scales import SCALES, scaled_topology

        net = Network(scaled_topology("fattree", SCALES["tiny"]))
        (job,) = collective_sweep_jobs(net, ("Minimal",), ("allreduce_ring",))
        assert job.spec.n_vcs == 8
        rec = run_job(job)
        assert rec["drained"] and not rec["deadlocked"]
        assert rec["jct_cycles"] is not None
