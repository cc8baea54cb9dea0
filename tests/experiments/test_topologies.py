"""Topology-diversity subsystem: sweeps, executor identity, cache keys,
and the disconnected-point hardening.

The differential guarantees the executor contract extends to the new
axis: for every topology family, ``serial == parallel == cached``
record-for-record; two different families (or two random draws) can
never alias one cache entry; and a disconnected network yields a
*record*, not a dead pool worker.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.executor import (
    CACHE_VERSION,
    ParallelExecutor,
    PointJob,
    SerialExecutor,
    job_key,
    make_record,
    run_job,
    topology_signature,
)
from repro.experiments.figures import fig_topologies
from repro.experiments.reporting import throughput_matrix
from repro.experiments.runner import PointSpec
from repro.experiments.sweeps import run_sweep, topology_sweep_jobs
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.fattree import FatTree
from repro.topology.hyperx import HyperX
from repro.topology.random_regular import RandomRegular
from repro.topology.torus import Torus

SWEEP_KW = dict(warmup=30, measure=60)


def _labels(jobs):
    return [dict(job.labels)["topology"] for job in jobs]


def family_networks():
    return {
        "torus": Network(Torus((4, 4), 2)),
        "fattree": Network(FatTree(4)),
        "random": Network(RandomRegular(16, 4, 2, seed=1)),
    }


class TestJobs:
    def test_labels_align_and_families_filter(self):
        labels = _labels(topology_sweep_jobs(
            {"hyperx": Network(HyperX((4, 4), 2)), **family_networks()},
            ["Minimal", "OmniSP", "PolSP"], ["uniform", "dcr"], [0.3],
            **SWEEP_KW,
        ))
        # HyperX keeps all three mechanisms; the others drop OmniSP.
        # dcr needs servers_per_switch == side on 2D, so it drops everywhere
        # here; uniform survives on every family.
        assert labels.count("hyperx") == 3
        assert labels.count("torus") == labels.count("fattree") == 2

    def test_root_strategy_applies_per_topology(self):
        nets = family_networks()
        jobs = topology_sweep_jobs(
            nets, ["PolSP"], ["uniform"], [0.3],
            root_strategy="central", **SWEEP_KW,
        )
        from repro.updown.roots import choose_root

        for job, label in zip(jobs, _labels(jobs)):
            assert job.spec.root == choose_root(nets[label], "central")

    def test_distinct_topologies_distinct_job_keys(self):
        jobs = topology_sweep_jobs(
            family_networks(), ["PolSP"], ["uniform"], [0.3], **SWEEP_KW
        )
        assert len({job_key(j) for j in jobs}) == len(jobs)

    def test_random_draws_distinct_job_keys(self):
        """Two seeds give different graphs, so they must never share a
        cache entry even though n/degree match."""
        a = topology_sweep_jobs(
            {"r": Network(RandomRegular(16, 4, 2, seed=0))},
            ["PolSP"], ["uniform"], [0.3], **SWEEP_KW,
        )
        b = topology_sweep_jobs(
            {"r": Network(RandomRegular(16, 4, 2, seed=1))},
            ["PolSP"], ["uniform"], [0.3], **SWEEP_KW,
        )
        assert job_key(a[0]) != job_key(b[0])

    def test_compact_signatures(self):
        assert '"Torus"' in topology_signature(Torus((4, 4), 2))
        assert '"FatTree"' in topology_signature(FatTree(4))
        # Torus and mesh of the same sides must not alias.
        assert topology_signature(Torus((4, 4), 2)) != topology_signature(
            Torus((4, 4), 2, wrap=False)
        )

    def test_random_regular_signature_pins_the_wiring(self):
        """RandomRegular is addressed by its drawn neighbour lists, not
        by (n, degree, seed): numpy does not guarantee stream stability
        across versions, so a seed alone must never name a cache entry."""
        topo = RandomRegular(16, 4, 2, seed=9)
        sig = topology_signature(topo)
        assert str(topo.neighbours(0)).replace(" ", "") in sig
        # Two equal drawings sign identically even as distinct objects.
        assert sig == topology_signature(RandomRegular(16, 4, 2, seed=9))


class TestExecutorIdentity:
    def test_serial_parallel_cached_identical(self, tmp_path):
        nets = family_networks()
        jobs = topology_sweep_jobs(
            nets, ["Minimal", "PolSP"], ["uniform"], [0.3],
            seed=0, root_strategy="max_live_degree", **SWEEP_KW,
        )
        serial = run_sweep(jobs)
        parallel = run_sweep(jobs, ParallelExecutor(jobs=2))
        cache = tmp_path / "cache"
        first = run_sweep(jobs, SerialExecutor(cache_dir=cache))
        cached = run_sweep(jobs, SerialExecutor(cache_dir=cache))
        assert serial == parallel == first == cached
        assert {r["topology"] for r in serial} == set(nets)

    def test_matrix_pivots_by_topology(self):
        recs = run_sweep(topology_sweep_jobs(
            family_networks(), ["PolSP"], ["uniform"], [0.3], **SWEEP_KW
        ))
        out = throughput_matrix(
            recs, row_key=("mechanism", "traffic"), col_key="topology"
        )
        assert "torus" in out and "fattree" in out and "random" in out
        assert "PolSP:uniform" in out

    def test_fig_topologies_driver(self):
        recs = fig_topologies(
            "tiny", topologies=("torus", "random"), mechanisms=("PolSP",),
            traffics=("uniform",), loads=(0.3,),
        )
        assert {r["topology"] for r in recs} == {"torus", "random"}
        for r in recs:
            assert not r["deadlocked"]
            assert r["stalled"] == 0  # escape routing deadlock/stall-free


class TestDisconnectedPoints:
    def _job(self, faults, schedule=None):
        topo = HyperX((2, 2), 1)  # the 4-cycle: one cut pair splits it
        return PointJob(
            topology=topo,
            faults=tuple(faults),
            spec=PointSpec("PolSP", "uniform", 0.3, n_vcs=4),
            warmup=20,
            measure=40,
            schedule=schedule,
            series_interval=10 if schedule is not None else None,
        )

    def test_static_disconnected_point_yields_record(self):
        rec = run_job(self._job([(0, 1), (0, 2)]))
        assert rec["disconnected"] is True
        assert rec["accepted"] == 0.0
        assert math.isnan(rec["latency_cycles"])
        assert not rec["deadlocked"]

    def test_scheduled_disconnection_yields_record(self):
        sched = FaultSchedule.link_down(30, [(0, 1), (0, 2)])
        rec = run_job(self._job([], schedule=sched))
        assert rec["disconnected"] is True
        assert rec["schedule_events"] == 2
        assert rec["series"] == []

    def test_statically_disconnected_transient_job_keeps_record_shape(self):
        """A job disconnected *before slot 0* must carry the same
        schedule keys as one cut mid-run (the CLI reads rec['series'])."""
        sched = FaultSchedule.link_down(30, [(1, 3)])
        rec = run_job(self._job([(0, 1), (0, 2)], schedule=sched))
        assert rec["disconnected"] is True
        assert rec["series"] == [] and rec["dropped"] == 0
        assert rec["schedule_events"] == 1

    def test_disconnected_record_round_trips_through_cache(self, tmp_path):
        job = self._job([(0, 1), (0, 2)])
        ex = SerialExecutor(cache_dir=tmp_path / "c")
        first = ex.run([job])[0]
        again = ex.run([job])[0]
        assert first["disconnected"] and again["disconnected"]
        assert math.isnan(again["latency_cycles"])
        assert math.isnan(again["avg_hops"])

    def test_record_carries_every_standard_key(self):
        live = run_job(self._job([]))
        rec = make_record(self._job([(0, 1), (0, 2)]))
        assert list(rec) == list(live) + ["disconnected"]

    def test_default_n_vcs_raises_typed_error(self):
        from repro.routing.catalog import default_n_vcs
        from repro.topology.graph import NetworkDisconnected

        net = Network(Torus((2, 2), 1), [(0, 1), (0, 2)])
        with pytest.raises(NetworkDisconnected):
            default_n_vcs(net)

    def test_cache_version_bumped_for_topology_axis(self):
        assert CACHE_VERSION >= 5
