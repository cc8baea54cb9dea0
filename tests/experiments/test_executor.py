"""Executor subsystem tests: jobs, serial/parallel equivalence, caching."""

import json
import warnings
from dataclasses import fields, replace

import pytest

from repro.experiments import executor as executor_mod
from repro.experiments.executor import (
    CACHE_VERSION,
    PER_WORKER_OVERHEAD,
    ParallelExecutor,
    PointJob,
    SerialExecutor,
    estimated_sweep_work,
    job_key,
    make_executor,
    run_job,
    should_parallelize,
)
from repro.experiments.runner import ExperimentRunner, PointSpec
from repro.experiments.sweeps import (
    fault_sweep_jobs,
    load_sweep_jobs,
    run_sweep,
)
from repro.simulator.config import PAPER_CONFIG, SimConfig
from repro.simulator.schedule import FaultSchedule
from repro.simulator.workload import WorkloadSchedule
from repro.topology.hyperx import HyperX

SWEEP_KW = dict(warmup=30, measure=60)


def _fig4_style(net2d, executor=None):
    """A miniature Figure-4 sweep: 2 mechanisms x 1 traffic x 2 loads."""
    jobs = load_sweep_jobs(
        net2d, ["Minimal", "PolSP"], ["uniform"], [0.2, 0.6], **SWEEP_KW
    )
    return run_sweep(jobs, executor)


class TestPointJobs:
    def test_one_job_per_point_in_nested_loop_order(self, net2d):
        jobs = load_sweep_jobs(
            net2d, ["Minimal", "PolSP"], ["uniform"], [0.2, 0.6], **SWEEP_KW
        )
        assert [(j.spec.mechanism, j.spec.offered) for j in jobs] == [
            ("Minimal", 0.2), ("Minimal", 0.6), ("PolSP", 0.2), ("PolSP", 0.6),
        ]

    def test_fault_jobs_carry_nested_prefixes(self, hx2d):
        jobs = fault_sweep_jobs(
            hx2d, ["PolSP"], ["uniform"], [0, 4, 8], fault_seed=3, **SWEEP_KW
        )
        by_count = {len(j.faults): set(j.faults) for j in jobs}
        assert sorted(by_count) == [0, 4, 8]
        assert by_count[0] <= by_count[4] <= by_count[8]

    def test_job_key_is_content_addressed(self, net2d):
        jobs = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2, 0.6], **SWEEP_KW)
        same = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2, 0.6], **SWEEP_KW)
        assert job_key(jobs[0]) == job_key(same[0])
        assert job_key(jobs[0]) != job_key(jobs[1])
        reseeded = load_sweep_jobs(
            net2d, ["Minimal"], ["uniform"], [0.2], seed=7, **SWEEP_KW
        )
        assert job_key(jobs[0]) != job_key(reseeded[0])

    def test_run_job_matches_direct_runner(self, net2d):
        job = PointJob(
            topology=net2d.topology, faults=(),
            spec=PointSpec("PolSP", "uniform", 0.3), warmup=30, measure=60,
        )
        rec = run_job(job)
        res = ExperimentRunner(net2d).run_point(
            "PolSP", "uniform", 0.3, warmup=30, measure=60
        )
        assert rec["accepted"] == res.accepted
        assert rec["latency_cycles"] == pytest.approx(res.avg_latency_cycles)
        assert rec["jain"] == res.jain


#: One alternative valid value per dataclass field.  The keys must be
#: exactly the field names, so a new field fails until it is listed here.
ALT_JOB = {
    "topology": HyperX((3, 3), 2),
    "faults": ((0, 1),),
    "spec": PointSpec("Valiant", "uniform", 0.5),
    "warmup": 11,
    "measure": 21,
    "config": PAPER_CONFIG.with_(arbiter="age"),
    "schedule": FaultSchedule.down_then_up(5, 15, [(0, 1)]),
    "series_interval": 5,
    "workload": WorkloadSchedule.load_steps([(5, 0.1)]),
    "labels": (("shape", "row"),),
}
ALT_SPEC = {
    "mechanism": "Valiant", "traffic": "randperm", "offered": 0.6,
    "seed": 1, "n_vcs": 6, "root": 1,
}
ALT_CONFIG = {
    "input_buffer_packets": 9, "output_buffer_packets": 5,
    "packet_phits": 8, "crossbar_speedup": 1, "source_queue_packets": 8,
    "deadlock_threshold_slots": 400, "arbiter": "age",
    "flow_control": "saf", "link_latency_slots": 2, "injection": "onoff",
    "burst_slots": 4, "idle_slots": 4, "rng_streams": "split",
    "backend": "array", "collective": "allreduce_ring", "chunk_packets": 2,
}
ALT_FIELDS = {"PointJob": ALT_JOB, "PointSpec": ALT_SPEC, "SimConfig": ALT_CONFIG}


def _perturbable(job, owner):
    """``(obj, alternatives, rebuild)``: the dataclass ``owner`` names
    inside ``job``, and how a changed copy of it becomes a job again."""
    if owner == "PointJob":
        return job, ALT_JOB, lambda obj: obj
    if owner == "PointSpec":
        return job.spec, ALT_SPEC, lambda obj: replace(job, spec=obj)
    return job.config, ALT_CONFIG, lambda obj: replace(job, config=obj)


class TestJobKeyCoversEveryField:
    """Every field that can change what a point produces moves
    ``job_key``; only the presentation ``labels`` do not."""

    BASE = PointJob(
        HyperX((4, 4), 2), (), PointSpec("Minimal", "uniform", 0.5),
        warmup=10, measure=20,
    )

    @pytest.mark.parametrize("owner", ALT_FIELDS)
    def test_every_field_has_an_alternative(self, owner):
        obj, alts, _rebuild = _perturbable(self.BASE, owner)
        assert set(alts) == {f.name for f in fields(obj)}

    @pytest.mark.parametrize(
        "owner,name",
        [(owner, name) for owner, alts in ALT_FIELDS.items() for name in alts],
        ids=lambda v: v,
    )
    def test_field_moves_the_key(self, owner, name):
        obj, alts, rebuild = _perturbable(self.BASE, owner)
        moved = rebuild(replace(obj, **{name: alts[name]}))
        assert (job_key(moved) != job_key(self.BASE)) == (name != "labels")

    def test_config_fields_are_pinned_to_the_cache_version(self):
        # Growing SimConfig is keyed by asdict, but records stored before
        # the field existed must not alias records after it: the same
        # change bumps CACHE_VERSION and re-pins this literal.
        assert (CACHE_VERSION, tuple(f.name for f in fields(SimConfig))) == (8, (
            "input_buffer_packets", "output_buffer_packets", "packet_phits",
            "crossbar_speedup", "source_queue_packets",
            "deadlock_threshold_slots", "arbiter", "flow_control",
            "link_latency_slots", "injection", "burst_slots", "idle_slots",
            "rng_streams", "backend", "collective", "chunk_packets",
        ))


class TestSerialExecutor:
    def test_matches_historic_nested_loop(self, net2d):
        """SerialExecutor output is record-for-record the old inline sweep."""
        recs = _fig4_style(net2d)
        runner = ExperimentRunner(net2d)
        expected = []
        for traffic in ["uniform"]:
            for mechanism in ["Minimal", "PolSP"]:
                for offered in [0.2, 0.6]:
                    res = runner.run_point(
                        mechanism, traffic, offered, **SWEEP_KW
                    )
                    expected.append(
                        {
                            "mechanism": mechanism,
                            "traffic": traffic,
                            "offered": res.offered,
                            "accepted": res.accepted,
                            "latency_cycles": res.avg_latency_cycles,
                            "jain": res.jain,
                            "faults": 0,
                            "deadlocked": res.deadlocked,
                            "stalled": res.stalled_packets,
                            "escape_fraction": res.escape_hop_fraction,
                            "avg_hops": res.avg_hops,
                        }
                    )
        assert recs == expected


class TestParallelExecutor:
    def test_load_sweep_identical_to_serial(self, net2d):
        serial = _fig4_style(net2d)
        parallel = _fig4_style(net2d, executor=ParallelExecutor(jobs=4))
        assert parallel == serial

    def test_fault_sweep_identical_to_serial(self, hx2d):
        jobs = fault_sweep_jobs(
            hx2d, ["PolSP"], ["uniform"], [0, 4], fault_seed=3, **SWEEP_KW
        )
        assert run_sweep(jobs, ParallelExecutor(jobs=4)) == run_sweep(jobs)

    def test_deterministic_across_worker_counts(self, net2d):
        one = _fig4_style(net2d, executor=ParallelExecutor(jobs=1))
        four = _fig4_style(net2d, executor=ParallelExecutor(jobs=4))
        assert one == four

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=-1)


class TestParallelHeuristic:
    """should_parallelize: undersized sweeps stay in-process, because a
    pool that cannot amortise its fork/pickle overhead runs *slower*
    than the serial executor (the quick bench preset measured 0.97x)."""

    def _jobs(self, topo, n, warmup, measure):
        spec = PointSpec("Minimal", "uniform", 0.2)
        return [
            PointJob(topology=topo, faults=(), spec=spec,
                     warmup=warmup, measure=measure)
            for _ in range(n)
        ]

    def test_work_estimate_sums_switch_slots(self, hx2d):
        jobs = self._jobs(hx2d, 3, warmup=100, measure=200)
        assert estimated_sweep_work(jobs) == 3 * 300 * hx2d.n_switches

    def test_quick_preset_sized_sweep_stays_serial(self, hx2d):
        # The bench quick preset: 36 jobs x 300 slots x 16 switches =
        # 172,800 switch-slots — under the 4-worker floor even on a
        # machine with CPUs to spare.
        jobs = self._jobs(hx2d, 36, warmup=120, measure=180)
        assert estimated_sweep_work(jobs) < 4 * PER_WORKER_OVERHEAD
        assert not should_parallelize(jobs, 4, cpu_count=4)

    def test_big_sweep_parallelizes_with_cpus(self, hx2d):
        jobs = self._jobs(hx2d, 200, warmup=500, measure=1000)
        assert should_parallelize(jobs, 4, cpu_count=4)

    def test_never_parallel_without_workers_jobs_or_cpus(self, hx2d):
        jobs = self._jobs(hx2d, 200, warmup=500, measure=1000)
        assert not should_parallelize(jobs, 1, cpu_count=4)
        assert not should_parallelize(jobs[:1], 4, cpu_count=4)
        assert not should_parallelize(jobs, 4, cpu_count=1)

    def test_undersized_sweep_never_forks(self, net2d, monkeypatch):
        class Boom:
            def __init__(self, *a, **kw):
                raise AssertionError("pool spawned for an undersized sweep")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", Boom)
        serial = _fig4_style(net2d)
        parallel = _fig4_style(net2d, executor=ParallelExecutor(jobs=4))
        assert parallel == serial


class TestResultCache:
    def test_cache_hit_skips_simulation(self, net2d, tmp_path, monkeypatch):
        first = _fig4_style(net2d, executor=SerialExecutor(cache_dir=tmp_path))
        assert len(list(tmp_path.glob("*.json"))) == len(first)

        def boom(job):
            raise AssertionError("cache miss: job was re-simulated")

        monkeypatch.setattr(executor_mod, "run_job", boom)
        second = _fig4_style(net2d, executor=SerialExecutor(cache_dir=tmp_path))
        assert second == first

    def test_partial_hits_fill_only_misses(self, net2d, tmp_path):
        ex = SerialExecutor(cache_dir=tmp_path)
        jobs = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2], **SWEEP_KW)
        first = ex.run(jobs)
        more = load_sweep_jobs(
            net2d, ["Minimal"], ["uniform"], [0.2, 0.6], **SWEEP_KW
        )
        combined = ex.run(more)
        assert combined[0] == first[0]
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_corrupt_cache_entry_is_recomputed(self, net2d, tmp_path):
        ex = SerialExecutor(cache_dir=tmp_path)
        jobs = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2], **SWEEP_KW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cold sweep only misses
            first = ex.run(jobs)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match=path.name):
            again = ex.run(jobs)
        assert again == first
        assert json.loads(path.read_text())["key"] == path.stem
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # repaired: a plain hit again
            assert ex.run(jobs) == first

    def test_two_writers_of_one_entry_both_succeed(self, net2d, tmp_path, monkeypatch):
        """Two sweeps sharing a cache dir finish the same point: the
        second starts writing after the first has written and before
        the first publishes.  Each needs its own temporary file."""
        ex = SerialExecutor(cache_dir=tmp_path)
        (job,) = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2], **SWEEP_KW)
        record = run_job(job)
        real_replace = executor_mod.os.replace
        nested = []

        def interleaved_replace(src, dst):
            if not nested:
                nested.append(True)
                ex._cache_store(job, record)  # the other sweep, whole
            real_replace(src, dst)

        monkeypatch.setattr(executor_mod.os, "replace", interleaved_replace)
        ex._cache_store(job, record)
        assert nested
        assert [p.name for p in tmp_path.iterdir()] == [f"{job_key(job)}.json"]
        assert ex._cache_load(job) == record

        def reject(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        json.loads((tmp_path / f"{job_key(job)}.json").read_text(),
                   parse_constant=reject)

    def test_failed_dump_leaves_no_temporary(self, net2d, tmp_path):
        ex = SerialExecutor(cache_dir=tmp_path)
        (job,) = load_sweep_jobs(net2d, ["Minimal"], ["uniform"], [0.2], **SWEEP_KW)
        with pytest.raises(TypeError):
            ex._cache_store(job, {"unserialisable": object()})
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            SerialExecutor(cache_dir=path)

    def test_parallel_and_serial_share_the_cache(self, net2d, tmp_path):
        serial = _fig4_style(net2d, executor=SerialExecutor(cache_dir=tmp_path))
        parallel = _fig4_style(
            net2d, executor=ParallelExecutor(jobs=2, cache_dir=tmp_path)
        )
        assert parallel == serial


def _with_bad_job(net2d, k):
    """Four good jobs with an invalid one (a collective that also carries
    a workload schedule: ``run_job`` raises) inserted as the k-th."""
    good = load_sweep_jobs(
        net2d, ["Minimal", "PolSP"], ["uniform"], [0.2, 0.6], **SWEEP_KW
    )
    bad = replace(
        good[0],
        config=PAPER_CONFIG.with_(collective="allreduce_ring"),
        workload=WorkloadSchedule([(40, "offered", 0.1)]),
    )
    return good, good[: k - 1] + [bad] + good[k - 1:]


class _Counting(SerialExecutor):
    """Records the cache address of every job that reaches ``_execute``."""

    def __init__(self, cache_dir):
        super().__init__(cache_dir=cache_dir)
        self.executed: list[str] = []

    def _execute(self, jobs):
        self.executed += [job_key(j) for j in jobs]
        return super()._execute(jobs)


class TestSweepKeepsFinishedPoints:
    """A sweep that dies part-way leaves every point before the failure in
    the cache, and a rerun simulates only what is still missing."""

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_kth_job_raising_keeps_the_first_k_minus_1(
        self, net2d, tmp_path, monkeypatch, k, pool
    ):
        monkeypatch.setattr(executor_mod, "PER_WORKER_OVERHEAD", 0)
        good, jobs = _with_bad_job(net2d, k)
        executor = (
            ParallelExecutor(jobs=2, cache_dir=tmp_path)
            if pool else SerialExecutor(cache_dir=tmp_path)
        )
        with pytest.raises(ValueError, match="collective jobs"):
            executor.run(jobs)
        stored = {p.stem for p in tmp_path.glob("*.json")}
        assert stored == {job_key(j) for j in good[: k - 1]}

        rerun = _Counting(tmp_path)
        records = rerun.run(good)
        assert rerun.executed == [job_key(j) for j in good[k - 1:]]
        assert records == SerialExecutor().run(good)

    def test_interrupt_keeps_finished_points(self, net2d, tmp_path, monkeypatch):
        jobs = load_sweep_jobs(
            net2d, ["Minimal", "PolSP"], ["uniform"], [0.2, 0.6], **SWEEP_KW
        )
        real_run_job = executor_mod.run_job

        def interrupted(job):
            if job is jobs[2]:
                raise KeyboardInterrupt
            return real_run_job(job)

        monkeypatch.setattr(executor_mod, "run_job", interrupted)
        with pytest.raises(KeyboardInterrupt):
            SerialExecutor(cache_dir=tmp_path).run(jobs)
        stored = {p.stem for p in tmp_path.glob("*.json")}
        assert stored == {job_key(j) for j in jobs[:2]}


class TestMakeExecutor:
    def test_serial_by_default(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_when_asked(self):
        ex = make_executor(4)
        assert isinstance(ex, ParallelExecutor)
        assert ex.n_workers == 4

    def test_cache_dir_is_threaded_through(self, tmp_path):
        assert make_executor(None, tmp_path).cache_dir == tmp_path
        assert make_executor(4, tmp_path).cache_dir == tmp_path
