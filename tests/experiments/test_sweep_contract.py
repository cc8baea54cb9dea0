"""The executor contract, once, for every sweep kind.

Whatever builder produced a job list, its records are the same
serial / through the process pool / cold through the cache / warm from
the cache — label columns included — and the labels themselves are pure
presentation: they change neither the cache address nor what a cache
entry stores.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import executor as executor_mod
from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    encode_json_safe,
    job_key,
)
from repro.experiments.sweeps import (
    ablation_arbiter_jobs,
    collective_sweep_jobs,
    fault_sweep_jobs,
    load_sweep_jobs,
    topology_sweep_jobs,
    with_labels,
    workload_sweep_jobs,
)
from repro.simulator.schedule import FaultSchedule
from repro.simulator.workload import WorkloadSchedule
from repro.topology.base import Network
from repro.topology.fattree import FatTree
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.topology.torus import Torus

HX = HyperX((4, 4), 2)
NET = Network(HX)
POINT = (["Minimal", "PolSP"], ["uniform"], [0.3])
WINDOW = dict(warmup=20, measure=40)
DOWN_UP = FaultSchedule.down_then_up(
    30, 50, random_connected_fault_sequence(HX, 2, rng=9)
)

#: One tiny job list per sweep kind (the phased workload rides along as
#: its own row: its jobs carry a schedule the plain workload ones lack).
SWEEPS = {
    "load": lambda: load_sweep_jobs(NET, *POINT, **WINDOW),
    "fault": lambda: fault_sweep_jobs(
        HX, ["PolSP"], ["uniform"], [0, 3], fault_seed=3, **WINDOW
    ),
    "transient": lambda: load_sweep_jobs(
        NET, *POINT[:2], [0.5], n_vcs=4, schedule=DOWN_UP, series_interval=10,
        **WINDOW,
    ),
    "ablation": lambda: ablation_arbiter_jobs(
        NET, ["PolSP"], ["uniform"], [0.5],
        arbiters=("qp", "roundrobin"), link_latencies=(1, 2), **WINDOW,
    ),
    "workload": lambda: workload_sweep_jobs(NET, *POINT, **WINDOW),
    "workload-phased": lambda: workload_sweep_jobs(
        NET, *POINT, injections=("onoff",),
        workload=WorkloadSchedule([(30, "offered", 0.1), (45, "pattern", "shift")]),
        **WINDOW,
    ),
    "topology": lambda: topology_sweep_jobs(
        {"torus": Network(Torus((4, 4), 2)), "fattree": Network(FatTree(4))},
        *POINT, root_strategy="central", **WINDOW,
    ),
    "collective": lambda: collective_sweep_jobs(
        NET, ["PolSP"], ["allreduce_tree"],
        schedules=(("none", None), ("downup", DOWN_UP)), max_slots=50_000,
    ),
}


def _norm(records):
    """NaN-robust comparison key (NaN != NaN under plain equality)."""
    return json.dumps(encode_json_safe(records), sort_keys=True)


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_sweep_contract(kind, tmp_path, monkeypatch):
    # Tiny sweeps never repay a pool; zero the floor so the parallel leg
    # really pickles the jobs (labels included) through worker processes.
    monkeypatch.setattr(executor_mod, "PER_WORKER_OVERHEAD", 0)
    plain = SWEEPS[kind]()
    jobs = with_labels(plain, probe=kind)  # every kind carries >= 1 label
    assert [job_key(j) for j in jobs] == [job_key(j) for j in plain]

    serial = SerialExecutor().run(jobs)
    for job, rec in zip(jobs, serial):
        assert dict(job.labels).items() <= rec.items()
    cache = tmp_path / "cache"
    cold = SerialExecutor(cache_dir=cache).run(jobs)
    warm = SerialExecutor(cache_dir=cache).run(jobs)
    parallel = ParallelExecutor(jobs=2).run(jobs)
    assert _norm(parallel) == _norm(cold) == _norm(warm) == _norm(serial)

    # Jobs differing only in labels share one cache file, and no stored
    # entry holds a label column.
    files = sorted(cache.glob("*.json"))
    assert [f.stem for f in files] == sorted({job_key(j) for j in jobs})
    relabelled = SerialExecutor(cache_dir=cache).run(plain)
    assert sorted(cache.glob("*.json")) == files
    assert all("probe" not in rec for rec in relabelled)
    label_columns = {name for job in jobs for name, _ in job.labels}
    for path in files:
        assert not label_columns & set(json.loads(path.read_text())["record"])


def test_duplicate_jobs_are_simulated_once(tmp_path, monkeypatch):
    # fig8/fig9 repeat their healthy-reference points under one label set
    # per shape: same cache address, different labels.
    monkeypatch.setattr(executor_mod, "PER_WORKER_OVERHEAD", 0)
    plain = SWEEPS["load"]()
    jobs = (
        with_labels(plain, shape="row")
        + with_labels(plain[:1], shape="cross")
        + with_labels(plain, shape="star")
    )

    class Counting(SerialExecutor):
        def _execute(self, jobs):
            executed.append([job_key(j) for j in jobs])
            return super()._execute(jobs)

    executed: list[list[str]] = []
    cache = tmp_path / "cache"
    cold = Counting(cache_dir=cache).run(jobs)
    assert executed == [[job_key(j) for j in plain]]  # one job per key
    assert len(list(cache.glob("*.json"))) == len(plain)

    # Every index gets its own labels on its own record object.
    assert [rec["shape"] for rec in cold] == [dict(j.labels)["shape"] for j in jobs]
    assert len({id(rec) for rec in cold}) == len(jobs)
    unlabelled = [{k: v for k, v in rec.items() if k != "shape"} for rec in cold]
    assert _norm(unlabelled) == _norm(SerialExecutor().run(plain + plain[:1] + plain))

    uncached = Counting().run(jobs)
    assert executed[1] == executed[0]
    parallel = ParallelExecutor(jobs=2).run(jobs)
    warm = Counting(cache_dir=cache).run(jobs)
    assert len(executed) == 2  # warm run: nothing reached _execute
    assert _norm(cold) == _norm(uncached) == _norm(parallel) == _norm(warm)
