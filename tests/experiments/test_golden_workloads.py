"""Golden-fingerprint guard for the workload-diversity hot paths.

``tests/experiments/test_golden_fingerprint.py`` pins the *default*
composition (Bernoulli + shared streams); this suite pins one captured
**non-default** composition — on-off injection x hotspot traffic on the
small test HyperX, split RNG streams, including a phased point — so
future refactors cannot silently change the new hot paths either
(on-off modulation draws, hotspot destination draws, spawned-stream
wiring, phase accounting).

Regenerate (only when a change is *meant* to alter records)::

    PYTHONPATH=src:tests python tests/experiments/test_golden_workloads.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.experiments import executor as executor_mod
from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    encode_json_safe,
)
from repro.experiments.sweeps import workload_sweep_jobs
from repro.simulator.workload import WorkloadSchedule
from repro.topology.base import Network
from repro.topology.hyperx import HyperX

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden_workload_records.json"
)


def golden_jobs():
    """The canonical non-default job list behind the fingerprint."""
    net = Network(HyperX((4, 4), 2))
    jobs = workload_sweep_jobs(
        net, ("OmniSP", "PolSP"), ("hotspot", "uniform"), (0.25, 0.5),
        injections=("onoff",), burst_slots=6, idle_slots=6,
        warmup=80, measure=160, seed=0,
    )
    # One phased point: load dip then pattern switch, mid-measurement.
    schedule = WorkloadSchedule(
        [(120, "offered", 0.1), (180, "pattern", "shift")]
    )
    jobs += workload_sweep_jobs(
        net, ("PolSP",), ("uniform",), (0.4,),
        injections=("onoff",), burst_slots=6, idle_slots=6,
        workload=schedule, warmup=80, measure=160, seed=0,
    )
    # The fingerprint pins what the simulation produces, not the sweep's
    # presentation columns.
    return [dataclasses.replace(job, labels=()) for job in jobs]


def _normalize(records):
    """JSON round-trip so floats/tuples compare like the stored golden."""
    return json.loads(json.dumps(encode_json_safe(records)))


def test_serial_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = _normalize(SerialExecutor().run(golden_jobs()))
    assert len(fresh) == len(golden)
    for got, want in zip(fresh, golden):
        assert got == want, f"record drifted for {want['mechanism']}/{want['traffic']}"


def test_parallel_and_cache_match_golden(tmp_path, monkeypatch):
    # Force a real pool: the sweep is below should_parallelize's floor.
    monkeypatch.setattr(executor_mod, "PER_WORKER_OVERHEAD", 0)
    golden = json.loads(GOLDEN_PATH.read_text())
    jobs = golden_jobs()
    assert _normalize(ParallelExecutor(jobs=2).run(jobs)) == golden
    cache = tmp_path / "cache"
    first = SerialExecutor(cache_dir=cache).run(jobs)
    again = SerialExecutor(cache_dir=cache).run(jobs)
    assert _normalize(first) == _normalize(again) == golden


def regenerate() -> None:  # pragma: no cover - manual tool
    records = SerialExecutor().run(golden_jobs())
    bad = [r for r in records if r["deadlocked"]]
    assert not bad, "golden points must not deadlock (early-stop skews them)"
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(encode_json_safe(records), indent=1, allow_nan=False) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(records)} records)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
