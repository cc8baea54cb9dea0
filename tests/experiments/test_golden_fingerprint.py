"""Golden-fingerprint guard: the default router microarchitecture
(``QPArbiter`` + ``VirtualCutThrough`` + ``UnitSlotLink``) must reproduce
the exact sweep records the pre-component-refactor engine produced.

``tests/data/golden_default_records.json`` was captured from the engine
*before* the pluggable-component refactor (PR 3).  The suite re-runs the
same canonical job list — a healthy load sweep over all six mechanisms, a
static fault sweep and a scheduled fail-then-repair transient — and
requires byte-identical records from the serial executor, the parallel
executor and a cache round-trip.  None of the golden points stalls or
deadlocks, so the early-stop measure-slot bugfix cannot move them either.

Regenerate (only when a change is *meant* to alter records)::

    PYTHONPATH=src:tests python tests/experiments/test_golden_fingerprint.py
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments import executor as executor_mod
from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    encode_json_safe,
)
from repro.experiments.sweeps import (
    fault_sweep_jobs,
    load_sweep_jobs,
)
from repro.routing.catalog import MECHANISMS
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden_default_records.json"
)


def golden_jobs():
    """The canonical job list behind the fingerprint (default components)."""
    hx = HyperX((4, 4), 2)
    net = Network(hx)
    jobs = load_sweep_jobs(
        net, MECHANISMS, ("uniform", "randperm"), (0.25, 0.6),
        warmup=80, measure=160, seed=0,
    )
    jobs += fault_sweep_jobs(
        hx, ("OmniSP", "PolSP"), ("uniform",), (0, 3),
        offered=1.0, warmup=80, measure=160, seed=0, fault_seed=7,
    )
    link = random_connected_fault_sequence(hx, 1, rng=7)[0]
    schedule = FaultSchedule.down_then_up(100, 180, [link])
    jobs += load_sweep_jobs(
        net, ("OmniSP", "PolSP"), ("uniform",), (0.5,),
        warmup=80, measure=160, seed=0, n_vcs=4,
        schedule=schedule, series_interval=20,
    )
    return jobs


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
