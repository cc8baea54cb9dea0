"""Golden-fingerprint guard for the collective (JCT) execution path.

Pins one captured all-reduce sweep — ring and tree on the small test
HyperX, healthy and through a mid-run fail-then-repair — so future
refactors of the drain loop, the delivery-attribution bookkeeping or
the retransmit path cannot silently change collective records.  The
executor-identity test doubles as the serial == parallel == cached
guarantee for collective :class:`PointJob`s.

Regenerate (only when a change is *meant* to alter records)::

    PYTHONPATH=src:tests python tests/experiments/test_golden_collectives.py
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
    job_key,
)
from repro.experiments.sweeps import collective_sweep_jobs
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden_collective_records.json"
)


def golden_jobs():
    """The canonical collective job list behind the fingerprint."""
    topo = HyperX((4, 4), 2)
    net = Network(topo)
    links = random_connected_fault_sequence(topo, 8, rng=1)
    jobs = collective_sweep_jobs(
        net, ("Minimal", "PolSP"), ("allreduce_ring", "allreduce_tree"),
        schedules=(
            ("none", None),
            ("downup", FaultSchedule.down_then_up(4, 604, links)),
        ),
        chunk_packets=4, max_slots=200_000, seed=0,
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
        assert got == want, (
            f"record drifted for {want['mechanism']}/{want['collective']}"
        )


def test_golden_covers_the_claims():
    """The fingerprint pins live runs, not degenerate ones: finite JCTs
    on the healthy points and at least one faulted point that actually
    retransmitted."""
    golden = json.loads(GOLDEN_PATH.read_text())
    drained = [r for r in golden if r["drained"]]
    assert drained, "no collective in the golden set completed"
    assert all(r["jct_cycles"] > 0 for r in drained)
    assert any(r["retransmitted"] > 0 for r in golden), (
        "no golden point exercises the retransmit path"
    )


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


def test_collective_fields_reach_cache_key():
    """Two jobs differing only in collective / chunk size must never
    alias one cache entry (they enter via ``asdict(config)``)."""
    jobs = golden_jobs()
    a = jobs[0]
    b = a.__class__(**{
        **{f: getattr(a, f) for f in a.__dataclass_fields__},
        "config": a.config.with_(collective="allgather_ring"),
    })
    c = a.__class__(**{
        **{f: getattr(a, f) for f in a.__dataclass_fields__},
        "config": a.config.with_(chunk_packets=2),
    })
    assert len({job_key(a), job_key(b), job_key(c)}) == 3


def regenerate() -> None:  # pragma: no cover - manual tool
    records = SerialExecutor().run(golden_jobs())
    bad = [r for r in records if not r["drained"] and not r["deadlocked"]]
    assert not bad, "golden collectives must drain within the budget"
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(encode_json_safe(records), indent=1, allow_nan=False) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(records)} records)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
