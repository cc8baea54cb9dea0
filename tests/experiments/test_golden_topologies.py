"""Golden-fingerprint guard for the topology-diversity paths.

``test_golden_fingerprint.py`` pins the default HyperX composition and
``test_golden_workloads.py`` the workload axis; this suite pins one
captured **non-default topology** composition — PolSP + Minimal over a
torus and a fat-tree under uniform + shift traffic, with per-family
``central`` escape roots — so future refactors of the topology layer
(port numbering, escape construction on irregular graphs, root policies)
cannot silently change what a sweep measures.

Regenerate (only when a change is *meant* to alter records)::

    PYTHONPATH=src:tests python tests/experiments/test_golden_topologies.py
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
from repro.experiments.sweeps import topology_sweep_jobs
from repro.topology.base import Network
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden_topology_records.json"
)


def golden_jobs():
    """The canonical non-default job list behind the fingerprint."""
    networks = {
        "torus": Network(Torus((4, 4), 2)),
        "fattree": Network(FatTree(4)),
    }
    return topology_sweep_jobs(
        networks, ("Minimal", "PolSP"), ("uniform", "shift"), (0.25, 0.5),
        warmup=80, measure=160, seed=0, root_strategy="central",
    )


def _normalize(records):
    """JSON round-trip so floats/tuples compare like the stored golden."""
    return json.loads(json.dumps(encode_json_safe(records)))


def test_serial_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = _normalize(SerialExecutor().run(golden_jobs()))
    assert len(fresh) == len(golden)
    for got, want in zip(fresh, golden):
        assert got == want, (
            f"record drifted for {want['topology']}/{want['mechanism']}/"
            f"{want['traffic']}"
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
