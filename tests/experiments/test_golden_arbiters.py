"""Golden-fingerprint guard for the non-default arbiters.

``test_golden_fingerprint.py`` pins the default ``QPArbiter`` only, and
the backend differential compares two backends that share every arbiter,
so a change to round-robin, age or random arbitration that hits both
backends alike would pass both.  This suite pins one captured ablation
sweep — all four arbiters x virtual cut-through / store-and-forward x
link latency 1 / 2, PolSP under congested uniform traffic on the small
test HyperX — so the grant loop the arbiters share cannot silently
change what any of them grants.

Regenerate (only when a change is *meant* to alter records)::

    PYTHONPATH=src:tests python tests/experiments/test_golden_arbiters.py
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.executor import SerialExecutor, encode_json_safe
from repro.experiments.sweeps import DEFAULT_ARBITERS, ablation_arbiter_jobs
from repro.topology.base import Network
from repro.topology.hyperx import HyperX

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "golden_arbiter_records.json"
)


def golden_jobs():
    """The canonical arbiter-ablation job list behind the fingerprint."""
    return ablation_arbiter_jobs(
        Network(HyperX((4, 4), 2)), ("PolSP",), ("uniform",), (0.8,),
        arbiters=DEFAULT_ARBITERS, flow_controls=("vct", "saf"),
        link_latencies=(1, 2), warmup=40, measure=80, seed=0,
    )


def _normalize(records):
    """JSON round-trip so floats/tuples compare like the stored golden."""
    return json.loads(json.dumps(encode_json_safe(records)))


def test_serial_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = _normalize(SerialExecutor().run(golden_jobs()))
    assert len(fresh) == len(golden)
    for got, want in zip(fresh, golden):
        assert got == want, f"record drifted for {want['microarch']}"


def test_golden_separates_the_arbiters():
    """The points are congested enough that the grant order matters:
    no two arbiters record the same latency under one flow control and
    link latency."""
    golden = json.loads(GOLDEN_PATH.read_text())
    cells: dict[tuple, set] = {}
    for rec in golden:
        key = (rec["flow_control"], rec["link_latency"])
        cells.setdefault(key, set()).add(rec["latency_cycles"])
    assert len(cells) == 4
    assert all(len(latencies) == len(DEFAULT_ARBITERS) for latencies in cells.values())


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
