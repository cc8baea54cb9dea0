"""Figure 6 — saturation throughput under cumulative random faults.

Expected shape (paper §6): both OmniSP and PolSP degrade smoothly — no
collapse, no deadlock — even as random faults accumulate (the paper's
Uniform curve drifts ~0.9 -> ~0.8 over 100 faults at paper scale; the
scaled-down benchmark removes comparable link *fractions*).  The 2D
claims are asserted in ``tests/integration/test_fault_figures.py``.
"""

from conftest import BENCH, once
from repro.experiments.figures import fig6_random_faults
from repro.experiments.reporting import ascii_table


def check_graceful(recs):
    mechs = {r["mechanism"] for r in recs}
    assert mechs == {"OmniSP", "PolSP"}
    for mech in mechs:
        for traffic in {r["traffic"] for r in recs}:
            curve = sorted(
                (r["faults"], r["accepted"])
                for r in recs
                if r["mechanism"] == mech and r["traffic"] == traffic
            )
            healthy = curve[0][1]
            worst = min(a for _f, a in curve)
            # Graceful: even the worst faulted point keeps a solid share
            # of the healthy throughput and nothing deadlocks.
            assert worst > 0.35 * healthy, (mech, traffic, curve)
    assert not any(r["deadlocked"] for r in recs)
    assert all(r["stalled"] == 0 for r in recs)


def test_fig6_3d_random_faults(benchmark):
    recs = once(benchmark, fig6_random_faults, BENCH, 3)
    print("\nFigure 6 (3D) — accepted load vs faults")
    print(ascii_table(recs, ("mechanism", "traffic", "faults", "accepted")))
    check_graceful(recs)
