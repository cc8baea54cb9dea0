"""Integration: the paper's 2D fault-figure claims (Figures 6 and 8).

Figure 6: OmniSP and PolSP degrade gracefully as random faults
accumulate — no collapse, no stall, no deadlock.  Figure 8: Row and
Subplane faults cost little against the healthy reference marks, Cross
is the stressor, and OmniSP and PolSP track each other.  Both figure
drivers run end to end (sweep builder, executor) on a 4x4 network.
"""

from repro.experiments.figures import fig6_random_faults, fig8_2d_shape_faults
from repro.experiments.scales import Scale

#: Side 4, short windows, the benchmark suite's fault fractions; only
#: saturating load (1.0) is simulated, so ``loads`` is not used.
FAULT_CLAIMS = Scale(
    name="fault-claims", side_2d=4, side_3d=4, warmup=40, measure=80,
    loads=(1.0,), fault_fractions=(0.0, 0.08, 0.16),
)


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


def test_fig6_2d_random_faults():
    recs = fig6_random_faults(FAULT_CLAIMS, 2)
    assert sorted({r["faults"] for r in recs}) == [0, 4, 8]
    check_graceful(recs)


def test_fig8_2d_shape_faults():
    recs = fig8_2d_shape_faults(FAULT_CLAIMS)

    def acc(shape, mech, traffic):
        for r in recs:
            if (r["shape"], r["mechanism"], r["traffic"]) == (shape, mech, traffic):
                return r["accepted"]
        raise KeyError((shape, mech, traffic))

    for mech in ("OmniSP", "PolSP"):
        for traffic in ("uniform", "randperm", "dcr"):
            for shape in ("row", "subplane", "cross"):
                faulty = acc(shape, mech, traffic)
                healthy = acc(f"{shape}-healthy-ref", mech, traffic)
                # Faults always cost something but never break delivery.
                assert faulty > 0.05
                assert faulty <= healthy + 0.05
                if shape in ("row", "subplane"):
                    # Mild shapes: most of the healthy throughput survives.
                    assert faulty > 0.5 * healthy, (shape, mech, traffic)

    # OmniSP and PolSP stay close under structured faults (paper: "not a
    # great difference coming from the sets of routes").
    for shape in ("row", "subplane", "cross"):
        for traffic in ("uniform", "randperm"):
            a, b = acc(shape, "OmniSP", traffic), acc(shape, "PolSP", traffic)
            assert abs(a - b) < 0.25
