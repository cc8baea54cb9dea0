"""Integration: the paper's fault-figure claims (Figures 6, 8 and 9).

Figure 6: OmniSP and PolSP degrade gracefully as random faults
accumulate — no collapse, no stall, no deadlock — in 2D and 3D.
Figure 8: Row and Subplane faults cost little against the healthy
reference marks, Cross is the stressor, and OmniSP and PolSP track each
other.  Figure 9: every 3D shape keeps delivering, Row and Subcube keep
most of the healthy throughput, and PolSP keeps its RPN edge over OmniSP
under them.  The figure drivers run end to end (sweep builder, executor)
on 4x4 and 4x4x4 networks.
"""

from repro.experiments.figures import fig6_random_faults, fig_shape_faults
from repro.experiments.scales import Scale

#: Side 4, short windows, fault fractions up to 16% of the links; only
#: saturating load (1.0) is simulated, so ``loads`` is not used.
FAULT_CLAIMS = Scale(
    name="fault-claims", side_2d=4, side_3d=4, warmup=40, measure=80,
    loads=(1.0,), fault_fractions=(0.0, 0.08, 0.16),
)

#: The 3D claims without the middle fault count, on a quarter of the
#: window: their margins stay near a 40 + 80 slot run's (worst faulted /
#: healthy 0.76 against 0.74, mild shape / healthy >= 0.93 in both,
#: PolSP's RPN edge 0.09-0.10 against 0.10-0.12), while at 5 + 10 slots
#: the RPN edge falls to 0.035.
FAULT_CLAIMS_3D = Scale(
    name="fault-claims-3d", side_2d=4, side_3d=4, warmup=10, measure=20,
    loads=(1.0,), fault_fractions=(0.0, 0.16),
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


def accepted_by(recs):
    """``acc(shape, mechanism, traffic)`` over one shape-fault sweep."""
    table = {(r["shape"], r["mechanism"], r["traffic"]): r["accepted"] for r in recs}

    def acc(shape, mech, traffic):
        return table[shape, mech, traffic]

    return acc


def test_fig6_2d_random_faults():
    recs = fig6_random_faults(FAULT_CLAIMS, 2)
    assert sorted({r["faults"] for r in recs}) == [0, 4, 8]
    check_graceful(recs)


def test_fig6_3d_random_faults():
    recs = fig6_random_faults(FAULT_CLAIMS_3D, 3)
    assert sorted({r["faults"] for r in recs}) == [0, 46]
    assert {r["traffic"] for r in recs} == {"uniform", "randperm", "dcr", "rpn"}
    check_graceful(recs)


def test_fig8_2d_shape_faults():
    acc = accepted_by(fig_shape_faults(FAULT_CLAIMS, 2))
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


def test_fig9_3d_shape_faults():
    recs = fig_shape_faults(FAULT_CLAIMS_3D, 3)
    assert {r["shape"] for r in recs} >= {"row", "subcube", "star"}
    acc = accepted_by(recs)
    # Delivery never collapses to zero under any shape or pattern.
    for r in recs:
        assert r["accepted"] > 0.03
        assert not r["deadlocked"]

    # Mild shapes retain most of the healthy throughput.
    for mech in ("OmniSP", "PolSP"):
        for traffic in ("uniform", "randperm", "dcr", "rpn"):
            for shape in ("row", "subcube"):
                faulty = acc(shape, mech, traffic)
                healthy = acc(f"{shape}-healthy-ref", mech, traffic)
                assert faulty > 0.5 * healthy, (shape, mech, traffic)

    # PolSP's RPN advantage survives the mild shapes (paper: "proportional
    # to the performance gains in a healthy network").
    for shape in ("row", "subcube"):
        assert acc(shape, "PolSP", "rpn") > acc(shape, "OmniSP", "rpn")
