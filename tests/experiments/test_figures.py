"""Figure-driver tests: structure and paper-scale exact counts.

Simulation-heavy drivers run at a sub-tiny custom scale here.  The
paper's performance claims are asserted in tests/integration/:
Figures 4 and 5 in test_paper_claims.py, Figures 6, 8 and 9 end to end
through their drivers in test_fault_figures.py.
"""

import pytest

from repro.experiments.figures import (
    SHAPES_3D,
    fig1_diameter_under_failures,
    fig2_escape_illustration,
    fig3_rpn_illustration,
    fig7_fault_shapes,
    fig10_completion_time,
    shape_parameters,
    table2,
    table3,
    table4,
)
from repro.experiments.scales import Scale
from repro.routing.catalog import MECHANISMS
from repro.topology.faults import shape_faults
from repro.topology.hyperx import HyperX

#: A sub-tiny scale so driver tests stay fast.
MICRO = Scale(
    name="micro", side_2d=4, side_3d=4, warmup=40, measure=80,
    loads=(0.2, 0.6), batch_packets=20,
)


class TestTables:
    def test_table2_is_paper_table(self):
        rows = dict(table2())
        assert rows["Packet length"] == "16 phits"

    def test_table3_paper_values(self):
        rows = {r["topology"]: r for r in table3("paper")}
        t2, t3 = rows["2D HyperX"], rows["3D HyperX"]
        assert (t2["switches"], t2["radix"], t2["total_servers"]) == (256, 46, 4096)
        assert (t2["links"], t2["diameter"]) == (3840, 2)
        assert t2["avg_distance"] == pytest.approx(1.875)
        assert (t3["switches"], t3["radix"], t3["total_servers"]) == (512, 29, 4096)
        assert (t3["links"], t3["diameter"]) == (5376, 3)
        assert t3["avg_distance"] == pytest.approx(2.625)

    def test_table4_vc_budgets(self):
        assert [r["mechanism"] for r in table4(3)] == list(MECHANISMS)
        rows = {r["mechanism"]: r for r in table4(3)}
        assert rows["Minimal"]["required_vcs"] == 3
        assert rows["Valiant"]["required_vcs"] == 6
        assert rows["OmniSP"]["required_vcs"] == 2
        assert rows["PolSP"]["required_vcs"] == 2


class TestFig1:
    def test_diameter_grows_then_disconnects(self):
        curves = fig1_diameter_under_failures(
            sides=(4, 4), n_sequences=2, step=4, seed=1
        )
        assert len(curves) == 2
        for c in curves:
            diams = [d for _f, d in c["points"]]
            assert diams[0] == 2  # healthy 2D diameter
            assert max(diams) >= diams[0]
            assert c["disconnect_at"] is not None
            # Monotone fault counts.
            faults = [f for f, _d in c["points"]]
            assert faults == sorted(faults)

    def test_paper_scale_claims(self):
        """8x8x8 (paper §2): 256 random faults (~5% of the links) keep the
        diameter at most 4, it never shrinks as faults accumulate, and
        disconnection needs a large share of the links."""
        for c in fig1_diameter_under_failures(
            sides=(8, 8, 8), n_sequences=2, step=256, seed=0
        ):
            diameter = dict(c["points"])
            assert diameter[0] == 3
            assert diameter[256] <= 4
            diams = [d for _f, d in c["points"]]
            assert diams == sorted(diams)
            assert c["disconnect_at"] > 0.4 * c["total_links"]


class TestIllustrations:
    def test_fig2_reports_colouring(self):
        info = fig2_escape_illustration("tiny")
        assert info["black_links"] + info["red_links"] == 48
        # The paper's worked example: the direct shortcut is offered at 64.
        assert any(pen == 64 for _c, pen in info["example_shortcut"])
        assert all(pen == 96 for _c, pen in info["example_updown"])

    def test_fig3_confined_pairs_property(self):
        info = fig3_rpn_illustration("tiny")
        assert info["pairs_per_loaded_row"] == [info["k"] // 2]
        assert info["aligned_bound"] == 0.5
        assert len(info["plane"].splitlines()) == info["k"]


class TestFig7:
    def test_paper_scale_counts(self):
        rows = {r["shape"]: r for r in fig7_fault_shapes("paper")}
        assert rows["row"]["n_faults"] == 120
        assert rows["subplane"]["n_faults"] == 100
        assert rows["cross"]["n_faults"] == 110
        assert all(r["connected"] for r in rows.values())

    def test_paper_scale_3d_counts(self):
        """The 3D shapes Figure 9 runs: Row K8 (28 links), Subcube K3^3
        (81) and Star arm 7 (63) on the paper's 8x8x8."""
        hx = HyperX((8, 8, 8), 8)
        params = shape_parameters(hx)
        counts = {
            shape: len(shape_faults(hx, shape, **params[shape]))
            for shape in SHAPES_3D
        }
        assert counts == {"row": 28, "subcube": 81, "star": 63}

    def test_tiny_scale_shapes_connected(self):
        for r in fig7_fault_shapes("tiny"):
            assert r["connected"]
            assert r["n_faults"] > 0


class TestShapeParameters:
    def test_paper_2d_defaults(self):
        params = shape_parameters(HyperX((16, 16), 16))
        assert params["subplane"]["side"] == 5
        assert params["cross"]["arm"] == 11

    def test_paper_3d_defaults(self):
        params = shape_parameters(HyperX((8, 8, 8), 8))
        assert params["subcube"]["side"] == 3
        assert params["star"]["arm"] == 7

    def test_scaled_down_respects_margin(self):
        params = shape_parameters(HyperX((4, 4), 4))
        assert params["cross"]["arm"] <= 3  # side-1, keeping the margin


@pytest.fixture(scope="module")
def fig10_micro():
    """One MICRO-scale Figure 10 run, shared by the checks below."""
    return fig10_completion_time(MICRO, seed=0)


class TestFig10:
    def test_completion_records(self, fig10_micro):
        recs = fig10_micro
        by_mech = {r["mechanism"]: r for r in recs}
        assert set(by_mech) == {"OmniSP", "PolSP"}
        for r in recs:
            assert r["completion_cycles"] is not None
            assert r["delivered"] == r["expected"]
            assert not r["deadlocked"]
            # The series opens in a high-throughput bulk phase.
            assert max(v for _t, v in r["time_series"][:3]) > 0.25

    def test_polsp_completes_sooner(self, fig10_micro):
        """The paper's Figure 10 headline: OmniSP's in-cast tail makes its
        completion time a multiple of PolSP's."""
        by_mech = {r["mechanism"]: r for r in fig10_micro}
        assert (
            by_mech["OmniSP"]["completion_cycles"]
            > 1.5 * by_mech["PolSP"]["completion_cycles"]
        )
