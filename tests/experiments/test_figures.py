"""Figure-driver tests: structure and paper-scale exact counts.

Simulation-heavy drivers run at a sub-tiny custom scale here; the full
qualitative checks live in tests/integration/ and the regeneration runs in
benchmarks/.  Figures 6 and 8 (2D) are checked end to end in
tests/integration/test_fault_figures.py.
"""

import pytest

from repro.experiments.figures import (
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
from repro.topology.hyperx import HyperX

#: A sub-tiny scale so driver tests stay fast.
MICRO = Scale(
    name="micro", side_2d=4, side_3d=4, warmup=40, measure=80,
    loads=(0.2, 0.6), batch_packets=10,
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
            assert r["time_series"]

    def test_polsp_completes_sooner(self, fig10_micro):
        """The paper's Figure 10 headline: OmniSP's in-cast tail makes its
        completion time a multiple of PolSP's."""
        by_mech = {r["mechanism"]: r for r in fig10_micro}
        assert (
            by_mech["OmniSP"]["completion_cycles"]
            > 1.5 * by_mech["PolSP"]["completion_cycles"]
        )
