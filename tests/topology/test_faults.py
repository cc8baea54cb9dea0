"""Fault-model tests: random sequences and the paper's structured shapes."""

import pytest

from repro.topology.base import Network
from repro.topology.faults import (
    apply_faults,
    block_switches,
    cross_faults,
    random_connected_fault_sequence,
    random_fault_sequence,
    row_faults,
    row_switches,
    shape_faults,
    shape_root,
    star_faults,
    subcube_faults,
    subplane_faults,
)
from repro.topology.hyperx import HyperX
from repro.topology.random_regular import RandomRegular
from repro.topology.torus import Torus

#: ``random_connected_fault_sequence`` on three families, three seeds each,
#: as drawn by the implementation that built a fresh Network per candidate.
#: Each runs into rejected (disconnecting) candidates, so both the
#: ``rng.integers`` draws and the candidate list they index are pinned.
PINNED_CONNECTED_SEQUENCES = {
    "hyperx": (lambda: HyperX((4, 4), 4), 30, {
        0: [(10, 14), (6, 14), (5, 6), (2, 6), (2, 14), (0, 2), (0, 8), (0, 1), (1, 13),
            (10, 11), (8, 9), (12, 15), (5, 9), (7, 11), (14, 15), (8, 12), (6, 10),
            (4, 12), (5, 7), (13, 14), (2, 3), (9, 13), (7, 15), (0, 3), (3, 15),
            (11, 15), (4, 8), (0, 4), (9, 10), (8, 10)],
        1: [(4, 12), (5, 9), (9, 10), (13, 14), (0, 2), (1, 3), (10, 11), (12, 15), (2, 3),
            (3, 7), (11, 15), (4, 6), (2, 6), (9, 11), (1, 13), (4, 7), (7, 11), (6, 7),
            (0, 4), (0, 1), (12, 13), (8, 11), (9, 13), (5, 7), (8, 12), (2, 14), (4, 5),
            (8, 10), (0, 12), (2, 10)],
        2: [(10, 14), (2, 6), (0, 12), (3, 7), (4, 8), (10, 11), (4, 12), (0, 4), (3, 15),
            (7, 11), (9, 13), (8, 11), (14, 15), (1, 5), (12, 13), (0, 2), (5, 13),
            (2, 10), (1, 13), (8, 9), (3, 11), (6, 10), (2, 3), (1, 2), (9, 10), (5, 6),
            (13, 14), (4, 7), (1, 9), (12, 15)],
    }),
    "torus": (lambda: Torus((4, 4), 1), 14, {
        0: [(11, 15), (7, 11), (5, 6), (2, 3), (2, 14), (0, 3), (0, 4), (0, 1), (2, 6),
            (10, 14), (8, 12), (13, 14), (6, 7), (8, 9)],
        1: [(5, 6), (5, 9), (9, 13), (13, 14), (0, 1), (1, 2), (10, 14), (12, 15), (2, 3),
            (3, 7), (11, 15), (4, 5), (2, 6), (9, 10)],
        2: [(10, 14), (2, 6), (0, 12), (3, 7), (4, 8), (10, 11), (5, 6), (0, 4), (4, 5),
            (8, 9), (11, 15), (9, 10), (14, 15), (1, 5)],
    }),
    "random": (lambda: RandomRegular(16, 3, seed=1), 8, {
        0: [(9, 12), (5, 7), (3, 15), (1, 12), (2, 10), (0, 6), (1, 9), (8, 14)],
        1: [(3, 15), (4, 12), (8, 10), (11, 15), (0, 6), (8, 14), (1, 12), (2, 10)],
        2: [(9, 12), (2, 7), (0, 14), (2, 13), (3, 15), (8, 14), (4, 12), (5, 8)],
    }),
}


class TestRandomSequences:
    def test_requested_length_and_uniqueness(self, hx2d):
        seq = random_fault_sequence(hx2d, 20, rng=1)
        assert len(seq) == 20
        assert len(set(seq)) == 20

    def test_links_belong_to_topology(self, hx2d):
        links = set(hx2d.links())
        for link in random_fault_sequence(hx2d, 30, rng=2):
            assert link in links

    def test_too_many_faults_rejected(self, hx2d):
        with pytest.raises(ValueError):
            random_fault_sequence(hx2d, len(hx2d.links()) + 1)

    def test_deterministic_with_seed(self, hx2d):
        assert random_fault_sequence(hx2d, 10, rng=5) == random_fault_sequence(
            hx2d, 10, rng=5
        )

    def test_connected_sequence_prefixes_stay_connected(self, hx2d):
        seq = random_connected_fault_sequence(hx2d, 20, rng=3)
        for k in range(0, 21, 5):
            assert Network(hx2d, seq[:k]).is_connected

    @pytest.mark.parametrize("family", sorted(PINNED_CONNECTED_SEQUENCES))
    def test_connected_sequence_same_draws_same_links(self, family):
        build, n_faults, by_seed = PINNED_CONNECTED_SEQUENCES[family]
        topo = build()
        for seed, expected in by_seed.items():
            assert random_connected_fault_sequence(topo, n_faults, rng=seed) == expected

    def test_connected_sequence_impossible_raises(self, hx2d):
        # 16 switches need >= 15 links; 48 - 40 = 8 < 15.
        with pytest.raises(RuntimeError):
            random_connected_fault_sequence(hx2d, 40, rng=3, max_tries=2000)


class TestRowShape:
    def test_paper_2d_row_count(self):
        hx = HyperX((16, 16), 16)
        assert len(row_faults(hx)) == 120  # K16 = C(16,2)

    def test_paper_3d_row_count(self):
        hx = HyperX((8, 8, 8), 8)
        assert len(row_faults(hx)) == 28  # K8

    def test_row_switches_share_fixed_coords(self, hx3d):
        sw = row_switches(hx3d, 1, (2, 3))
        for s in sw:
            c = hx3d.coords(s)
            assert c[0] == 2 and c[2] == 3
        assert len(sw) == 4

    def test_row_keeps_network_connected(self, hx2d):
        net = apply_faults(hx2d, row_faults(hx2d))
        assert net.is_connected

    def test_fixed_length_validated(self, hx3d):
        with pytest.raises(ValueError):
            row_switches(hx3d, 0, (1,))


class TestBlockShapes:
    def test_paper_subplane_count(self):
        hx = HyperX((16, 16), 16)
        assert len(subplane_faults(hx)) == 100  # K5^2: 2 * 5 * C(5,2)

    def test_paper_subcube_count(self):
        hx = HyperX((8, 8, 8), 8)
        assert len(subcube_faults(hx)) == 81  # K3^3: 3 * 9 * C(3,2)

    def test_block_switch_enumeration(self, hx2d):
        sw = block_switches(hx2d, (1, 1), (2, 2))
        assert sorted(hx2d.coords(s) for s in sw) == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_block_wraps_around(self, hx2d):
        sw = block_switches(hx2d, (3, 3), (2, 2))
        assert hx2d.switch_id((0, 0)) in sw

    def test_oversized_block_rejected(self, hx2d):
        with pytest.raises(ValueError):
            subplane_faults(hx2d, side=5)

    def test_subplane_keeps_network_connected(self, hx2d):
        net = apply_faults(hx2d, subplane_faults(hx2d, side=3))
        assert net.is_connected


class TestCrossStarShapes:
    def test_paper_2d_cross_count(self):
        hx = HyperX((16, 16), 16)
        assert len(cross_faults(hx)) == 110  # 2 * C(11,2)

    def test_paper_3d_star_count(self):
        hx = HyperX((8, 8, 8), 8)
        assert len(star_faults(hx)) == 63  # 3 * C(7,2)

    def test_paper_3d_star_root_keeps_three_links(self):
        hx = HyperX((8, 8, 8), 8)
        net = apply_faults(hx, star_faults(hx))
        root = shape_root(hx, "star")
        assert net.live_degree(root) == 3  # one live link per dimension

    def test_2d_cross_root_margin(self):
        hx = HyperX((16, 16), 16)
        net = apply_faults(hx, cross_faults(hx))
        root = shape_root(hx, "cross")
        # arm 11 of side 16: 5 live row-mates remain per dimension.
        assert net.live_degree(root) == 2 * (16 - 11)
        assert net.is_connected

    def test_small_scale_cross_connected(self, hx2d):
        net = apply_faults(hx2d, cross_faults(hx2d, arm=3))
        assert net.is_connected

    def test_arm_without_margin_rejected(self, hx2d):
        with pytest.raises(ValueError):
            cross_faults(hx2d, arm=4)  # side 4 leaves no live row-mate

    def test_tiny_arm_rejected(self, hx2d):
        with pytest.raises(ValueError):
            cross_faults(hx2d, arm=1)


class TestShapeDispatch:
    @pytest.mark.parametrize("shape", ["row", "subplane", "cross"])
    def test_2d_dispatch(self, hx2d, shape):
        kwargs = {"side": 2} if shape == "subplane" else (
            {"arm": 3} if shape == "cross" else {}
        )
        faults = shape_faults(hx2d, shape, **kwargs)
        assert faults
        root = shape_root(hx2d, shape, **kwargs)
        assert 0 <= root < hx2d.n_switches

    @pytest.mark.parametrize("shape", ["row", "subcube", "star"])
    def test_3d_dispatch(self, hx3d, shape):
        kwargs = {"side": 2} if shape == "subcube" else (
            {"arm": 3} if shape == "star" else {}
        )
        faults = shape_faults(hx3d, shape, **kwargs)
        assert faults
        assert Network(hx3d, faults).is_connected

    def test_unknown_shape_rejected(self, hx2d):
        with pytest.raises(ValueError):
            shape_faults(hx2d, "diagonal")
        with pytest.raises(ValueError):
            shape_root(hx2d, "diagonal")

    def test_root_inside_faulty_region(self, hx2d):
        """The paper roots the escape inside the fault shape for stress."""
        for shape, kwargs in (
            ("row", {}), ("subplane", {"side": 2}), ("cross", {"arm": 3}),
        ):
            root = shape_root(hx2d, shape, **kwargs)
            faults = shape_faults(hx2d, shape, **kwargs)
            touched = {s for link in faults for s in link}
            assert root in touched
