"""Escape-subnetwork construction and candidate-rule tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence, star_faults
from repro.topology.hyperx import HyperX
from repro.updown.escape import (
    DOWN_PENALTY,
    NO_PATH,
    PHASE_CLIMB,
    PHASE_DESCEND,
    SHORTCUT_PENALTY_FLOOR,
    UP_PENALTY,
    EscapeSubnetwork,
    shortcut_penalty,
)


@pytest.fixture(scope="module")
def esc2d(net2d=None):
    net = Network(HyperX((4, 4), 4))
    return EscapeSubnetwork(net, root=0)


@pytest.fixture(scope="module")
def esc_faulty():
    hx = HyperX((4, 4), 4)
    seq = random_connected_fault_sequence(hx, 20, rng=11)
    return EscapeSubnetwork(Network(hx, seq), root=5)


class TestConstruction:
    def test_rejects_bad_root(self, net2d):
        with pytest.raises(ValueError):
            EscapeSubnetwork(net2d, root=999)

    def test_rejects_disconnected_network(self, hx2d):
        faults = [link for link in hx2d.links() if 0 in link]
        with pytest.raises(ValueError):
            EscapeSubnetwork(Network(hx2d, faults), root=1)

    def test_root_distance_is_bfs_level(self, esc2d):
        net = esc2d.network
        assert esc2d.root_distance[esc2d.root] == 0
        d = net.distances
        assert np.array_equal(esc2d.root_distance, d[esc2d.root])

    def test_link_classification(self, esc2d):
        """Black iff endpoint levels differ; red iff equal (paper Fig 2)."""
        net = esc2d.network
        level = esc2d.root_distance
        for s in range(net.n_switches):
            for p, t in net.live_ports[s]:
                kind = esc2d.link_kind[s][p]
                if level[t] < level[s]:
                    assert kind == +1
                elif level[t] > level[s]:
                    assert kind == -1
                else:
                    assert kind == 0

    def test_black_red_counts_partition_links(self, esc_faulty):
        n_links = len(esc_faulty.network.live_links())
        assert esc_faulty.n_black_links() + esc_faulty.n_red_links() == n_links

    def test_paper_fig2_example(self):
        """In a 4x4 HyperX rooted at (0,0): (1,0)-(1,1) is black,
        (1,0)-(2,0) is red."""
        hx = HyperX((4, 4), 4)
        esc = EscapeSubnetwork(Network(hx), root=hx.switch_id((0, 0)))
        s10, s11, s20 = (hx.switch_id(c) for c in ((1, 0), (1, 1), (2, 0)))
        assert esc.link_kind[s10][hx.port_of(s10, s11)] == -1  # down (black)
        assert esc.link_kind[s10][hx.port_of(s10, s20)] == 0  # red


class TestDistances:
    def test_udist_diagonal_zero(self, esc2d):
        assert np.diagonal(esc2d.udist).max() == 0

    def test_udist_at_least_graph_distance(self, esc2d):
        d = esc2d.network.distances
        assert (esc2d.udist >= d).all()

    def test_udist_finite_on_connected(self, esc_faulty):
        assert esc_faulty.udist.max() < NO_PATH

    def test_paper_updown_distance_example(self):
        """(1,0) to (2,0): up to root then down -> Up/Down distance 2."""
        hx = HyperX((4, 4), 4)
        esc = EscapeSubnetwork(Network(hx), root=hx.switch_id((0, 0)))
        s10, s20 = hx.switch_id((1, 0)), hx.switch_id((2, 0))
        assert esc.udist[s10, s20] == 2

    def test_route_length_bound_paper_3d(self):
        """On the paper's 8x8x8 no escape route beats the diameter (3)."""
        esc = EscapeSubnetwork(Network(HyperX((8, 8, 8), 8)), root=0)
        assert esc.route_length_bound() >= 3

    def test_dist_a_at_most_udist(self, esc_faulty):
        """One shortcut can only shorten the pure Up/Down route."""
        assert (esc_faulty.dist_a <= esc_faulty.udist).all()

    def test_dist_b_infinite_upwards(self, esc2d):
        """No pure-descent path from a deeper to a shallower switch."""
        level = esc2d.root_distance
        deep = int(np.argmax(level))
        assert esc2d.dist_b[deep, esc2d.root] >= NO_PATH

    def test_dist_b_from_root_always_finite(self, esc_faulty):
        """The root reaches everything by pure descent (BFS levels)."""
        assert esc_faulty.dist_b[esc_faulty.root].max() < NO_PATH


class TestCandidates:
    def test_no_candidates_at_target(self, esc2d):
        assert esc2d.candidates(3, 3) == []

    def test_candidates_always_exist(self, esc_faulty):
        net = esc_faulty.network
        for s in range(net.n_switches):
            for t in range(net.n_switches):
                if s != t:
                    assert esc_faulty.candidates(s, t, PHASE_CLIMB)

    def test_climb_candidates_reduce_potential(self, esc_faulty):
        """Every climb-phase hop strictly reduces the phase-aware distance."""
        net = esc_faulty.network
        da, db = esc_faulty.dist_a, esc_faulty.dist_b
        for s in range(net.n_switches):
            for t in range(net.n_switches):
                if s == t:
                    continue
                for port, nbr, _pen in esc_faulty.candidates(s, t, PHASE_CLIMB):
                    kind = esc_faulty.link_kind[s][port]
                    if kind > 0:
                        assert da[nbr, t] < da[s, t]
                    else:
                        assert db[nbr, t] < da[s, t]

    def test_descend_candidates_only_down(self, esc_faulty):
        net = esc_faulty.network
        db = esc_faulty.dist_b
        for s in range(net.n_switches):
            for t in range(net.n_switches):
                if s == t or db[s, t] >= NO_PATH:
                    continue
                for port, nbr, pen in esc_faulty.candidates(s, t, PHASE_DESCEND):
                    assert esc_faulty.link_kind[s][port] < 0
                    assert db[nbr, t] < db[s, t]
                    assert pen == DOWN_PENALTY

    def test_penalties_by_link_kind(self, esc2d):
        net = esc2d.network
        for s in range(net.n_switches):
            for t in range(net.n_switches):
                if s == t:
                    continue
                for port, _nbr, pen in esc2d.candidates(s, t, PHASE_CLIMB):
                    kind = esc2d.link_kind[s][port]
                    if kind > 0:
                        assert pen == UP_PENALTY
                    elif kind < 0:
                        assert pen == DOWN_PENALTY
                    else:
                        assert SHORTCUT_PENALTY_FLOOR <= pen <= 80

    def test_paper_shortcut_example(self):
        """(0,1) -> (0,3) prefers the direct red link (reduction 2)."""
        hx = HyperX((4, 4), 4)
        esc = EscapeSubnetwork(Network(hx), root=hx.switch_id((0, 0)))
        s01, s03 = hx.switch_id((0, 1)), hx.switch_id((0, 3))
        cands = esc.candidates(s01, s03, PHASE_CLIMB)
        by_nbr = {nbr: pen for _p, nbr, pen in cands}
        assert by_nbr[s03] == shortcut_penalty(2)  # 64 phits
        # The red link to (0,2) does not reduce the distance: not offered.
        s02 = hx.switch_id((0, 2))
        assert s02 not in by_nbr

    def test_escape_contains_minimal_single_dim_routes(self, esc2d):
        """In HyperX every 1-dim pair's direct link is an escape candidate."""
        hx = esc2d.network.topology
        for s in range(hx.n_switches):
            for t in hx.neighbours(s):
                cands = esc2d.candidates(s, t, PHASE_CLIMB)
                assert any(nbr == t for _p, nbr, _pen in cands)


class TestPhases:
    def test_next_phase_transitions(self, esc2d):
        net = esc2d.network
        for s in range(net.n_switches):
            for p, _t in net.live_ports[s]:
                kind = esc2d.link_kind[s][p]
                nxt = esc2d.next_phase(s, p, PHASE_CLIMB)
                assert nxt == (PHASE_CLIMB if kind > 0 else PHASE_DESCEND)
                assert esc2d.next_phase(s, p, PHASE_DESCEND) == PHASE_DESCEND


class TestWalks:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_escape_walks_terminate(self, esc_faulty, data):
        """Random escape walks reach the target within the length bound."""
        net = esc_faulty.network
        n = net.n_switches
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        phase = PHASE_CLIMB
        bound = esc_faulty.route_length_bound()
        hops = 0
        while s != t:
            cands = esc_faulty.candidates(s, t, phase)
            port, nbr, _pen = data.draw(st.sampled_from(cands))
            phase = esc_faulty.next_phase(s, port, phase)
            s = nbr
            hops += 1
            assert hops <= bound, "escape walk exceeded its length bound"


class TestShortcutPenalty:
    def test_mapping(self):
        assert shortcut_penalty(1) == 80
        assert shortcut_penalty(2) == 64
        assert shortcut_penalty(3) == 48
        assert shortcut_penalty(9) == 48

    def test_rejects_non_reduction(self):
        with pytest.raises(ValueError):
            shortcut_penalty(0)


class TestStressRoots:
    def test_star_rooted_inside_fault(self):
        """The paper's worst case: root with 3 live links still escapes."""
        hx = HyperX((4, 4, 4), 4)
        faults = star_faults(hx, arm=3)
        net = Network(hx, faults)
        root = hx.switch_id((2, 2, 2))
        esc = EscapeSubnetwork(net, root)
        assert net.live_degree(root) == 3
        for t in range(net.n_switches):
            if t != root:
                assert esc.candidates(root, t, PHASE_CLIMB)
