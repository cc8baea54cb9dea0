"""Online reconfiguration: in-place link failure/repair on Network."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.base import Network
from repro.topology.fattree import FatTree
from repro.topology.hyperx import HyperX
from repro.topology.torus import Torus


@pytest.fixture()
def net():
    return Network(HyperX((4, 4), 4))


class TestApplyFault:
    def test_updates_live_adjacency(self, net):
        a, b = link = net.live_links()[0]
        pa, pb = net.port_of(a, b), net.port_of(b, a)
        net.apply_fault(link)
        assert link in net.faults
        assert net.port_neighbour[a][pa] == -1
        assert net.port_neighbour[b][pb] == -1
        assert link not in net.live_links()
        assert all(p != pa for p, _ in net.live_ports[a])

    def test_matches_fresh_network(self, net):
        links = net.live_links()[:3]
        for link in links:
            net.apply_fault(link)
        fresh = Network(net.topology, links)
        assert net.faults == fresh.faults
        assert net.port_neighbour == fresh.port_neighbour
        assert net.live_ports == fresh.live_ports
        assert (net.distances == fresh.distances).all()

    def test_restore_round_trip(self, net):
        baseline_dist = net.distances.copy()
        link = net.live_links()[5]
        net.apply_fault(link)
        net.restore_link(link)
        fresh = Network(net.topology)
        assert net.faults == frozenset()
        assert net.port_neighbour == fresh.port_neighbour
        assert (net.distances == baseline_dist).all()

    def test_rejects_inconsistent_events(self, net):
        link = net.live_links()[0]
        with pytest.raises(ValueError, match="not failed"):
            net.restore_link(link)
        net.apply_fault(link)
        with pytest.raises(ValueError, match="already failed"):
            net.apply_fault(link)
        with pytest.raises(ValueError, match="not present"):
            net.apply_fault((0, 15))  # not adjacent in a 4x4 HyperX

    def test_cached_metrics_invalidated(self):
        # The 2x2 HyperX is the 4-cycle 0-1-3-2-0; failing one edge leaves
        # a path graph, so cached distances/diameter must be recomputed.
        n = Network(HyperX((2, 2), 1))
        assert n.diameter == 2
        assert n.distances[0, 1] == 1
        n.apply_fault((0, 1))
        assert n.distances[0, 1] == 3
        assert n.diameter == 3
        assert n.is_connected

    def test_distances_track_fail_and_repair(self, net):
        d0 = net.distances.copy()
        link = net.live_links()[0]
        net.apply_fault(link)
        a, b = link
        assert net.distances[a, b] == 2  # direct hop gone, row detour
        net.restore_link(link)
        assert (net.distances == d0).all()


TOPOLOGIES = {
    "hyperx": HyperX((4, 4), 4),
    "mesh": Torus((3, 4), 2, wrap=False),  # non-uniform degree: padded nbr rows
    "fattree": FatTree(4),
}


class TestInPlaceAdjacencyStaysHonest:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(TOPOLOGIES)),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=25),
    )
    def test_any_interleaving_matches_fresh_network(self, family, picks):
        """Toggle links in any order: every view of the adjacency and every
        cached metric equals a network built from scratch at each step."""
        topo = TOPOLOGIES[family]
        links = topo.links()
        net = Network(topo)
        for pick in picks:
            # Fill the caches, so a missed invalidation would serve them stale.
            _ = net.distances, net.is_connected
            link = links[pick % len(links)]
            if link in net.faults:
                net.restore_link(link)
            else:
                net.apply_fault(link)
            fresh = Network(topo, net.faults)
            assert np.array_equal(net.nbr, fresh.nbr)
            assert net.port_neighbour == fresh.port_neighbour
            assert net.live_ports == fresh.live_ports
            assert net.faults == fresh.faults
            assert net.live_links() == fresh.live_links()
            assert np.array_equal(net.distances, fresh.distances)
            assert net.is_connected == fresh.is_connected
            if fresh.is_connected:
                assert net.diameter == fresh.diameter

    def test_nbr_agrees_with_port_neighbour(self):
        for topo in TOPOLOGIES.values():
            net = Network(topo, topo.links()[::3])
            for s, row in enumerate(net.port_neighbour):
                assert net.nbr[s, : len(row)].tolist() == row
                assert (net.nbr[s, len(row) :] == -1).all()

    def test_links_returns_a_fresh_sorted_list(self):
        topo = HyperX((3, 3), 1)
        first = topo.links()
        assert isinstance(first, list) and first == sorted(set(first))
        first.clear()  # the caller owns the list ...
        assert len(topo.links()) == 18  # ... and the cached tables are intact
        assert Network(topo).live_links() == topo.links()

    def test_port_of_rejects_non_adjacent_switches(self):
        topo = HyperX((4, 4), 4)
        assert topo.neighbours(0)[topo.port_of(0, 3)] == 3
        for s, t in ((0, 15), (0, 0), (0, 99)):
            with pytest.raises(ValueError, match=f"switches {s} and {t} are not adjacent"):
                topo.port_of(s, t)
            with pytest.raises(ValueError, match="not adjacent"):
                Network(topo).port_of(s, t)

    def test_pickled_topology_leaves_the_derived_tables_behind(self):
        topo = HyperX((4, 4), 4)
        bare = len(pickle.dumps(topo))
        Network(topo, topo.links()[:2]).port_of(0, 1)  # derives three
        assert topo.rev_port[0][0] >= 0  # and the fourth
        assert set(topo._DERIVED) <= set(vars(topo))
        assert len(pickle.dumps(topo)) == bare
        clone = pickle.loads(pickle.dumps(topo))
        assert clone.links() == topo.links()


class TestReconfigNewFamilies:
    """Fail-and-repair on the diversity families (torus, fat-tree).

    The Network-level round trip must restore the exact healthy state,
    and a full simulated fail-and-repair cycle must leave the credit
    accounting and the per-link packet counters reconciled — the same
    invariants the HyperX schedule tests pin, on graphs with rings,
    tiers and non-uniform degrees instead of row cliques.
    """

    @pytest.mark.parametrize(
        "topo", [Torus((4, 4), 2), Torus((3, 4), 2, wrap=False), FatTree(4)],
        ids=["torus", "mesh", "fattree"],
    )
    def test_round_trip_matches_fresh_network(self, topo):
        net = Network(topo)
        d0 = net.distances.copy()
        links = net.live_links()[:3]
        for link in links:
            net.apply_fault(link)
        faulted = Network(topo, links)
        assert net.port_neighbour == faulted.port_neighbour
        assert net.live_ports == faulted.live_ports
        assert (net.distances == faulted.distances).all()
        for link in links:
            net.restore_link(link)
        fresh = Network(topo)
        assert net.faults == frozenset()
        assert net.port_neighbour == fresh.port_neighbour
        assert net.live_ports == fresh.live_ports
        assert (net.distances == d0).all()

    @pytest.mark.parametrize(
        "topo", [Torus((4, 4), 2), FatTree(4)], ids=["torus", "fattree"]
    )
    def test_simulated_cycle_reconciles_credits_and_counters(self, topo):
        from repro.routing.catalog import make_mechanism
        from repro.simulator.config import PAPER_CONFIG
        from repro.simulator.engine import Simulator
        from repro.simulator.schedule import FaultSchedule
        from repro.topology.faults import random_connected_fault_sequence
        from repro.traffic import make_traffic

        net = Network(topo)
        links = random_connected_fault_sequence(topo, 2, rng=4)
        sched = FaultSchedule.down_then_up(40, 120, links)
        mech = make_mechanism("PolSP", net, n_vcs=4, rng=1)
        sim = Simulator(
            net, mech, make_traffic("uniform", net, 0), offered=0.5,
            seed=0, fault_schedule=sched,
        )
        res = sim.run(warmup=20, measure=280)
        assert not res.deadlocked
        assert net.faults == frozenset()  # repaired
        # Conservation: every generated packet delivered, dropped or live.
        assert res.generated == res.delivered + res.dropped_packets + sim.in_flight
        assert sim.in_flight == sim.buffered_packets()
        # Credit accounting back within the virtual-cut-through bounds.
        cap = PAPER_CONFIG.input_buffer_packets
        for sw in sim.switches:
            for pv in range(sw.n_ports * sw.n_vcs):
                assert 0 <= sw.credits[pv] <= cap
        # Per-link counters: sized per switch degree, repaired links count
        # traffic again, escape counters never exceed totals.
        for s in range(net.n_switches):
            assert len(sim.link_packets[s]) == topo.degree(s)
            for p in range(topo.degree(s)):
                assert 0 <= sim.link_escape_packets[s][p] <= sim.link_packets[s][p]
        a, b = links[0]
        assert sim.link_packets[a][net.port_of(a, b)] > 0
