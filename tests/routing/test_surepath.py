"""SurePath mechanism tests: CRout/CEsc rules and fault tolerance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_packet, walk_route
from repro.routing.catalog import make_mechanism
from repro.topology.base import Network
from repro.updown.escape import EscapeSubnetwork


class TestConstruction:
    def test_requires_two_vcs(self, net2d):
        with pytest.raises(ValueError):
            make_mechanism("PolSP", net2d, n_vcs=1)

    def test_vc_partition(self, net2d):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        assert mech.routing_vcs == (0, 1, 2)
        assert mech.escape_vc == 3

    def test_shared_escape_accepted(self, net2d):
        esc = EscapeSubnetwork(net2d, 0)
        a = make_mechanism("OmniSP", net2d, escape=esc)
        b = make_mechanism("PolSP", net2d, escape=esc)
        assert a.escape is b.escape

    def test_foreign_escape_rejected(self, net2d, hx2d):
        other = Network(hx2d)
        esc = EscapeSubnetwork(other, 0)
        with pytest.raises(ValueError):
            make_mechanism("PolSP", net2d, escape=esc)

    def test_catalog_rows(self, net2d):
        assert make_mechanism("OmniSP", net2d).name == "OmniSP"
        assert make_mechanism("PolSP", net2d).name == "PolSP"


class TestCandidateRules:
    def test_routing_hops_on_all_routing_vcs(self, net2d):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        cands = mech.candidates(pkt, 0)
        routing = [c for c in cands if c[1] != mech.escape_vc]
        ports = {p for p, _v, _pen in routing}
        for p in ports:
            vcs = {v for pp, v, _pen in routing if pp == p}
            assert vcs == set(mech.routing_vcs)

    def test_escape_candidates_always_offered(self, net2d):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        cands = mech.candidates(pkt, 0)
        assert any(vc == mech.escape_vc for _p, vc, _pen in cands)

    def test_escape_is_one_way(self, net2d):
        """Once in CEsc, only escape candidates are offered."""
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        pkt.in_escape = True
        cands = mech.candidates(pkt, 5)
        assert cands
        assert all(vc == mech.escape_vc for _p, vc, _pen in cands)

    def test_on_hop_tracks_escape_state(self, net2d):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        cands = [c for c in mech.candidates(pkt, 0) if c[1] == mech.escape_vc]
        port, vc, _pen = cands[0]
        nbr = net2d.port_neighbour[0][port]
        mech.on_hop(pkt, 0, nbr, port, vc)
        assert pkt.in_escape
        assert pkt.escape_hops == 1
        assert pkt.hops == 1

    def test_routing_hop_keeps_crout(self, net2d):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        cands = [c for c in mech.candidates(pkt, 0) if c[1] != mech.escape_vc]
        port, vc, _pen = cands[0]
        nbr = net2d.port_neighbour[0][port]
        mech.on_hop(pkt, 0, nbr, port, vc)
        assert not pkt.in_escape
        assert pkt.escape_hops == 0


class TestForcedHops:
    def test_forced_hop_when_routes_exhausted(self, hx2d):
        """Omni with spent deroute budget and a dead minimal link can only
        offer escape candidates — the paper's forced hop."""
        src, dst = hx2d.switch_id((0, 0)), hx2d.switch_id((2, 0))
        net = Network(hx2d, [tuple(sorted((src, dst)))])
        mech = make_mechanism("OmniSP", net, n_vcs=4, max_deroutes=0)
        pkt = make_packet(net, src, dst)
        mech.init_packet(pkt)
        cands = mech.candidates(pkt, src)
        assert cands
        assert all(vc == mech.escape_vc for _p, vc, _pen in cands)


class TestDelivery:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_walks_always_deliver_healthy(self, net2d, data):
        mech = make_mechanism("PolSP", net2d, n_vcs=4)
        n = net2d.n_switches
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        if src == dst:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        visited = walk_route(mech, net2d, src, dst, rng, max_hops=64)
        assert visited[-1] == dst

    @pytest.mark.parametrize("name", ["OmniSP", "PolSP"])
    def test_walks_always_deliver_heavy_faults(self, heavy_faulty2d, name, rng):
        mech = make_mechanism(name, heavy_faulty2d, n_vcs=2)  # the paper's minimum budget
        for src in range(0, 16, 3):
            for dst in range(1, 16, 4):
                if src == dst:
                    continue
                visited = walk_route(
                    mech, heavy_faulty2d, src, dst, rng, max_hops=128
                )
                assert visited[-1] == dst

    def test_max_route_length_finite(self, heavy_faulty2d):
        mech = make_mechanism("PolSP", heavy_faulty2d, n_vcs=4)
        bound = mech.max_route_length()
        assert bound is not None
        assert bound >= heavy_faulty2d.diameter
