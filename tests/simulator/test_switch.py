"""Switch buffer/credit bookkeeping tests."""

import copy
import pickle
from collections import deque

import pytest

from repro.routing.catalog import make_mechanism
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.state import SimState
from repro.simulator.switch import NO_FIFO, Switch
from repro.topology.base import Network
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic


def make_switch(n_ports=3, n_vcs=2, n_servers=2, **cfg) -> Switch:
    return Switch(0, n_ports, n_vcs, n_servers, SimConfig(**cfg))


def make_pkt(pid=0) -> Packet:
    return Packet(pid, 0, 1, 0, 1, 0)


class TestIndexing:
    def test_pv_flattening(self):
        sw = make_switch()
        assert sw.pv(0, 0) == 0
        assert sw.pv(1, 1) == 3
        assert sw.pv(2, 0) == 4

    def test_injection_inputs_after_network_inputs(self):
        sw = make_switch()
        assert sw.injection_input(0) == 6
        assert sw.injection_input(1) == 7
        assert sw.n_inputs == 8

    def test_input_port_mapping(self):
        sw = make_switch()
        assert sw.input_port(0) == 0
        assert sw.input_port(3) == 1
        assert sw.input_port(6) == 3  # first injection = its own port
        assert sw.input_port(7) == 4

    def test_is_injection_input(self):
        sw = make_switch()
        assert not sw.is_injection_input(5)
        assert sw.is_injection_input(6)


class TestCreditsAndLoad:
    def test_initial_state(self):
        sw = make_switch()
        assert all(c == 8 for c in sw.credits)
        assert all(v == 0 for v in sw.load)
        assert all(v == 0 for v in sw.port_load)

    def test_grant_consumes_credit_and_doubles_load(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt())
        assert sw.credits[sw.pv(1, 0)] == 7
        assert sw.load[sw.pv(1, 0)] == 2  # occupancy + consumed credit
        assert sw.port_load[1] == 2

    def test_transmit_reduces_occupancy_not_credit(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt())
        vc, pkt = sw.transmit(1)
        assert vc == 0
        assert sw.load[sw.pv(1, 0)] == 1  # consumed credit remains
        assert sw.credits[sw.pv(1, 0)] == 7

    def test_return_credit_completes_cycle(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt())
        sw.transmit(1)
        sw.return_credit(1, 0)
        assert sw.credits[sw.pv(1, 0)] == 8
        assert sw.load[sw.pv(1, 0)] == 0
        assert sw.port_load[1] == 0

    def test_q_value_counts_requested_vc_twice(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt(0))
        sw.grant(sw.pv(1, 1), make_pkt(1))
        # port_load = 4; requesting (1,0): + its own load 2 -> 6.
        assert sw.q_value(1, 0) == 6
        assert sw.q_value(1, 1) == 6
        assert sw.q_value(0, 0) == 0

    def test_can_accept_limits(self):
        # Admission lives on the flow-control policy; the switch only
        # exposes the raw credit/occupancy state the policy reads.
        from repro.simulator.flowcontrol import make_flow_control

        sw = make_switch(output_buffer_packets=2)
        fc = make_flow_control("vct")
        fc.attach(sw.cfg)
        pv = sw.pv(0, 0)
        assert fc.can_accept(sw, 0, 0)
        sw.grant(pv, make_pkt(0))
        sw.grant(pv, make_pkt(1))
        assert not fc.can_accept(sw, 0, 0)  # output buffer full
        sw2 = make_switch(input_buffer_packets=1)
        fc2 = make_flow_control("vct")
        fc2.attach(sw2.cfg)
        sw2.grant(sw2.pv(0, 0), make_pkt(0))
        sw2.transmit(0)
        assert not fc2.can_accept(sw2, 0, 0)  # no downstream credit left


class TestPhaseCounts:
    """``local_heads`` and ``port_occ``, the counts the eject and
    transmit phases read instead of walking the FIFOs."""

    def test_local_heads_follow_the_head_packets(self):
        sw = Switch(1, 3, 2, 2, SimConfig())  # make_pkt ejects at switch 1
        away = Packet(9, 0, 5, 0, 2, 0)  # bound for switch 2
        sw.push_input(2, make_pkt(0))
        sw.push_input(0, away)
        assert sw.local_heads == [2]
        sw.push_input(0, make_pkt(1))  # behind a backlog: not a head
        sw.push_input(2, make_pkt(2))
        assert sw.local_heads == [2]
        assert sw.pop_input(0) is away  # the local packet becomes head
        assert sw.local_heads == [0, 2]
        sw.pop_input(2)  # the next head is local too
        assert sw.local_heads == [0, 2]
        sw.pop_input(2)
        sw.pop_input(0)
        assert sw.local_heads == [] and not sw.active_inputs

    def test_port_occ_counts_buffered_output_packets(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt(0))
        sw.grant(sw.pv(1, 1), make_pkt(1))
        sw.grant(sw.pv(2, 0), make_pkt(2))
        assert sw.port_occ == [0, 2, 1]
        sw.transmit(1)
        sw.unqueue_output(sw.pv(2, 0))
        assert sw.port_occ == [0, 1, 0]
        # A consumed credit still loads the port; it buffers nothing.
        assert sw.port_load[2] == 0 and sw.port_load[1] == 3
        sw.transmit(1)
        assert sw.port_occ == [0, 0, 0] and sw.port_load[1] == 2


class TestTransmitRoundRobin:
    def test_round_robin_across_vcs(self):
        sw = make_switch()
        a, b, c = make_pkt(0), make_pkt(1), make_pkt(2)
        sw.grant(sw.pv(0, 0), a)
        sw.grant(sw.pv(0, 0), b)
        sw.grant(sw.pv(0, 1), c)
        first = sw.transmit(0)[1]
        second = sw.transmit(0)[1]
        third = sw.transmit(0)[1]
        assert first is a
        assert second is c  # round-robin moved to VC 1
        assert third is b

    def test_idle_port_returns_none(self):
        sw = make_switch()
        assert sw.transmit(0) is None

    def test_occupancy_counts_inputs_and_outputs(self):
        sw = make_switch()
        sw.push_input(0, make_pkt(0))
        sw.grant(sw.pv(1, 0), make_pkt(1))
        assert sw.occupancy_packets() == 2


class TestLazyFifos:
    """FIFOs are allocated on first use; until then every slot holds
    the shared empty sentinel, which must read as an empty FIFO."""

    def test_no_deque_until_a_packet_arrives(self):
        sw = make_switch()
        assert all(q is NO_FIFO for q in sw.in_q + sw.out_q)
        assert sw.occupancy_packets() == 0
        assert sw.transmit(0) is None
        sw.push_input(0, make_pkt(0))
        sw.grant(sw.pv(1, 0), make_pkt(1))
        assert [i for i, q in enumerate(sw.in_q) if q is not NO_FIFO] == [0]
        assert [pv for pv, q in enumerate(sw.out_q) if q is not NO_FIFO] == [
            sw.pv(1, 0)
        ]
        assert sw.occupancy_packets() == 2
        # A drained FIFO stays a (now empty) deque: the sentinel is never
        # swapped back in, so the hot paths check identity once per slot.
        sw.pop_input(0)
        assert isinstance(sw.in_q[0], deque) and not sw.in_q[0]
        assert NO_FIFO == ()  # nothing ever appended to the shared one

    def test_audit_and_purge_accept_never_used_ports(self):
        net = Network(HyperX((3, 3), 2))
        sim = Simulator(
            net, make_mechanism("PolSP", net, rng=1),
            make_traffic("uniform", net, 0), offered=0.3, seed=0,
        )
        assert not any(
            isinstance(q, deque) for sw in sim.switches for q in sw.in_q + sw.out_q
        )
        sim.state.verify(sim)
        link = net.live_links()[0]
        net.apply_fault(link)
        sim._purge_dead_link(link)  # both dead ports hold the sentinel
        sim.mechanism.on_topology_change()
        sim._refresh_inflight_packets()
        assert sim.buffered_packets() == 0 and sim.metrics.dropped_total == 0
        net.restore_link(link)
        sim._reconcile_restored_link(link)
        sim.state.verify(sim)


class TestStoreHandles:
    """A standalone ``Switch(...)`` reads and writes its single-switch
    store through the same memoryview handles a simulator's switch does."""

    def test_handles_are_memoryviews_of_python_ints(self):
        sw = make_switch()
        sw.grant(sw.pv(1, 0), make_pkt())
        sw.transmit(1)
        for handle, n in (
            (sw.credits, 6), (sw.load, 6), (sw.port_load, 3), (sw.rr, 3),
        ):
            assert type(handle) is memoryview and len(handle) == n
            assert all(type(v) is int for v in handle)
        assert sw.rr.tolist() == [0, 1, 0]
        assert type(sw.q_value(1, 0)) is int

    def test_explicit_store_row_is_aliased(self):
        cfg = SimConfig()
        state = SimState([3, 2], 2, 2, cfg)
        sw = Switch(5, 2, 2, 2, cfg, state=state, row=1)
        assert len(sw.credits) == 4 and len(sw.port_load) == 2
        sw.grant(sw.pv(1, 1), make_pkt())
        assert state.credits[1].tolist() == [8, 8, 8, 7, 0, 0]
        assert state.load[1].tolist() == [0, 0, 0, 2, 0, 0]
        assert state.port_load[1].tolist() == [0, 2, 0]
        assert (state.credits[0] == 8).all()
        # The plan cache's occupancy read: credits + load - capacity.
        occupancy = state.credits[1] + state.load[1] - cfg.input_buffer_packets
        assert occupancy[:4].tolist() == [0, 0, 0, 1]
        state.credits[1, 3] = 5  # a whole-matrix write shows in the handle
        assert sw.credits[3] == 5

    def test_copy_and_pickle_fail_loudly(self):
        sw = make_switch()
        for clone in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="alias the simulator's SimState"):
                clone(sw)
        net = Network(HyperX((2, 2), 1))
        sim = Simulator(
            net, make_mechanism("Minimal", net), make_traffic("uniform", net, 0)
        )
        for part in (sim, sim.state, sim.switches):
            with pytest.raises(TypeError, match="rebuild with make_simulator"):
                copy.deepcopy(part)
