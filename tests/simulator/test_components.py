"""The pluggable router-microarchitecture layer: arbiters, flow control
and link models, and their interplay with faults and the fault schedule."""

import pytest

from repro.routing.catalog import make_mechanism
from repro.simulator.arbiters import (
    ARBITERS,
    AgeBasedArbiter,
    QPArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from repro.simulator.config import PAPER_CONFIG, SimConfig, table2_rows
from repro.simulator.engine import Simulator
from repro.simulator.flowcontrol import (
    FLOW_CONTROLS,
    FlowControl,
    StoreAndForward,
    VirtualCutThrough,
    make_flow_control,
)
from repro.simulator.links import PipelinedLink, UnitSlotLink, make_link_model
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.traffic import make_traffic


def _sim(net, *, mech="PolSP", offered=0.5, seed=0, config=PAPER_CONFIG,
         schedule=None, n_vcs=None):
    mechanism = make_mechanism(mech, net, n_vcs=n_vcs, rng=1)
    return Simulator(
        net, mechanism, make_traffic("uniform", net, 0), offered=offered,
        seed=seed, config=config, fault_schedule=schedule,
    )


def _conserved(sim):
    """in-flight packets all sit in a buffer or on a wire."""
    return sim.in_flight == sim.buffered_packets() + sim.wire_packets()


# ----------------------------------------------------------------------
# Registries / construction
# ----------------------------------------------------------------------
class TestRegistries:
    def test_arbiter_registry(self):
        assert set(ARBITERS) == {"qp", "roundrobin", "age", "random"}
        assert isinstance(make_arbiter("QP"), QPArbiter)
        assert isinstance(make_arbiter("roundrobin"), RoundRobinArbiter)
        assert isinstance(make_arbiter("age"), AgeBasedArbiter)
        assert isinstance(make_arbiter("random"), RandomArbiter)
        with pytest.raises(ValueError, match="unknown arbiter"):
            make_arbiter("lottery")

    def test_flow_control_registry(self):
        assert set(FLOW_CONTROLS) == {"vct", "saf"}
        assert isinstance(make_flow_control("vct"), VirtualCutThrough)
        assert isinstance(make_flow_control("saf"), StoreAndForward)
        with pytest.raises(ValueError, match="unknown flow control"):
            make_flow_control("wormhole")

    def test_link_model_factory(self):
        assert isinstance(make_link_model(1), UnitSlotLink)
        pl = make_link_model(3)
        assert isinstance(pl, PipelinedLink)
        assert pl.latency_slots == 3
        with pytest.raises(ValueError):
            make_link_model(0)

    def test_config_validates_component_names(self):
        with pytest.raises(ValueError, match="unknown arbiter"):
            SimConfig(arbiter="lottery")
        with pytest.raises(ValueError, match="unknown flow control"):
            SimConfig(flow_control="wormhole")
        with pytest.raises(ValueError):
            SimConfig(link_latency_slots=0)

    def test_default_composition_is_the_papers(self, net2d):
        sim = _sim(net2d)
        assert isinstance(sim.arbiter, QPArbiter)
        assert isinstance(sim.flow_control, VirtualCutThrough)
        assert isinstance(sim.link, UnitSlotLink)

    def test_table2_reflects_components(self):
        rows = dict(table2_rows(SimConfig(flow_control="saf", link_latency_slots=2)))
        assert rows["Flow control"] == "Store-and-forward"
        assert "2 slots" in rows["Link latency"]


# ----------------------------------------------------------------------
# Arbiters
# ----------------------------------------------------------------------
class TestArbiters:
    @pytest.mark.parametrize("name", sorted(ARBITERS))
    def test_delivers_and_conserves(self, net2d, name):
        cfg = PAPER_CONFIG.with_(arbiter=name)
        sim = _sim(net2d, offered=0.4, config=cfg)
        res = sim.run(warmup=50, measure=150)
        assert not res.deadlocked
        assert res.accepted > 0.3
        assert _conserved(sim)

    @pytest.mark.parametrize("name", sorted(ARBITERS))
    def test_deterministic_per_seed(self, net2d, name):
        cfg = PAPER_CONFIG.with_(arbiter=name)
        runs = [
            _sim(net2d, offered=0.6, seed=3, config=cfg).run(warmup=40, measure=120)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_phase_counts_mirror_the_fifos(self, net2d):
        """``local_heads`` and ``port_occ`` never drift from the FIFOs."""
        sim = _sim(net2d, offered=0.7)
        V = sim.mechanism.n_vcs
        for slot in range(120):
            sim.step()
            if slot % 10 == 0:
                for sw in sim.switches:
                    assert sw.local_heads == sorted(
                        idx for idx in sw.active_inputs
                        if sw.in_q[idx][0].dst_switch == sw.sid
                    )
                    assert sw.port_occ == [
                        sum(len(q) for q in sw.out_q[p * V:(p + 1) * V])
                        for p in range(sw.n_ports)
                    ]

    def test_qp_beats_random_at_saturation(self, net2d):
        """The load-aware rule must buy something over the null arbiter."""
        accepted = {}
        for name in ("qp", "random"):
            cfg = PAPER_CONFIG.with_(arbiter=name)
            res = _sim(net2d, offered=1.0, config=cfg).run(warmup=80, measure=200)
            accepted[name] = res.accepted
        assert accepted["qp"] > accepted["random"]


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------
class TestFlowControl:
    def test_thresholds(self):
        vct = make_flow_control("vct")
        vct.attach(PAPER_CONFIG)
        assert (vct.min_credits, vct.output_capacity) == (
            1, PAPER_CONFIG.output_buffer_packets
        )
        saf = make_flow_control("saf")
        saf.attach(PAPER_CONFIG)
        assert (saf.min_credits, saf.output_capacity) == (1, 1)

    def test_saf_never_queues_two_packets_per_output_vc(self, net2d):
        cfg = PAPER_CONFIG.with_(flow_control="saf")
        sim = _sim(net2d, offered=0.9, config=cfg)
        for _ in range(150):
            sim.step()
            for sw in sim.switches:
                assert all(len(q) <= 1 for q in sw.out_q)
        assert _conserved(sim)

    def test_saf_still_delivers(self, net2d):
        cfg = PAPER_CONFIG.with_(flow_control="saf")
        res = _sim(net2d, offered=0.4, config=cfg).run(warmup=50, measure=150)
        assert not res.deadlocked
        assert res.accepted > 0.3

    @pytest.mark.parametrize("thresholds", [(9, 4), (1, 0)])
    def test_policy_that_can_never_grant_is_refused(self, net2d, thresholds):
        # More free slots than an 8-packet input buffer holds, or no
        # output room: without the check such a point never grants and
        # ends as a watchdog "deadlock".
        class Unreachable(FlowControl):
            name = "unreachable"

            def configure(self, cfg):
                return thresholds

        mech = make_mechanism("PolSP", net2d, rng=1)
        with pytest.raises(ValueError, match="'unreachable' can never grant"):
            Simulator(
                net2d, mech, make_traffic("uniform", net2d, 0),
                flow_control=Unreachable(),
            )


# ----------------------------------------------------------------------
# Link models
# ----------------------------------------------------------------------
class TestLinkModels:
    def test_pipelined_one_matches_unit_link(self, net2d):
        """PipelinedLink(1) is observationally the 1-slot link.

        Compared under the deterministic age arbiter: the QP default
        breaks RNG ties in input-activation order, which legitimately
        differs between in-transmit delivery and start-of-slot delivery
        without changing any packet's eligibility slot.
        """
        cfg = PAPER_CONFIG.with_(arbiter="age")
        unit = _sim(net2d, offered=0.6, seed=2, config=cfg).run(
            warmup=40, measure=120
        )
        mech = make_mechanism("PolSP", net2d, n_vcs=None, rng=1)
        piped = Simulator(
            net2d, mech, make_traffic("uniform", net2d, 0), offered=0.6,
            seed=2, config=cfg, link_model=PipelinedLink(1),
        ).run(warmup=40, measure=120)
        assert piped == unit

    def test_latency_grows_with_link_latency(self, net2d):
        lat = {}
        for k in (1, 3):
            cfg = PAPER_CONFIG.with_(link_latency_slots=k)
            res = _sim(net2d, offered=0.2, config=cfg).run(warmup=60, measure=200)
            assert not res.deadlocked
            lat[k] = res.avg_latency_cycles
        # Every hop spends 2 extra slots on the wire; at least one hop.
        assert lat[3] >= lat[1] + 2 * PAPER_CONFIG.cycles_per_slot

    def test_wire_conservation_while_stepping(self, net2d):
        cfg = PAPER_CONFIG.with_(link_latency_slots=4)
        sim = _sim(net2d, offered=0.7, config=cfg)
        seen_wire = 0
        for _ in range(150):
            sim.step()
            assert _conserved(sim)
            seen_wire = max(seen_wire, sim.wire_packets())
        assert seen_wire > 0  # packets really ride the pipeline

    def test_wire_transit_is_not_a_stall(self, net2d):
        """A link latency at or beyond the watchdog threshold must not be
        mistaken for a deadlock — wire transit is guaranteed progress."""
        cfg = PAPER_CONFIG.with_(
            link_latency_slots=60, deadlock_threshold_slots=50
        )
        sim = _sim(net2d, offered=0.05, config=cfg)
        res = sim.run(warmup=0, measure=400)
        assert not res.deadlocked
        assert res.delivered > 0

    def test_run_drains_wire_eventually(self, net2d):
        cfg = PAPER_CONFIG.with_(link_latency_slots=2)
        sim = _sim(net2d, offered=0.5, config=cfg)
        res = sim.run(warmup=50, measure=200)
        assert not res.deadlocked
        assert res.accepted > 0.3
        assert _conserved(sim)


# ----------------------------------------------------------------------
# Link models x fault machinery
# ----------------------------------------------------------------------
class TestPipelinedLinkFaults:
    def test_in_flight_packets_on_dying_link_are_dropped(self, hx2d):
        """Purging a failed link destroys the packets on its wire and
        returns their upstream credit reservation."""
        net = Network(hx2d)
        cfg = PAPER_CONFIG.with_(link_latency_slots=4)
        sim = _sim(net, offered=0.9, config=cfg)
        target = None
        for _ in range(400):
            sim.step()
            busy = sorted({
                (e[0], e[1])
                for bucket in sim.link._buckets.values()
                for e in bucket
            })
            if busy:
                target = busy[0]
                break
        assert target is not None, "no link ever carried in-flight packets"
        s, t = target
        on_wire = sim.link.in_flight_between(s, t) + sim.link.in_flight_between(t, s)
        link = (min(s, t), max(s, t))
        dropped_before = sim.metrics.dropped_total
        in_flight_before = sim.in_flight
        net.apply_fault(link)
        sim._purge_dead_link(link)
        sim.mechanism.on_topology_change()
        sim._refresh_inflight_packets()
        dropped = sim.metrics.dropped_total - dropped_before
        assert dropped >= on_wire  # wire packets died (plus any buffered)
        assert sim.in_flight == in_flight_before - dropped
        assert sim.link.in_flight_between(s, t) == 0
        assert sim.link.in_flight_between(t, s) == 0
        assert _conserved(sim)
        # Credit invariants hold and the network keeps making progress.
        delivered_before = sim.metrics.delivered_total
        for _ in range(100):
            sim.step()
            assert _conserved(sim)
        assert sim.metrics.delivered_total > delivered_before
        cap = cfg.input_buffer_packets
        for sw in sim.switches:
            for pv in range(sw.n_ports * sw.n_vcs):
                assert 0 <= sw.credits[pv] <= cap

    def test_topology_change_refreshes_packets_on_the_wire(self, hx2d):
        """Packets mid-flight on a pipelined link get their routing state
        refreshed on reconfiguration, just like buffered packets — stale
        escape/polarized state on a wire packet would misroute it the
        slot it lands."""
        net = Network(hx2d)
        cfg = PAPER_CONFIG.with_(link_latency_slots=4)
        sim = _sim(net, offered=0.9, config=cfg)
        for _ in range(400):
            sim.step()
            if sim.wire_packets():
                break
        assert sim.wire_packets() > 0
        wire_pids = {pkt.pid for _nxt, pkt in sim.link.iter_in_flight()}
        refreshed = set()
        original = sim.mechanism.refresh_packet
        sim.mechanism.refresh_packet = lambda pkt, here: (
            refreshed.add(pkt.pid), original(pkt, here))[-1]
        sim._refresh_inflight_packets()
        assert wire_pids <= refreshed

    def test_scheduled_fail_and_repair_with_pipelined_links(self, hx2d):
        net = Network(hx2d)
        links = random_connected_fault_sequence(hx2d, 2, rng=11)
        sched = FaultSchedule.down_then_up(60, 140, links)
        cfg = PAPER_CONFIG.with_(link_latency_slots=3)
        sim = _sim(net, offered=0.8, config=cfg, schedule=sched, n_vcs=4)
        res = sim.run(warmup=30, measure=270)
        assert not res.deadlocked
        assert net.faults == frozenset()  # repaired
        generated = res.generated
        accounted = res.delivered + res.dropped_packets + sim.in_flight
        assert generated == accounted
        assert _conserved(sim)
        cap = cfg.input_buffer_packets
        for sw in sim.switches:
            for pv in range(sw.n_ports * sw.n_vcs):
                assert 0 <= sw.credits[pv] <= cap
