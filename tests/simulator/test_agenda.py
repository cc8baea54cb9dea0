"""The busy agenda: how the engine decides which switches a step visits.

A switch joins the agenda when a packet reaches it — generation at a
server, an arrival over a unit link, a landing off a pipelined wire —
and leaves it at the end of a step in which it held no packet and no
outstanding credit.  Each step visits a frozen, ascending snapshot of
the agenda taken after the wire landings, so a landing is eligible in
its own slot and any other wake joins the next step's list.

Every wake site is pinned here by a lone packet whose every move is
observable, and the agenda is checked to be *exact* — after every step,
precisely the switches holding work — on each topology family through
a fail-and-repair cycle, under both backends.  Exactness catches a
missed wake (a switch with work left off the agenda) and a missed
retirement (an idle switch visited forever) alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.catalog import make_mechanism
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic

BACKENDS = ["slot", "array"]

#: The lone packet: server 0 (on switch 0) of a 4x4 mesh; uniform
#: traffic with this seed sends it to switch 13, four hops away.
LONE_SEED = 0


def _lone_packet_sim(backend, link_latency_slots=1):
    """An idle mesh (``offered=0``) holding one freshly generated packet
    in switch 0's first injection queue."""
    net = Network(make_topology("mesh", side=4, servers_per_switch=2))
    sim = make_simulator(
        PAPER_CONFIG.with_(
            backend=backend, link_latency_slots=link_latency_slots
        ), net, make_mechanism("PolSP", net, rng=LONE_SEED + 1),
        make_traffic("uniform", net, LONE_SEED), offered=0.0, seed=LONE_SEED,
    )
    src = sim.switches[0]
    # One injection phase in which server 0 alone attempts.
    sim.injection.attempts = lambda slot, rng: np.array([0])
    sim._inject()
    del sim.injection.attempts
    (pkt,) = src.in_q[src.injection_input(0)]
    assert net.distances[0, pkt.dst_switch] >= 3, "the path must be multi-hop"
    return sim


def _work(sim) -> set[int]:
    """Switches holding a packet in an input or an outstanding credit."""
    return {
        sw.sid for sw in sim.switches if sw.active_inputs or any(sw.port_load)
    }


def _visited(sim) -> list[int]:
    return [sw.sid for sw in sim.alloc_switches()]


def _holders(sim) -> set[int]:
    return {sw.sid for sw in sim.switches if sw.active_inputs}


def _step_until(sim, done, limit=10) -> None:
    """Step until ``done()`` holds; a stalled packet fails, not hangs."""
    for _ in range(limit):
        if done():
            return
        sim.step()
    assert done(), f"condition not reached within {limit} steps"


class TestWakeSites:
    """Each place a packet reaches a switch puts that switch on the agenda."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generation_wakes_the_source_switch(self, backend):
        sim = _lone_packet_sim(backend)
        assert sim.busy_switches() == (0,)
        # Woken outside a step: no visit list holds it yet.
        assert sim.alloc_switches() == []
        sim.step()
        assert _visited(sim) == [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unit_link_arrival_wakes_the_receiver_for_the_next_step(
        self, backend
    ):
        sim = _lone_packet_sim(backend)
        sim.step()
        (receiver,) = _holders(sim)
        assert receiver != 0
        assert receiver in sim.busy_switches()
        assert receiver not in _visited(sim)  # woken mid-step
        sim.step()
        assert receiver in _visited(sim)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipelined_landing_joins_the_same_steps_visit_list(self, backend):
        sim = _lone_packet_sim(backend, link_latency_slots=3)
        _step_until(sim, lambda: sim.link.total_in_flight() > 0)
        ((receiver, _pkt),) = sim.link.iter_in_flight()
        assert receiver not in sim.busy_switches()  # still on the wire
        _step_until(
            sim,
            lambda: [t for t, _ in sim.link.iter_in_flight()] != [receiver],
        )
        # Landed at the start of this step, before the snapshot.
        assert receiver in _visited(sim)


class TestLonePacket:
    @pytest.mark.parametrize("link_latency_slots", [1, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agenda_follows_the_packet_and_empties(
        self, backend, link_latency_slots
    ):
        sim = _lone_packet_sim(backend, link_latency_slots)
        (pkt,) = sim.switches[0].in_q[sim.switches[0].injection_input(0)]
        seen: list[int] = []
        for _ in range(20 * link_latency_slots):
            sim.step()
            assert set(sim.busy_switches()) == _work(sim), sim.slot
            visited = _visited(sim)
            assert visited == sorted(visited)
            seen.extend(s for s in visited if s not in seen)
            if sim.in_flight == 0:
                break
        assert sim.in_flight == 0
        assert sim.busy_switches() == ()
        # One visit list per hop's switch, and nobody else.
        assert seen[0] == 0 and seen[-1] == pkt.dst_switch
        assert len(seen) == sim.network.distances[0, pkt.dst_switch] + 1


class TestSnapshot:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wakes_are_ordered_deduplicated_and_retired(self, backend):
        net = Network(HyperX((4, 4), 2))
        sim = make_simulator(
            PAPER_CONFIG.with_(backend=backend), net,
            make_mechanism("PolSP", net, rng=1),
            make_traffic("uniform", net, 0), offered=0.0, seed=0,
        )
        for sid in (9, 3, 12, 3, 9):
            sim._wake(sid)
        assert sim.busy_switches() == (3, 9, 12)
        sim.step()
        assert _visited(sim) == [3, 9, 12]
        # Visited with nothing to do: all three retire.
        assert sim.busy_switches() == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_visit_list_is_rebuilt_only_when_membership_changed(
        self, backend
    ):
        net = Network(HyperX((4, 4), 2))
        sim = make_simulator(
            PAPER_CONFIG.with_(backend=backend), net,
            make_mechanism("PolSP", net, rng=1),
            make_traffic("uniform", net, 0), offered=0.5, seed=0,
        )
        previous = sim.alloc_switches()
        reused = rebuilt = 0
        for _ in range(80):
            # Unit links land nothing before the snapshot, so the agenda
            # between steps is exactly what the next step visits.
            agenda = sim.busy_switches()
            sim.step()
            current = sim.alloc_switches()
            assert tuple(_visited(sim)) == agenda
            if agenda == tuple(sw.sid for sw in previous):
                assert current is previous
                reused += 1
            else:
                rebuilt += 1
            previous = current
        assert reused > 0 and rebuilt > 0


FAMILIES = {
    "hyperx": lambda: HyperX((4, 4), 2),
    "torus": lambda: make_topology("torus", side=4, servers_per_switch=2),
    "fattree": lambda: make_topology("fattree", k=4, servers_per_switch=2),
    "mesh": lambda: make_topology("mesh", side=4, servers_per_switch=2),
}


class TestExactAgenda:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_agenda_is_exactly_the_switches_with_work(self, family, backend):
        topo = FAMILIES[family]()
        links = random_connected_fault_sequence(topo, 2, rng=3)
        net = Network(topo)
        sim = make_simulator(
            PAPER_CONFIG.with_(backend=backend), net,
            make_mechanism("PolSP", net, rng=1),
            make_traffic("uniform", net, 0), offered=0.05, seed=0,
            fault_schedule=FaultSchedule.down_then_up(20, 50, links),
        )
        sizes = []
        for _ in range(80):
            sim.step()
            assert set(sim.busy_switches()) == _work(sim), (
                f"agenda differs from the switches with work after slot "
                f"{sim.slot - 1}"
            )
            sizes.append(len(sim.busy_switches()))
        # Low load: switches both retire and wake during the run.
        assert 0 < max(sizes) and min(sizes) < len(sim.switches)
