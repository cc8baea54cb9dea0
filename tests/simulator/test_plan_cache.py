"""The array backend's plan cache against a flat re-scan.

``ArraySimulator`` hands itself to ``QPArbiter.allocate`` as a plan
cache: a switch whose last scan made no request, and whose heads,
same-phase credit feedback and phase-start admission/Q row did not
change since, with no topology event between, skips its scan.  That is
only sound if the scan would make no request now either, so this module
re-scores the switch on **every** plan hit with a flat per-triple scan
written here and pins:

* the flat scan's plan — per requesting head, in visit order: input,
  packet, best ``Q + P`` score and the tied output VCs — is empty;
* the stalled heads the hit replays through ``on_stalled`` are the
  heads the scan would have reported as stalled, in visit order;

on hotspot traffic over a small mesh and a HyperX, healthy and through
a fail-then-repair cycle, plus a faulted OmniWAR case whose saturated VC
ladders leave stalled heads under replayed plans.
"""

from __future__ import annotations

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

DOWN, UP, END = 100, 200, 300

FAMILIES = {
    "mesh": lambda: make_topology("mesh", side=4, servers_per_switch=4),
    "hyperx": lambda: HyperX((4, 4), 4),
}


def _flat_scan(sim, sw):
    """``(plan, stalled pids)``: what the reference request scan would
    produce at ``sw`` now, triple by triple."""
    sid = sw.sid
    fc = sim.flow_control
    n_vcs = sw.n_vcs
    plan, stalled = [], []
    for idx in sw.active_inputs:
        pkt = sw.in_q[idx][0]
        if pkt.dst_switch == sid:
            continue
        if pkt.cand_switch == sid:
            cands = pkt.cand_list
        else:
            cands = sim.lookup_candidates(pkt, sid)
        if not cands:
            stalled.append(pkt.pid)
            continue
        best_score, best = None, []
        for port, vc, pen in cands:
            pv = port * n_vcs + vc
            if sw.credits[pv] < fc.min_credits:
                continue
            if len(sw.out_q[pv]) >= fc.output_capacity:
                continue
            score = (sw.port_load[port] + sw.load[pv]) * sim._phits + pen
            if best_score is None or score < best_score:
                best_score, best = score, [pv]
            elif score == best_score:
                best.append(pv)
        if best:
            plan.append((idx, pkt, best_score, best))
    return plan, stalled


def _audit(sim):
    """Check every plan hit against :func:`_flat_scan`; returns the
    tally of hits and replayed stalls."""
    reuse = sim.reuse
    metrics = sim.metrics
    on_stalled = metrics.on_stalled
    tally = {"hits": 0, "stalls": 0}
    replayed: list[int] = []

    def recording_on_stalled(pids, slot=None):
        replayed.extend(pids)
        on_stalled(pids, slot)

    def audited(sw):
        replayed.clear()
        metrics.on_stalled = recording_on_stalled
        try:
            hit = reuse(sw)
        finally:
            del metrics.on_stalled
        if not hit:
            assert not replayed, f"switch {sw.sid}: a miss replayed stalls"
            return False
        want_plan, want_stalled = _flat_scan(sim, sw)
        assert want_plan == [], (
            f"slot {sim.slot} switch {sw.sid}: a skipped scan would "
            f"request {want_plan}"
        )
        assert replayed == want_stalled, (
            f"slot {sim.slot} switch {sw.sid}: replayed stalls "
            f"{replayed} != {want_stalled}"
        )
        tally["hits"] += 1
        tally["stalls"] += len(replayed)
        return True

    sim.reuse = audited
    return tally


def _sim(topo, mechanism, scenario, offered, traffic="hotspot", faults=()):
    net = Network(topo, faults)
    schedule = None
    if scenario == "fail_repair":
        links = random_connected_fault_sequence(topo, 2, rng=5)
        schedule = FaultSchedule.down_then_up(DOWN, UP, links)
    return make_simulator(
        PAPER_CONFIG.with_(backend="array"), net,
        make_mechanism(mechanism, net, rng=1),
        make_traffic(traffic, net, 0),
        offered=offered, seed=0, fault_schedule=schedule,
    )


def _drive(sim, slots=END):
    tally = _audit(sim)
    for _ in range(slots):
        sim.step()
    return tally


class TestReplayedPlansEqualTheFlatScan:
    @pytest.mark.parametrize("scenario", ["healthy", "fail_repair"])
    @pytest.mark.parametrize("mechanism", ["PolSP", "Minimal"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hotspot(self, family, mechanism, scenario):
        sim = _sim(FAMILIES[family](), mechanism, scenario, offered=0.8)
        tally = _drive(sim)
        stats = sim.grant_stats
        # All three paths ran, and every hit was audited.
        assert tally["hits"] == stats["plan_hits"] > 0
        assert stats["select_rebuilds"] > 0 and stats["fallback_rebuilds"] > 0

    def test_stalled_heads_are_replayed(self):
        # Saturated VC ladders are the source of stalled heads.
        topo = HyperX((4, 4), 2)
        faults = random_connected_fault_sequence(topo, 5, rng=3)
        sim = _sim(topo, "OmniWAR", "healthy", offered=0.8,
                   traffic="uniform", faults=faults)
        tally = _drive(sim, slots=200)
        assert tally["hits"] > 0
        assert tally["stalls"] > 0, "no hit replayed a stall: unchecked"
