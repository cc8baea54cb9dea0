"""Candidate rows and the row scan of the request phase.

``Simulator.lookup_candidates`` hands every request scan a
``CandidateList``: the ``(port, vc, pen)`` triples plus their rows, runs
on one port with one penalty.  The scans (``QPArbiter.allocate`` and
the shared ``Arbiter._hol_requests``) admit and score a row on an idle
live port in one step and walk every other row VC by VC.  That is only
an optimisation if it chooses exactly what the per-triple scan would,
so this module re-scores every visited head with a flat per-triple
scan written here and pins:

* every tabled list's rows flatten to the list (and every list a head
  is scanned with, tabled or not);
* the Q+P request of every head — best score, tie-list length, the
  drawn tie and the request draw — equals the flat scan's, and a head
  the flat scan blocks makes no request and no draw;
* ``_hol_requests`` returns the flat scan's feasible list for every
  head, under all four arbiters;

over every mechanism in ``routing/`` on
four topology families, healthy, through a fail-then-repair schedule
and with a link dead from the start.  A last case names a dead port in
a candidate list, which the shortcut must leave to the per-VC scan.

``QPArbiter.allocate`` also scores each loaded row once per switch
visit and reuses that score for every later head offering
the same row.  The tally counts those reuses (``shared_rows``) and the
heads whose tie list spans several rows (``cross_row_ties``, where a
reused tie list is merged); the congested cases below must reach both,
including one mechanism whose rows share a port.
"""

from __future__ import annotations

import pytest

from repro.routing.base import CandidateList, LadderRouting
from repro.routing.catalog import HYPERX_ONLY, default_n_vcs, mechanism_supported
from repro.routing.minimal import MinimalRoutes
from repro.simulator.arbiters import ARBITERS, QPArbiter
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic

from _helpers import ALL_MECHANISMS, build_mechanism

DOWN, UP, END = 10, 20, 30

FAMILIES = {
    "hyperx": lambda: HyperX((4, 4), 2),
    "torus": lambda: make_topology("torus", side=4, servers_per_switch=2),
    "mesh": lambda: make_topology("mesh", side=3, servers_per_switch=2),
    "fattree": lambda: make_topology("fattree", k=4, servers_per_switch=2),
}
SCENARIOS = ("healthy", "fail_repair", "initially_failed")


# ----------------------------------------------------------------------
# The reference: the per-triple scan the row scan replaced
# ----------------------------------------------------------------------
def _flat_feasible(sim, sw, cands):
    """The flow-control-admitted triples of ``cands``, in list order."""
    fc = sim.flow_control
    n_vcs = sw.n_vcs
    return [
        (port, vc, pen)
        for port, vc, pen in cands
        if sw.credits[port * n_vcs + vc] >= fc.min_credits
        and len(sw.out_q[port * n_vcs + vc]) < fc.output_capacity
    ]


def _flat_best(sim, sw, feasible):
    """``(best_score, best)``: the lowest ``Q + P`` over the admitted
    triples and its tied ``(port, vc)`` candidates, in list order."""
    best_score, best = None, []
    for port, vc, pen in feasible:
        pv = port * sw.n_vcs + vc
        score = (sw.port_load[port] + sw.load[pv]) * sim.cfg.packet_phits + pen
        if best_score is None or score < best_score:
            best_score, best = score, [(port, vc)]
        elif score == best_score:
            best.append((port, vc))
    return best_score, best


def _assert_rows(cands, n_vcs):
    """``cands`` carries rows, they flatten to its triples, and no
    ``(port, vc)`` appears twice (the engine checks only plain lists)."""
    assert isinstance(cands, CandidateList)
    flat = []
    for port, pen, pvs in cands.rows:
        for pv in pvs:
            assert pv // n_vcs == port, f"row on port {port} holds pv {pv}"
            flat.append((port, pv - port * n_vcs, pen))
    assert flat == list(cands)
    assert len({(port, vc) for port, vc, _pen in flat}) == len(flat)


class _RecordingRng:
    """Forwards to the simulator's generator, recording the arbiter's
    draws (same stream, same values)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def integers(self, n):
        k = self._rng.integers(n)
        self.calls.append(("integers", n, int(k)))
        return k

    def random(self):
        r = self._rng.random()
        self.calls.append(("random", None, r))
        return r


def _audit(sim):
    """Re-score every head the arbiter visits, at its visit, against the
    flat scan.  Returns the coverage tally: scanned heads; rows seen on
    idle live ports (the shortcut) and on loaded ports (scored per VC);
    loaded rows that an earlier head of the same visit already offered
    (``shared_rows``, the per-visit memo's reuses); and heads whose tied
    candidates come from more than one row."""
    arb = sim.arbiter
    visits = sim.alloc_switches
    n_vcs = sim._n_vcs
    tally = {
        "heads": 0, "idle_rows": 0, "loaded_rows": 0,
        "shared_rows": 0, "cross_row_ties": 0,
    }
    checked = {}  # id -> list: each list object's rows checked once
    qp = type(arb) is QPArbiter
    if qp:
        rng = sim.rng = _RecordingRng(sim.rng)
        grant = arb._grant
        seen = {}

        def recording_grant(sim_, sw, requests, ports):
            seen["requests"] = requests
            return grant(sim_, sw, requests, ports)

        arb._grant = recording_grant

    def heads(sw):
        sid = sw.sid
        for idx in sw.active_inputs:
            pkt = sw.in_q[idx][0]
            if pkt.dst_switch == sid:
                continue
            if pkt.cand_switch == sid:
                cands = pkt.cand_list
            else:
                cands = sim.lookup_candidates(pkt, sid)
            if checked.get(id(cands)) is not cands:
                _assert_rows(cands, n_vcs)
                checked[id(cands)] = cands
            yield idx, pkt, cands

    def audited():
        for sw in visits():
            live = sim.network.port_neighbour[sw.sid]
            got = arb._hol_requests(sim, sw)
            want, expected = [], []
            scored = set()  # loaded rows earlier heads offered
            for idx, pkt, cands in heads(sw):
                tally["heads"] += 1
                loaded = []
                for port, _pen, pvs in cands.rows:
                    idle = sw.port_load[port] == 0 and live[port] >= 0
                    tally["idle_rows" if idle else "loaded_rows"] += 1
                    if not idle:
                        tally["shared_rows"] += pvs in scored
                        loaded.append(pvs)
                scored.update(loaded)
                feasible = _flat_feasible(sim, sw, cands)
                if feasible:
                    want.append((idx, pkt, feasible))
                    best_score, best = _flat_best(sim, sw, feasible)
                    expected.append((idx, best_score, best))
                    row_of = {
                        pv: i for i, (_p, _pen, pvs) in enumerate(cands.rows)
                        for pv in pvs
                    }
                    if len({row_of[p * n_vcs + vc] for p, vc in best}) > 1:
                        tally["cross_row_ties"] += 1
            assert got == want, f"_hol_requests diverged at switch {sw.sid}"
            if qp:
                rng.calls.clear()
                seen.clear()
            yield sw
            if qp:
                _check_requests(sw, expected, rng.calls, seen.get("requests", {}))

    sim.alloc_switches = audited
    return tally


def _check_requests(sw, expected, calls, requests):
    """The switch's Q+P requests and draws are the flat scan's."""
    got = {
        idx: (score, tie, port, vc)
        for port, reqs in requests.items()
        for score, tie, idx, vc, _pkt in reqs
    }
    draws = iter(calls)
    for idx, best_score, best in expected:
        if len(best) > 1:
            name, n, k = next(draws)
            assert (name, n) == ("integers", len(best)), (
                f"switch {sw.sid} input {idx}: tie list differs from {best}"
            )
            port, vc = best[k]
        else:
            port, vc = best[0]
        name, _, tie = next(draws)
        assert name == "random"
        assert got.pop(idx) == (best_score, tie, port, vc), (
            f"switch {sw.sid} input {idx}: request differs from the flat scan"
        )
    assert not got, f"switch {sw.sid}: requests the flat scan blocks: {got}"
    assert next(draws, None) is None


def _sim(family, mechanism, scenario, arbiter="qp"):
    topo = FAMILIES[family]()
    link = random_connected_fault_sequence(topo, 1, rng=3)
    net = Network(topo, link if scenario == "initially_failed" else ())
    mech = build_mechanism(mechanism, net)
    schedule = (
        FaultSchedule.down_then_up(DOWN, UP, link)
        if scenario == "fail_repair" else None
    )
    return make_simulator(
        PAPER_CONFIG.with_(arbiter=arbiter), net, mech,
        make_traffic("uniform", net, 0),
        offered=0.8, seed=0, fault_schedule=schedule,
    )


def _drive(sim, slots=END):
    tally = _audit(sim)
    for _ in range(slots):
        sim.step()
    for cands in sim._cand_memo.values():
        _assert_rows(cands, sim._n_vcs)
    return tally


def _cases():
    for family, build in FAMILIES.items():
        topo = build()
        for name in ALL_MECHANISMS:
            if name in HYPERX_ONLY and not mechanism_supported(name, topo):
                continue
            for scenario in SCENARIOS:
                yield family, name, scenario


class TestRowScanEqualsFlatScan:
    @pytest.mark.parametrize("family,name,scenario", list(_cases()))
    def test_qp_requests(self, family, name, scenario):
        tally = _drive(_sim(family, name, scenario))
        # Both row paths ran: the shortcut and the per-VC scan.
        assert tally["idle_rows"] > 0 and tally["loaded_rows"] > 0

    @pytest.mark.parametrize("arbiter", sorted(set(ARBITERS) - {"qp"}))
    @pytest.mark.parametrize("name", ["PolSP", "Minimal"])
    def test_hol_requests_under_every_arbiter(self, arbiter, name):
        tally = _drive(_sim("hyperx", name, "fail_repair", arbiter=arbiter))
        assert tally["idle_rows"] > 0 and tally["loaded_rows"] > 0


class _TwoRowMinimal(LadderRouting):
    """Minimal routes, each offered as two rows on one port: VCs 0-1 at
    penalty 0 and VCs 2-3 at one packet's worth — wide rows that share a
    port but not their VCs, so a score reused by port would be wrong."""

    def candidates(self, pkt, current):
        n = self.n_vcs
        network = self.routes.network
        dist = network.distances
        dst = pkt.dst_switch
        rows = []
        for port, nbr in network.live_ports[current]:
            if dist[nbr, dst] == dist[current, dst] - 1:
                pv = port * n
                rows += [(port, 0, (pv, pv + 1)), (port, 16, (pv + 2, pv + 3))]
        triples = [
            (port, pv - port * n, pen) for port, pen, pvs in rows for pv in pvs
        ]
        return CandidateList(triples, rows)

    def candidate_key(self, pkt, current):
        return (current, pkt.dst_switch)


class TestRowMemo:
    """Congested visits where many heads offer the same wide loaded rows:
    the memoised scores are reused, and merged into cross-row ties."""

    @pytest.mark.parametrize("family", ["mesh", "hyperx"])
    def test_congested_surepath(self, family):
        topo = (
            make_topology("mesh", side=4, servers_per_switch=2)
            if family == "mesh" else HyperX((4, 4), 4)
        )
        net = Network(topo)
        mech = build_mechanism("PolSP", net)
        assert mech.n_vcs == default_n_vcs(net)  # 2·diameter / 2n VCs
        sim = make_simulator(
            PAPER_CONFIG, net, mech, make_traffic("hotspot", net, 0),
            offered=0.8, seed=0,
        )
        tally = _drive(sim, 60)
        assert tally["shared_rows"] > 0 and tally["cross_row_ties"] > 0

    def test_rows_sharing_a_port(self):
        net = Network(HyperX((4, 4), 2))
        sim = make_simulator(
            PAPER_CONFIG, net, _TwoRowMinimal("TwoRowMinimal", MinimalRoutes(net), 4, 2),
            make_traffic("uniform", net, 0), offered=0.8, seed=0,
        )
        tally = _drive(sim)
        assert tally["shared_rows"] > 0 and tally["cross_row_ties"] > 0


class _DeadPortMinimal(LadderRouting):
    """Minimal routing that also offers, at switch 0, every VC of its
    dead port 0 at penalty 0 — an idle port the row shortcut would rank
    first if it trusted an idle dead port."""

    def candidates(self, pkt, current):
        out = super().candidates(pkt, current)
        if current == 0 and out:
            out = [(0, vc, 0) for vc in range(self.n_vcs)] + out
        return out


class TestDeadPort:
    def test_idle_dead_port_goes_to_the_per_vc_scan(self):
        topo = HyperX((4, 4), 4)
        net = Network(topo, [(0, 1)])
        assert net.port_neighbour[0][0] < 0
        mech = _DeadPortMinimal("DeadPortMinimal", MinimalRoutes(net), 4, 2)
        sim = make_simulator(
            PAPER_CONFIG, net, mech, make_traffic("uniform", net, 0),
            offered=0.5, seed=0,
        )
        # No downstream buffer, no credit.  Dead ports lie outside the
        # invariant ``SimState.verify`` audits, so only the per-VC scan
        # may judge them: it refuses these VCs, the shortcut would not.
        sw = sim.switches[0]
        for vc in range(mech.n_vcs):
            sw.credits[vc] = 0
        tally = _audit(sim)
        for _ in range(30):
            sim.step()
        assert sw.port_load[0] == 0
        assert tally["heads"] > 0
        assert int(sim.state.link_tx[0, 0]) == 0
