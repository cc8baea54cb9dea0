"""Unit tests for the array backend's plan cache and its edges.

The differential suite proves the ``"array"`` backend byte-identical to
the slot reference end to end, and ``test_plan_cache.py`` re-scores
every plan it replays; this module tests the pieces around them, so a
break is named at the component:

* the ``candidate_key`` contract — equal keys must mean equal candidate
  lists, or the shared table would silently serve one packet another
  packet's routes — for every mechanism in ``routing/``, and its two
  edges: a mechanism without a key cannot be built, one that repeats a
  ``(port, vc)`` is rejected by name on every backend;
* the plan cache's conflict detector, its staleness snapshot and its
  profiler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.base import LadderRouting, RoutingMechanism
from repro.routing.catalog import make_mechanism
from repro.routing.minimal import MinimalRoutes
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.packet import Packet
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic

from _helpers import ALL_MECHANISMS, build_mechanism


def _net(n_faults=0, seed=3):
    hx = HyperX((4, 4), 2)
    faults = (
        random_connected_fault_sequence(hx, n_faults, rng=seed)
        if n_faults
        else []
    )
    return Network(hx, faults)


def _array_sim(net, mechanism="PolSP", offered=0.5, seed=0):
    mech = make_mechanism(mechanism, net, rng=seed + 1)
    return make_simulator(
        PAPER_CONFIG.with_(backend="array"), net, mech,
        make_traffic("uniform", net, seed), offered=offered, seed=seed,
    )


def _walk(mech, net, pkt, max_hops=3):
    """Yield (pkt, current) along a greedy walk over the mechanism's own
    candidates (first candidate each hop)."""
    current = pkt.src_switch
    for _ in range(max_hops + 1):
        yield pkt, current
        cands = mech.candidates(pkt, current)
        if not cands or current == pkt.dst_switch:
            return
        port, vc, _pen = cands[0]
        nbr = int(net.port_neighbour[current][port])
        if nbr < 0:
            return
        mech.on_hop(pkt, current, nbr, port, vc)
        current = nbr


class TestCandidateKeyContract:
    """Equal ``candidate_key`` => equal ``candidates`` — the soundness
    condition of the array backend's shared route memo."""

    @pytest.mark.parametrize("name", ALL_MECHANISMS)
    @pytest.mark.parametrize("n_faults", [0, 3])
    def test_key_determines_candidates(self, name, n_faults):
        net = _net(n_faults)
        mech = build_mechanism(name, net)
        sps = net.topology.servers_per_switch
        seen: dict[tuple, list] = {}
        collisions = 0
        pid = 0
        # Two passes over the same (src, dst) set: pass 2's packets are
        # distinct objects in identical route situations, so every one
        # of their keys collides with pass 1 — the probe always has
        # teeth, on top of whatever cross-pair collisions occur.
        # (Valiant draws fresh intermediates in pass 2; its collisions
        # are the cross-pair ones.)
        for _ in range(2):
            for src in range(0, net.n_switches, 3):
                for dst in range(net.n_switches):
                    if dst == src:
                        continue
                    pkt = Packet(pid, src * sps, dst * sps, src, dst, 0)
                    pid += 1
                    mech.init_packet(pkt)
                    for p, current in _walk(mech, net, pkt):
                        key = mech.candidate_key(p, current)
                        assert isinstance(key, tuple)
                        cands = mech.candidates(p, current)
                        if key in seen:
                            collisions += 1
                            assert seen[key] == cands, (
                                f"{name}: key {key} maps to two candidate "
                                "lists"
                            )
                        else:
                            seen[key] = cands
        assert collisions > 0

    def test_valiant_key_flips_phase_at_the_intermediate(self):
        # The memo serves candidates without calling ``candidates``, so
        # the lazy phase flip must happen in ``candidate_key`` alone.
        net = _net()
        mech = make_mechanism("Valiant", net, rng=1)
        mid, dst = 5, 10

        def injected_at_mid(pid):
            pkt = Packet(pid, mid * 2, dst * 2, mid, dst, 0)
            mech.init_packet(pkt)
            pkt.mid = mid
            assert pkt.phase == 0
            return pkt

        a, b = injected_at_mid(0), injected_at_mid(1)
        key = mech.candidate_key(a, mid)
        assert a.phase == 1  # flipped without a candidates() call
        assert key == mech.candidate_key(b, mid) == (mid, 0, dst)
        assert mech.candidates(a, mid) == mech.candidates(b, mid)

        # A packet that hopped to ``mid`` shares the situation of one
        # injected there with as many hops behind it.
        src = next(s for s in range(net.n_switches) if net.distances[s, mid] == 1)
        hopper = Packet(2, src * 2, dst * 2, src, dst, 0)
        mech.init_packet(hopper)
        hopper.mid = mid
        port, vc, _pen = mech.candidates(hopper, src)[0]
        mech.on_hop(hopper, src, mid, port, vc)
        peer = injected_at_mid(3)
        peer.hops = hopper.hops
        assert mech.candidate_key(hopper, mid) == mech.candidate_key(peer, mid)
        assert mech.candidates(hopper, mid) == mech.candidates(peer, mid)

    @pytest.mark.parametrize("name", ["Minimal", "Valiant", "PolSP"])
    def test_key_survives_a_fault_but_its_list_may_not(self, name):
        # The key indexes the *current* tables: the same key may map to
        # a different list after ``on_topology_change``.  That is legal
        # only because the engine's topology hook drops the memo.
        net = _net()
        src, dst = 0, 15
        minimal = make_mechanism("Minimal", net, 4)
        port = minimal.candidates(Packet(0, 0, 0, src, dst, 0), src)[0][0]
        link = (src, int(net.port_neighbour[src][port]))
        sim = make_simulator(
            PAPER_CONFIG.with_(backend="array"), net,
            make_mechanism(name, net, rng=1), make_traffic("uniform", net, 0),
            offered=0.4, seed=0, fault_schedule=FaultSchedule.link_down(30, link),
        )
        mech = sim.mechanism
        for _ in range(30):
            sim.step()
        stale = dict(sim._cand_memo)
        assert stale
        pkt = Packet(10**6, src * 2, dst * 2, src, dst, 0)
        mech.init_packet(pkt)
        pkt.mid = dst
        key = mech.candidate_key(pkt, src)
        before = mech.candidates(pkt, src)
        assert port in {p for p, _vc, _pen in before}
        sim.step()  # slot 30: the link goes down
        assert mech.candidate_key(pkt, src) == key
        after = mech.candidates(pkt, src)
        assert after != before and port not in {p for p, _vc, _pen in after}
        # Every entry now in the memo was built after the event.
        assert sim._cand_memo
        assert not any(ent is stale.get(k) for k, ent in sim._cand_memo.items())


class _TwiceMinimal(LadderRouting):
    """Breaks the ``candidates`` contract: every hop offered twice."""

    def candidates(self, pkt, current):
        return super().candidates(pkt, current) * 2


class TestKeyContractEdges:
    def test_a_mechanism_without_a_key_cannot_be_built(self):
        class Unkeyed(LadderRouting):
            candidate_key = RoutingMechanism.candidate_key

        with pytest.raises(TypeError, match="candidate_key"):
            Unkeyed("Unkeyed", MinimalRoutes(_net()), 4, 2)

    @pytest.mark.parametrize("backend", ["slot", "array"])
    @pytest.mark.parametrize("arbiter", ["qp", "roundrobin"])
    def test_repeated_port_vc_is_rejected_by_name(self, arbiter, backend):
        net = _net()
        sim = make_simulator(
            PAPER_CONFIG.with_(backend=backend, arbiter=arbiter), net,
            _TwiceMinimal("TwiceMinimal", MinimalRoutes(net), 4, 2),
            make_traffic("uniform", net, 0),
            offered=0.7, seed=0,
        )
        with pytest.raises(ValueError) as err:
            for _ in range(20):
                sim.step()
        msg = str(err.value)
        assert "TwiceMinimal" in msg and "same (port, vc) twice" in msg
        assert "at switch" in msg and "[(" in msg  # names switch + candidates
        assert sim.slot <= 1  # the first lookup, not some later slot


class TestGrantPlanCache:
    """The array grant path's plan cache and its conflict detector."""

    def test_all_three_paths_run_under_congestion(self):
        # Hotspot congestion exercises plan reuse, select rebuilds and
        # the credit-feedback fallback in the same run: blocked switches
        # replay cached plans, granting switches rebuild, and upstream
        # neighbours of granting switches hit the feedback fallback.
        net = Network(HyperX((4, 4), 4))
        mech = make_mechanism("PolSP", net, rng=1)
        sim = make_simulator(
            PAPER_CONFIG.with_(backend="array"), net, mech,
            make_traffic("hotspot", net, 0), offered=0.8, seed=0,
        )
        stats = sim.grant_stats
        for _ in range(250):
            sim.step()
        assert stats["plan_hits"] > 0
        assert stats["select_rebuilds"] > 0
        assert stats["fallback_rebuilds"] > 0

    def test_feedback_bitmask_flags_upstream_of_grants(self):
        # Within one allocation phase the bitmask must cover exactly the
        # switches that received an upstream credit return; after the
        # phase those flags are whatever the last grants left — the next
        # phase clears them before reading.
        sim = _array_sim(_net(), offered=0.7)
        for _ in range(80):
            sim.step()
        state = sim.state
        state.grant_feedback[:] = True  # poison: _allocate must clear it
        before = int(sim.rng.integers(1 << 30))
        sim2 = _array_sim(_net(), offered=0.7)
        for _ in range(80):
            sim2.step()
        sim2.state.grant_feedback[:] = False
        after = int(sim2.rng.integers(1 << 30))
        # Same seed, same history: the poisoned mask may not change the
        # run (it is cleared at phase start, never carried over).
        assert before == after

    def test_plan_reuse_is_byte_identical_to_rebuild(self):
        # Force rebuild-every-slot by poisoning the used-row snapshot
        # each step; the run must stay byte-identical to the cached one.
        def fingerprint(sim, poison, slots=100):
            for _ in range(slots):
                if poison:
                    sim._combined_used[:] = np.nan  # every switch stale
                sim.step()
            return (
                sim.in_flight, sim.next_pid,
                float(sim.state.credits.sum()),
                int(sim.rng.integers(1 << 30)),
            )

        cached = fingerprint(_array_sim(_net(), offered=0.7), poison=False)
        rebuilt_sim = _array_sim(_net(), offered=0.7)
        rebuilt = fingerprint(rebuilt_sim, poison=True)
        assert cached == rebuilt
        assert rebuilt_sim.grant_stats["plan_hits"] == 0

    def test_grant_profile_times_the_scans(self):
        # The draws and grants run in the shared arbiter loop, which
        # keeps no timers: only the two kinds of scan are timed.
        sim = _array_sim(_net(), offered=0.7)
        assert sim.grant_profile is None  # off by default: no timer calls
        prof = sim.enable_grant_profile()
        for _ in range(60):
            sim.step()
        assert set(prof) == {"select", "fallback"}
        assert prof["select"] > 0.0 and prof["fallback"] > 0.0
