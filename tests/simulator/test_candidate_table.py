"""The simulator-wide candidate table (``Simulator.lookup_candidates``).

Every backend's request scan reads candidates through one
``candidate_key -> candidate list`` table instead of calling
``mechanism.candidates`` per packet-hop.  The table is only an
optimisation if it can never return anything ``candidates`` would not,
so this module pins:

* record-neutrality — a table that (almost) never hits and the default
  one produce the same ``SimResult``, end state and next RNG draw, on
  every backend, through a fail-then-repair schedule;
* the key contract in vivo — every lookup equals a fresh ``candidates``
  call, entries never name a dead port and are never mutated;
* the lifecycle — empty right after every topology event, never above
  its bound;
* the point of it — ``candidates`` runs once per distinct key, not once
  per hop.
"""

from __future__ import annotations

import copy
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator import engine
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic

from _helpers import ALL_MECHANISMS, build_mechanism

BACKENDS = ("slot", "array")
DOWN, UP, END = 40, 90, 150


def _sim(backend, mechanism, *, latency=1, offered=0.7, seed=0, scheduled=True):
    """A 4x4 HyperX point; ``mechanism`` is a name or a ``net -> mech``
    callable.  The network is private: the schedule mutates it."""
    net = Network(HyperX((4, 4), 2))
    mech = (
        build_mechanism(mechanism, net)
        if isinstance(mechanism, str)
        else mechanism(net)
    )
    schedule = None
    if scheduled:
        links = random_connected_fault_sequence(net.topology, 2, rng=5)
        schedule = FaultSchedule.down_then_up(DOWN, UP, links)
    return make_simulator(
        PAPER_CONFIG.with_(backend=backend, link_latency_slots=latency),
        net, mech, make_traffic("uniform", net, seed),
        offered=offered, seed=seed, fault_schedule=schedule,
    )


def _outcome(sim):
    """Result + the end-state probe ``perfbench`` compares backends by
    (its last entry is the next draw of the simulator's RNG)."""
    result = sim.run(warmup=50, measure=END - 50)
    probe = (
        sim.in_flight, sim.next_pid, sim.state.credits.tobytes(),
        sim.state.link_tx.tobytes(), int(sim.state.packets.live),
        int(sim.rng.integers(1 << 30)),
    )
    return asdict(result), probe


def _count_calls(obj, name):
    """Shadow ``obj.name`` on the instance with a counting wrapper (the
    way ``perfbench/tracing.py`` does); returns the one-cell counter."""
    orig = getattr(obj, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    setattr(obj, name, counted)
    return calls


class TestRecordNeutral:
    @pytest.mark.parametrize("latency", [1, 2])
    @pytest.mark.parametrize("name", ["PolSP", "Valiant", "Minimal"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_of_one_changes_no_record(self, monkeypatch, backend, name, latency):
        tabled = _sim(backend, name, latency=latency)
        tabled_calls = _count_calls(tabled.mechanism, "candidates")
        want = _outcome(tabled)

        # A one-entry table hits only when a key repeats back to back.
        monkeypatch.setattr(engine, "CANDIDATE_TABLE_BOUND", 1)
        bare = _sim(backend, name, latency=latency)
        bare_calls = _count_calls(bare.mechanism, "candidates")
        assert _outcome(bare) == want
        assert len(bare._cand_memo) <= 1
        assert bare_calls[0] > 2 * tabled_calls[0] > 0


class TestKeyContractInVivo:
    @given(
        name=st.sampled_from(ALL_MECHANISMS),
        seed=st.integers(0, 50),
        offered=st.sampled_from([0.2, 0.7]),
        latency=st.sampled_from([1, 2]),
    )
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_table_only_returns_what_candidates_would(self, name, seed, offered, latency):
        sim = _sim("slot", name, latency=latency, offered=offered, seed=seed)
        mech, net = sim.mechanism, sim.network
        fresh = mech.candidates
        lookup = sim.lookup_candidates
        #: key -> (packet as routed, switch, deep copy of the list) at insert.
        inserted: dict[tuple, tuple] = {}

        def recording(pkt, sid):
            cands = fresh(pkt, sid)
            inserted[mech.candidate_key(pkt, sid)] = (
                copy.copy(pkt), sid, copy.deepcopy(cands)
            )
            return cands

        def checked(pkt, sid):
            cands = lookup(pkt, sid)
            assert cands == fresh(copy.copy(pkt), sid), (
                f"{name}: table and candidates() disagree at switch {sid}"
            )
            return cands

        mech.candidates = recording
        sim.lookup_candidates = checked

        def audit():
            assert sim._cand_memo
            for key, cands in sim._cand_memo.items():
                pkt, sid, snapshot = inserted[key]
                assert cands == snapshot, f"{name}: tabled list was mutated"
                assert cands == fresh(copy.copy(pkt), sid)
                for port, _vc, _pen in cands:
                    assert net.port_neighbour[sid][port] >= 0, (
                        f"{name}: entry {key} names dead port {port}"
                    )

        for stop in (DOWN, DOWN + 10, UP + 10):
            while sim.slot < stop:
                sim.step()
            audit()


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_after_every_topology_event_and_bounded(self, monkeypatch, backend):
        bound = 8
        monkeypatch.setattr(engine, "CANDIDATE_TABLE_BOUND", bound)
        sim = _sim(backend, "PolSP")
        drops = _count_calls(sim, "_drop_candidate_table")
        refresh = sim._refresh_inflight_packets
        events = [0]

        def refreshed():
            assert sim._cand_memo  # the event has something to drop
            refresh()
            events[0] += 1
            assert not sim._cand_memo

        sim._refresh_inflight_packets = refreshed
        for _ in range(END):
            sim.step()
            assert len(sim._cand_memo) <= bound
        assert events[0] == 2  # both links fail together, then both repair
        assert drops[0] > events[0]  # the bound dropped it in between


class TestOneCallPerKey:
    def test_candidates_runs_once_per_distinct_key(self):
        sim = _sim("slot", "PolSP", scheduled=False)
        mech = sim.mechanism
        calls = _count_calls(mech, "candidates")
        key_of = mech.candidate_key
        keys = set()

        def seen(pkt, sid):
            key = key_of(pkt, sid)
            keys.add(key)
            return key

        mech.candidate_key = seen
        sim.run(warmup=50, measure=100)
        hops = int(sim.state.link_tx.sum())
        assert calls[0] == len(keys) == len(sim._cand_memo)
        assert 0 < calls[0] < hops
