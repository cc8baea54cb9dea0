"""Collective (CCL) workloads: policy DAG semantics, closed-loop
injection bookkeeping, and end-to-end backend byte-identity.

The generators are property-tested across server counts on every
catalog family's sizing (only the server count matters — the DAG rides
the routing mechanism), and the execution tests pin the two claims the
subsystem makes: a collective completes with a finite JCT identically
on every backend, and a mid-run link failure costs time (retransmits),
not the job.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter, defaultdict, deque
from dataclasses import asdict

import numpy as np
import pytest

from repro.routing import make_mechanism
from repro.simulator import (
    COLLECTIVES,
    CollectiveEntry,
    CollectiveInjection,
    CollectivePolicy,
    FaultSchedule,
    SimConfig,
    all_gather_ring,
    all_reduce_ring,
    all_reduce_tree,
    collective_entries,
    make_collective,
    make_simulator,
)
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.traffic import CollectiveTraffic

GENERATORS = (all_reduce_ring, all_reduce_tree, all_gather_ring)


# ----------------------------------------------------------------------
# String oracles: each generator written one CollectiveEntry per transfer,
# with named chunk states, and built through CollectivePolicy(entries,
# initial).  The column generators must emit the same DAG.
# ----------------------------------------------------------------------
def _ring_entries(prefix, n, steps, chunk_packets):
    entries = [
        CollectiveEntry(
            chunk=f"{prefix}{c}.{t}",
            src=(c + t) % n,
            dst=(c + t + 1) % n,
            packets=chunk_packets,
            produces=f"{prefix}{c}.{t + 1}",
        )
        for t in range(steps)
        for c in range(n)
    ]
    return entries, [(f"{prefix}{c}.0", c) for c in range(n)]


def _oracle_all_reduce_ring(n, *, chunk_packets=1):
    return CollectivePolicy(*_ring_entries("ar", n, 2 * n - 2, chunk_packets))


def _oracle_all_gather_ring(n, *, chunk_packets=1):
    return CollectivePolicy(*_ring_entries("ag", n, n - 1, chunk_packets))


def _oracle_all_reduce_tree(n, *, chunk_packets=1):
    up = [
        CollectiveEntry(f"up{v}", v, (v - 1) // 2, chunk_packets, f"up{(v - 1) // 2}")
        for v in range(n - 1, 0, -1)
    ]
    down = [
        CollectiveEntry("up0" if p == 0 else f"dn{p}", p, c, chunk_packets, f"dn{c}")
        for p in range(n)
        for c in (2 * p + 1, 2 * p + 2)
        if c < n
    ]
    leaves = [v for v in range(n) if 2 * v + 1 >= n]
    return CollectivePolicy(up + down, [(f"up{v}", v) for v in leaves])


ORACLES = {
    all_reduce_ring: _oracle_all_reduce_ring,
    all_reduce_tree: _oracle_all_reduce_tree,
    all_gather_ring: _oracle_all_gather_ring,
}


def _state_map(a, b):
    """The map from ``a``'s state ids to ``b``'s that entry position
    induces (trigger with trigger, product with product); fails unless
    it is a bijection."""
    pairs = set(zip(
        np.concatenate([a.trigger, a.produces]).tolist(),
        np.concatenate([b.trigger, b.produces]).tolist(),
    ))
    mapping = dict(pairs)
    assert len(mapping) == len(pairs) == len(set(mapping.values()))
    return mapping


def _reference_fire_order(pol):
    """The fire order by a string-keyed dict/deque replay of the rule.

    An independent oracle for the compiled tables: same FIFO of fired
    entries, same waiter order, ownership keyed by ``(chunk, server)``.
    """
    entries = pol.entries
    need = Counter((e.produces, e.dst) for e in entries)
    waiting = defaultdict(list)
    for i, e in enumerate(entries):
        waiting[(e.chunk, e.src)].append(i)
    got = Counter()
    frontier = deque()
    for state in pol.initial:
        frontier.extend(waiting.pop(state, ()))
    order = []
    while frontier:
        i = frontier.popleft()
        order.append(i)
        state = (entries[i].produces, entries[i].dst)
        got[state] += 1
        if got[state] == need[state]:
            frontier.extend(waiting.pop(state, ()))
    return order


def _regranted_root_policy():
    # ("c", 0) is a root *and* entry 0's product; entry 1 waits on it.
    return CollectivePolicy(
        [
            CollectiveEntry("p", 1, 0, produces="c"),
            CollectiveEntry("c", 0, 2, packets=2),
        ],
        [("c", 0), ("p", 1)],
    )


# ----------------------------------------------------------------------
# Entry / policy validation
# ----------------------------------------------------------------------
class TestEntry:
    def test_produces_defaults_to_chunk(self):
        e = CollectiveEntry("c0", 0, 1)
        assert e.produces == "c0" and e.packets == 1

    def test_rejects_self_transfer(self):
        with pytest.raises(ValueError, match="self-transfer"):
            CollectiveEntry("c0", 3, 3)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CollectiveEntry("", 0, 1)
        with pytest.raises(ValueError):
            CollectiveEntry("c0", -1, 1)
        with pytest.raises(ValueError):
            CollectiveEntry("c0", 0, 1, packets=0)


class TestPolicy:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            CollectivePolicy([], [("c0", 0)])

    def test_rejects_out_of_range_server(self):
        pol = CollectivePolicy([CollectiveEntry("c0", 0, 5)], [("c0", 0)])
        with pytest.raises(ValueError, match="references server 5"):
            pol.validate(4)

    def test_detects_missing_initial_ownership(self):
        pol = CollectivePolicy([CollectiveEntry("c0", 0, 1)], [])
        with pytest.raises(ValueError, match="not a complete DAG"):
            pol.validate(2)

    def test_detects_circular_dependency(self):
        # 0 waits on 1's chunk and vice versa: neither entry can fire.
        pol = CollectivePolicy(
            [
                CollectiveEntry("a", 0, 1, produces="b"),
                CollectiveEntry("b", 1, 0, produces="a"),
            ],
            [],
        )
        with pytest.raises(ValueError, match="not a complete DAG"):
            pol.validate(2)

    def test_fire_order_respects_fan_in(self):
        # Two children reduce into the parent; the parent's send fires last.
        pol = CollectivePolicy(
            [
                CollectiveEntry("up", 0, 2, produces="sum"),
                CollectiveEntry("up2", 1, 2, produces="sum"),
                CollectiveEntry("sum", 2, 3),
            ],
            [("up", 0), ("up2", 1)],
        )
        order = pol.fire_order(4)
        assert order.index(2) > max(order.index(0), order.index(1))

    def test_rejects_negative_initial_server(self):
        # An entry with a negative server is rejected, so is an ownership.
        with pytest.raises(ValueError, match="non-negative"):
            CollectivePolicy([CollectiveEntry("c", 0, 1)], [("c", 0), ("x", -3)])

    def test_entries_and_initial_round_trip(self):
        entries = [
            CollectiveEntry("up", 0, 2, produces="sum"),
            CollectiveEntry("up2", 1, 2, packets=3, produces="sum"),
            CollectiveEntry("sum", 2, 3),
        ]
        pol = CollectivePolicy(entries, [("up2", 1), ("up", 0)], label="fan-in")
        assert pol.entries == tuple(entries)
        assert pol.initial == (("up", 0), ("up2", 1))
        assert pol.total_packets == 5
        assert repr(pol) == "CollectivePolicy('fan-in', 3 entries)"

    def test_initial_state_is_granted_once(self):
        # ("c", 0) is owned from the start *and* produced by entry 0: its
        # waiter (entry 1) fires at the root grant and never again.
        pol = _regranted_root_policy()
        order = pol.fire_order(3)
        assert sorted(order) == [0, 1]
        assert order == _reference_fire_order(pol)


# ----------------------------------------------------------------------
# Generator properties (the DAG is complete and deadlock-free on any
# server count a catalog topology can produce)
# ----------------------------------------------------------------------
class TestGenerators:
    #: Server counts of small catalog instances: torus/hyperx 4x4 at
    #: 1-4 servers/switch, fat-tree k=4, plus awkward non-powers-of-two.
    COUNTS = (2, 3, 5, 8, 13, 16, 32, 48, 64)

    @pytest.mark.parametrize("gen", GENERATORS)
    @pytest.mark.parametrize("n", COUNTS)
    def test_complete_deadlock_free(self, gen, n):
        pol = gen(n, chunk_packets=2)
        order = pol.fire_order(n)
        assert sorted(order) == list(range(len(pol)))
        assert order == _reference_fire_order(pol)

    @pytest.mark.parametrize("n", COUNTS)
    def test_ring_allreduce_shape(self, n):
        # Reduce-scatter + all-gather: 2(n-1) steps of n transfers each.
        pol = all_reduce_ring(n)
        assert len(pol) == 2 * (n - 1) * n
        assert pol.total_packets == len(pol)

    @pytest.mark.parametrize("n", COUNTS)
    def test_tree_allreduce_shape(self, n):
        # Up phase: n-1 child->parent edges; down phase mirrors them.
        pol = all_reduce_tree(n)
        assert len(pol) == 2 * (n - 1)

    @pytest.mark.parametrize("n", COUNTS)
    def test_allgather_every_server_owns_every_chunk(self, n):
        pol = all_gather_ring(n)
        owned = Counter()
        for c, s in pol.initial:
            owned[s] += 1
        for e in pol:
            owned[e.dst] += 1
        # n chunks at each of n servers, each reached exactly once.
        assert all(owned[s] == n for s in range(n))

    @pytest.mark.parametrize("chunk_packets", (1, 3))
    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_columns_match_string_oracle(self, gen, n, chunk_packets):
        pol = gen(n, chunk_packets=chunk_packets)
        ref = ORACLES[gen](n, chunk_packets=chunk_packets)
        for col in ("src", "dst", "packets"):
            assert getattr(pol, col).tolist() == getattr(ref, col).tolist(), col
        # One bijection between the two state numberings carries every
        # trigger, product and root across: the same DAG.
        mapping = _state_map(pol, ref)
        assert sorted(mapping[r] for r in pol.roots.tolist()) == sorted(ref.roots.tolist())
        assert sorted(s for _c, s in pol.initial) == sorted(s for _c, s in ref.initial)
        assert _hand_drain(CollectiveInjection(n, pol)) == _hand_drain(
            CollectiveInjection(n, ref)
        )

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_entry_count_closed_form(self, name, n):
        assert collective_entries(name, n) == len(make_collective(name, n))

    def test_generated_states_are_named_by_id(self):
        pol = all_reduce_ring(3)
        assert pol.entries[0] == CollectiveEntry("s0", 0, 1, 1, "s1")
        assert pol.initial == (("s0", 0), ("s5", 1), ("s10", 2))
        assert repr(pol) == "CollectivePolicy('allreduce_ring(n=3)', 12 entries)"

    def test_registry_aliases(self):
        assert COLLECTIVES.canonical("ring-allreduce") == "allreduce_ring"
        assert COLLECTIVES.canonical("all-gather") == "allgather_ring"
        pol = make_collective("allreduce_tree", 8, chunk_packets=3)
        assert all(e.packets == 3 for e in pol)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            all_reduce_ring(1)


class TestColumns:
    """``from_columns`` rejects what ``CollectiveEntry`` and the string
    path reject, on whole columns."""

    #: 0 -> 1 -> 2: state 0 at server 0, state 1 at 1, state 2 at 2.
    CHAIN = dict(trigger=[0, 1], produces=[1, 2], src=[0, 1], dst=[1, 2],
                 packets=[1, 2], roots=[0])

    def _build(self, **change):
        return CollectivePolicy.from_columns(**{**self.CHAIN, **change})

    def test_chain_drains(self):
        pol = self._build()
        assert pol.fire_order(3) == [0, 1]
        assert _hand_drain(CollectiveInjection(3, pol)) == [(0, 1), (1, 2), (1, 2)]

    @pytest.mark.parametrize("change,match", [
        (dict(trigger=[], produces=[], src=[], dst=[], packets=[]), "at least one entry"),
        (dict(src=[0, 1, 2]), "one length"),
        (dict(src=[-1, 1]), "non-negative"),
        (dict(dst=[1, -2], produces=[1, 2]), "non-negative"),
        (dict(trigger=[-1, 1]), "state ids"),
        (dict(roots=[-2]), "state ids"),
        (dict(dst=[1, 1]), "self-transfer of entry 1"),
        (dict(packets=[1, 0]), "packets"),
        (dict(roots=[0, 0]), "listed twice"),
        (dict(roots=[0, 5]), "a root must be the state of an entry"),
        # State 1 is produced at server 1 but triggers a send from 2.
        (dict(src=[0, 2], dst=[1, 0]), "one server"),
    ])
    def test_rejects(self, change, match):
        with pytest.raises(ValueError, match=match):
            self._build(**change)

    def test_rejects_non_integer_columns(self):
        with pytest.raises(TypeError, match="packets"):
            self._build(packets=[1.0, 2.0])

    def test_out_of_range_server_and_incomplete_dag(self):
        with pytest.raises(ValueError, match="references server 2"):
            self._build().validate(2)
        with pytest.raises(ValueError, match="not a complete DAG"):
            self._build(roots=[1]).validate(3)

    def test_columns_are_read_only(self):
        pol = self._build()
        with pytest.raises(ValueError):
            pol.src[0] = 2


# ----------------------------------------------------------------------
# Closed-loop injection bookkeeping
# ----------------------------------------------------------------------
class _FakePkt:
    def __init__(self, src_server, dst_server):
        self.src_server = src_server
        self.dst_server = dst_server


def _hand_drain(inj):
    """Deliver every pending head, in server order, until none is left.

    The engine's per-attempt contract (``peek_destination`` then
    ``on_success``) with each packet delivered at once; returns the
    ``(src, dst)`` flows of the deliveries in order.
    """
    delivered = []
    while True:
        servers = inj.attempts(0, None)
        if not len(servers):
            return delivered
        for s in servers.tolist():
            d = inj.peek_destination(s)
            inj.on_success(s)
            inj.on_delivered(_FakePkt(s, d))
            delivered.append((s, d))


class TestInjection:
    def _chain(self):
        # 0 -> 1 -> 2, one packet each, second hop gated on the first.
        pol = CollectivePolicy(
            [
                CollectiveEntry("c", 0, 1, produces="c1"),
                CollectiveEntry("c1", 1, 2),
            ],
            [("c", 0)],
        )
        return CollectiveInjection(3, pol)

    def test_attempts_only_fired_entries(self):
        inj = self._chain()
        assert list(inj.attempts(0, None)) == [0]
        assert inj.peek_destination(0) == 1
        assert not inj.exhausted

    def test_delivery_unlocks_dependent_entry(self):
        inj = self._chain()
        inj.on_success(0)
        inj.on_delivered(_FakePkt(0, 1))
        assert list(inj.attempts(0, None)) == [1]
        inj.on_success(1)
        inj.on_delivered(_FakePkt(1, 2))
        assert inj.exhausted
        assert list(inj.attempts(0, None)) == []

    def test_attempts_ascending_no_duplicates(self):
        pol = all_reduce_ring(8, chunk_packets=2)
        inj = CollectiveInjection(8, pol)
        att = inj.attempts(0, None)
        assert att.dtype == np.int64
        assert (np.diff(att) > 0).all()

    def test_dropped_packet_requeues_at_source(self):
        inj = self._chain()
        inj.on_success(0)
        assert list(inj.attempts(0, None)) == []
        inj.on_dropped(_FakePkt(0, 1))
        assert inj.retransmitted == 1
        # Back in flight from the source; the DAG still completes.
        assert list(inj.attempts(0, None)) == [0]
        assert inj.peek_destination(0) == 1
        assert inj.total_packets == inj.policy.total_packets + 1

    def test_unattributable_delivery_raises(self):
        inj = self._chain()
        with pytest.raises(RuntimeError, match="attribution"):
            inj.on_delivered(_FakePkt(2, 0))

    def test_multi_packet_entry_completes_on_last_packet(self):
        pol = CollectivePolicy(
            [
                CollectiveEntry("c", 0, 1, packets=3, produces="c1"),
                CollectiveEntry("c1", 1, 2),
            ],
            [("c", 0)],
        )
        inj = CollectiveInjection(3, pol)
        for _ in range(3):
            inj.on_success(0)
        inj.on_delivered(_FakePkt(0, 1))
        inj.on_delivered(_FakePkt(0, 1))
        assert list(inj.attempts(0, None)) == []
        inj.on_delivered(_FakePkt(0, 1))
        assert list(inj.attempts(0, None)) == [1]

    def test_initial_state_delivers_once(self):
        inj = CollectiveInjection(3, _regranted_root_policy())
        assert sorted(_hand_drain(inj)) == [(0, 2), (0, 2), (1, 0)]
        assert inj.exhausted

    @pytest.mark.parametrize("chunk_packets", (1, 3))
    @pytest.mark.parametrize("n", TestGenerators.COUNTS)
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_live_drain_completes(self, gen, n, chunk_packets):
        # The injection alone (no engine) reaches completion with
        # exactly one delivery per policy packet.
        pol = gen(n, chunk_packets=chunk_packets)
        inj = CollectiveInjection(n, pol)
        assert len(_hand_drain(inj)) == pol.total_packets
        assert inj.exhausted

    def test_validates_policy_against_server_count(self):
        with pytest.raises(ValueError, match="references server"):
            CollectiveInjection(4, all_reduce_ring(8))

    def test_traffic_adapter_draws_no_rng(self):
        net = Network(make_topology("hyperx", side=4, servers_per_switch=2))
        inj = CollectiveInjection(net.n_servers, all_reduce_ring(net.n_servers))
        traffic = CollectiveTraffic(net, inj)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert traffic.destination(0, rng) == inj.peek_destination(0)
        assert rng.bit_generator.state == state


# ----------------------------------------------------------------------
# End-to-end execution
# ----------------------------------------------------------------------
def _run_collective(backend, topo, collective, *, chunk_packets=1,
                    mechanism="minimal", seed=1, schedule=None):
    net = Network(topo)
    n = net.n_servers
    policy = make_collective(collective, n, chunk_packets=chunk_packets)
    inj = CollectiveInjection(n, policy)
    sim = make_simulator(
        SimConfig(backend=backend, collective=collective,
                  chunk_packets=chunk_packets),
        net, make_mechanism(mechanism, net), CollectiveTraffic(net, inj),
        injection=inj, seed=seed, fault_schedule=schedule,
    )
    return sim.run_until_drained(max_slots=200_000), inj


class TestEndToEnd:
    @pytest.mark.parametrize("collective",
                             ("allreduce_ring", "allreduce_tree",
                              "allgather_ring"))
    def test_backends_byte_identical_finite_jct(self, collective):
        topo = make_topology("hyperx", side=4, servers_per_switch=2)
        base = None
        for backend in ("slot", "array"):
            res, inj = _run_collective(backend, topo, collective)
            assert res.jct_cycles is not None and not res.deadlocked
            assert inj.exhausted
            if base is None:
                base = asdict(res)
            else:
                assert asdict(res) == base, backend

    def test_torus_allreduce_completes_on_all_backends(self):
        # The acceptance scenario: an all-reduce on a torus drains with a
        # finite JCT, byte-identically on every backend.
        topo = make_topology("torus", side=4, servers_per_switch=2)
        results = {
            b: asdict(_run_collective(b, topo, "allreduce_tree")[0])
            for b in ("slot", "array")
        }
        assert results["slot"]["jct_cycles"] is not None
        assert results["array"] == results["slot"]

    def test_fault_mid_collective_retransmits_and_completes(self):
        # Eight links die at slot 4 (dropping one in-flight packet) and
        # repair at 604: the DAG must re-send and finish with a degraded
        # JCT, not deadlock — identically on every backend.
        topo = make_topology("hyperx", side=4, servers_per_switch=2)
        links = random_connected_fault_sequence(topo, 8, rng=1)
        healthy, _ = _run_collective(
            "slot", topo, "allreduce_ring", chunk_packets=4
        )
        base = None
        for backend in ("slot", "array"):
            schedule = FaultSchedule.down_then_up(4, 604, links)
            res, inj = _run_collective(
                backend, topo, "allreduce_ring", chunk_packets=4,
                schedule=schedule,
            )
            assert not res.deadlocked
            assert inj.retransmitted > 0
            assert res.jct_cycles is not None
            assert res.jct_cycles > healthy.jct_cycles
            if base is None:
                base = asdict(res)
            else:
                assert asdict(res) == base, backend

    def test_jct_is_completion_slot_in_cycles(self):
        topo = make_topology("hyperx", side=4, servers_per_switch=2)
        res, _ = _run_collective("slot", topo, "allreduce_tree")
        assert res.jct_cycles == res.completion_slot * 16
        assert res.completion_cycles == res.jct_cycles

    def test_budget_exhaustion_reports_unfinished(self):
        topo = make_topology("hyperx", side=4, servers_per_switch=2)
        net = Network(topo)
        n = net.n_servers
        inj = CollectiveInjection(n, make_collective("allreduce_ring", n))
        sim = make_simulator(
            SimConfig(collective="allreduce_ring"), net,
            make_mechanism("minimal", net), CollectiveTraffic(net, inj),
            injection=inj, seed=1,
        )
        res = sim.run_until_drained(max_slots=20)
        assert res.completion_slot is None and res.jct_cycles is None
        assert not inj.exhausted


#: A 64-server ring all-reduce's fire order, then a PolSP drain of it on
#: HyperX (4,4)x4 through a link failure, printed as one JSON line.
_HASH_SEED_PROBE = """
import json
from dataclasses import asdict
from repro.routing import make_mechanism
from repro.simulator import (CollectiveInjection, FaultSchedule, SimConfig,
                             make_collective, make_simulator)
from repro.topology.base import Network
from repro.topology.hyperx import HyperX
from repro.traffic import CollectiveTraffic

net = Network(HyperX((4, 4), 4))
policy = make_collective("allreduce_ring", net.n_servers, chunk_packets=2)
inj = CollectiveInjection(net.n_servers, policy)
schedule = FaultSchedule.down_then_up(40, 100, [(4 * r, 4 * r + 3) for r in range(4)])
sim = make_simulator(
    SimConfig(collective="allreduce_ring", chunk_packets=2), net,
    make_mechanism("PolSP", net), CollectiveTraffic(net, inj),
    injection=inj, seed=1, fault_schedule=schedule,
)
result = sim.run_until_drained(max_slots=20_000)
print(json.dumps([policy.fire_order(net.n_servers), asdict(result), inj.retransmitted]))
"""


def test_records_do_not_depend_on_the_hash_seed():
    # Set or dict iteration over strings, or an unstable sort, would make
    # two processes disagree; PYTHONHASHSEED changes every str hash.
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE], check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    order, result, retransmitted = json.loads(outputs[0])
    assert sorted(order) == list(range(2 * 63 * 64))
    assert result["jct_cycles"] is not None and retransmitted > 0
