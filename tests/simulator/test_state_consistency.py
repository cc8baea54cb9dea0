"""Property suite: the SimState arrays and the object views never diverge.

The struct-of-arrays refactor left the FIFO ground truth in the
``Switch`` views, with the counts the phase scans read (local heads,
output occupancy per port), while the numeric state (credits, loads,
the packet census) lives in the
:class:`~repro.simulator.state.SimState` store.  Every
mutation path is supposed to keep the two in lockstep through the view
methods — including the awkward ones that only run on topology changes:
the fault purge (buffered packets destroyed, output FIFOs unqueued),
the credit reconcile on repair, and the packet refresh that re-homes
header state — with unit links and with pipelined ones, whose wires add
an in-flight term to the credit invariant and a second purge path.

These tests drive full fail-and-repair cycles on the two families with
the most distinct purge behaviour (torus: coordinate routes; fat-tree:
up/down escape routing) and call :meth:`SimState.verify` — the
O(everything) audit of every derived number against the queues — at the
slots bracketing each topology event, under both backends, and
check packet conservation (census = ``in_flight`` = buffered + on the
wire) after every step.

The same walk is the oracle for the engine's busy agenda: after every
step, every switch holding a packet or an outstanding credit must be on
the agenda, and the step's visit list must be in ascending switch id.
A full scan over all switches, which recorded the goldens, satisfies
both trivially; a missed wake fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing.catalog import make_mechanism
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.traffic import make_traffic

DOWN, UP, END = 25, 65, 90


def _topology(family: str):
    if family == "torus":
        return make_topology("torus", side=4, servers_per_switch=2)
    return make_topology("fattree", k=4, servers_per_switch=2)


def _fail_and_repair_sim(family, backend, mechanism, offered, n_faults, seed,
                         link_latency_slots=1):
    topo = _topology(family)
    links = random_connected_fault_sequence(topo, n_faults, rng=seed)
    net = Network(topo)
    mech = make_mechanism(mechanism, net, rng=seed + 1)
    return make_simulator(
        PAPER_CONFIG.with_(
            backend=backend, link_latency_slots=link_latency_slots
        ), net, mech,
        make_traffic("uniform", net, seed), offered=offered, seed=seed,
        fault_schedule=FaultSchedule.down_then_up(DOWN, UP, links),
    )


CASES = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["torus", "fattree"]),
        "backend": st.sampled_from(["slot", "array"]),
        "link_latency_slots": st.sampled_from([1, 3]),
        "mechanism": st.sampled_from(["Minimal", "PolSP"]),
        "offered": st.sampled_from([0.3, 0.6]),
        "n_faults": st.integers(1, 3),
        "seed": st.integers(0, 60),
    }
)


def _assert_agenda_covers_work(sim, slot) -> None:
    """The busy-agenda invariant plus the visit order it promises."""
    busy = set(sim.busy_switches())
    for sw in sim.switches:
        if sw.active_inputs or any(sw.port_load):
            assert sw.sid in busy, (
                f"switch {sw.sid} has work but is off the busy agenda "
                f"after slot {slot}"
            )
    sids = [sw.sid for sw in sim.alloc_switches()]
    assert all(a < b for a, b in zip(sids, sids[1:])), (
        f"visit list not in ascending switch id at slot {slot}"
    )


def _drive_and_audit(sim) -> tuple[int, int]:
    """Step ``sim`` through the whole fail-and-repair cycle, checking
    packet conservation and the busy agenda after every step and running
    the full audit at the slots bracketing the failure (purge + stranded
    credits), the repair (credit reconcile + packet refresh) and the
    steady stretches before/between/after.  Returns the packets the failure destroyed as
    ``(buffered on the dying ports, on their wires)``."""
    audit_after = {10, DOWN, DOWN + 1, UP, UP + 1, END - 1}
    n_vcs = sim.mechanism.n_vcs
    doomed = (0, 0)
    for slot in range(END):
        if slot == DOWN:
            pairs = [
                pair
                for ev in sim.fault_schedule.events if ev.slot == DOWN
                for pair in (ev.link, ev.link[::-1])
            ]
            doomed = (
                sum(
                    len(sim.switches[s].out_q[sim.network.port_of(s, t) * n_vcs + vc])
                    for s, t in pairs for vc in range(n_vcs)
                ),
                sum(sim.link.in_flight_between(s, t) for s, t in pairs),
            )
        sim.step()
        assert (
            sim.state.packets.live
            == sim.in_flight
            == sim.buffered_packets() + sim.wire_packets()
        ), f"packet conservation broke at slot {slot}"
        _assert_agenda_covers_work(sim, slot)
        if slot == DOWN:
            assert sim.metrics.dropped_total == sum(doomed)
        if slot in audit_after:
            sim.state.verify(sim)
    return doomed


class TestFailRepairConsistency:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=CASES)
    def test_arrays_match_queues_across_cycle(self, case):
        sim = _fail_and_repair_sim(
            case["family"], case["backend"], case["mechanism"],
            case["offered"], case["n_faults"], case["seed"],
            case["link_latency_slots"],
        )
        _drive_and_audit(sim)

    @pytest.mark.parametrize("link_latency_slots", [1, 3])
    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_purge_paths_are_audited(self, backend, link_latency_slots):
        """One fixed dense case per backend and link model, so the
        buffered purge and — on pipelined links — the wire purge are
        known to have destroyed packets under the audit."""
        sim = _fail_and_repair_sim(
            "fattree", backend, "PolSP", 0.6, 3, 0, link_latency_slots
        )
        buffered, on_wire = _drive_and_audit(sim)
        assert buffered > 0
        assert (on_wire > 0) == (link_latency_slots > 1)

    @pytest.mark.parametrize("link_latency_slots", [1, 3])
    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_sparse_agenda_is_audited(self, backend, link_latency_slots):
        """One fixed low-load case per backend and link model, so the
        agenda oracle sees switches retire and wake again: the dense
        cases above keep every switch busy, which hides a missed wake."""
        sim = _fail_and_repair_sim(
            "torus", backend, "Minimal", 0.05, 1, 0, link_latency_slots
        )
        _drive_and_audit(sim)
        assert 0 < len(sim.busy_switches()) < len(sim.switches)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=CASES)
    def test_slot_and_array_end_state_identical(self, case):
        if case["backend"] != "array":  # the case draw only varies the rest
            case = dict(case, backend="array")
        sims = {
            b: _fail_and_repair_sim(
                case["family"], b, case["mechanism"],
                case["offered"], case["n_faults"], case["seed"],
                case["link_latency_slots"],
            )
            for b in ("slot", "array")
        }
        for _ in range(END):
            for sim in sims.values():
                sim.step()
        slot_sim, array_sim = sims["slot"], sims["array"]
        assert slot_sim.in_flight == array_sim.in_flight
        assert slot_sim.next_pid == array_sim.next_pid
        assert np.array_equal(slot_sim.state.credits, array_sim.state.credits)
        assert np.array_equal(slot_sim.state.load, array_sim.state.load)
        for a, b in zip(slot_sim.switches, array_sim.switches):
            assert a.local_heads == b.local_heads
            assert a.port_occ == b.port_occ
        assert (
            slot_sim.rng.integers(1 << 30) == array_sim.rng.integers(1 << 30)
        )


class TestViewAliasing:
    """The Switch attributes are *views* into the store, not copies."""

    @pytest.mark.parametrize("family", ["torus", "fattree"])
    def test_switch_rows_share_store_memory(self, family):
        net = Network(_topology(family))
        mech = make_mechanism("Minimal", net, rng=1)
        sim = make_simulator(
            PAPER_CONFIG, net, mech, make_traffic("uniform", net, 0),
            offered=0.2, seed=0,
        )
        for sw in sim.switches[:4]:
            assert np.shares_memory(sw.credits, sim.state.credits)
            assert np.shares_memory(sw.load, sim.state.load)
            assert np.shares_memory(sw.port_load, sim.state.port_load)
            assert np.shares_memory(sw.rr, sim.state.rr)

    def test_view_mutation_lands_in_store(self):
        net = Network(_topology("torus"))
        mech = make_mechanism("Minimal", net, rng=1)
        sim = make_simulator(
            PAPER_CONFIG, net, mech, make_traffic("uniform", net, 0),
            offered=0.2, seed=0,
        )
        sw = sim.switches[0]
        before = int(sim.state.credits[0, 0])
        sw.credits[0] -= 1
        assert sim.state.credits[0, 0] == before - 1
        sw.credits[0] += 1


#: Switch handle attribute -> (store array, row kind).
HANDLES = {
    "credits": ("credits", "pv"),
    "load": ("load", "pv"),
    "port_load": ("port_load", "port"),
    "rr": ("rr", "port"),
}


def _row_len(sw, kind):
    return {"pv": sw.n_ports * sw.n_vcs, "port": sw.n_ports}[kind]


class TestHandles:
    """Each ``Switch`` handle *is* its store row: a typed ``memoryview``
    over the matrix's own memory that yields plain ``int``.  A numpy
    row view sneaking back in fails here, not in a benchmark."""

    @pytest.mark.parametrize("link_latency_slots", [1, 2])
    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_handles_equal_store_rows_after_faulted_run(
        self, backend, link_latency_slots
    ):
        sim = _fail_and_repair_sim(
            "fattree", backend, "PolSP", 0.6, 3, 0, link_latency_slots
        )
        for _ in range(END):
            sim.step()
        assert sim.metrics.dropped_total > 0
        state = sim.state
        for sw in sim.switches:
            for attr, (array, kind) in HANDLES.items():
                handle = getattr(sw, attr)
                n = _row_len(sw, kind)
                assert type(handle) is memoryview, attr
                assert handle.format == "i" and handle.shape == (n,), attr
                assert all(type(v) is int for v in handle), attr
                assert np.array_equal(
                    np.asarray(handle), getattr(state, array)[sw.row, :n]
                ), attr
        assert state.credits.sum() > 0 and state.rr.any()

    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_handle_and_matrix_are_one_memory(self, backend):
        sim = _fail_and_repair_sim("torus", backend, "Minimal", 0.3, 1, 0)
        state = sim.state
        for sw in (sim.switches[0], sim.switches[-1]):
            for attr, (array, kind) in HANDLES.items():
                handle = getattr(sw, attr)
                matrix = getattr(state, array)
                at = _row_len(sw, kind) - 1
                handle[at] = 41  # through the handle, read the matrix
                assert matrix[sw.row, at] == 41, attr
                matrix[sw.row, at] += 1  # into the matrix, read the handle
                assert handle[at] == 42 and type(handle[at]) is int, attr
                handle[at] -= 42
                assert matrix[sw.row, at] == 0, attr

    def test_flat_views_cover_their_arrays(self):
        sim = _fail_and_repair_sim("fattree", "slot", "Minimal", 0.3, 1, 0)
        state = sim.state
        for name, flat in state.flat.items():
            arr = getattr(state, name)
            assert type(flat) is memoryview and flat.ndim == 1
            assert len(flat) == arr.size and flat.itemsize == arr.itemsize
            assert np.shares_memory(flat, arr), name
            assert np.array_equal(np.asarray(flat), arr.reshape(-1)), name

    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_engine_counters_write_the_store(self, backend):
        """The per-hop ``link_tx`` / ``grant_feedback`` writes go through
        flat handles; the analysis API (``sim.link_packets[s]``) stays
        an ndarray view of the same matrix."""
        sim = _fail_and_repair_sim("fattree", backend, "PolSP", 0.6, 3, 0)
        state = sim.state
        sent = np.zeros_like(state.link_tx)
        escaped = np.zeros_like(state.link_tx)
        deliver = sim.link.deliver

        def counting(sim_, src, port, vc, pkt):
            sent[src, port] += 1
            escaped[src, port] += vc == sim.mechanism.escape_vc
            deliver(sim_, src, port, vc, pkt)

        sim.link.deliver = counting
        for _ in range(UP):
            sim.step()
        assert sent.sum() > escaped.sum() > 0
        assert np.array_equal(state.link_tx, sent)
        assert np.array_equal(state.link_escape_tx, escaped)
        for s, sw in enumerate(sim.switches):
            for view, matrix in (
                (sim.link_packets[s], state.link_tx),
                (sim.link_escape_packets[s], state.link_escape_tx),
            ):
                assert isinstance(view, np.ndarray)
                assert np.shares_memory(view, matrix)
                assert np.array_equal(view, matrix[s, : sw.n_ports])
        # One credit return: the flag and the credit land in the matrices.
        state.grant_feedback[:] = False
        sw, idx = next(
            (sw, i) for sw in sim.switches for i in sorted(sw.active_inputs)
            if not sw.is_injection_input(i)
        )
        port, vc = divmod(idx, sw.n_vcs)
        upstream = sim.network.port_neighbour[sw.sid][port]
        up_pv = sim.rev_port[sw.sid][port] * sw.n_vcs + vc
        before = int(state.credits[upstream, up_pv])
        sim._return_input_credit(sw, idx)
        assert state.grant_feedback.nonzero()[0].tolist() == [upstream]
        assert state.credits[upstream, up_pv] == before + 1

    def test_per_server_tally_is_a_list_of_ints(self):
        sim = _fail_and_repair_sim("torus", "slot", "Minimal", 0.6, 1, 0)
        sim.run(warmup=30, measure=60)
        tally = sim.metrics.generated_measured
        assert type(tally) is list and len(tally) == sim.network.n_servers
        assert all(type(v) is int for v in tally) and sum(tally) > 0

    @pytest.mark.parametrize("link_latency_slots", [1, 2])
    @pytest.mark.parametrize("backend", ["slot", "array"])
    def test_reconcile_writes_land_in_the_matrix(self, backend, link_latency_slots):
        """The repair reconciliation assigns ``credits`` / ``load`` /
        ``port_load`` through the handles: right after each call the
        *matrices* hold the ground-truth values, and the full audit
        passes on every backend."""
        sim = _fail_and_repair_sim(
            "fattree", backend, "PolSP", 0.6, 3, 0, link_latency_slots
        )
        state = sim.state
        cap = sim.cfg.input_buffer_packets
        V = sim.mechanism.n_vcs
        reconcile = sim._reconcile_restored_link
        repaired = []

        def spy(link):
            a, b = link
            for s, t in ((a, b), (b, a)):
                p = sim.network.port_of(s, t)
                state.credits[s, p * V:(p + 1) * V] = -7  # stale on purpose
            reconcile(link)
            for s, t in ((a, b), (b, a)):
                p = sim.network.port_of(s, t)
                rev = sim.network.port_of(t, s)
                for vc in range(V):
                    waiting = len(sim.switches[t].in_q[rev * V + vc])
                    assert state.credits[s, p * V + vc] == cap - waiting
                    assert state.load[s, p * V + vc] == waiting
                assert state.port_load[s, p] == state.load[s, p * V:(p + 1) * V].sum()
            repaired.append(link)

        sim._reconcile_restored_link = spy
        for _ in range(UP + 1):
            sim.step()
        assert len(repaired) == 3
        state.verify(sim)
