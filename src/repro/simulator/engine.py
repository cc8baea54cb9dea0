"""Slot-level network simulator (the CAMINOS substitute).

One simulation slot (= 16 cycles, one packet serialization) advances in
four phases (README.md, "Architecture"):

1. **Ejection** — every server consumes at most one head-of-line packet
   addressed to it; the freed input slot returns a credit upstream.  The
   phase walks each switch's ``local_heads`` (the inputs whose head is
   destined there, kept by the switch's queue methods), not its inputs.
2. **Allocation** — delegated to the pluggable
   :class:`~repro.simulator.arbiters.Arbiter`: every head-of-line packet
   (network inputs and injection queues alike) asks its routing
   mechanism for candidate ``(port, vc, penalty)`` hops, the
   :class:`~repro.simulator.flowcontrol.FlowControl` filters them by
   admission (downstream credit + output-buffer space), and the arbiter
   picks which candidate each packet requests and in which order every
   output port grants — up to ``crossbar_speedup`` grants per output and
   per input.  The default :class:`~repro.simulator.arbiters.QPArbiter`
   is the paper's rule: request the lowest ``Q + P`` (phits; ties broken
   uniformly at random), grant in ascending ``Q + P`` order.  A granted
   packet moves to the output VC, consuming the downstream credit
   (virtual cut-through reservation) and returning the credit of its
   freed input slot.
3. **Transmission** — every output port drains one packet, round-robin
   over its VCs, onto the pluggable
   :class:`~repro.simulator.links.LinkModel`: the default
   :class:`~repro.simulator.links.UnitSlotLink` lands it in the reserved
   downstream input slot immediately (eligible next slot);
   :class:`~repro.simulator.links.PipelinedLink` keeps it on the wire
   for ``link_latency_slots`` slots.  The phase visits only the ports
   whose ``port_occ`` (buffered output packets) is non-zero.
4. **Injection** — the injection process picks attempting servers; an
   attempt enqueues a fresh packet into the server's source queue if it
   has room (Bernoulli attempts against a full queue are lost and dent
   the Jain index).

The router microarchitecture is therefore *composed*, not hardwired:
``SimConfig(arbiter=..., flow_control=..., link_latency_slots=...)``
selects the components, they flow through every sweep job and cache key,
and the default composition (``qp`` + ``vct`` + 1-slot links) is
record-identical to the historical monolithic engine (guarded by
``tests/experiments/test_golden_fingerprint.py``).

A watchdog declares the network *stalled* when packets are in flight but
no ejection or grant has happened for ``deadlock_threshold_slots`` slots —
this is how the ladder mechanisms' fault-intolerance (and any genuine
deadlock) surfaces.  Packets whose mechanism returns **no candidate at
all** (e.g. an exhausted ladder after fault-lengthened routes) are counted
as *stalled packets*; they keep occupying buffers, as they would in
hardware.

The busy agenda
---------------
The phase loops visit only the *busy agenda*: the switches that can
act, in ascending id.  That is record-identical to visiting every
switch, because a visit to an idle switch changes no state and draws no
RNG (ejection finds no local head there, every arbiter skips switches
without active inputs, transmission finds no buffered port); the golden
fingerprints, recorded by a full scan, pin it.  The invariant: **a
switch with a non-empty input FIFO or a non-zero ``port_load`` is on
the agenda** (``port_load`` includes consumed downstream credits, so a
switch stays until its last reservation is released).  Membership
changes at three points:

* **Wake** — :meth:`Simulator._wake` on every input activation
  (injection, unit-link delivery, pipelined-link landing).  Grants need
  none: they happen at a visited switch, and ``port_load`` keeps it.
* **Snapshot** — each step freezes the list after pipelined landings
  and before the phases, so a switch woken mid-step joins the next
  step, when its packet first becomes eligible.  The list is rebuilt
  only when membership changed.
* **Retirement** — at the end of a step a switch with no active input
  and an all-zero ``port_load`` leaves.

Fault and workload events need no scheduling: purges only remove work,
and a repair's reconciliation only raises the load of switches that
still hold (stale) reservations.

This class is the ``"slot"`` *engine backend*; the ``"array"`` backend
(:class:`~repro.simulator.array_backend.ArraySimulator`) subclasses it
and adds a plan cache around the Q+P arbiter's request scan.  Construct
through :func:`~repro.simulator.backends.make_simulator` to resolve the
backend from ``config.backend``.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from ..routing.base import (
    Candidate,
    CandidateList,
    CandidateRow,
    RoutingMechanism,
)
from ..topology.base import Network
from ..traffic.base import TrafficPattern
from .arbiters import make_arbiter
from .config import PAPER_CONFIG, SimConfig
from .flowcontrol import FlowControl, make_flow_control
from .injection import InjectionProcess, make_injection
from .links import LinkModel, make_link_model
from .metrics import MetricsCollector, SimResult
from .packet import Packet
from .schedule import LINK_DOWN, FaultSchedule
from .state import SimState
from .switch import Switch
from .workload import SET_OFFERED, WorkloadSchedule


#: Entries the candidate table holds before it is dropped wholesale
#: (see :meth:`Simulator.lookup_candidates`): a bound by construction
#: for big networks under all-to-all traffic, where keys rarely repeat.
CANDIDATE_TABLE_BOUND = 1 << 16


class DeadlockError(RuntimeError):
    """Raised in strict mode when the watchdog detects a stalled network."""


class Simulator:
    """Cycle(-slot)-accurate simulator of one network + routing mechanism.

    Parameters
    ----------
    network:
        The (possibly faulty) network to simulate.
    mechanism:
        Routing mechanism; its ``n_vcs`` defines the per-port VC count.
    traffic:
        Traffic pattern supplying per-packet destinations.
    injection:
        Injection process; defaults to Bernoulli at ``offered``.
    offered:
        Offered load for the default Bernoulli process (ignored when an
        explicit ``injection`` is given).
    config:
        Buffer/crossbar parameters (defaults to the paper's Table 2).
    seed:
        Seed of the simulator's own RNG (tie-breaks, traffic draws).
    series_interval:
        When set, record the accepted-load time series with this many
        slots per bin (used by the Figure 10 completion-time experiment).
    strict_deadlock:
        Raise :class:`DeadlockError` when the watchdog fires instead of
        just flagging the run.
    fault_schedule:
        Optional :class:`~repro.simulator.schedule.FaultSchedule` of
        mid-run link failures/repairs.  Events at slot ``s`` apply at the
        start of that slot's :meth:`step`: the network mutates in place,
        packets buffered on (or in flight over) a failed link are dropped
        (and counted), the candidate table and the lists packets took
        from it are dropped and the mechanism reconfigures via
        ``on_topology_change``.
    workload_schedule:
        Optional :class:`~repro.simulator.workload.WorkloadSchedule` of
        mid-run traffic-pattern switches and offered-load retargets.
        Events apply at the start of their slot's :meth:`step` (before
        any fault events) and open a new metrics phase, so the shift's
        transient shows up in ``SimResult.phase_series``.  Phase patterns
        are built eagerly at construction (seeded with the simulator
        seed), so an unsupported pattern fails here, not mid-run.
    flow_control / link_model:
        Explicit component instances, overriding the ones named by
        ``config`` (tests and bespoke experiments; sweeps select
        components through the config so they enter the cache key).

    RNG streams
    -----------
    ``config.rng_streams`` decides who draws from what: ``"shared"``
    (default) keeps the historical single stream — arbiter tie-breaks,
    injection coins and traffic destinations interleave on ``self.rng``
    exactly as the golden fingerprint pins.  ``"split"`` spawns
    independent child generators ``traffic_rng`` and ``inject_rng`` from
    the seed, so the destination sequence is a function of the seed alone
    and swapping the injection model (or its burst geometry) cannot
    perturb it — the property the workload sweeps rely on to compare
    injection processes on identical traffic.
    """

    #: Engine-backend registry key (see :mod:`repro.simulator.backends`).
    backend_name = "slot"

    def __init__(
        self,
        network: Network,
        mechanism: RoutingMechanism,
        traffic: TrafficPattern,
        *,
        injection: InjectionProcess | None = None,
        offered: float = 0.5,
        config: SimConfig = PAPER_CONFIG,
        seed: int | None = 0,
        series_interval: int | None = None,
        strict_deadlock: bool = False,
        fault_schedule: FaultSchedule | None = None,
        workload_schedule: WorkloadSchedule | None = None,
        flow_control: FlowControl | None = None,
        link_model: LinkModel | None = None,
    ):
        if config.backend != self.backend_name:
            raise ValueError(
                f"{type(self).__name__} is the {self.backend_name!r} backend "
                f"but config.backend={config.backend!r}; build simulators "
                "with repro.simulator.make_simulator(config, ...)"
            )
        self.network = network
        self.mechanism = mechanism
        self.traffic = traffic
        self.cfg = config
        # default_rng(SeedSequence(seed)) is stream-identical to
        # default_rng(seed); going through the SeedSequence keeps the
        # split-mode children derivable on numpy versions without
        # Generator.spawn (added in 1.25) while matching its streams.
        seed_seq = (
            seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self.rng = np.random.default_rng(seed_seq)
        if config.rng_streams == "split":
            traffic_ss, inject_ss = seed_seq.spawn(2)
            self.traffic_rng = np.random.default_rng(traffic_ss)
            self.inject_rng = np.random.default_rng(inject_ss)
        else:
            # One shared stream, the historical (golden-pinned) behaviour.
            self.traffic_rng = self.inject_rng = self.rng
        # --- pluggable router microarchitecture ---------------------------
        self.arbiter = make_arbiter(config.arbiter)
        self.flow_control = (
            flow_control
            if flow_control is not None
            else make_flow_control(config.flow_control)
        )
        self.flow_control.attach(config)
        self.link = (
            link_model
            if link_model is not None
            else make_link_model(config.link_latency_slots)
        )
        #: Skip the per-step advance() call for link models that keep
        #: nothing in flight (the default unit link).
        self._link_pipelined = type(self.link).advance is not LinkModel.advance
        n_servers = network.n_servers
        if injection is None:
            injection = make_injection(
                config.injection, n_servers, offered,
                burst_slots=config.burst_slots, idle_slots=config.idle_slots,
            )
        if injection.n_servers != n_servers:
            raise ValueError("injection process sized for a different network")
        self.injection = injection
        self.offered = getattr(injection, "offered", offered)
        self.strict_deadlock = strict_deadlock

        n_vcs = mechanism.n_vcs
        sps = network.servers_per_switch
        #: The struct-of-arrays store of all mutable numeric state; the
        #: switches below are views into its rows (see
        #: :mod:`repro.simulator.state`).
        topo = network.topology
        degrees = [topo.degree(s) for s in range(network.n_switches)]
        self.state = SimState(degrees, n_vcs, sps, config)
        self.switches: list[Switch] = [
            Switch(s, deg, n_vcs, sps, config, state=self.state)
            for s, deg in enumerate(degrees)
        ]
        #: ``rev_port[s][p]``: the port back to ``s`` on the neighbour
        #: behind port ``p`` (the topology's shared, read-only table).
        self.rev_port = topo.rev_port

        self.metrics = MetricsCollector(
            n_servers, config.cycles_per_slot, series_interval
        )
        #: Packets transmitted per (switch, port) and, of those, how many
        #: rode the escape VC — the observability behind the paper's
        #: root-congestion discussion (§3.2).  Per-switch views into the
        #: store's dense counter matrices, trimmed to the switch degree
        #: so ``len(link_packets[s])`` keeps its historical meaning on
        #: irregular topologies (``[sid][port]`` indexing unchanged, and
        #: writes land in ``state.link_tx`` — they are views, not copies).
        self.link_packets = [
            self.state.link_tx[s, :deg] for s, deg in enumerate(degrees)
        ]
        self.link_escape_packets = [
            self.state.link_escape_tx[s, :deg] for s, deg in enumerate(degrees)
        ]
        # The per-hop scalar path into the same counters (and the
        # credit-feedback mask): the store's flat memoryview handles,
        # indexed ``[sid * max_ports + port]`` / ``[sid]``.
        self._link_tx = self.state.flat["link_tx"]
        self._link_escape_tx = self.state.flat["link_escape_tx"]
        self._grant_feedback = self.state.flat["grant_feedback"]
        self._max_ports = self.state.max_ports
        self._escape_vc = getattr(mechanism, "escape_vc", None)
        #: ``candidate_key -> candidate list``: the paper's routing
        #: table, filled on demand by :meth:`lookup_candidates` and
        #: dropped on every topology event.
        self._cand_memo: dict[tuple, CandidateList] = {}
        #: ``(port, vc, pen) ->`` its width-1 row, for wrapping the plain
        #: lists of mechanisms that build no rows themselves.
        self._triple_rows: dict[Candidate, CandidateRow] = {}
        self.fault_schedule = fault_schedule
        if fault_schedule is not None:
            fault_schedule.validate(network.topology, network.faults)
            self._schedule_events = fault_schedule.events
        else:
            self._schedule_events = ()
        self._schedule_pos = 0
        self.workload_schedule = workload_schedule
        if workload_schedule is not None and len(workload_schedule):
            self._workload_events = workload_schedule.events
            # Built now so an unsupported pattern fails at construction;
            # seeded with the simulator seed like the runner's patterns.
            from ..traffic import make_traffic

            self._phase_patterns = {
                name: make_traffic(name, network, seed)
                for name in workload_schedule.pattern_names()
            }
            self.metrics.on_phase(0, "initial")
        else:
            self._workload_events = ()
            self._phase_patterns = {}
        self._workload_pos = 0
        self.slot = 0
        self.in_flight = 0
        self.next_pid = 0
        self.idle_slots = 0
        self.deadlocked = False
        self._sps = sps
        self._n_vcs = n_vcs
        self._phits = config.packet_phits
        #: The busy agenda (module docstring) as a set and an ascending
        #: list, and this step's frozen visit list of its switches.
        self._busy_set: set[int] = set()
        self._busy_sorted: list[int] = []
        self._agenda: list[Switch] = []
        self._agenda_stale = False

    # ------------------------------------------------------------------
    # The busy agenda
    # ------------------------------------------------------------------
    def _wake(self, sid: int) -> None:
        """Switch ``sid`` just received a packet (injection or link
        arrival): put it on the busy agenda."""
        if sid not in self._busy_set:
            self._busy_set.add(sid)
            insort(self._busy_sorted, sid)
            self._agenda_stale = True

    def alloc_switches(self) -> list[Switch]:
        """This step's visit list, in ascending switch id.  The phase
        loops and the arbiters iterate this, never ``sim.switches``."""
        return self._agenda

    def busy_switches(self) -> tuple[int, ...]:
        """The busy agenda's current switch ids, ascending — the live
        view, including switches woken since this step's snapshot."""
        return tuple(self._busy_sorted)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _eject(self) -> int:
        """Phase 1: servers consume packets destined to them.

        Walks a snapshot of each switch's ``local_heads`` (ejection
        changes it mid-loop) in ascending input order, the historical
        ``sorted(active_inputs)`` priority.  Only ejection pops here, so
        a head the walk has not reached is still the one snapshotted.
        """
        ejected = 0
        sps = self._sps
        for sw in self._agenda:
            if not sw.local_heads:
                continue
            sid = sw.sid
            served = 0  # bitmask over local servers
            for idx in tuple(sw.local_heads):
                pkt = sw.in_q[idx][0]
                bit = 1 << (pkt.dst_server - sid * sps)
                if served & bit:
                    continue  # this server already consumed its packet
                served |= bit
                sw.pop_input(idx)
                self._return_input_credit(sw, idx)
                pkt.eject_slot = self.slot
                self.metrics.on_ejected(pkt, self.slot)
                self.injection.on_delivered(pkt)
                self.state.packets.release()
                ejected += 1
        self.in_flight -= ejected
        return ejected

    def _return_input_credit(self, sw: Switch, idx: int) -> None:
        """Return the upstream credit of a freed network-input slot."""
        if sw.is_injection_input(idx):
            return  # source queues are credit-free
        port = idx // self._n_vcs
        vc = idx - port * self._n_vcs
        upstream = self.network.port_neighbour[sw.sid][port]
        if upstream < 0:
            # The link died mid-run: there is no upstream to credit.  The
            # upstream side's accounting is reconciled wholesale if the
            # link ever comes back (see _reconcile_restored_link).
            return
        # Flag the upstream switch as credit-touched: the array backend's
        # allocation phase reads this bitmask to find switches whose
        # scoring inputs changed under an already-built request plan
        # (see SimState.grant_feedback).
        self._grant_feedback[upstream] = True
        self.switches[upstream].return_credit(self.rev_port[sw.sid][port], vc)

    def lookup_candidates(self, pkt: Packet, sid: int) -> CandidateList:
        """``pkt``'s candidate hops at switch ``sid``, looked up in the
        simulator-wide routing table.

        Candidates are a pure function of
        :meth:`~repro.routing.base.RoutingMechanism.candidate_key`
        between topology events, so the mechanism computes each route
        situation once and every later packet in it shares the same list
        object (callers must not mutate it).  No RNG is drawn.

        Every list comes back as a
        :class:`~repro.routing.base.CandidateList`, whose rows the
        request scans walk: a mechanism's own rows as it built them, or,
        for a plain list, one interned width-1 row per triple (wrapped
        once per miss).  Grouping rows here instead would allocate per
        miss, and on a big network under uniform traffic nearly every
        lookup is one.  A plain list naming the same ``(port, vc)``
        twice breaks the ``candidates`` contract and is rejected here;
        the rows mechanisms build themselves are checked in the tests.

        The mechanism is called through the instance at call time:
        ``perfbench/tracing.py`` shadows its ``candidates`` per instance.
        """
        mech = self.mechanism
        key = mech.candidate_key(pkt, sid)
        memo = self._cand_memo
        cands = memo.get(key)
        if cands is None:
            cands = mech.candidates(pkt, sid)
            if not isinstance(cands, CandidateList):
                if len({(port, vc) for port, vc, _pen in cands}) < len(cands):
                    raise ValueError(
                        f"{mech.name} offered the same (port, vc) twice "
                        f"at switch {sid}: {cands}"
                    )
                cands = CandidateList.of_triples(
                    cands, self._n_vcs, self._triple_rows
                )
            if len(memo) >= CANDIDATE_TABLE_BOUND:
                self._drop_candidate_table()
            memo[key] = cands
        return cands

    def _drop_candidate_table(self) -> None:
        """Forget every tabled candidate list (topology event, or the
        table reached :data:`CANDIDATE_TABLE_BOUND`).  Lists already
        handed to packets stay valid until ``pkt.cand_switch`` is reset."""
        self._cand_memo.clear()

    def _allocate(self) -> int:
        """Phase 2: delegated to the pluggable arbiter.

        The arbiter owns output selection and grant order; flow-control
        admission comes from ``self.flow_control``'s thresholds.  The
        default :class:`~repro.simulator.arbiters.QPArbiter` is the
        historical inlined Q+P loop over candidate rows
        (record-identical, same RNG draw order).
        """
        return self.arbiter.allocate(self)

    def _transmit(self) -> int:
        """Phase 3: each output port pushes one packet onto its link.

        Only ports holding a buffered packet (``port_occ``) are visited:
        ``transmit`` on an empty port changes nothing and draws no RNG.
        The link model decides when the packet reaches the downstream
        input FIFO (immediately for :class:`UnitSlotLink`, after
        ``link_latency_slots`` for :class:`PipelinedLink`)."""
        moved = 0
        for sw in self._agenda:
            sid = sw.sid
            for port, occ in enumerate(sw.port_occ):
                if not occ:
                    continue
                vc, pkt = sw.transmit(port)
                at = sid * self._max_ports + port
                self._link_tx[at] += 1
                if vc == self._escape_vc:
                    self._link_escape_tx[at] += 1
                self.link.deliver(self, sid, port, vc, pkt)
                moved += 1
        return moved

    def _inject(self) -> int:
        """Phase 4: generation attempts into source queues.

        Injection coins come from ``inject_rng`` and destinations from
        ``traffic_rng`` — the same object under the default shared stream,
        independent spawned streams under ``rng_streams="split"``.
        """
        injected = 0
        cap = self.cfg.source_queue_packets
        sps = self._sps
        for srv in self.injection.attempts(self.slot, self.inject_rng).tolist():
            sid = srv // sps
            sw = self.switches[sid]
            idx = sw.injection_input(srv - sid * sps)
            if len(sw.in_q[idx]) >= cap:
                self.injection.on_blocked(srv)
                continue
            dst = int(self.traffic.destination(srv, self.traffic_rng))
            pkt = Packet(self.next_pid, srv, dst, sid, dst // sps, self.slot)
            self.next_pid += 1
            self.mechanism.init_packet(pkt)
            self.state.packets.register()
            sw.push_input(idx, pkt)
            self._wake(sid)
            self.injection.on_success(srv)
            self.metrics.on_generated(srv, self.slot)
            self.in_flight += 1
            injected += 1
        return injected

    # ------------------------------------------------------------------
    # Online reconfiguration (scheduled link failures / repairs)
    # ------------------------------------------------------------------
    def _purge_dead_link(self, link: tuple[int, int]) -> None:
        """Drop the packets buffered *on* (or in flight over) a
        freshly-failed link.

        "On the link" means the output FIFOs of the dead port on both
        endpoints plus — for pipelined link models — the packets the link
        model still holds on the wire (purged via
        :meth:`LinkModel.purge_link`, which returns their upstream credit
        reservation).  Each dropped packet frees its output slot and
        returns the downstream credit it had reserved, keeping the
        switch's Q-rule accounting exact.  Packets that already crossed
        the link sit in the far side's input FIFOs and continue normally
        from there.
        """
        a, b = link
        for s, t in ((a, b), (b, a)):
            sw = self.switches[s]
            p = self.network.port_of(s, t)
            for vc in range(self._n_vcs):
                pv = p * self._n_vcs + vc
                while sw.out_q[pv]:
                    self._drop(sw.unqueue_output(pv))
        self.link.purge_link(self, link)

    def _drop(self, pkt: Packet) -> None:
        """The drop body, shared by every purge: ``pkt`` died with its
        link, after its holder (output FIFO or wire) released it and
        returned the credit it had reserved."""
        self.metrics.on_dropped(pkt, self.slot)
        self.injection.on_dropped(pkt)
        self.state.packets.release()
        self.in_flight -= 1

    def _reconcile_restored_link(self, link: tuple[int, int]) -> None:
        """Reset credit/load accounting of a repaired link from ground truth.

        While the link was down, departures from the far side's input FIFOs
        could not return credits (there was no upstream), so the dead port's
        ``credits``/``load`` went stale.  On repair both directions are
        recomputed from the actual buffer occupancies — including any
        packets a pipelined link model holds on the wire (none right after
        a repair, since the failure purged them, but the formula states the
        full invariant) — restoring the virtual-cut-through rule ``credits
        = capacity - downstream occupancy - in flight - pending output
        occupancy``.
        """
        a, b = link
        cap = self.cfg.input_buffer_packets
        for s, t in ((a, b), (b, a)):
            sw = self.switches[s]
            tsw = self.switches[t]
            p = self.network.port_of(s, t)
            rev = self.network.port_of(t, s)
            for vc in range(self._n_vcs):
                pv = p * self._n_vcs + vc
                in_down = len(tsw.in_q[rev * self._n_vcs + vc])
                in_wire = self.link.in_flight_between(s, t, vc)
                out_here = len(sw.out_q[pv])  # empty: dead ports get no grants
                new_load = 2 * out_here + in_wire + in_down
                sw.port_load[p] += new_load - sw.load[pv]
                sw.load[pv] = new_load
                sw.credits[pv] = cap - in_down - in_wire - out_here

    def _refresh_inflight_packets(self) -> None:
        """Drop the candidate table and repair per-packet routing state.

        Tabled candidate lists (and the references packets hold to them)
        may name dead ports or miss repaired ones, and mechanism state
        like SurePath's escape phase is relative to the old tables — so
        the table is dropped and every buffered packet is refreshed at
        the switch where its next allocation happens.  Packets a
        pipelined link holds on the wire are refreshed against their
        destination switch (dying links were already purged, so every
        wire survives the event).
        """
        self._drop_candidate_table()
        mech = self.mechanism
        n_vcs = self._n_vcs
        for sw in self.switches:
            sid = sw.sid
            for q in sw.in_q:
                for pkt in q:
                    pkt.cand_switch = -1
                    mech.refresh_packet(pkt, sid)
            for pv, q in enumerate(sw.out_q):
                if not q:
                    continue
                nxt = self.network.port_neighbour[sid][pv // n_vcs]
                for pkt in q:
                    pkt.cand_switch = -1
                    if nxt >= 0:  # next allocation happens downstream
                        mech.refresh_packet(pkt, nxt)
        for nxt, pkt in self.link.iter_in_flight():
            pkt.cand_switch = -1
            mech.refresh_packet(pkt, nxt)

    def _apply_workload_events(self) -> None:
        """Apply every workload event due at the current slot.

        ``SET_OFFERED`` retargets the live injection process (keeping its
        state — an on-off chain stays mid-burst); ``SET_PATTERN`` swaps in
        the prebuilt phase pattern.  Every event opens a new metrics
        phase, labelled by the event, so the shift is observable in
        ``SimResult.phase_series``.
        """
        events = self._workload_events
        pos = self._workload_pos
        while pos < len(events) and events[pos].slot <= self.slot:
            ev = events[pos]
            pos += 1
            if ev.kind == SET_OFFERED:
                self.injection.set_offered(ev.value)
            else:
                self.traffic = self._phase_patterns[ev.value]
            self.metrics.on_phase(self.slot, ev.label)
        self._workload_pos = pos

    def _apply_scheduled_events(self) -> None:
        """Apply every schedule event due at the current slot."""
        events = self._schedule_events
        pos = self._schedule_pos
        changed = False
        while pos < len(events) and events[pos].slot <= self.slot:
            ev = events[pos]
            pos += 1
            if ev.action == LINK_DOWN:
                self.network.apply_fault(ev.link)
                self._purge_dead_link(ev.link)
            else:
                self.network.restore_link(ev.link)
                self._reconcile_restored_link(ev.link)
            changed = True
        self._schedule_pos = pos
        if changed:
            if not self.network.is_connected:
                # Fail with the typed error *before* the mechanisms rebuild
                # their tables: no mechanism can route across a cut, and
                # the executor records the point as disconnected instead
                # of crashing its pool worker on a deep assertion.
                from ..topology.graph import NetworkDisconnected

                raise NetworkDisconnected(
                    f"scheduled fault events disconnected the network at "
                    f"slot {self.slot}"
                )
            self.mechanism.on_topology_change()
            self._refresh_inflight_packets()
            self.idle_slots = 0  # reconfiguration restarts the watchdog

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one slot (all four phases + watchdog).

        Scheduled workload events apply first (the new pattern/load
        governs this slot's injection), then fault events, then the link
        model lands in-flight packets due this slot — so a packet
        arriving on a link that dies the same slot is dropped, not
        delivered.  Then the busy agenda is frozen into this step's visit
        list, the four phases run over it, and idle switches retire.
        """
        if self._workload_pos < len(self._workload_events):
            self._apply_workload_events()
        if self._schedule_pos < len(self._schedule_events):
            self._apply_scheduled_events()
        if self._link_pipelined:
            self.link.advance(self)
        # Snapshot after the landings (eligible now), before the phases:
        # a switch woken mid-step joins the next step's list.
        if self._agenda_stale:
            switches = self.switches
            self._agenda = [switches[s] for s in self._busy_sorted]
            self._agenda_stale = False
        ejected = self._eject()
        granted = self._allocate()
        self._transmit()
        self._inject()
        # Watchdog: packets on a wire always land within latency_slots, so
        # wire transit is guaranteed progress and never counts as idle (a
        # genuine stall drains the wire first, then the count starts; the
        # default unit link keeps nothing in flight, so this is the
        # historical condition there).
        if (
            self.in_flight > 0
            and ejected == 0
            and granted == 0
            and self.link.total_in_flight() == 0
        ):
            self.idle_slots += 1
            if self.idle_slots >= self.cfg.deadlock_threshold_slots:
                self.deadlocked = True
                if self.strict_deadlock:
                    raise DeadlockError(
                        f"no progress for {self.idle_slots} slots with "
                        f"{self.in_flight} packets in flight at slot {self.slot}"
                    )
        else:
            self.idle_slots = 0
        # Retirement.  A switch woken this step holds an input packet,
        # so scanning the snapshot is enough.
        retire = [
            sw.sid
            for sw in self._agenda
            if not sw.active_inputs and not any(sw.port_load)
        ]
        if retire:
            busy = self._busy_set
            busy.difference_update(retire)
            self._busy_sorted = [s for s in self._busy_sorted if s in busy]
            self._agenda_stale = True
        self.slot += 1

    def _check_schedule_fits(self, end_slot: int) -> None:
        """Reject schedule events the run window can never reach.

        Without this, an event at ``slot >= end_slot`` would be silently
        dropped and the record would still claim the full schedule ran —
        e.g. a "failed then repaired" point whose repair never happened.
        """
        events = self._schedule_events
        if self._schedule_pos < len(events) and events[-1].slot >= end_slot:
            raise ValueError(
                f"fault schedule has an event at slot {events[-1].slot}, but "
                f"this run ends after slot {end_slot - 1}; the event would "
                "silently never apply"
            )
        wevents = self._workload_events
        if self._workload_pos < len(wevents) and wevents[-1].slot >= end_slot:
            raise ValueError(
                f"workload schedule has an event at slot {wevents[-1].slot}, "
                f"but this run ends after slot {end_slot - 1}; the event "
                "would silently never apply"
            )

    def run(self, warmup: int = 300, measure: int = 700) -> SimResult:
        """Steady-state run: ``warmup`` slots, then ``measure`` slots.

        When the watchdog stops the run early, the result is normalised
        over the slots *actually measured* — not the nominal ``measure``
        count — so a deadlocked point's accepted load reflects what the
        network delivered while it still ran instead of being diluted by
        slots that never happened.
        """
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        self._check_schedule_fits(self.slot + warmup + measure)
        for _ in range(warmup):
            self.step()
            if self.deadlocked:
                break
        self.metrics.start_measurement(self.slot)
        if not self.deadlocked:
            for _ in range(measure):
                self.step()
                if self.deadlocked:
                    break
        measured = self.slot - self.metrics.measure_start
        return self.metrics.result(
            self.offered, measured, self.in_flight, self.deadlocked
        )

    def run_until_drained(self, max_slots: int = 1_000_000) -> SimResult:
        """Batch run: simulate until every packet is consumed (Figure 10).

        Measurement starts immediately (there is no steady state to skip).
        """
        self._check_schedule_fits(max_slots)
        self.metrics.start_measurement(self.slot)
        completion: int | None = None
        while self.slot < max_slots:
            self.step()
            if self.deadlocked:
                break
            if self.in_flight == 0 and self.injection.exhausted:
                completion = self.slot
                break
        return self.metrics.result(
            self.offered, max(self.slot, 1), self.in_flight, self.deadlocked,
            completion_slot=completion,
        )

    # ------------------------------------------------------------------
    def buffered_packets(self) -> int:
        """Packets currently buffered in switches (conservation checks).

        Packets a pipelined link model holds on the wire are *not*
        buffered; see :meth:`wire_packets`.  With the default unit link
        ``in_flight == buffered_packets()`` at phase boundaries; with
        pipelined links the invariant is ``in_flight == buffered_packets()
        + wire_packets()``.
        """
        return sum(sw.occupancy_packets() for sw in self.switches)

    def wire_packets(self) -> int:
        """Packets currently in flight on links (0 for unit-slot links)."""
        return self.link.total_in_flight()

    def link_utilization(self) -> dict[tuple[int, int], float]:
        """Packets per slot carried by each directed live link so far."""
        slots = max(self.slot, 1)
        out: dict[tuple[int, int], float] = {}
        for s in range(self.network.n_switches):
            for port, t in self.network.live_ports[s]:
                out[(s, t)] = int(self.link_packets[s][port]) / slots
        return out

    def switch_escape_share(self, s: int) -> float:
        """Fraction of the packets through switch ``s``'s output links
        that travelled on the escape VC."""
        total = int(self.link_packets[s].sum())
        if total == 0:
            return 0.0
        return int(self.link_escape_packets[s].sum()) / total
