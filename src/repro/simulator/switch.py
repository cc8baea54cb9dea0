"""Per-switch buffer, credit and crossbar-accounting state.

Layout (all sizes from :class:`~repro.simulator.config.SimConfig`):

* **Input VCs** — one FIFO per (network port, VC) pair, plus one *injection
  queue* per attached server (the server's source queue; it participates in
  allocation like any other input).  Inputs are indexed by a flat integer:
  ``port * n_vcs + vc`` for network inputs, ``n_ports * n_vcs + i`` for the
  ``i``-th server's injection queue.
* **Output VCs** — one FIFO per (port, VC); a port's link drains one packet
  per slot, round-robin over its non-empty VCs.
* **Credits** — ``credits[pv]`` counts free slots of the *downstream* input
  FIFO reached through that output VC.  A credit is consumed when a packet
  is granted into the output VC and returned when the packet later leaves
  the downstream input FIFO (virtual cut-through with allocation-time
  reservation).

For the paper's ``Q + P`` output-selection rule the switch maintains, in
O(1) per event, the per-output-VC load ``load[pv] = output-FIFO occupancy +
consumed credits`` and its per-port sum ``port_load[port]`` — both in
packets; the engine scales by ``packet_phits`` when combining with the
penalty ``P``.

Since the :class:`~repro.simulator.state.SimState` refactor the numeric
state is *owned by the store*: ``credits`` / ``load`` / ``port_load`` /
``rr`` are typed ``memoryview`` handles onto this switch's rows of the
simulator-wide 2D arrays (same indexing, same semantics — writing
through the handle writes the store; elements read back as plain
``int``, at a half to a third of a numpy scalar's cost), while
the FIFOs stay ``deque`` objects here.  Two counts the engine's phase
scans read instead of walking the FIFOs — ``local_heads`` (the inputs
whose head packet ejects here) and ``port_occ`` (buffered output
packets per port) — are kept exact by the queue methods
:meth:`push_input`, :meth:`pop_input`, :meth:`grant`, :meth:`transmit`
and :meth:`unqueue_output`, the only mutation path.  A standalone
``Switch(...)`` (component tests) owns a private single-switch store.

FIFOs are allocated when first used: a never-used ``in_q`` / ``out_q``
slot holds the shared immutable :data:`NO_FIFO`, which reads as an empty
FIFO (``len``, truthiness, iteration), and :meth:`push_input` /
:meth:`grant` swap a real ``deque`` in on the first packet.  Most
(port, VC) pairs of a big, sparsely loaded network never see one —
a 28x28 torus with 56 VCs has 351 k slots, ~265 MB as eager deques.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque

from .config import SimConfig
from .packet import Packet
from .state import SimState


#: What a FIFO slot holds until its first packet arrives (see the
#: module docstring).  Never mutated; compared by identity.
NO_FIFO: tuple[()] = ()

#: One input or output FIFO slot.
Fifo = Deque[Packet] | tuple[()]


class Switch:
    """Buffers and credit state of one switch (a view into a
    :class:`~repro.simulator.state.SimState`)."""

    __slots__ = (
        "sid",
        "n_ports",
        "n_vcs",
        "n_servers",
        "cfg",
        "row",
        "in_q",
        "active_inputs",
        "local_heads",
        "out_q",
        "credits",
        "load",
        "port_load",
        "rr",
        "n_inputs",
        "dirty_heads",
        "port_occ",
    )

    def __init__(
        self,
        sid: int,
        n_ports: int,
        n_vcs: int,
        n_servers: int,
        cfg: SimConfig,
        state: SimState | None = None,
        row: int | None = None,
    ):
        self.sid = sid
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.n_servers = n_servers
        self.cfg = cfg
        npv = n_ports * n_vcs
        self.n_inputs = npv + n_servers
        if state is None:
            # Standalone construction (component tests): a private
            # single-switch store, indistinguishable through the view.
            state = SimState.for_switch(n_ports, n_vcs, n_servers, cfg)
            row = 0
        r = self.row = sid if row is None else row
        #: Input FIFOs: network inputs then injection queues.
        self.in_q: list[Fifo] = [NO_FIFO] * self.n_inputs
        #: Indices of non-empty input FIFOs; the set's iteration order
        #: is the allocation phase's historical visit order.
        self.active_inputs: set[int] = set()
        #: Ascending indices of the inputs whose head packet is destined
        #: to this switch: the ejection phase's work list.
        self.local_heads: list[int] = []
        #: Inputs whose head-of-line packet changed since the consumer
        #: last looked: every pop (the next packet — or nothing — becomes
        #: the head) and every push into an empty FIFO lands here.  The
        #: array backend's plan cache re-scans a switch whose set is not
        #: empty and clears it.  Bounded by ``n_inputs``.
        self.dirty_heads: set[int] = set()
        #: Output FIFOs per (port, vc).
        self.out_q: list[Fifo] = [NO_FIFO] * npv
        #: Buffered output packets per port: the transmission phase's
        #: work list (``port_load`` also counts consumed credits).
        self.port_occ: list[int] = [0] * n_ports
        # Store-row handles: slices of the store's flat memoryviews.
        flat = state.flat
        pv0 = r * state.max_ports * n_vcs
        port0 = r * state.max_ports
        #: Free downstream input slots per output VC (store-row handle).
        self.credits = flat["credits"][pv0 : pv0 + npv]
        #: Q-rule load per output VC: output occupancy + consumed credits
        #: (store-row handle).
        self.load = flat["load"][pv0 : pv0 + npv]
        #: Sum of ``load`` over the VCs of each port (store-row handle).
        self.port_load = flat["port_load"][port0 : port0 + n_ports]
        #: Round-robin pointer per port for link transmission.
        self.rr = flat["rr"][port0 : port0 + n_ports]

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def pv(self, port: int, vc: int) -> int:
        """Flat output-VC / network-input index of (port, vc)."""
        return port * self.n_vcs + vc

    def injection_input(self, local_server: int) -> int:
        """Flat input index of the ``local_server``-th injection queue."""
        return self.n_ports * self.n_vcs + local_server

    def input_port(self, idx: int) -> int:
        """Physical input port of a flat input index (injections count as
        one port each, beyond the network ports)."""
        npv = self.n_ports * self.n_vcs
        if idx < npv:
            return idx // self.n_vcs
        return self.n_ports + (idx - npv)

    def is_injection_input(self, idx: int) -> bool:
        return idx >= self.n_ports * self.n_vcs

    # ------------------------------------------------------------------
    # Queue mutation (keeps active_inputs and local_heads exact)
    # ------------------------------------------------------------------
    def push_input(self, idx: int, pkt: Packet) -> None:
        """Append ``pkt`` to input FIFO ``idx`` (injection or link
        arrival) and activate the input."""
        q = self.in_q[idx]
        if not q:
            if q is NO_FIFO:
                q = self.in_q[idx] = deque()
            self.active_inputs.add(idx)
            self.dirty_heads.add(idx)  # new head (push to a backlog isn't one)
            if pkt.dst_switch == self.sid:
                insort(self.local_heads, idx)
        q.append(pkt)

    def pop_input(self, idx: int) -> Packet:
        """Pop the head of input FIFO ``idx`` (ejection or grant)."""
        q = self.in_q[idx]
        pkt = q.popleft()
        self.dirty_heads.add(idx)
        sid = self.sid
        if pkt.dst_switch == sid:
            self.local_heads.remove(idx)
        if not q:
            self.active_inputs.discard(idx)
        elif q[0].dst_switch == sid:
            insort(self.local_heads, idx)
        return pkt

    # ------------------------------------------------------------------
    # Q+P bookkeeping (packets; engine scales to phits)
    # ------------------------------------------------------------------
    def q_value(self, port: int, vc: int) -> int:
        """The paper's ``Q`` for requesting (port, vc): the requested VC's
        load plus every load of the same port (requested VC counted twice)."""
        return self.port_load[port] + self.load[self.pv(port, vc)]

    def grant(self, pv: int, pkt: Packet) -> None:
        """Commit a packet to output VC ``pv``: occupy the FIFO slot and
        reserve (consume) the downstream credit."""
        q = self.out_q[pv]
        if q is NO_FIFO:
            q = self.out_q[pv] = deque()
        q.append(pkt)
        self.credits[pv] -= 1
        self.load[pv] += 2  # +1 occupancy, +1 consumed credit
        port = pv // self.n_vcs
        self.port_load[port] += 2
        self.port_occ[port] += 1

    def transmit(self, port: int) -> tuple[int, Packet] | None:
        """Pop one packet from the port's output VCs, round-robin.

        Returns ``(vc, packet)`` or ``None`` when the port is idle.  The
        consumed-credit half of the load stays until the downstream FIFO
        slot is freed.
        """
        base = port * self.n_vcs
        start = self.rr[port]
        for off in range(self.n_vcs):
            vc = (start + off) % self.n_vcs
            q = self.out_q[base + vc]
            if q:
                self.rr[port] = (vc + 1) % self.n_vcs
                pkt = q.popleft()
                self.load[base + vc] -= 1
                self.port_load[port] -= 1
                self.port_occ[port] -= 1
                return vc, pkt
        return None

    def unqueue_output(self, pv: int) -> Packet:
        """Remove the head of output FIFO ``pv`` *without* transmitting
        it (fault purge): the FIFO slot frees and the downstream credit
        reservation returns, keeping the Q-rule accounting exact."""
        pkt = self.out_q[pv].popleft()
        self.credits[pv] += 1
        self.load[pv] -= 2
        port = pv // self.n_vcs
        self.port_load[port] -= 2
        self.port_occ[port] -= 1
        return pkt

    def return_credit(self, port: int, vc: int) -> None:
        """Downstream freed the input slot reserved by :meth:`grant`."""
        pv = self.pv(port, vc)
        self.credits[pv] += 1
        self.load[pv] -= 1
        self.port_load[port] -= 1

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Neither copyable nor picklable, on purpose: a copy's handles
        # could only be private buffers, i.e. a switch that no longer
        # writes the store its simulator reads as whole matrices.
        raise TypeError(
            "cannot copy or pickle a Switch: its handles alias the "
            "simulator's SimState; rebuild with make_simulator"
        )

    def occupancy_packets(self) -> int:
        """Packets buffered in this switch (inputs + outputs), counted
        from the FIFO ground truth."""
        return sum(len(q) for q in self.in_q) + sum(len(q) for q in self.out_q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Switch({self.sid}, ports={self.n_ports}, vcs={self.n_vcs},"
            f" buffered={self.occupancy_packets()})"
        )
