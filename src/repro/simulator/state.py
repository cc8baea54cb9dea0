"""Struct-of-arrays store of the simulator's numeric state (``SimState``).

The per-output-VC and per-port numbers every switch keeps live in
simulator-wide 2D arrays, so that the ``"array"`` backend's plan cache
(:mod:`repro.simulator.array_backend`) can read all switches' admission
state in a few whole-matrix operations per slot.  The rule: a column
exists because whole-matrix code (or the switch's own O(1) accounting)
reads it — a FIFO's occupancy is its ``deque``'s length, since nothing
reads it whole — and :meth:`SimState.verify` audits each against the
queues.

Layout
------
All per-switch numeric state lives in preallocated 2D arrays indexed
``[sid, ...]``, padded to the maximum per-switch width (padding entries
are never written — dead ports carry no packets):

======================  =========================  =======================
array                   shape                      meaning
======================  =========================  =======================
``credits``             ``[S, P*V]`` int32         free downstream slots
``load``                ``[S, P*V]`` int32         Q-rule load per out VC
``port_load``           ``[S, P]``   int32         per-port load sum
``rr``                  ``[S, P]``   int32         transmit round-robin
``link_tx``             ``[S, P]``   int64         packets transmitted
``link_escape_tx``      ``[S, P]``   int64         ... of those, escape-VC
======================  =========================  =======================

(``S`` switches, ``P`` max ports, ``V`` VCs.)  An output VC's FIFO
occupancy is not a column: virtual cut-through keeps ``credits + load
- input_buffer_packets`` equal to it on every port, live or dead, and
:meth:`SimState.verify` checks that identity.

Packets are not mirrored here — a packet *is* its
:class:`~repro.simulator.packet.Packet` slots, and where it sits is the
FIFO (or link-model wire) holding it.  The store keeps one number about
them, the :class:`PacketCensus`: an independent count of live packets
that must equal ``Simulator.in_flight``.

Views vs arrays
---------------
:class:`~repro.simulator.switch.Switch` stays the interface every
arbiter, routing mechanism, flow control and metrics hook programs
against — a thin view:

* A switch's ``credits`` / ``load`` / ``port_load`` / ``rr`` attributes
  *are* its rows of these arrays (single-resident: writing through the
  switch writes the store, there is nothing to diverge) — held as typed
  ``memoryview`` handles, not numpy row views.  Every access through
  them is one element at a time, and a numpy scalar costs 2–3x a
  ``memoryview`` element per read or read-modify-write; the handle
  yields and takes plain ``int``.  Whole-matrix code keeps reading the
  matrices as ndarrays.  :attr:`SimState.flat` holds one
  1-D ``memoryview`` per matrix and a switch's handle is a slice of
  it, so no per-row ndarray exists anywhere.  The matrices are never
  rebound after construction (a handle would go on pointing at the old
  memory).
* The FIFOs themselves stay ``deque`` objects (the packets need an
  ordered container), and the two counts the phase scans read —
  ``local_heads`` and ``port_occ`` — stay plain lists on the switch,
  maintained by its queue methods (``push_input`` / ``pop_input`` /
  ``grant`` / ``transmit`` / ``unqueue_output``).  All engine code
  mutates queues through those methods only.

:meth:`SimState.verify` recomputes the switch counts and the per-port
load sums from the queue ground truth and checks the credit/load
invariants of virtual cut-through; the property suite drives it across
fail-and-repair cycles on multiple topology families.
"""

from __future__ import annotations

from typing import Any, NoReturn

import numpy as np

from .config import SimConfig


class PacketCensus:
    """Count of packets inside the network, kept apart from
    ``Simulator.in_flight`` as a fault detector: ``register`` on
    injection, ``release`` on ejection or fault drop, and
    :meth:`SimState.verify` checks the two counts agree."""

    __slots__ = ("live",)

    def __init__(self) -> None:
        self.live = 0

    def register(self) -> None:
        self.live += 1

    def release(self) -> None:
        self.live -= 1


#: The arrays per-packet code reads and writes one element at a time,
#: each with a flat handle in :attr:`SimState.flat`.
FLAT_NAMES = (
    "credits", "load", "port_load", "rr", "link_tx", "link_escape_tx",
    "grant_feedback",
)


class SimState:
    """The struct-of-arrays store one simulator (or one standalone
    :class:`~repro.simulator.switch.Switch`) owns.

    Parameters
    ----------
    degrees:
        Network-port count of each switch (``len(degrees)`` switches).
    n_vcs, servers_per_switch:
        Input layout per switch: ``degree * n_vcs`` network inputs, then
        one injection queue per server.
    cfg:
        Buffer sizes (``input_buffer_packets`` seeds ``credits``).
    """

    def __init__(
        self,
        degrees: list[int],
        n_vcs: int,
        servers_per_switch: int,
        cfg: SimConfig,
    ) -> None:
        S = len(degrees)
        self.n_switches = S
        self.n_vcs = n_vcs
        self.max_ports = max(degrees, default=0)
        npv_max = self.max_ports * n_vcs

        # Full buffers on every real output VC, zero on the padding.
        live = np.arange(npv_max) < np.asarray(degrees, np.int64).reshape(-1, 1) * n_vcs
        self.credits = np.multiply(live, cfg.input_buffer_packets, dtype=np.int32)
        self.load = np.zeros((S, npv_max), np.int32)
        self.port_load = np.zeros((S, self.max_ports), np.int32)
        self.rr = np.zeros((S, self.max_ports), np.int32)
        self.link_tx = np.zeros((S, self.max_ports), np.int64)
        self.link_escape_tx = np.zeros((S, self.max_ports), np.int64)
        #: Credit-feedback bitmask: ``grant_feedback[sid]`` is set by
        #: every upstream credit return (``Simulator._return_input_credit``)
        #: landing on ``sid``.  The array backend clears it at the start
        #: of each allocation phase and reads it per visited switch, so
        #: the set of switches whose scoring inputs were mutated by an
        #: *earlier switch's grants in the same phase* — the only
        #: cross-switch hazard of the allocation order — is known in
        #: O(S) per slot.  Other backends only ever write it (one scalar
        #: store per credit return); it is scratch, not physics, so
        #: :meth:`verify` ignores it.
        self.grant_feedback = np.zeros(S, bool)
        #: Array name -> one flat (row-major) typed ``memoryview`` over
        #: that array's own memory: the scalar access path of the
        #: per-packet code (see "Views vs arrays").  Row ``r`` of a
        #: ``[S, W]`` matrix is ``flat[name][r * W : (r + 1) * W]``.
        self.flat: dict[str, memoryview] = {
            name: memoryview(getattr(self, name).reshape(-1))
            for name in FLAT_NAMES
        }
        self.packets = PacketCensus()

    def __reduce__(self) -> NoReturn:
        # A copied store is a second memory its switches' handles do not
        # point at (and ``flat`` cannot be pickled at all).
        raise TypeError(
            "cannot copy or pickle a SimState: the switches' handles alias "
            "its arrays; rebuild with make_simulator"
        )

    # ------------------------------------------------------------------
    @classmethod
    def for_switch(cls, n_ports: int, n_vcs: int, n_servers: int,
                   cfg: SimConfig) -> "SimState":
        """A single-switch store (standalone ``Switch(...)`` construction,
        used by component tests)."""
        return cls([n_ports], n_vcs, n_servers, cfg)

    # ------------------------------------------------------------------
    # Ground-truth verification (property tests; O(everything), not for
    # the hot loop)
    # ------------------------------------------------------------------
    def verify(self, sim: Any) -> None:
        """Assert every derived number agrees with the queue ground truth.

        Covers each switch's ``local_heads`` and ``port_occ``, the
        per-port load sums, the identity ``credits + load - capacity =
        output occupancy`` on every port (dead ones too: the array
        backend's admission row reads occupancy through it) with the
        padding columns left at zero, — for every
        *live* link — the virtual-cut-through credit/load invariant
        ``credits = capacity - downstream occupancy - in flight - output
        occupancy``, and the packet census against ``in_flight`` and the
        packets actually held in FIFOs and on wires.  Call between steps
        (phase boundaries).
        """
        V = self.n_vcs
        cap = sim.cfg.input_buffer_packets
        for sw in sim.switches:
            s = sw.sid
            local = [
                idx for idx, q in enumerate(sw.in_q) if q and q[0].dst_switch == s
            ]
            assert sw.local_heads == local, (
                f"local_heads of switch {s} = {sw.local_heads} != {local}"
            )
            for port in range(sw.n_ports):
                base = port * V
                occ = sum(len(sw.out_q[base + vc]) for vc in range(V))
                assert sw.port_occ[port] == occ, (
                    f"port_occ[{s}][{port}]={sw.port_occ[port]} != {occ}"
                )
                assert self.port_load[s, port] == self.load[s, base:base + V].sum(), (
                    f"port_load[{s},{port}] out of sync with load"
                )
            for pv, q in enumerate(sw.out_q):
                assert sw.credits[pv] + sw.load[pv] - cap == len(q), (
                    f"credits + load - capacity at [{s},{pv}] != "
                    f"output occupancy {len(q)}"
                )
            npv = sw.n_ports * V
            assert not self.credits[s, npv:].any() and not self.load[s, npv:].any(), (
                f"padding of switch {s} written: the admission row would read it"
            )
        # VCT invariant on live links (dead links are reconciled only on
        # repair; their stale rows are never read).
        for s in range(sim.network.n_switches):
            sw = sim.switches[s]
            for port, t in sim.network.live_ports[s]:
                rev = sim.rev_port[s][port]
                tsw = sim.switches[t]
                for vc in range(V):
                    pv = port * V + vc
                    in_down = len(tsw.in_q[rev * V + vc])
                    in_wire = sim.link.in_flight_between(s, t, vc)
                    out_here = len(sw.out_q[pv])
                    assert sw.credits[pv] == cap - in_down - in_wire - out_here, (
                        f"credits[{s},{pv}] breaks the VCT invariant"
                    )
                    assert sw.load[pv] == 2 * out_here + in_wire + in_down, (
                        f"load[{s},{pv}] breaks the VCT invariant"
                    )
        located = sim.buffered_packets() + sim.wire_packets()
        assert self.packets.live == located == sim.in_flight, (
            f"census {self.packets.live} / located {located} / "
            f"in_flight {sim.in_flight} disagree"
        )
