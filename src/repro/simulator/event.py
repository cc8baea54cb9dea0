"""Event-driven engine backend: skip idle switches entirely.

The slot-synchronous reference backend visits every switch in every
phase of every slot.  At low offered load, during long warmups and
across transient fault schedules, almost all of those visits find
nothing: no buffered packet to eject, no head-of-line packet to
allocate, no output occupancy to transmit.  This backend keeps a
*busy agenda* — a pending-event set keyed by slot-of-wake — and visits
only the switches that can possibly act.

Why this is record-identical to the slot backend
------------------------------------------------
The slot loop already skips do-nothing switches *after* reaching them:
ejection skips switches with no active inputs, allocation (every
arbiter) starts with ``if not sw.active_inputs: continue``, and
transmission skips every port with ``port_load == 0`` (and pops nothing
from empty output FIFOs).  A skipped visit changes no state and draws
no RNG.  So any backend that visits a *superset* of the switches that
would act — in the same ascending-sid order, with the same per-switch
code — produces byte-identical state and byte-identical RNG streams.

The agenda maintains exactly that superset, via one invariant: **a
switch with a non-empty input FIFO or a non-zero ``port_load`` is on
the agenda.**  ``port_load`` over-approximates output work on purpose:
it counts output-FIFO occupancy *plus* consumed downstream credits, so
a switch stays scheduled until its last downstream reservation is
released — conservative (a few empty revisits), never unsound.
Membership changes only at three points:

* **Wakes** — the engine's :meth:`_wake` hook fires on every input
  activation: packet injection, unit-link delivery, pipelined-link
  landing.  Output occupancy never needs a wake: grants happen at a
  switch being visited (it had an active input), and ``port_load > 0``
  then retains it.
* **Snapshot** — each step iterates a frozen ascending-sid snapshot
  taken *after* pipelined landings (they are eligible for this slot's
  ejection) and *before* the phases; switches woken mid-step (by this
  slot's deliveries or injections) join the next slot's snapshot,
  exactly when their new packet first becomes eligible under the slot
  backend's phase ordering.
* **Retirement** — at end of step a switch with no active input and an
  all-zero ``port_load`` provably has no packets, no output occupancy
  and no outstanding credits; it cannot act or be acted through until a
  wake, so it leaves the agenda.

Fault/workload schedule events need no extra scheduling: purges only
*remove* work, a repaired link's reconciliation only *raises* the load
of switches that already hold reservations (stale accounting while the
link was down never decays to zero), and stalled packets keep their
switch's inputs active — so the watchdog, ``on_stalled`` cadence and
recovery series all match the reference slot for slot.  The injection
process still runs every slot (its vectorised coin draws *are* the RNG
stream contract); the savings come from the three per-switch phase
loops, which dominate the interpreter cost of sparse runs.

``tests/experiments/test_backend_equivalence.py`` pins the equivalence
by differential fingerprint across mechanisms × topologies × schedules;
``perfbench/bench.py`` tracks the speedup on its sparse, long-warmup
``sparse_transient_event`` workload.
"""

from __future__ import annotations

from bisect import insort

from .engine import Simulator


class EventSimulator(Simulator):
    """The ``"event"`` engine backend (see module docstring).

    Same constructor, same physics, same records as
    :class:`~repro.simulator.engine.Simulator` — only the per-slot
    scheduling differs.  Select it with ``SimConfig(backend="event")``
    through :func:`~repro.simulator.backends.make_simulator`.
    """

    backend_name = "event"

    def __init__(self, *args, **kwargs):
        # Agenda state first: super().__init__ may fire _wake (it does
        # not today, but the hook must be safe from the first packet).
        self._busy_set: set[int] = set()
        self._busy_sorted: list[int] = []
        super().__init__(*args, **kwargs)
        self._step_agenda = []
        # Adopt any pre-existing work (tests or tools that hand-place
        # packets before the first step).
        for sw in self.switches:
            if sw.active_inputs or any(sw.port_load):
                self._wake(sw.sid)

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _wake(self, sid: int) -> None:
        if sid not in self._busy_set:
            self._busy_set.add(sid)
            insort(self._busy_sorted, sid)

    def _snapshot_active(self) -> None:
        # A frozen copy, not the live list: this slot's deliveries wake
        # switches mid-iteration, and those belong to the next slot.
        switches = self.switches
        self._step_agenda = [switches[s] for s in self._busy_sorted]

    def _end_step(self) -> None:
        # The retirement probe: ``any`` over the port_load handle's
        # plain ints stops at the first loaded port.
        switches = self.switches
        retire = [
            s
            for s in self._busy_sorted
            if not switches[s].active_inputs
            and not any(switches[s].port_load)
        ]
        if retire:
            self._busy_set.difference_update(retire)
            gone = set(retire)
            self._busy_sorted = [
                s for s in self._busy_sorted if s not in gone
            ]

    # ------------------------------------------------------------------
    def busy_switches(self) -> tuple[int, ...]:
        """The agenda's current switch ids (observability/tests)."""
        return tuple(self._busy_sorted)
