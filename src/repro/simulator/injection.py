"""Injection processes: who tries to generate a packet each slot.

Two generation regimes cover the paper's experiments:

* :class:`BernoulliInjection` — every server generates a packet with
  probability ``offered`` per slot (offered load 1.0 = one 16-phit packet
  per 16 cycles = 1 phit/cycle/server, the paper's load unit).  Used by all
  steady-state throughput/latency/Jain experiments (Figures 4–6, 8, 9).
* :class:`BatchInjection` — every server has a fixed budget of packets and
  generates as fast as its source queue accepts; the run ends when the last
  packet is consumed.  Used by the completion-time experiment (Figure 10,
  8000 phits = 500 packets per server).

The workload-diversity subsystem adds one more:

* :class:`OnOffInjection` — Markov-modulated bursty generation: every
  server alternates between geometrically-distributed ON bursts (mean
  ``burst_slots``) and OFF idles (mean ``idle_slots``), injecting only
  while ON.  The in-burst rate is normalised so the *long-run* offered
  load equals ``offered`` — an on-off point and a Bernoulli point at the
  same ``offered`` are directly comparable; the on-off one just arrives
  in clumps.

A generation *attempt* that finds the source queue full is lost for the
Bernoulli-style processes (the server was throttled; this is what dents
the Jain index) and retried for Batch (the budget only decrements on
success).

The engine-facing factory :func:`make_injection` builds a process from
the :class:`~repro.simulator.config.SimConfig` fields ``injection`` /
``burst_slots`` / ``idle_slots``, so the selection travels through every
sweep job and cache key like any other simulator parameter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..registry import Registry


class InjectionProcess(ABC):
    """Decides which servers attempt to generate a packet each slot."""

    def __init__(self, n_servers: int):
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.n_servers = n_servers

    @abstractmethod
    def attempts(self, slot: int, rng: np.random.Generator) -> np.ndarray:
        """Server ids attempting generation this slot.

        Contract (every engine backend relies on it): an ``int64``
        ndarray, strictly ascending, no duplicates.  The order is
        load-bearing — the engine draws one traffic destination per
        attempting server in array order, so any reordering would shift
        the shared RNG stream and break backend byte-identity.  The
        array backend additionally feeds the ids straight into SimState
        index arithmetic (``server // servers_per_switch`` into the
        store's injection-queue columns) without re-validating them.
        """

    def on_success(self, server: int) -> None:
        """The attempt of ``server`` was enqueued."""

    def on_blocked(self, server: int) -> None:
        """The attempt of ``server`` found a full source queue."""

    def on_delivered(self, pkt) -> None:
        """A packet was consumed by its destination server (phase 1).

        Closed-loop processes with inter-message dependencies (the
        collective DAG) override this to advance their state; every
        engine backend calls it once per ejection, in the reference
        ejection order (ascending switch, then input index)."""

    def on_dropped(self, pkt) -> None:
        """A packet was destroyed by a scheduled link failure.

        Open-loop processes ignore drops (the metrics count them);
        closed-loop dependency-driven processes override this to
        retransmit, so a fault mid-collective degrades completion time
        instead of deadlocking the DAG."""

    def set_offered(self, offered: float) -> None:
        """Retarget the offered load mid-run (workload-schedule events).

        Rate-based processes override this; budget-driven ones (Batch)
        have no load knob and reject the event.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no offered-load knob"
        )

    @property
    def exhausted(self) -> bool:
        """True when the process will never generate again (batch drained)."""
        return False


class BernoulliInjection(InjectionProcess):
    """Independent Bernoulli(offered) generation per server per slot."""

    def __init__(self, n_servers: int, offered: float):
        super().__init__(n_servers)
        if not 0.0 <= offered <= 1.0:
            raise ValueError(f"offered load must be in [0, 1], got {offered}")
        self.offered = float(offered)

    def attempts(self, slot: int, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli coin per server — with a pinned draw-count contract.

        RNG contract: ``offered`` strictly between 0 and 1 consumes
        exactly one ``rng.random(n_servers)`` block per slot; the
        deterministic extremes ``0.0`` (nobody) and ``1.0`` (everybody)
        consume **nothing** — their outcome carries no entropy, and the
        golden fingerprints pin saturated (``offered == 1.0``) shared-
        stream points to the no-draw stream alignment.  Consequence: a
        workload schedule retargeting through an extreme changes how
        many blocks the shared stream has consumed by a later slot, so
        points that differ in their ``set_offered`` history are distinct
        RNG streams *by contract* — they are different workloads, not
        comparable realisations.  What the contract does guarantee is
        backend byte-identity (every backend calls this once per slot)
        and per-slot determinism; ``test_bernoulli_rng_draw_contract``
        is the regression test.
        """
        if self.offered == 0.0:
            return np.empty(0, dtype=np.int64)
        if self.offered == 1.0:
            return np.arange(self.n_servers, dtype=np.int64)
        mask = rng.random(self.n_servers) < self.offered
        return np.nonzero(mask)[0]

    def set_offered(self, offered: float) -> None:
        """Retarget the load mid-run (workload-schedule events)."""
        if not 0.0 <= offered <= 1.0:
            raise ValueError(f"offered load must be in [0, 1], got {offered}")
        self.offered = float(offered)


def onoff_duty(burst_slots: float, idle_slots: float) -> float:
    """Stationary ON fraction ``burst / (burst + idle)`` of an on-off source.

    Raises ``ValueError`` unless both mean sojourns are at least one slot.
    """
    if burst_slots < 1 or idle_slots < 1:
        raise ValueError("burst_slots and idle_slots must be >= 1")
    return burst_slots / (burst_slots + idle_slots)


def onoff_peak(offered: float, burst_slots: float, idle_slots: float) -> float:
    """In-burst attempt rate ``offered / duty`` of an on-off source.

    Raises ``ValueError`` for a load above the duty cycle: even
    back-to-back in-burst injection could not carry it.
    """
    duty = onoff_duty(burst_slots, idle_slots)
    peak = offered / duty
    if peak > 1.0 + 1e-12:
        raise ValueError(
            f"offered load {offered} exceeds the duty cycle {duty:.4f} of "
            f"burst {burst_slots:g} / idle {idle_slots:g}; even saturated "
            "bursts cannot carry it"
        )
    return min(peak, 1.0)


class OnOffInjection(InjectionProcess):
    """Markov-modulated (on-off) bursty generation, normalised load.

    Every server carries an independent two-state Markov chain: ON slots
    end with probability ``1 / burst_slots`` and OFF slots with
    ``1 / idle_slots`` (geometric sojourn times, means ``burst_slots`` and
    ``idle_slots``).  While ON, the server attempts generation with the
    in-burst rate ``offered / duty`` where ``duty = burst / (burst +
    idle)`` is the stationary ON fraction — so the long-run attempt rate
    is exactly ``offered`` and on-off points are load-comparable with
    Bernoulli ones.  ``offered > duty`` is rejected: even back-to-back
    in-burst injection could not reach that load.

    States start from their stationary distribution (drawn on the first
    :meth:`attempts` call) so there is no modulation transient on top of
    the network's own warmup.
    """

    def __init__(
        self,
        n_servers: int,
        offered: float,
        *,
        burst_slots: float = 8.0,
        idle_slots: float = 8.0,
    ):
        super().__init__(n_servers)
        self.duty = onoff_duty(burst_slots, idle_slots)
        if not 0.0 <= offered <= 1.0:
            raise ValueError(f"offered load must be in [0, 1], got {offered}")
        self.burst_slots = float(burst_slots)
        self.idle_slots = float(idle_slots)
        self.offered = float(offered)
        self.peak = self._peak(self.offered)
        self._p_off = 1.0 / self.burst_slots  # ON -> OFF
        self._p_on = 1.0 / self.idle_slots  # OFF -> ON
        self._on: np.ndarray | None = None  # drawn stationary on first use

    def _peak(self, offered: float) -> float:
        return onoff_peak(offered, self.burst_slots, self.idle_slots)

    def attempts(self, slot: int, rng: np.random.Generator) -> np.ndarray:
        n = self.n_servers
        if self._on is None:
            self._on = rng.random(n) < self.duty
        else:
            flip = rng.random(n)
            on = self._on
            self._on = np.where(on, flip >= self._p_off, flip < self._p_on)
        if self.peak == 0.0:
            return np.empty(0, dtype=np.int64)
        mask = self._on & (rng.random(n) < self.peak)
        return np.nonzero(mask)[0]

    def set_offered(self, offered: float) -> None:
        """Retarget the load mid-run, keeping the burst geometry."""
        if not 0.0 <= offered <= 1.0:
            raise ValueError(f"offered load must be in [0, 1], got {offered}")
        self.peak = self._peak(offered)
        self.offered = float(offered)


class BatchInjection(InjectionProcess):
    """Fixed per-server packet budget, injected at full source-queue rate."""

    def __init__(self, n_servers: int, packets_per_server: int):
        super().__init__(n_servers)
        if packets_per_server < 1:
            raise ValueError("packets_per_server must be >= 1")
        self.packets_per_server = packets_per_server
        self.remaining = np.full(n_servers, packets_per_server, dtype=np.int64)

    def attempts(self, slot: int, rng: np.random.Generator) -> np.ndarray:
        return np.nonzero(self.remaining > 0)[0]

    def on_success(self, server: int) -> None:
        self.remaining[server] -= 1

    @property
    def exhausted(self) -> bool:
        return bool((self.remaining == 0).all())

    @property
    def total_packets(self) -> int:
        return self.packets_per_server * self.n_servers


# ----------------------------------------------------------------------
# Registry (the config-selectable processes)
# ----------------------------------------------------------------------
#: Processes selectable through ``SimConfig.injection``.  Batch stays
#: explicit-only: its packet budget is per-experiment structure that does
#: not fit a flat config field.
INJECTIONS = Registry("injection process")
INJECTIONS.register("bernoulli", BernoulliInjection)
INJECTIONS.register("onoff", OnOffInjection)


def make_injection(
    name: str,
    n_servers: int,
    offered: float,
    *,
    burst_slots: float = 8.0,
    idle_slots: float = 8.0,
) -> InjectionProcess:
    """Build a registry injection process by name.

    The burst/idle geometry only applies to ``"onoff"``; it is accepted
    (and ignored) for ``"bernoulli"`` so callers can thread one config
    through unconditionally.
    """
    key = INJECTIONS.canonical(name)
    if key == "onoff":
        return OnOffInjection(
            n_servers, offered, burst_slots=burst_slots, idle_slots=idle_slots
        )
    return INJECTIONS.make(key, n_servers, offered)
