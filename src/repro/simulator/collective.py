"""Collective-communication workloads: dependency-triggered chunk DAGs.

The open-loop injection processes say nothing about the scenario
adaptive routing exists for — a *collective* (all-reduce, all-gather)
riding through congestion or a link failure.  This module models a
collective the way CCL simulators do: a :class:`CollectivePolicy` is a
flat list of chunk-transfer entries with DAG semantics, executed by a
closed-loop :class:`CollectiveInjection` whose figure of merit is the
**job completion time** (:attr:`~repro.simulator.metrics.SimResult.jct_cycles`)
rather than accepted load.

Policy format
-------------
The entry shape follows the CCL-simulator policy format
``[chunk_id, src, dst, qpid, rate, size, path]`` adapted to this
simulator's abstractions: ``qpid``/``rate``/``path`` belong to a
statically-routed NIC model and are owned here by the adaptive routing
mechanism and the link model, ``size`` becomes ``packets`` (16-phit
units), and one explicit field — ``produces`` — encodes the DAG edge
that format leaves implicit:

* :class:`CollectiveEntry` ``(chunk, src, dst, packets, produces)``
  transfers ``packets`` packets of chunk ``chunk`` from server ``src``
  to server ``dst``.
* An entry **fires** when ``src`` fully owns ``chunk``.  Multiple
  entries installed at the same ``(chunk, src)`` fan out independently
  (a broadcast step is several entries consuming one ownership).
* A server **owns** a chunk when the policy lists it in ``initial``, or
  when *every* entry producing that chunk at that server has completed
  (all ``packets`` delivered).  Several entries producing one
  ``(produces, dst)`` state model reduction fan-in: the parent fires
  only after all children arrive.
* The policy is **complete** when every entry has fired and delivered.
  :class:`DagRun` is that rule, on tables the policy compiles once;
  :meth:`CollectivePolicy.fire_order` replays it to prove completeness
  reachable (the DAG is deadlock-free), and :class:`CollectiveInjection`
  runs that proof, then drives the same rule live.

Execution is exact-packet: a transfer completes when its packets are
consumed by the destination server, chunk combining (reduction
arithmetic) is free, and a packet destroyed by a scheduled link failure
is retransmitted — so a fault mid-collective shows up as degraded JCT,
not a deadlocked DAG.

Generators for the classic algorithms on *any* catalog topology (they
ride the routing mechanism, so only the server count matters) are
registered in :data:`COLLECTIVES` and reachable through
:func:`make_collective` and the ``SimConfig.collective`` /
``SimConfig.chunk_packets`` fields.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..registry import Registry
from .injection import InjectionProcess


@dataclass(frozen=True)
class CollectiveEntry:
    """One dependency-triggered chunk transfer (see module docstring)."""

    #: Chunk the source must fully own before the transfer fires.
    chunk: str
    #: Source server (owns ``chunk`` before; transmits it).
    src: int
    #: Destination server (comes to own ``produces`` after).
    dst: int
    #: Transfer size in 16-phit packets.
    packets: int = 1
    #: Chunk state the completed transfer establishes at ``dst``;
    #: defaults to ``chunk`` (plain forwarding keeps the identity).
    produces: str = ""

    def __post_init__(self):
        if not self.chunk:
            raise ValueError("chunk id must be a non-empty string")
        if self.src < 0 or self.dst < 0:
            raise ValueError("server ids must be non-negative")
        if self.src == self.dst:
            raise ValueError(
                f"self-transfer of chunk {self.chunk!r} at server {self.src}"
            )
        if self.packets < 1:
            raise ValueError("packets must be >= 1")
        if not self.produces:
            object.__setattr__(self, "produces", self.chunk)

    @property
    def label(self) -> str:
        return f"{self.chunk}:{self.src}->{self.dst}x{self.packets}"


@dataclass(frozen=True)
class CollectivePolicy:
    """An ordered list of chunk-transfer entries plus initial ownership.

    ``entries`` keeps caller order (generators emit dependency order;
    ties in firing resolve by list position, deterministically).
    ``initial`` is the set of ``(chunk, server)`` ownerships that exists
    before the first slot — the DAG's roots.  Construction interns each
    ``(chunk, server)`` state to an int and compiles :class:`DagRun`'s
    tables.
    """

    entries: tuple[CollectiveEntry, ...]
    initial: tuple[tuple[str, int], ...]
    label: str = "collective"

    def __init__(self, entries, initial, label: str = "collective"):
        set_ = object.__setattr__
        set_(self, "entries", tuple(entries))
        set_(self, "initial", tuple(sorted({(str(c), int(s)) for c, s in initial})))
        set_(self, "label", str(label))
        if not self.entries:
            raise ValueError("a collective needs at least one entry")
        ids: dict[tuple[str, int], int] = {}
        triggers: list[int] = []
        produces: list[int] = []
        for e in self.entries:
            if not isinstance(e, CollectiveEntry):
                raise TypeError(f"expected CollectiveEntry, got {type(e).__name__}")
            triggers.append(ids.setdefault((e.chunk, e.src), len(ids)))
            produces.append(ids.setdefault((e.produces, e.dst), len(ids)))
        roots = [ids.setdefault(state, len(ids)) for state in self.initial]
        n_states = len(ids)
        set_(self, "_produces", produces)
        set_(self, "_need", np.bincount(produces, minlength=n_states).tolist())
        # Entries grouped by trigger state, in index order within a state:
        # state s's waiters are _waiters[_first[s]:_first[s + 1]].
        set_(self, "_waiters", np.argsort(triggers, kind="stable").tolist())
        set_(self, "_first", [0, *np.bincount(triggers, minlength=n_states).cumsum().tolist()])
        set_(self, "_roots", roots)
        set_(self, "_max_server", max(s for _c, s in ids))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def total_packets(self) -> int:
        """Packets the collective injects (without fault retransmits)."""
        return sum(e.packets for e in self.entries)

    def fire_order(self, n_servers: int) -> list[int]:
        """Entry indices in dependency-respecting fire order.

        Replays :class:`DagRun` with instantaneous transfers, completing
        entries in the order they fire.  Raises ``ValueError`` when any
        entry references an out-of-range server or can never fire — the
        completeness/deadlock-freedom check :class:`CollectiveInjection`
        runs at construction.
        """
        if self._max_server >= n_servers:
            raise ValueError(
                f"policy {self.label!r} references server "
                f"{self._max_server} but the network has {n_servers}"
            )
        order: list[int] = []
        run = DagRun(self, order.append)
        for i in order:  # grows while iterated: a FIFO of fired entries
            run.complete(i)
        if len(order) != len(self.entries):
            stuck = len(self.entries) - len(order)
            raise ValueError(
                f"policy {self.label!r} is not a complete DAG: {stuck} of "
                f"{len(self.entries)} entries can never fire (missing "
                f"initial ownership or circular dependency)"
            )
        return order

    def validate(self, n_servers: int) -> None:
        """Raise unless the policy is a complete, deadlock-free DAG."""
        self.fire_order(n_servers)


class DagRun:
    """One execution of a policy's ownership rule, with fresh counters.

    :meth:`grant` fires a state's waiters (calling ``fire(i)``, in entry
    order); :meth:`complete` grants an entry's produced state when its
    last producer completes.  The roots are granted at construction, in
    ``initial`` order, and their counts start at 0: a root is owned from
    the start, so completing its producers never grants it again.
    """

    __slots__ = ("_produces", "_left", "_waiters", "_first", "_fire")

    def __init__(self, policy: CollectivePolicy, fire: Callable[[int], None]):
        self._produces = policy._produces
        self._waiters = policy._waiters
        self._first = policy._first
        self._left = list(policy._need)  # producers still to complete
        self._fire = fire
        for state in policy._roots:
            self._left[state] = 0
            self.grant(state)

    def grant(self, state: int) -> None:
        for i in self._waiters[self._first[state]:self._first[state + 1]]:
            self._fire(i)

    def complete(self, i: int) -> None:
        state = self._produces[i]
        self._left[state] -= 1
        if self._left[state] == 0:
            self.grant(state)


# ----------------------------------------------------------------------
# Generators: the classic algorithms over a logical server ring/tree
# ----------------------------------------------------------------------
def all_reduce_ring(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Ring all-reduce: reduce-scatter then all-gather, ``2(n-1)`` hops.

    The vector is split into ``n`` chunks; chunk ``c`` starts at server
    ``c`` and travels the logical ring ``c -> c+1 -> ...`` for ``n-1``
    accumulation hops (reduce-scatter) followed by ``n-1`` distribution
    hops (all-gather).  Every hop is its own chunk *state* ``ar{c}.{t}``
    — the hop-``t`` transfer fires only when hop ``t-1`` has fully
    arrived, which is exactly the algorithm's dependency chain.
    """
    n = int(n_servers)
    if n < 2:
        raise ValueError("ring all-reduce needs at least 2 servers")
    entries = [
        CollectiveEntry(
            chunk=f"ar{c}.{t}",
            src=(c + t) % n,
            dst=(c + t + 1) % n,
            packets=chunk_packets,
            produces=f"ar{c}.{t + 1}",
        )
        for t in range(2 * n - 2)
        for c in range(n)
    ]
    initial = [(f"ar{c}.0", c) for c in range(n)]
    return CollectivePolicy(entries, initial, label=f"allreduce_ring(n={n})")


def all_reduce_tree(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Tree all-reduce: reduce up a binary tree, broadcast back down.

    Servers form an implicit binary heap (children of ``v`` are
    ``2v+1``/``2v+2``, root 0).  The reduce phase sends each subtree's
    partial sum to its parent — an interior node owns its partial
    ``up{v}`` only when *both* children have fully arrived (fan-in via
    two entries producing one state).  The broadcast phase fans the
    rooted result back out, one entry per edge consuming the parent's
    ownership independently (fan-out).
    """
    n = int(n_servers)
    if n < 2:
        raise ValueError("tree all-reduce needs at least 2 servers")
    up = [
        CollectiveEntry(
            chunk=f"up{v}",
            src=v,
            dst=(v - 1) // 2,
            packets=chunk_packets,
            produces=f"up{(v - 1) // 2}",
        )
        for v in range(n - 1, 0, -1)  # bottom-up
    ]
    down = [
        CollectiveEntry(
            chunk="up0" if p == 0 else f"dn{p}",
            src=p,
            dst=c,
            packets=chunk_packets,
            produces=f"dn{c}",
        )
        for p in range(n)
        for c in (2 * p + 1, 2 * p + 2)
        if c < n
    ]
    # A leaf owns its own contribution from the start; interior nodes
    # derive ownership from their children's arrivals.
    leaves = [v for v in range(n) if 2 * v + 1 >= n]
    initial = [(f"up{v}", v) for v in leaves]
    return CollectivePolicy(up + down, initial, label=f"allreduce_tree(n={n})")


def all_gather_ring(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Ring all-gather: every server's chunk rotates ``n-1`` hops."""
    n = int(n_servers)
    if n < 2:
        raise ValueError("ring all-gather needs at least 2 servers")
    entries = [
        CollectiveEntry(
            chunk=f"ag{c}.{t}",
            src=(c + t) % n,
            dst=(c + t + 1) % n,
            packets=chunk_packets,
            produces=f"ag{c}.{t + 1}",
        )
        for t in range(n - 1)
        for c in range(n)
    ]
    initial = [(f"ag{c}.0", c) for c in range(n)]
    return CollectivePolicy(entries, initial, label=f"allgather_ring(n={n})")


#: Collectives selectable through ``SimConfig.collective`` (the config
#: field additionally accepts ``"none"``, meaning open-loop traffic).
COLLECTIVES = Registry("collective")
COLLECTIVES.register(
    "allreduce_ring", all_reduce_ring,
    aliases=("all-reduce-ring", "ring-allreduce"),
    display="All-reduce (ring)",
)
COLLECTIVES.register(
    "allreduce_tree", all_reduce_tree,
    aliases=("all-reduce-tree", "tree-allreduce"),
    display="All-reduce (binary tree)",
)
COLLECTIVES.register(
    "allgather_ring", all_gather_ring,
    aliases=("all-gather", "all-gather-ring"),
    display="All-gather (ring)",
)


def make_collective(
    name: str, n_servers: int, *, chunk_packets: int = 1
) -> CollectivePolicy:
    """Build a registered collective policy by name."""
    return COLLECTIVES.make(name, n_servers, chunk_packets=chunk_packets)


# ----------------------------------------------------------------------
# Closed-loop execution: the DAG as an injection process
# ----------------------------------------------------------------------
class CollectiveInjection(InjectionProcess):
    """Injects each entry's packets only once its dependencies are met.

    The process draws **nothing** from the injection RNG (like
    :class:`~repro.simulator.injection.BatchInjection`) and its paired
    :class:`~repro.traffic.collective.CollectiveTraffic` draws nothing
    from the traffic RNG — a collective point's packet sequence is fully
    determined by the policy and the network dynamics, which keeps
    backend byte-identity trivial on the workload side.

    Bookkeeping contracts (all deterministic, hence backend-identical):

    * Fired entries append their packets to the source server's pending
      FIFO; ``attempts`` returns the servers with pending packets
      (ascending, once each), and a blocked attempt simply retries.
    * Deliveries on a ``(src, dst)`` flow attribute to that flow's live
      entries in fire order.  Two live entries sharing a flow cannot
      race within a slot: a server ejects at most one packet per slot.
    * A packet destroyed by a link failure is re-queued at its source
      (``retransmitted`` counts them), so the DAG always completes on a
      connected network; ``exhausted`` is True once every entry has
      fired and fully delivered — :meth:`Simulator.run_until_drained`
      then reports the drain slot as the JCT.
    """

    def __init__(self, n_servers: int, policy: CollectivePolicy):
        super().__init__(n_servers)
        policy.validate(n_servers)
        self.policy = policy
        #: The engine reports this as the record's offered load; a
        #: closed-loop DAG is a saturation workload by construction.
        self.offered = 1.0
        self.retransmitted = 0
        self._n_complete = 0
        #: Per-server FIFO of pending destinations (one per packet).
        self._pending: list[deque[int]] = [deque() for _ in range(n_servers)]
        self._pending_n = np.zeros(n_servers, dtype=np.int64)
        #: Deliveries outstanding per entry.
        self._remaining = [e.packets for e in policy.entries]
        #: Live-entry FIFO per (src, dst) flow for delivery attribution.
        self._live: dict[tuple[int, int], deque[int]] = defaultdict(deque)
        self._dag = DagRun(policy, self._fire)

    def _fire(self, i: int) -> None:
        e = self.policy.entries[i]
        self._pending[e.src].extend([e.dst] * e.packets)
        self._pending_n[e.src] += e.packets
        self._live[(e.src, e.dst)].append(i)

    # -- InjectionProcess interface ------------------------------------
    def attempts(self, slot: int, rng: np.random.Generator) -> np.ndarray:
        # Deterministic (no RNG): servers with pending packets, ascending.
        return np.nonzero(self._pending_n > 0)[0]

    def peek_destination(self, server: int) -> int:
        """Head of the server's pending FIFO (the engine's next dst)."""
        return self._pending[server][0]

    def on_success(self, server: int) -> None:
        self._pending[server].popleft()
        self._pending_n[server] -= 1

    def on_delivered(self, pkt) -> None:
        flow = self._live[(pkt.src_server, pkt.dst_server)]
        if not flow:
            raise RuntimeError(
                f"collective delivery with no live entry on flow "
                f"{pkt.src_server}->{pkt.dst_server} (attribution invariant broken)"
            )
        i = flow[0]
        self._remaining[i] -= 1
        if self._remaining[i] == 0:
            flow.popleft()
            self._n_complete += 1
            self._dag.complete(i)

    def on_dropped(self, pkt) -> None:
        # Retransmit: the chunk data died on a failing link; re-queue one
        # packet at the source.  The live-entry attribution is untouched
        # (the flow still expects the same number of deliveries).
        self._pending[pkt.src_server].append(pkt.dst_server)
        self._pending_n[pkt.src_server] += 1
        self.retransmitted += 1

    @property
    def exhausted(self) -> bool:
        return self._n_complete == len(self.policy.entries)

    @property
    def total_packets(self) -> int:
        return self.policy.total_packets + self.retransmitted
