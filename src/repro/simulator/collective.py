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
that format leaves implicit.  Like that format, a policy is a flat
table of int rows: :class:`CollectivePolicy` holds one int column per
field, and a *state* is one ``(chunk, server)`` ownership, named by an
int id.

* Entry ``k`` transfers ``packets[k]`` packets from server ``src[k]``
  to server ``dst[k]``.
* An entry **fires** when its ``trigger`` state is owned, that is, when
  ``src`` fully owns the chunk.  Several entries triggered by one state
  fan out independently (a broadcast step is several entries consuming
  one ownership).
* A state is **owned** when the policy lists it among its ``roots``, or
  when *every* entry producing it has completed (all ``packets``
  delivered).  Several entries producing one state model reduction
  fan-in: the parent fires only after all children arrive.
* The policy is **complete** when every entry has fired and delivered.
  :class:`DagRun` is that rule, on tables the policy compiles once;
  :meth:`CollectivePolicy.fire_order` replays it to prove completeness
  reachable (the DAG is deadlock-free), and :class:`CollectiveInjection`
  runs that proof, then drives the same rule live.

Generators emit their columns in closed form through
:meth:`CollectivePolicy.from_columns`, with no object per transfer.  A
hand-written policy is a list of :class:`CollectiveEntry` ``(chunk, src,
dst, packets, produces)`` rows with string chunk ids plus its initial
``(chunk, server)`` ownerships; ``CollectivePolicy(entries, initial)``
interns those to the same columns, and both compile through one path.

Execution is exact-packet: a transfer completes when its packets are
consumed by the destination server, chunk combining (reduction
arithmetic) is free, and a packet destroyed by a scheduled link failure
is retransmitted — so a fault mid-collective shows up as degraded JCT,
not a deadlocked DAG.

Generators for the classic algorithms on *any* catalog topology (they
ride the routing mechanism, so only the server count matters) are
registered in :data:`COLLECTIVES` and reachable through
:func:`make_collective` and the ``SimConfig.collective`` /
``SimConfig.chunk_packets`` fields.  :func:`collective_entries` sizes a
registered collective without building it, and a collective sweep
refuses one past :data:`MAX_ENTRIES` with :class:`CollectiveTooLarge`.
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


#: Names of :meth:`CollectivePolicy.from_columns`'s int columns, in order.
_COLUMNS = ("trigger", "produces", "src", "dst", "packets", "roots")


def _int_column(name: str, values) -> np.ndarray:
    """``values`` as a fresh, read-only 1-D int64 column."""
    col = np.asarray(values)
    if col.ndim != 1 or (col.size and not np.issubdtype(col.dtype, np.integer)):
        raise TypeError(f"column {name!r} must be a 1-D sequence of ints")
    col = col.astype(np.int64)
    col.flags.writeable = False
    return col


class CollectivePolicy:
    """A collective's transfers as int columns, plus initial ownership.

    Entry ``k`` sends ``packets[k]`` packets from server ``src[k]`` to
    server ``dst[k]``.  It fires once state ``trigger[k]`` is owned, and
    its completion counts toward state ``produces[k]``.  A state is one
    ``(chunk, server)`` ownership, so the entries a state triggers send
    from its server and the entries producing it deliver there.
    ``roots`` are the states owned before the first slot.  Entry order
    is kept: ties in firing resolve by index, deterministically.

    Two ways in, one compile.  Generators pass their columns, in closed
    form, to :meth:`from_columns`.  ``CollectivePolicy(entries, initial,
    label)`` interns a hand-written list of :class:`CollectiveEntry`
    rows and ``(chunk, server)`` ownerships to the same columns.
    Compiling checks every column and builds :class:`DagRun`'s tables
    once.  :attr:`entries` and :attr:`initial` are row views, built on
    each call; a generated policy names its states ``"s{id}"``.
    """

    def __init__(self, entries, initial, label: str = "collective"):
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, CollectiveEntry):
                raise TypeError(f"expected CollectiveEntry, got {type(e).__name__}")
        ids: dict[tuple[str, int], int] = {}
        trigger: list[int] = []
        produces: list[int] = []
        for e in entries:
            trigger.append(ids.setdefault((e.chunk, e.src), len(ids)))
            produces.append(ids.setdefault((e.produces, e.dst), len(ids)))
        owned = sorted({(str(c), int(s)) for c, s in initial})
        roots = [ids.setdefault(state, len(ids)) for state in owned]
        self._names = [chunk for chunk, _server in ids]
        self._compile(
            label, trigger, produces, [e.src for e in entries],
            [e.dst for e in entries], [e.packets for e in entries], roots,
            server=[server for _chunk, server in ids],
        )

    @classmethod
    def from_columns(
        cls, trigger, produces, src, dst, packets, roots, *, label: str = "collective"
    ) -> CollectivePolicy:
        """A policy from its int columns (see the class docstring).

        Each state's server is read off the entries that name it, so a
        root must be a state of some entry.
        """
        policy = cls.__new__(cls)
        policy._names = None
        policy._compile(label, trigger, produces, src, dst, packets, roots)
        return policy

    def _compile(self, label, *columns, server=None) -> None:
        cols = [_int_column(name, values) for name, values in zip(_COLUMNS, columns)]
        trigger, produces, src, dst, packets, roots = cols
        if not len(trigger):
            raise ValueError("a collective needs at least one entry")
        if any(len(col) != len(trigger) for col in cols[1:5]):
            raise ValueError("the entry columns must have one length")
        states = np.concatenate([trigger, produces, roots])
        if states.min() < 0:
            raise ValueError("state ids must be non-negative")
        n_states = int(states.max()) + 1
        if server is None:
            server = np.full(n_states, -1, dtype=np.int64)
            server[trigger] = src
            server[produces] = dst
        else:
            server = _int_column("server", server)
        if (server[trigger] != src).any() or (server[produces] != dst).any():
            raise ValueError(
                "each state is owned at one server: the entries a state "
                "triggers must send from it, and those producing it deliver to it"
            )
        if min(src.min(), dst.min()) < 0:
            raise ValueError("server ids must be non-negative")
        root_server = server[roots]
        if root_server.min(initial=0) < 0:
            # Interned, that is a negative ownership; from columns, a
            # root that no entry names has no server.
            raise ValueError(
                "a root must be the state of an entry" if self._names is None
                else "server ids must be non-negative"
            )
        if (src == dst).any():
            k = int(np.argmax(src == dst))
            raise ValueError(f"self-transfer of entry {k} at server {src[k]}")
        if packets.min() < 1:
            raise ValueError("packets must be >= 1")
        if len(np.unique(roots)) != len(roots):
            raise ValueError("a root state is listed twice")
        self.label = str(label)
        self.trigger, self.produces, self.src, self.dst, self.packets, self.roots = cols
        self.total_packets = int(packets.sum())
        self._root_server = root_server.tolist()
        self._max_server = int(max(src.max(), dst.max(), root_server.max(initial=0)))
        # DagRun's tables, as lists.  State s's waiters are
        # _waiters[_first[s]:_first[s + 1]], in entry order.
        self._produces = produces.tolist()
        self._need = np.bincount(produces, minlength=n_states).tolist()
        self._waiters = np.argsort(trigger, kind="stable").tolist()
        self._first = [0, *np.bincount(trigger, minlength=n_states).cumsum().tolist()]
        self._roots = roots.tolist()

    def _state_name(self, state: int) -> str:
        return f"s{state}" if self._names is None else self._names[state]

    @property
    def entries(self) -> tuple[CollectiveEntry, ...]:
        """The transfers as :class:`CollectiveEntry` rows, in entry order."""
        name = self._state_name
        rows = zip(*(col.tolist() for col in
                     (self.trigger, self.produces, self.src, self.dst, self.packets)))
        return tuple(
            CollectiveEntry(name(t), s, d, k, name(p)) for t, p, s, d, k in rows
        )

    @property
    def initial(self) -> tuple[tuple[str, int], ...]:
        """The ``(chunk, server)`` ownerships before the first slot."""
        return tuple(zip(map(self._state_name, self._roots), self._root_server))

    def __len__(self) -> int:
        return len(self.trigger)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"CollectivePolicy({self.label!r}, {len(self)} entries)"

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
        complete = DagRun(self, order.extend).complete
        for i in order:  # grows while iterated: a FIFO of fired entries
            complete(i)
        if len(order) != len(self):
            stuck = len(self) - len(order)
            raise ValueError(
                f"policy {self.label!r} is not a complete DAG: {stuck} of "
                f"{len(self)} entries can never fire (missing "
                f"initial ownership or circular dependency)"
            )
        return order

    def validate(self, n_servers: int) -> None:
        """Raise unless the policy is a complete, deadlock-free DAG."""
        self.fire_order(n_servers)


class DagRun:
    """One execution of a policy's ownership rule, with fresh counters.

    :meth:`grant` fires a state's waiters, calling ``fire(indices)``
    once with the list of their entry indices, in entry order;
    :meth:`complete` grants an entry's produced state when its last
    producer completes.  The roots are granted at construction, in
    root order, and their counts start at 0: a root is owned from the
    start, so completing its producers never grants it again.
    """

    __slots__ = ("_produces", "_left", "_waiters", "_first", "_fire")

    def __init__(self, policy: CollectivePolicy, fire: Callable[[list[int]], None]):
        self._produces = policy._produces
        self._waiters = policy._waiters
        self._first = policy._first
        self._left = list(policy._need)  # producers still to complete
        self._fire = fire
        for state in policy._roots:
            self._left[state] = 0
            self.grant(state)

    def grant(self, state: int) -> None:
        self._fire(self._waiters[self._first[state]:self._first[state + 1]])

    def complete(self, i: int) -> None:
        state = self._produces[i]
        self._left[state] -= 1
        if self._left[state] == 0:
            self.grant(state)


# ----------------------------------------------------------------------
# Generators: the classic algorithms over a logical server ring/tree
# ----------------------------------------------------------------------
def _ring(n: int, steps: int, chunk_packets: int, label: str) -> CollectivePolicy:
    """Every server's chunk travels ``steps`` hops of the logical ring.

    Entry ``k = t*n + c`` is hop ``t`` of chunk ``c``, from server
    ``c+t`` to ``c+t+1`` (mod ``n``).  Chunk ``c``'s state after ``t``
    hops is ``c*(steps+1) + t``: the hop fires on it and produces the
    next, and the ``n`` roots are each chunk's state 0, at its server.
    """
    t, c = np.divmod(np.arange(steps * n), n)
    trigger = c * (steps + 1) + t
    src = (c + t) % n
    return CollectivePolicy.from_columns(
        trigger, trigger + 1, src, (src + 1) % n,
        np.full(steps * n, chunk_packets), np.arange(n) * (steps + 1),
        label=label,
    )


def all_reduce_ring(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Ring all-reduce: reduce-scatter then all-gather, ``2(n-1)`` hops.

    The vector is split into ``n`` chunks; chunk ``c`` starts at server
    ``c`` and travels the logical ring ``c -> c+1 -> ...`` for ``n-1``
    accumulation hops (reduce-scatter) followed by ``n-1`` distribution
    hops (all-gather).  Every hop is its own chunk *state* — the hop-``t``
    transfer fires only when hop ``t-1`` has fully arrived, which is
    exactly the algorithm's dependency chain.
    """
    n = int(n_servers)
    if n < 2:
        raise ValueError("ring all-reduce needs at least 2 servers")
    return _ring(n, 2 * n - 2, chunk_packets, f"allreduce_ring(n={n})")


def all_reduce_tree(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Tree all-reduce: reduce up a binary tree, broadcast back down.

    Servers form an implicit binary heap (children of ``v`` are
    ``2v+1``/``2v+2``, root 0).  The reduce phase sends each subtree's
    partial sum to its parent — an interior node owns its partial (state
    ``v``) only when *both* children have fully arrived (fan-in via two
    entries producing one state).  The broadcast phase fans the rooted
    result back out, one entry per edge consuming the parent's ownership
    independently (fan-out); server ``v`` owns the result as state
    ``n+v``, and the root broadcasts from its own partial, state 0.
    """
    n = int(n_servers)
    if n < 2:
        raise ValueError("tree all-reduce needs at least 2 servers")
    up = np.arange(n - 1, 0, -1)  # bottom-up
    down = np.arange(1, n)  # children in heap order
    up_parent, down_parent = (up - 1) // 2, (down - 1) // 2
    # A leaf owns its own contribution from the start; interior nodes
    # derive ownership from their children's arrivals.
    return CollectivePolicy.from_columns(
        np.concatenate([up, np.where(down_parent == 0, 0, n + down_parent)]),
        np.concatenate([up_parent, n + down]),
        np.concatenate([up, down_parent]),
        np.concatenate([up_parent, down]),
        np.full(2 * (n - 1), chunk_packets),
        np.arange(n // 2, n),
        label=f"allreduce_tree(n={n})",
    )


def all_gather_ring(n_servers: int, *, chunk_packets: int = 1) -> CollectivePolicy:
    """Ring all-gather: every server's chunk rotates ``n-1`` hops."""
    n = int(n_servers)
    if n < 2:
        raise ValueError("ring all-gather needs at least 2 servers")
    return _ring(n, n - 1, chunk_packets, f"allgather_ring(n={n})")


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


#: Entries of each registered collective's policy on ``n`` servers, in
#: closed form, so a sweep can size a policy before it builds one.
_ENTRY_COUNTS: dict[str, Callable[[int], int]] = {
    "allreduce_ring": lambda n: 2 * (n - 1) * n,
    "allreduce_tree": lambda n: 2 * (n - 1),
    "allgather_ring": lambda n: (n - 1) * n,
}

#: The largest policy a collective sweep builds.  A 2 048-server ring
#: all-reduce (8 384 512 entries) builds and validates in about 10 s at
#: 2.2 GB peak RSS (about 260 B an entry, 2-CPU x86-64 host, py3.11);
#: the 4 096-server one (33.5 M entries) would need about 8.7 GB.
MAX_ENTRIES = 1 << 23


class CollectiveTooLarge(ValueError):
    """A collective's policy has more than :data:`MAX_ENTRIES` entries."""


def collective_entries(name: str, n_servers: int) -> int:
    """Entries of collective ``name``'s policy on ``n_servers`` servers,
    without building it."""
    key = COLLECTIVES.canonical(name)
    try:
        count = _ENTRY_COUNTS[key]
    except KeyError:
        # Registry drift guard: a collective added to COLLECTIVES also
        # needs its entry count here.
        raise RuntimeError(
            f"collective {key!r} has no entry count in collective_entries"
        ) from None
    return count(int(n_servers))


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
        self._src = policy.src.tolist()
        self._dst = policy.dst.tolist()
        self._packets = policy.packets.tolist()
        #: Deliveries outstanding per entry.
        self._remaining = policy.packets.tolist()
        self._n_entries = len(policy)
        #: Live-entry FIFO per (src, dst) flow for delivery attribution.
        self._live: dict[tuple[int, int], deque[int]] = defaultdict(deque)
        self._dag = DagRun(policy, self._fire)

    def _fire(self, entries: list[int]) -> None:
        for i in entries:
            src, dst, packets = self._src[i], self._dst[i], self._packets[i]
            self._pending[src].extend([dst] * packets)
            self._pending_n[src] += packets
            self._live[(src, dst)].append(i)

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
        return self._n_complete == self._n_entries

    @property
    def total_packets(self) -> int:
        return self.policy.total_packets + self.retransmitted
