"""Opportunistic Up/Down escape subnetwork (paper §3.2).

The escape subnetwork is SurePath's deadlock-avoidance and fault-tolerance
device.  Its construction, following AutoNet's Up*/Down* enriched with
shortcuts:

1. Pick a root switch ``r`` and run a BFS from it over live links.
2. Classify every live link ``(x, y)``: **Up/Down (black)** when
   ``d(x, r) != d(y, r)``, **horizontal (red)** otherwise.
3. Black links induce the **Up/Down distance** ``udist(x, y)``: the length
   of the shortest path made of an *up* subpath (every hop closer to the
   root) followed by a *down* subpath (every hop further).  Such a path
   always exists while the network is connected, so ``udist`` is finite.
4. Red links are used *opportunistically* as shortcuts when they cut the
   remaining escape distance, with penalties by how much they cut it
   (1 -> 80, 2 -> 64, >= 3 -> 48 phits); black links carry the tree
   penalties (Up 112, Down 96 phits).

**Deadlock-freedom (and one deliberate deviation).**  The paper offers as
escape candidate *any* link that reduces the Up/Down distance to the
destination.  Reproducing that rule verbatim yields cyclic channel
dependencies — chains of same-level shortcuts can close rings — and this
simulator does reach those deadlocks under extreme load on heavily faulted
networks (see ``tests/updown/test_deadlock_freedom.py``).  We therefore
restrict escape routes to the canonical shape

    up* [shortcut] down*

i.e. a climb, at most one horizontal hop, then a descent.  Directed escape
channels then fall into three classes — UP (tail level strictly
decreasing), H (at most one per route, never followed by another H) and
DOWN (tail level strictly increasing) — and every escape-to-escape request
goes from a class to the same-or-later class, with each class internally
acyclic.  The whole request graph is thus acyclic and a cycle of full
escape buffers is impossible, with a single escape FIFO per port and
virtual cut-through, exactly the resource budget the paper claims.  In a
HyperX the restricted escape still contains every one-dimension minimal
route (rows are cliques, so the direct link is always up, down or one
shortcut) and still steers load away from the root; what it loses are the
chained-shortcut multi-dimension minimal routes, for which it pays one
extra up/down hop.  README.md ("Key substitutions") records the
substitution.

The implementation is table-driven exactly as the paper suggests: two
distance matrices indexed (current, target) — the *full escape distance*
``dist_a`` (up* [h] down* paths, for packets that may still climb) and the
*pure-descent distance* ``dist_b`` (down* only, for packets past their
apex) — plus per-link colours ``sign(level[s] - level[neighbour])``.  The
distances are BFS levels over (switch, phase) states, computed by the
same bit-parallel kernel as the plain distance matrix
(:func:`repro.topology.graph.bitset_distances`): per switch ``c`` a
bitset of reachable target switches for each family of routes,

    D_k[c] = {c} | OR_down D_{k-1}                           (down*)
    U_k[c] = {c} | OR_up U_{k-1} | OR_down D_{k-1}           (up* down*)
    A_k[c] = {c} | OR_up A_{k-1} | OR_{down, horiz} D_{k-1}  (up* [h] down*)

each OR ranging over the neighbours of ``c`` on links of that colour.
``D`` gives ``dist_b``, ``U`` the classic Up/Down distance ``udist`` and
``A`` (equal to ``U`` when shortcuts are off) ``dist_a``; the three
families are rows of one successor array, so ``D`` is advanced once and
shared, and full paper-scale networks are cheap to (re)build after every
fault event.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import Network
from ..topology.graph import (
    UNREACHABLE,
    FlatViews,
    NetworkDisconnected,
    bfs_distances,
    bitset_distances,
)

#: Penalties in phits (paper §3.2): black tree links and red shortcuts.
UP_PENALTY = 112
DOWN_PENALTY = 96
SHORTCUT_PENALTIES = {1: 80, 2: 64}  # reduction >= 3 -> 48
SHORTCUT_PENALTY_FLOOR = 48

#: Escape route phases: CLIMB may still go up; DESCEND only goes down.
PHASE_CLIMB = 0
PHASE_DESCEND = 1

#: Large sentinel for unreachable (infinite) pure-descent distances.
NO_PATH = np.int32(2**30)


def shortcut_penalty(reduction: int) -> int:
    """Penalty of a red (horizontal) link cutting ``reduction`` escape hops."""
    if reduction <= 0:
        raise ValueError("shortcuts must strictly reduce the escape distance")
    return SHORTCUT_PENALTIES.get(reduction, SHORTCUT_PENALTY_FLOOR)


class EscapeSubnetwork(FlatViews):
    """Routing tables of the opportunistic Up/Down escape subnetwork.

    Parameters
    ----------
    network:
        The (possibly faulty) network; must be connected.
    root:
        Root switch of the Up/Down layering.  The paper picks an arbitrary
        switch, noting that heavily faulted switches make poor roots; the
        fault-shape experiments deliberately root inside the faulty region.
    shortcuts:
        Enable the opportunistic horizontal links.  Disabling them yields
        the classic AutoNet Up*/Down* escape — the ablation baseline whose
        "marginal throughput of a tree" the paper's shortcuts fix.

    :meth:`candidates` reads the three distance matrices through flat
    views (:class:`~repro.topology.graph.FlatViews`).
    """

    FLAT = {"_da": "dist_a", "_db": "dist_b", "_ud": "udist"}

    def __init__(self, network: Network, root: int = 0, shortcuts: bool = True):
        if not 0 <= root < network.n_switches:
            raise ValueError(f"root {root} out of range")
        self.network = network
        self.root = int(root)
        self.shortcuts = bool(shortcuts)
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)compute every table from the network's current live links.

        This is the paper's reconfiguration story: the Up/Down layering and
        both phase-distance matrices come from BFS over the network's *live*
        links, so a link failure or repair only needs this one rebuild (same
        root).  The network must still be connected — SurePath's guarantee
        covers every fault set short of disconnection.
        """
        network = self.network
        n, nbr = network.n_switches, network.nbr
        level = bfs_distances(network, self.root)
        if (level == UNREACHABLE).any():
            raise NetworkDisconnected(
                "escape subnetwork requires a connected network; "
                "disconnected fault sets cannot be escaped"
            )
        #: BFS level of every switch (distance to the root).
        self.root_distance: np.ndarray = level

        # Link colours, indexed [switch][port]: +1 up (towards root),
        # -1 down (away from root), 0 red/horizontal; dead ports get 0 but
        # never appear among live_ports so the value is moot.
        kind = np.where(nbr >= 0, np.sign(level[:, None] - level[nbr]), 0)
        self.link_kind: list[list[int]] = [
            kinds[: len(ports)]
            for kinds, ports in zip(kind.tolist(), network.port_neighbour)
        ]

        # Successors of the (switch, family) states, families stacked as
        # rows D | U | A (see the module docstring): state (c, D) is row c,
        # (c, U) row n + c, (c, A) row 2n + c.  An up move stays in its own
        # family; a down move — and from A the one horizontal move —
        # continues in D.
        down = np.where(kind < 0, nbr, -1)
        families = [down, np.where(kind > 0, nbr + n, down)]
        if self.shortcuts:
            families.append(np.where(kind > 0, nbr + 2 * n, nbr))
        dist = bitset_distances(
            np.concatenate(families), np.tile(np.arange(n), len(families)), n
        )
        if (dist[n:] == UNREACHABLE).any():
            raise AssertionError(
                "connected network has unreachable escape pairs; "
                "the layered BFS construction is broken"
            )
        # Drop the old views first: each old matrix is then freed as
        # soon as its successor is assigned, not after all three.
        for view in self.FLAT:
            self.__dict__.pop(view, None)
        #: Pure-descent distance (down* only); ``NO_PATH`` where none exists.
        self.dist_b: np.ndarray = np.where(dist[:n] == UNREACHABLE, NO_PATH, dist[:n])
        #: Classic Up/Down distance over black links only (analysis/tests).
        self.udist: np.ndarray = dist[n : 2 * n].copy()
        #: Full escape distance (up* [shortcut] down*).
        self.dist_a: np.ndarray = dist[-n:].astype(np.int32)
        self._bind_flat()

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidates(
        self, current: int, target: int, phase: int = PHASE_CLIMB
    ) -> list[tuple[int, int, int]]:
        """Escape candidates ``(port, neighbour, penalty)`` at ``current``.

        ``phase`` is the packet's escape phase: :data:`PHASE_CLIMB` for
        packets that have not yet taken a shortcut or down hop (including
        every packet still outside the escape subnetwork) and
        :data:`PHASE_DESCEND` afterwards.  Every hop strictly reduces the
        phase-aware remaining distance, so escape routes terminate; the
        list is non-empty whenever ``current != target``.
        """
        if current == target:
            return []
        n = self._n
        da = self._da
        db = self._db
        kinds = self.link_kind[current]
        out: list[tuple[int, int, int]] = []
        if phase == PHASE_CLIMB:
            here = da[current * n + target]
            ud = self._ud
            ud_here = ud[current * n + target]
            for port, nbr in self.network.live_ports[current]:
                kind = kinds[port]
                col = nbr * n + target
                if kind > 0:  # up: stay in climb phase
                    if da[col] < here:
                        out.append((port, nbr, UP_PENALTY))
                elif kind < 0:  # down: enter descend phase
                    if db[col] < here:
                        out.append((port, nbr, DOWN_PENALTY))
                else:  # shortcut: the single horizontal hop, then descend
                    if self.shortcuts and db[col] < here:
                        # Penalty graded by the paper's metric: how much the
                        # classic Up/Down distance shrinks across the link.
                        reduction = max(1, ud_here - ud[col])
                        out.append((port, nbr, shortcut_penalty(reduction)))
        else:
            here = db[current * n + target]
            for port, nbr in self.network.live_ports[current]:
                if kinds[port] < 0 and db[nbr * n + target] < here:
                    out.append((port, nbr, DOWN_PENALTY))
        if not out:
            raise AssertionError(
                f"escape subnetwork has no candidate from {current} "
                f"(phase {phase}) to {target}; tables are inconsistent"
            )
        return out

    def next_phase(self, current: int, port: int, phase: int) -> int:
        """Escape phase after taking ``port`` out of ``current``."""
        if phase == PHASE_DESCEND:
            return PHASE_DESCEND
        return PHASE_CLIMB if self.link_kind[current][port] > 0 else PHASE_DESCEND

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def route_length_bound(self) -> int:
        """Upper bound on escape route lengths (max escape distance)."""
        return int(self.dist_a.max())

    def n_black_links(self) -> int:
        """Number of Up/Down (tree-ish) links."""
        level = self.root_distance
        return sum(1 for a, b in self.network.live_links() if level[a] != level[b])

    def n_red_links(self) -> int:
        """Number of horizontal (shortcut) links."""
        level = self.root_distance
        return sum(1 for a, b in self.network.live_links() if level[a] == level[b])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EscapeSubnetwork(root={self.root}, black={self.n_black_links()},"
            f" red={self.n_red_links()}, max_dist={int(self.dist_a.max())})"
        )
