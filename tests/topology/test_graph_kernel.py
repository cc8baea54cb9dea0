"""Generated differential tests for the bit-parallel BFS kernel.

Every consumer of :func:`repro.topology.graph.bitset_distances` — the
plain distance functions and the escape subnetwork's layered tables — is
compared, element for element and dtype for dtype, with textbook
``deque`` searches written here: over switches for the distances, over
explicit ``(switch, phase)`` states for the escape tables.  The generated
networks cover every topology family, fault subsets up to and past
disconnection, isolated switches and the network with no live link; the
pinned sizes put the switch count on, just past and well past a 64-bit
word boundary of the kernel's packed rows.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.base import Network, normalize_link
from repro.topology.custom import ExplicitTopology, ring_topology
from repro.topology.dragonfly import balanced_dragonfly
from repro.topology.fattree import FatTree
from repro.topology.graph import (
    UNREACHABLE,
    NetworkDisconnected,
    all_pairs_distances,
    bfs_distances,
    connected_components,
    is_connected,
)
from repro.topology.hyperx import HyperX
from repro.topology.random_regular import RandomRegular
from repro.topology.torus import Torus
from repro.updown.escape import NO_PATH, PHASE_CLIMB, PHASE_DESCEND, EscapeSubnetwork


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def live_adjacency(net: Network) -> list[list[int]]:
    """Adjacency lists from the topology and the fault set alone."""
    topo = net.topology
    return [
        [t for t in topo.neighbours(s) if normalize_link(s, t) not in net.faults]
        for s in range(topo.n_switches)
    ]


def ref_bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [UNREACHABLE] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def ref_components(adj: list[list[int]]) -> list[int]:
    """Labels numbered in order of each component's lowest switch."""
    label = [-1] * len(adj)
    n_labels = 0
    for s in range(len(adj)):
        if label[s] < 0:
            for t, d in enumerate(ref_bfs(adj, s)):
                if d != UNREACHABLE:
                    label[t] = n_labels
            n_labels += 1
    return label


def ref_escape(adj: list[list[int]], level: list[int], shortcuts: bool):
    """``(dist_a, dist_b)`` by BFS over explicit (switch, phase) states."""
    n = len(adj)

    def moves(state):
        s, phase = state
        for t in adj[s]:
            if level[t] > level[s]:
                yield (t, PHASE_DESCEND)
            elif phase == PHASE_CLIMB and level[t] < level[s]:
                yield (t, PHASE_CLIMB)
            elif phase == PHASE_CLIMB and shortcuts and level[t] == level[s]:
                yield (t, PHASE_DESCEND)

    def search(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in moves(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    dist_a = np.full((n, n), NO_PATH, dtype=np.int64)
    dist_b = np.full((n, n), NO_PATH, dtype=np.int64)
    for c in range(n):
        for (t, _phase), d in search((c, PHASE_CLIMB)).items():
            dist_a[c, t] = min(dist_a[c, t], d)
        for (t, _phase), d in search((c, PHASE_DESCEND)).items():
            dist_b[c, t] = d
    return dist_a, dist_b


def check_distances(net: Network, source: int) -> None:
    adj = live_adjacency(net)
    n = len(adj)
    rows = [ref_bfs(adj, s) for s in range(n)]

    apd = all_pairs_distances(net)
    assert apd.dtype == np.int16 and apd.shape == (n, n)
    assert apd.tolist() == rows

    one = bfs_distances(net, source)
    assert one.dtype == np.int16 and one.shape == (n,)
    assert one.tolist() == rows[source]

    assert is_connected(net) is (UNREACHABLE not in rows[0])
    labels = connected_components(net)
    assert labels.dtype == np.int32
    assert labels.tolist() == ref_components(adj)


def check_escape(net: Network, roots) -> None:
    adj = live_adjacency(net)
    n = len(adj)
    if UNREACHABLE in ref_bfs(adj, 0):
        with pytest.raises(NetworkDisconnected):
            EscapeSubnetwork(net, 0)
        return
    for root in roots:
        level = ref_bfs(adj, root)
        kind = [
            [0 if t < 0 else int(np.sign(level[s] - level[t])) for t in net.port_neighbour[s]]
            for s in range(n)
        ]
        udist, _ = ref_escape(adj, level, shortcuts=False)
        for shortcuts in (True, False):
            esc = EscapeSubnetwork(net, root, shortcuts=shortcuts)
            dist_a, dist_b = ref_escape(adj, level, shortcuts)
            assert esc.root_distance.dtype == np.int16
            assert esc.root_distance.tolist() == level
            assert esc.link_kind == kind
            assert esc.dist_a.dtype == np.int32 and np.array_equal(esc.dist_a, dist_a)
            assert esc.dist_b.dtype == np.int32 and np.array_equal(esc.dist_b, dist_b)
            assert esc.udist.dtype == np.int16 and np.array_equal(esc.udist, udist)


# ----------------------------------------------------------------------
# Generated networks
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def build(family: str, a: int, b: int):
    if family == "hyperx":
        return HyperX((a, b), 1)
    if family == "torus":
        return Torus((a, b), 1)
    if family == "mesh":
        return Torus((a, b), 1, wrap=False)
    if family == "fattree":
        return FatTree(2 + 2 * (a % 2))
    if family == "dragonfly":
        return balanced_dragonfly(1 + a % 2)
    if family == "random":
        return RandomRegular(2 * (a + b), 3, seed=a)
    # explicit: a sparse random graph, healthy yet possibly disconnected
    # and with isolated switches of its own.
    n = 3 * a + b
    rng = np.random.default_rng(100 * a + b)
    edges = {normalize_link(*rng.choice(n, 2, replace=False).tolist()) for _ in range(n)}
    return ExplicitTopology.from_edges(n, sorted(edges))


FAMILIES = ("hyperx", "torus", "mesh", "fattree", "dragonfly", "random", "explicit")


@st.composite
def networks(draw):
    topo = build(
        draw(st.sampled_from(FAMILIES)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    )
    links = topo.links()
    shape = draw(st.sampled_from(("subset", "isolate", "all")))
    if shape == "all" or not links:
        faults = links
    else:
        faults = draw(st.lists(st.sampled_from(links), unique=True))
        if shape == "isolate":
            lonely = draw(st.integers(0, topo.n_switches - 1))
            faults = sorted(set(faults) | {link for link in links if lonely in link})
    net = Network(topo, faults)
    return net, draw(st.integers(0, topo.n_switches - 1))


@settings(max_examples=120, deadline=None)
@given(networks())
def test_distances_match_deque_bfs(case):
    net, source = case
    check_distances(net, source)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_escape_tables_match_layered_bfs(case):
    net, source = case
    check_escape(net, {0, source, net.n_switches - 1})


# ----------------------------------------------------------------------
# Word-boundary sizes of the packed rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "topo",
    [
        HyperX((8, 8), 1), HyperX((5, 13), 1), ring_topology(70),
        HyperX((3, 43), 1), Torus((15, 9), 1),
    ],
    ids=["S=64", "S=65", "S=70-ring", "S=129", "S=135"],
)
@pytest.mark.parametrize("fraction", [0.0, 0.2, 0.6])
def test_word_boundaries(topo, fraction):
    links = topo.links()
    rng = np.random.default_rng(len(links))
    dead = rng.permutation(len(links))[: int(fraction * len(links))]
    net = Network(topo, [links[i] for i in dead])
    check_distances(net, topo.n_switches - 1)
    check_escape(net, (topo.n_switches - 1,))


def test_zero_live_links_and_single_switch():
    topo = HyperX((3, 3), 1)
    net = Network(topo, topo.links())
    assert net.live_links() == []
    check_distances(net, 4)
    assert connected_components(net).tolist() == list(range(9))

    lone = Network(ExplicitTopology([[]]))
    check_distances(lone, 0)
    check_escape(lone, (0,))
