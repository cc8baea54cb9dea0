"""Deadlock-freedom of the escape subnetwork.

Two layers of evidence, matching the analysis in the
``repro.updown.escape`` module docstring (README.md, "Key substitutions"):

1. **Structural**: the escape request graph over directed channels is
   acyclic.  Channels are classed UP / H / DOWN; requests must be
   class-monotone and each class internally acyclic (UP descends BFS
   levels, DOWN ascends, H is never followed by another H).  We build the
   exact request graph from the candidate tables and assert acyclicity
   with networkx.
2. **Empirical**: the naive rule the paper describes verbatim ("any link
   reducing the Up/Down distance") *does* produce dependency cycles — we
   keep a regression check asserting the phenomenon on the healthy 4x4
   HyperX, documenting why this reproduction restricts escape routes.
"""

import networkx as nx
import pytest

from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.updown.escape import PHASE_CLIMB, PHASE_DESCEND, EscapeSubnetwork


def escape_request_graph(esc: EscapeSubnetwork) -> nx.DiGraph:
    """Directed-channel request graph of the escape subnetwork.

    Node: directed channel (a, b, phase-the-packet-is-in-after-the-hop).
    Edge: a packet that crossed (a -> b) may next request (b -> c), for
    some destination t.
    """
    net = esc.network
    n = net.n_switches
    level = esc.root_distance
    g = nx.DiGraph()
    # Arrival phase is dictated by the hop type: up links keep CLIMB,
    # horizontal and down links leave the packet in DESCEND.
    for a, b in net.live_links():
        for x, y in ((a, b), (b, a)):
            arrival_phases = (
                (PHASE_CLIMB,) if level[y] < level[x] else (PHASE_DESCEND,)
            )
            for arrival_phase in arrival_phases:
                for t in range(n):
                    if t == y:
                        continue
                    try:
                        cands = esc.candidates(y, t, arrival_phase)
                    except AssertionError:
                        continue  # unreachable (descend with no path)
                    for port, c, _pen in cands:
                        nxt_phase = esc.next_phase(y, port, arrival_phase)
                        g.add_edge(
                            (x, y, arrival_phase), (y, c, nxt_phase)
                        )
    return g


def topologies():
    from repro.topology.fattree import FatTree
    from repro.topology.random_regular import RandomRegular
    from repro.topology.torus import Torus

    hx2 = HyperX((4, 4), 2)
    hx3 = HyperX((2, 3, 4), 1)
    torus = Torus((4, 4), 1)
    nets = [
        ("healthy-2d", Network(hx2)),
        ("healthy-mixed", Network(hx3)),
        (
            "faulty-2d",
            Network(hx2, random_connected_fault_sequence(hx2, 20, rng=3)),
        ),
        (
            "heavy-faulty-2d",
            Network(hx2, random_connected_fault_sequence(hx2, 30, rng=4)),
        ),
        # The diversity families: rings, tiers and irregular graphs have
        # none of HyperX's row cliques, so the acyclicity argument must
        # hold structurally, not by accident of the topology.
        ("torus", Network(torus)),
        (
            "faulty-torus",
            Network(torus, random_connected_fault_sequence(torus, 6, rng=5)),
        ),
        ("mesh", Network(Torus((3, 4), 1, wrap=False))),
        ("fattree", Network(FatTree(4))),
        ("random-regular", Network(RandomRegular(14, 3, 1, seed=2))),
    ]
    return nets


@pytest.mark.parametrize("label,net", topologies(), ids=lambda x: x if isinstance(x, str) else "")
def test_escape_request_graph_is_acyclic(label, net):
    for root in (0, net.n_switches // 2):
        esc = EscapeSubnetwork(net, root)
        g = escape_request_graph(esc)
        assert nx.is_directed_acyclic_graph(g), (
            f"escape request graph has a cycle ({label}, root {root})"
        )


def test_naive_udist_rule_has_cycles():
    """Regression: the paper's verbatim rule admits channel-dependency
    cycles even on the healthy network (why we restrict to up* [h] down*)."""
    net = Network(HyperX((4, 4), 2))
    esc = EscapeSubnetwork(net, 0)
    ud = esc.udist
    n = net.n_switches
    chans = [(a, b) for a, b in net.live_links()]
    chans += [(b, a) for a, b in net.live_links()]
    by_tail: dict[int, list] = {}
    for a, b in chans:
        by_tail.setdefault(a, []).append((a, b))
    g = nx.DiGraph()
    for a, b in chans:
        for b2, c in by_tail.get(b, []):
            for t in range(n):
                if t != b and ud[a, t] > ud[b, t] > ud[c, t]:
                    g.add_edge((a, b), (b, c))
                    break
    assert not nx.is_directed_acyclic_graph(g)


def test_phase_classes_are_monotone():
    """UP channels only feed climb-phase arrivals; once descending a packet
    never uses an up or horizontal link again."""
    net = Network(HyperX((4, 4), 2))
    esc = EscapeSubnetwork(net, 0)
    level = esc.root_distance
    g = escape_request_graph(esc)

    def channel_class(edge):
        x, y, phase = edge
        if level[y] < level[x]:
            return 0  # UP
        if level[y] == level[x]:
            return 1  # H
        return 2  # DOWN

    for u, v in g.edges:
        assert channel_class(u) <= channel_class(v)
