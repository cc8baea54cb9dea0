"""Route bodies read distances through flat views that follow the topology.

``PolarizedRoutes``, ``MinimalRoutes``, ``ValiantRoutes`` and
``EscapeSubnetwork`` read their distance matrices through flat typed
``memoryview`` s (``matrix[a, b]`` is ``view[a * n + b]``) rebuilt with
the matrices on every topology event.  This module re-derives every
answer with numpy indexing on the matrices themselves, for every
``(current, src, dst)`` (and escape phase), healthy, after a link
failure and after its repair: a view left over from the old topology
disagrees with the fresh matrix on the failed link's endpoints.  A
memoryview cannot be pickled, so copies re-bind their views.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.routing.base import NO_PENALTY
from repro.routing.catalog import make_mechanism
from repro.routing.polarized import PENALTY_BY_DELTA_MU
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.updown.escape import (
    DOWN_PENALTY,
    PHASE_CLIMB,
    PHASE_DESCEND,
    UP_PENALTY,
    shortcut_penalty,
)

from _helpers import make_packet

FAMILIES = {
    "hyperx": lambda: HyperX((4, 4), 1),
    "torus": lambda: make_topology("torus", side=5, servers_per_switch=1),
}


def _ref_ports(net, pkt, current):
    """Polarized hops at ``current``, by numpy indexing on the matrix."""
    dist = net.distances
    out = []
    for port, nbr in net.live_ports[current]:
        ds = int(dist[nbr, pkt.src_switch]) - int(dist[current, pkt.src_switch])
        dt = int(dist[nbr, pkt.dst_switch]) - int(dist[current, pkt.dst_switch])
        dmu = ds - dt
        if dmu < 0 or (dmu == 0 and (ds, pkt.closer) not in ((1, True), (-1, False))):
            continue
        out.append((port, nbr, PENALTY_BY_DELTA_MU[dmu]))
    return out


def _ref_escape(esc, current, target, phase):
    """Escape hops at ``current``, by numpy indexing on the tables."""
    if current == target:
        return []
    da, db, ud = esc.dist_a, esc.dist_b, esc.udist
    out = []
    for port, nbr in esc.network.live_ports[current]:
        kind = esc.link_kind[current][port]
        if phase == PHASE_DESCEND:
            if kind < 0 and db[nbr, target] < db[current, target]:
                out.append((port, nbr, DOWN_PENALTY))
        elif kind > 0:
            if da[nbr, target] < da[current, target]:
                out.append((port, nbr, UP_PENALTY))
        elif kind < 0:
            if db[nbr, target] < da[current, target]:
                out.append((port, nbr, DOWN_PENALTY))
        elif db[nbr, target] < da[current, target]:
            cut = max(1, int(ud[current, target]) - int(ud[nbr, target]))
            out.append((port, nbr, shortcut_penalty(cut)))
    return out


def _ref_minimal(net, current, target):
    dist = net.distances
    return [
        port for port, nbr in net.live_ports[current]
        if dist[nbr, target] == dist[current, target] - 1
    ]


def _mechanisms(net):
    return (
        make_mechanism("PolSP", net, 4),
        make_mechanism("Minimal", net, 4),
        make_mechanism("Valiant", net, 4, rng=0),
    )


def _check(net, polsp, minimal, valiant):
    n = net.n_switches
    esc = polsp.escape
    for current in range(n):
        for dst in range(n):
            for phase in (PHASE_CLIMB, PHASE_DESCEND):
                if phase == PHASE_DESCEND and esc.dist_b[current, dst] >= n:
                    continue  # no pure descent from here
                assert esc.candidates(current, dst, phase) == _ref_escape(
                    esc, current, dst, phase
                ), (current, dst, phase)
            if current == dst:
                continue
            want = [(port, 0, NO_PENALTY) for port in _ref_minimal(net, current, dst)]
            pkt = make_packet(net, current, dst)
            minimal.init_packet(pkt)
            assert minimal.candidates(pkt, current) == [
                (port, vc, pen) for port, _vc, pen in want for vc in (0, 1)
            ], (current, dst)
            valiant.init_packet(pkt)
            pkt.phase = 1  # heading for dst
            assert valiant.candidates(pkt, current) == want, (current, dst)
            for src in range(n):
                pkt = make_packet(net, src, dst)
                polsp.routes.refresh_packet(pkt, current)
                assert pkt.closer == bool(
                    net.distances[current, src] < net.distances[current, dst]
                )
                for closer in (True, False):
                    pkt.closer = closer
                    assert polsp.routes.ports(pkt, current) == _ref_ports(
                        net, pkt, current
                    ), (current, src, dst, closer)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_route_views_follow_fail_and_repair(family):
    topo = FAMILIES[family]()
    net = Network(topo)
    mechs = _mechanisms(net)
    healthy = net.distances.copy()
    _check(net, *mechs)
    (link,) = random_connected_fault_sequence(topo, 1, rng=3)
    net.apply_fault(link)
    for mech in mechs:
        mech.on_topology_change()
    assert not np.array_equal(net.distances, healthy)
    _check(net, *mechs)
    net.restore_link(link)
    for mech in mechs:
        mech.on_topology_change()
    assert np.array_equal(net.distances, healthy)
    _check(net, *mechs)


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"],
)
def test_copies_rebind_their_views(clone):
    net = Network(FAMILIES["torus"]())
    net2, *mechs = clone((net, *_mechanisms(net)))
    _check(net2, *mechs)
