"""Link-fault models: random sequences and the paper's structured shapes.

Two fault scenarios are evaluated in the paper (§6):

1. **Random sequences** — links fail one by one uniformly at random
   (Figure 1 runs them to disconnection; Figure 6 uses steps of 10 up to
   100 faults while keeping the network connected).
2. **Structured shapes** — all links inside a geometric region fail
   simultaneously (Figure 7):

   * 2D: *Row* (a full K_16 row, 120 links), *Subplane* (a K_5^2 block,
     100 links) and *Cross* (two K_11 cliques through a common center with
     a margin, 110 links).
   * 3D: *Row* (K_8, 28 links), *Subcube* (K_3^3, 81 links) and *Star*
     (three K_7 cliques through the root, 63 links, leaving the root with
     exactly one live link per dimension).

   All shapes are parameterised here so that scaled-down topologies use the
   same constructions; at paper scale the link counts match the paper
   exactly (validated by tests).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ..seeding import as_generator
from .base import Link, Network, Topology, normalize_link
from .hyperx import HyperX


# ----------------------------------------------------------------------
# Random fault sequences
# ----------------------------------------------------------------------
def random_fault_sequence(
    topology: Topology,
    n_faults: int,
    rng: np.random.Generator | int | None = None,
) -> list[Link]:
    """A uniformly random sequence of ``n_faults`` distinct links.

    The order matters: prefixes of the sequence are the cumulative fault
    sets used by the Figure 1 and Figure 6 sweeps.
    """
    rng = as_generator(rng)
    links = topology.links()
    if n_faults > len(links):
        raise ValueError(f"cannot fail {n_faults} of {len(links)} links")
    idx = rng.choice(len(links), size=n_faults, replace=False)
    return [links[i] for i in idx]


def random_connected_fault_sequence(
    topology: Topology,
    n_faults: int,
    rng: np.random.Generator | int | None = None,
    max_tries: int = 10_000,
) -> list[Link]:
    """Random fault sequence whose every prefix keeps the network connected.

    Mirrors the Figure 6 scenario, where throughput is measured after each
    batch of faults, which requires a connected network throughout.  Links
    that would disconnect the network are skipped and another candidate is
    drawn.
    """
    rng = as_generator(rng)
    sequence: list[Link] = []
    network = Network(topology)
    remaining = topology.links()  # sorted, and stays so as links leave it
    tries = 0
    while len(sequence) < n_faults:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not extend connected fault sequence past {len(sequence)} faults"
            )
        if not remaining:
            raise ValueError("no links left to fail")
        i = int(rng.integers(len(remaining)))
        network.apply_fault(remaining[i])
        if network.is_connected:
            sequence.append(remaining.pop(i))
        else:
            network.restore_link(remaining[i])
    return sequence


# ----------------------------------------------------------------------
# Structured fault shapes (Figure 7 and its 3D analogues)
# ----------------------------------------------------------------------
def _clique_links(switches: Sequence[int], topology: Topology) -> list[Link]:
    """All healthy links with both endpoints in ``switches``."""
    have = topology.link_tables.index
    out = []
    for a, b in combinations(sorted(set(switches)), 2):
        link = normalize_link(a, b)
        if link in have:
            out.append(link)
    return sorted(out)


def row_switches(hx: HyperX, dim: int, fixed: Sequence[int]) -> list[int]:
    """Switches of the row varying along ``dim`` with other coords ``fixed``.

    ``fixed`` gives the coordinates of the *other* dimensions in increasing
    dimension order, e.g. for a 3D HyperX and ``dim=1``, ``fixed=(x0, x2)``.
    """
    fixed = list(fixed)
    if len(fixed) != hx.n_dims - 1:
        raise ValueError(f"expected {hx.n_dims - 1} fixed coordinates, got {len(fixed)}")
    out = []
    for v in range(hx.sides[dim]):
        coords = fixed[:dim] + [v] + fixed[dim:]
        out.append(hx.switch_id(coords))
    return out


def row_faults(hx: HyperX, dim: int = 0, fixed: Sequence[int] | None = None) -> list[Link]:
    """*Row* shape: every link between two switches of one row fails.

    At paper scale this removes a K_16 (120 links) in 2D or a K_8
    (28 links) in 3D.
    """
    if fixed is None:
        fixed = (0,) * (hx.n_dims - 1)
    return _clique_links(row_switches(hx, dim, fixed), hx)


def block_switches(hx: HyperX, corner: Sequence[int], sizes: Sequence[int]) -> list[int]:
    """Switches of an axis-aligned block ``corner + [0, sizes)`` (wrapping)."""
    if len(corner) != hx.n_dims or len(sizes) != hx.n_dims:
        raise ValueError("corner/sizes must have one entry per dimension")
    ranges = [
        [(c + o) % k for o in range(sz)]
        for c, sz, k in zip(corner, sizes, hx.sides)
    ]
    out: list[int] = []

    def rec(dim: int, coords: list[int]) -> None:
        if dim == hx.n_dims:
            out.append(hx.switch_id(coords))
            return
        for v in ranges[dim]:
            rec(dim + 1, coords + [v])

    rec(0, [])
    return out


def subplane_faults(
    hx: HyperX, corner: Sequence[int] | None = None, side: int = 5
) -> list[Link]:
    """*Subplane* (2D) / *Subcube* (3D) shape: a K_side^n block fails.

    Removes every link internal to an axis-aligned ``side^n`` block of
    switches: 100 links for the paper's 2D ``K_5^2`` and 81 links for the
    3D ``K_3^3`` (use ``side=3``).
    """
    if corner is None:
        corner = (0,) * hx.n_dims
    if side > min(hx.sides):
        raise ValueError(f"block side {side} exceeds topology side {min(hx.sides)}")
    return _clique_links(block_switches(hx, corner, (side,) * hx.n_dims), hx)


def subcube_faults(
    hx: HyperX, corner: Sequence[int] | None = None, side: int = 3
) -> list[Link]:
    """Alias of :func:`subplane_faults` with the 3D paper default side 3."""
    return subplane_faults(hx, corner, side)


def cross_faults(
    hx: HyperX, center: Sequence[int] | None = None, arm: int | None = None
) -> list[Link]:
    """*Cross* (2D) / *Star* (3D) shape: per-dimension cliques through a center.

    For each dimension, the complete subgraph induced by the center switch
    and ``arm - 1`` row-mates fails.  The center keeps exactly one live link
    per dimension (towards the row-mates outside the clique), which is the
    paper's "margin to prevent disconnecting its center".

    Paper-scale link counts: 2D ``arm=11`` gives ``2*C(11,2) = 110`` links;
    3D ``arm=7`` gives ``3*C(7,2) = 63`` links with the root keeping 3 live
    links.  Defaults reproduce those counts when the topology side allows,
    otherwise ``arm = side - 1`` (keeping the one-link margin).
    """
    if center is None:
        center = tuple(k // 2 for k in hx.sides)
    center = tuple(center)
    cid = hx.switch_id(center)
    out: set[Link] = set()
    for dim, k in enumerate(hx.sides):
        a = arm if arm is not None else min(11 if hx.n_dims == 2 else 7, k - 1)
        if a < 2:
            raise ValueError("cross arm must span at least 2 switches")
        if a > k - 1:
            raise ValueError(
                f"arm {a} leaves no margin in dimension {dim} (side {k}); "
                "the center would be disconnected"
            )
        members = [cid]
        fixed = [c for i, c in enumerate(center) if i != dim]
        row = row_switches(hx, dim, fixed)
        for v in range(1, a):
            members.append(row[(center[dim] + v) % k])
        out.update(_clique_links(members, hx))
    return sorted(out)


def star_faults(
    hx: HyperX, center: Sequence[int] | None = None, arm: int | None = None
) -> list[Link]:
    """Alias of :func:`cross_faults`; the paper calls the 3D variant *Star*."""
    return cross_faults(hx, center, arm)


def shape_root(hx: HyperX, shape: str, **kwargs) -> int:
    """The escape-subnetwork root the paper pairs with each fault shape.

    The paper stresses SurePath by putting the Up/Down root *inside* the
    faulty region: the cross/star center, a row member, or the block corner.
    """
    if shape in ("cross", "star"):
        center = kwargs.get("center") or tuple(k // 2 for k in hx.sides)
        return hx.switch_id(center)
    if shape == "row":
        dim = kwargs.get("dim", 0)
        fixed = kwargs.get("fixed") or (0,) * (hx.n_dims - 1)
        return row_switches(hx, dim, fixed)[0]
    if shape in ("subplane", "subcube"):
        corner = kwargs.get("corner") or (0,) * hx.n_dims
        return hx.switch_id(corner)
    raise ValueError(f"unknown fault shape {shape!r}")


def shape_faults(hx: HyperX, shape: str, **kwargs) -> list[Link]:
    """Dispatch by shape name: row, subplane, subcube, cross, star."""
    if shape == "row":
        return row_faults(hx, kwargs.get("dim", 0), kwargs.get("fixed"))
    if shape == "subplane":
        return subplane_faults(hx, kwargs.get("corner"), kwargs.get("side", 5))
    if shape == "subcube":
        return subcube_faults(hx, kwargs.get("corner"), kwargs.get("side", 3))
    if shape in ("cross", "star"):
        return cross_faults(hx, kwargs.get("center"), kwargs.get("arm"))
    raise ValueError(f"unknown fault shape {shape!r}")


def switch_faults(topology: Topology, switches: Sequence[int]) -> list[Link]:
    """All links incident to the given switches (switch-failure model).

    The paper's reliability framing (§1) covers "link or switch failures";
    a dead switch manifests as every one of its links failing.  Note that
    the dead switches themselves become isolated — analyses should restrict
    to the surviving component (see
    :func:`repro.topology.graph.connected_components`).
    """
    dead = set(switches)
    for s in dead:
        if not 0 <= s < topology.n_switches:
            raise ValueError(f"switch {s} out of range")
    return sorted(link for link in topology.links() if link[0] in dead or link[1] in dead)


def random_switch_fault_sequence(
    topology: Topology,
    n_faults: int,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """A uniformly random sequence of ``n_faults`` distinct switches."""
    rng = as_generator(rng)
    if n_faults > topology.n_switches:
        raise ValueError(
            f"cannot fail {n_faults} of {topology.n_switches} switches"
        )
    return [int(s) for s in rng.choice(topology.n_switches, n_faults, replace=False)]


def apply_faults(topology: Topology, faults: Iterable[Link]) -> Network:
    """Convenience: build a :class:`Network` with the given faults."""
    return Network(topology, faults)
