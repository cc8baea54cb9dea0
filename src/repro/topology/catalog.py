"""Topology registry: build any supported family by short name.

Mirrors :data:`repro.traffic.TRAFFIC_REGISTRY` / ``make_traffic``: sweeps,
the CLI and cache keys select topologies by a short string instead of
importing family classes, so adding a family is one registration here
plus its module (see the README's "adding a topology" recipe).

Every family builder takes only keyword parameters with small defaults,
so ``make_topology("torus")`` alone yields a CI-sized instance; the
experiment scales pick per-preset sizes through
:func:`repro.experiments.scales.scaled_topology`.
"""

from __future__ import annotations

from ..registry import Registry
from .base import Topology
from .dragonfly import balanced_dragonfly
from .fattree import FatTree
from .hyperx import HyperX
from .random_regular import RandomRegular
from .torus import Torus


def _dragonfly(*, h, servers_per_switch, **_):
    df = balanced_dragonfly(h)
    sps = servers_per_switch
    if sps is not None and sps != df.p:
        df = type(df)(a=df.a, p=sps, h=df.h)
    return df


#: The topology axis: canonical name -> keyword-only factory over the
#: full :func:`make_topology` parameter set (each family picks what it
#: needs and ignores the rest).  The paper's evaluation families first,
#: then the diversity library.
TOPOLOGY_REGISTRY = Registry("topology")
for _entry in (
    ("hyperx",
     lambda *, side, servers_per_switch, **_:
         HyperX((side, side), servers_per_switch),
     ("hyperx2d", "2d hyperx"), "2D HyperX"),
    ("hyperx3",
     lambda *, side, servers_per_switch, **_:
         HyperX((side,) * 3, servers_per_switch),
     ("hyperx3d", "3d hyperx"), "3D HyperX"),
    ("dragonfly", _dragonfly, (), "Dragonfly"),
    ("torus",
     lambda *, side, servers_per_switch, **_:
         Torus((side, side), servers_per_switch),
     ("torus2d", "2d torus"), "2D Torus"),
    ("torus3",
     lambda *, side, servers_per_switch, **_:
         Torus((side,) * 3, servers_per_switch),
     ("torus3d", "3d torus"), "3D Torus"),
    ("mesh",
     lambda *, side, servers_per_switch, **_:
         Torus((side, side), servers_per_switch, wrap=False),
     ("mesh2d", "2d mesh"), "2D Mesh"),
    ("fattree",
     lambda *, k, servers_per_switch, **_:
         FatTree(k, servers_per_switch),
     ("fat-tree", "folded-clos"), "Fat-tree"),
    ("random",
     lambda *, n_switches, degree, servers_per_switch, seed, **_:
         RandomRegular(n_switches, degree, servers_per_switch, seed=seed),
     ("random-regular", "jellyfish"), "Random Regular"),
):
    TOPOLOGY_REGISTRY.register(
        _entry[0], _entry[1], aliases=_entry[2], display=_entry[3]
    )
del _entry

#: Short names accepted by :func:`make_topology`, in registration order.
TOPOLOGIES: tuple[str, ...] = TOPOLOGY_REGISTRY.names


def canonical_name(name: str) -> str:
    """Resolve a family name or alias to its registry name.

    Every consumer that dispatches on topology names (the factory below,
    per-scale sizing, CLI plumbing) goes through this, so an alias can
    never silently fall into a different code path than its registry
    name.  Unknown names raise the registry's one error.
    """
    return TOPOLOGY_REGISTRY.canonical(name)


def make_topology(
    name: str,
    *,
    side: int = 4,
    servers_per_switch: int | None = None,
    h: int = 2,
    k: int = 4,
    n_switches: int = 16,
    degree: int = 4,
    seed: int = 0,
) -> Topology:
    """Build a topology by short name (see :data:`TOPOLOGIES`).

    Parameters beyond ``name`` are family-specific and ignored by the
    others: ``side`` sizes the coordinate families (HyperX/torus/mesh),
    ``h`` the balanced Dragonfly, ``k`` the fat-tree arity,
    ``n_switches``/``degree``/``seed`` the random-regular draw.
    ``servers_per_switch`` overrides every family's default density.
    """
    return TOPOLOGY_REGISTRY.make(
        name,
        side=side,
        servers_per_switch=servers_per_switch,
        h=h,
        k=k,
        n_switches=n_switches,
        degree=degree,
        seed=seed,
    )
