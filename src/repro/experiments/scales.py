"""Experiment scales: paper-size topologies and scaled-down defaults.

The paper evaluates a 16x16 2D HyperX (256 switches, 4096 servers) and an
8x8x8 3D HyperX (512 switches, 4096 servers).  A pure-Python slot-level
simulator cannot sweep those in CI time, so every experiment driver takes
a :class:`Scale`:

* ``tiny``  — 4x4 / 4x4x4, short runs; seconds per point.  The CLI's
  default.  The qualitative shape of every figure (who
  wins, where the 0.5 caps bind, graceful degradation) already shows here.
* ``small`` — 8x8 / 4x4x4 with longer runs; the recommended interactive
  scale.
* ``paper`` — the full 16x16 / 8x8x8 with paper-length runs; hours.

Sides stay even at every scale so DCR and RPN remain well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.hyperx import HyperX, regular_hyperx


@dataclass(frozen=True)
class Scale:
    """Topology sizes and run lengths for one experiment scale."""

    name: str
    side_2d: int
    side_3d: int
    warmup: int
    measure: int
    loads: tuple[float, ...]
    #: Random-fault counts for the Figure 6 sweep (per topology links).
    fault_fractions: tuple[float, ...] = (
        0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20,
    )
    #: Packets per server for the Figure 10 batch run (paper: 8000 phits
    #: = 500 packets); scaled down with the topology.
    batch_packets: int = 60

    def hyperx_2d(self) -> HyperX:
        return regular_hyperx(2, self.side_2d)

    def hyperx_3d(self) -> HyperX:
        return regular_hyperx(3, self.side_3d)

    def hyperx(self, dims: int) -> HyperX:
        return self.hyperx_2d() if dims == 2 else self.hyperx_3d()


_LOADS_FULL = tuple(round(0.1 * i, 1) for i in range(1, 11))
_LOADS_COARSE = (0.2, 0.4, 0.6, 0.8, 1.0)

SCALES: dict[str, Scale] = {
    "tiny": Scale(
        name="tiny", side_2d=4, side_3d=4, warmup=150, measure=300,
        loads=_LOADS_COARSE, batch_packets=40,
    ),
    "small": Scale(
        name="small", side_2d=8, side_3d=4, warmup=300, measure=600,
        loads=_LOADS_FULL, batch_packets=80,
    ),
    "paper": Scale(
        name="paper", side_2d=16, side_3d=8, warmup=1000, measure=3000,
        loads=tuple(round(0.05 * i, 2) for i in range(1, 21)),
        fault_fractions=tuple(10 * i / 3840 for i in range(11)),
        batch_packets=500,
    ),
}


def scaled_topology(name: str, scale: Scale):
    """Build one topology family sized to a scale preset.

    The coordinate families reuse the preset's HyperX sides; the others
    are sized for a comparable switch count (fat-tree arity ``side_2d``
    gives ``5/4 * side^2`` switches, the random-regular draw matches the
    2D switch count and uses degree ``side_2d`` so the server-to-network
    port ratio stays comparable).  Every side is even at every scale, so
    the power-of-two and even-side patterns stay available where the
    server count allows.
    """
    from ..topology.catalog import canonical_name, make_topology

    # Canonicalise first: an alias ("fat-tree", "jellyfish") must pick up
    # the same per-scale parameters as its registry name, and an unknown
    # name must raise here, never build a default-sized instance.
    key = canonical_name(name)
    if key == "hyperx":
        return scale.hyperx_2d()
    if key == "hyperx3":
        return scale.hyperx_3d()
    side2, side3 = scale.side_2d, scale.side_3d
    params = {
        "dragonfly": dict(h=max(2, side2 // 2)),
        "torus": dict(side=side2, servers_per_switch=side2),
        "torus3": dict(side=side3, servers_per_switch=side3),
        "mesh": dict(side=side2, servers_per_switch=side2),
        "fattree": dict(k=side2),
        "random": dict(
            n_switches=side2 * side2, degree=side2, servers_per_switch=side2
        ),
    }
    try:
        kwargs = params[key]
    except KeyError:
        # Registry drift guard, mirroring make_topology's: a family added
        # to the catalog also needs a sizing entry here.
        raise RuntimeError(
            f"topology {key!r} has no per-scale sizing entry in "
            "scaled_topology"
        ) from None
    return make_topology(key, **kwargs)


def get_scale(name: str) -> Scale:
    """Look up a scale preset by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; expected one of {sorted(SCALES)}"
        ) from None
