"""Graph algorithms over :class:`~repro.topology.base.Network`.

These are the BFS computations the paper assumes are re-run whenever the
topology changes (boot, upgrade or failure): all-pairs distances,
diameter, connectivity and, in :mod:`repro.updown.escape`, the Up/Down
layering.  All of them run through one bit-parallel kernel,
:func:`bitset_distances`, over a compiled adjacency array such as
``Network.nbr`` (``succ[i, p]`` = state reached from ``i`` through port
``p``, -1 for none).

Every state ``i`` carries a bitset ``R_k[i]`` of the targets it reaches in
at most ``k`` steps, packed 64 to a word.  One BFS level for *all* states
and *all* targets at once is the recurrence

    R_0[i]     = {target seeded at i}
    R_{k+1}[i] = R_k[i]  |  OR_p R_k[succ[i, p]]

i.e. one gather and one ``bitwise_or.reduce`` per level, with a zero
sentinel row standing in for dead ports.  A target first reached at level
``d`` is in ``R_d .. R_{L-1}``, so the distance is ``L`` minus the number
of levels that held it: one small-integer add of the unpacked bits per
level, no per-level scatter.  The paper-scale 512-switch network with
thousands of failed links (Figure 1) takes a few milliseconds per
all-pairs matrix.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .base import Network

#: Sentinel used in distance matrices for unreachable pairs.
UNREACHABLE = -1


class FlatViews:
    """Flat typed views over an object's distance matrices, for route
    bodies that read them per hop.

    :data:`FLAT` maps each view attribute to the ``n x n`` matrix it
    covers, named by attribute path from the object (``"dist_a"``,
    ``"network.distances"``); :meth:`_bind_flat` (re)binds them all and
    sets ``_n``.  ``matrix[a, b]`` is ``view[a * n + b]``, read as a Python
    int: no numpy scalar per access and no copy (the matrices are
    C-contiguous, and a view keeps its matrix alive).  Memoryviews
    cannot be copied or pickled, so the views stay out of the pickled
    state and are re-bound on load.
    """

    #: View attribute -> the attribute path of the matrix it flattens.
    FLAT: dict[str, str] = {}

    def _bind_flat(self) -> None:
        for view, matrix in self.FLAT.items():
            m = attrgetter(matrix)(self)
            self._n = m.shape[1]
            setattr(self, view, memoryview(m.reshape(-1)))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self.FLAT}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_flat()


class NetworkDisconnected(ValueError):
    """A metric that needs a connected network was asked of a split one.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    call sites keep working; sweep drivers catch this specific type to
    record a point as *disconnected* instead of crashing a pool worker
    (fault sequences and scheduled fault events can legitimately cut a
    network apart mid-sweep).
    """


def bitset_distances(succ: np.ndarray, seed: np.ndarray, n_targets: int) -> np.ndarray:
    """Hop distance from every state to every target (int16 ``[N, n_targets]``).

    ``succ[N, P]`` lists each state's successors (-1 = none) and
    ``seed[i]`` the target state ``i`` counts as having reached at
    distance 0 (-1 = none).  Pairs with no path get ``UNREACHABLE``.
    """
    n = len(succ)
    # Rows are whole uint64 words so levels OR 64 targets at a time, but
    # they are filled and unpacked as bytes: no step depends on the host's
    # byte order.  Row n stays zero; succ's -1 entries index it.
    packed = np.zeros((n + 1, 8 * -(-n_targets // 64)), dtype=np.uint8)
    seeded = np.flatnonzero(seed >= 0)
    packed[seeded, seed[seeded] >> 3] = 128 >> (seed[seeded] & 7)
    reach = packed.view(np.uint64)
    # Port-major, so a level ORs P contiguous [N, words] slabs.
    ports = np.ascontiguousarray(succ.T)
    held = np.zeros((n, n_targets), dtype=np.int16)
    levels = 0
    while True:
        bits = np.unpackbits(packed[:n], axis=1, count=n_targets)
        held += bits
        levels += 1
        if bits.all():
            break
        grown = reach[:n] | np.bitwise_or.reduce(reach[ports], axis=0)
        if np.array_equal(grown, reach[:n]):
            break
        reach[:n] = grown
    dist = levels - held
    dist[bits == 0] = UNREACHABLE
    return dist


def all_pairs_distances(network: Network) -> np.ndarray:
    """All-pairs hop distances (int16), ``UNREACHABLE`` when disconnected."""
    n = network.n_switches
    return bitset_distances(network.nbr, np.arange(n), n)


def bfs_distances(network: Network, source: int) -> np.ndarray:
    """Hop distances from one switch (int16, ``UNREACHABLE`` if cut off)."""
    seed = np.full(network.n_switches, -1)
    seed[source] = 0
    # Links are undirected: the distance *to* the source is the one from it.
    return bitset_distances(network.nbr, seed, 1)[:, 0]


def is_connected(network: Network) -> bool:
    """True when every switch can reach every other over live links."""
    return bool((bfs_distances(network, 0) != UNREACHABLE).all())


def connected_components(network: Network) -> np.ndarray:
    """Component label per switch (components numbered by lowest member)."""
    lowest = (network.distances != UNREACHABLE).argmax(axis=1)
    return np.unique(lowest, return_inverse=True)[1].astype(np.int32)


def diameter(network: Network) -> int:
    """Largest pairwise distance.

    Raises
    ------
    NetworkDisconnected
        If the network is disconnected (the diameter is then infinite; the
        Figure 1 driver catches this to mark the end of a fault sequence).
    """
    d = network.distances
    if (d == UNREACHABLE).any():
        raise NetworkDisconnected("network is disconnected; diameter is infinite")
    return int(d.max())


def diameter_or_none(network: Network) -> int | None:
    """Diameter, or ``None`` when the network is disconnected."""
    d = network.distances
    if (d == UNREACHABLE).any():
        return None
    return int(d.max())


def average_distance(network: Network, include_self: bool = False) -> float:
    """Mean distance over ordered switch pairs.

    ``include_self=True`` averages over *all* ordered pairs including the
    zero self-distances, which is the convention behind the paper's Table 3
    (8x8x8: 1344/512 = 2.625 exactly).
    """
    d = network.distances
    if (d == UNREACHABLE).any():
        raise NetworkDisconnected(
            "network is disconnected; average distance undefined"
        )
    n = network.n_switches
    return float(d.sum()) / (n * n if include_self else n * (n - 1))


def average_distance_or_none(
    network: Network, include_self: bool = False
) -> float | None:
    """Average distance, or ``None`` when the network is disconnected."""
    if (network.distances == UNREACHABLE).any():
        return None
    return average_distance(network, include_self)


def eccentricity(network: Network, s: int) -> int:
    """Largest distance from switch ``s``.

    Raises :class:`NetworkDisconnected` when any switch is unreachable
    from ``s``.
    """
    d = network.distances[s]
    if (d == UNREACHABLE).any():
        raise NetworkDisconnected(f"network is disconnected from switch {s}")
    return int(d.max())
