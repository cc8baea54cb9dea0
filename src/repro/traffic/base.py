"""Traffic-pattern interface (paper §4).

A traffic pattern maps a generating server to a destination server.  All
the paper's patterns are *admissible*: no endpoint receives more load than
it can sink (for permutations, each server has exactly one sender).

Patterns can be random per message (Uniform) or fixed maps (permutations);
fixed maps expose :meth:`TrafficPattern.as_permutation` so analyses and
tests can reason about them without a simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..topology.base import Network


def require_topology(pattern: str, network: Network, topology_cls: type):
    """Structural gate for topology-specific patterns.

    Returns the topology when it is an instance of ``topology_cls``;
    otherwise raises one clean ``TypeError`` naming the pattern *and* the
    offending topology class — the error :func:`repro.traffic.supported_traffics`
    filters on, and the one a user sees instead of an assertion failure
    deep inside a pool worker.
    """
    topo = network.topology
    if not isinstance(topo, topology_cls):
        raise TypeError(
            f"{pattern} requires a {topology_cls.__name__} topology, got "
            f"{type(topo).__name__}; use supported_traffics() to filter"
        )
    return topo


class TrafficPattern(ABC):
    """Maps source servers to destination servers."""

    #: Human-readable name matching the paper where applicable.
    name: str = "abstract"

    def __init__(self, network: Network):
        self.network = network
        self.n_servers = network.n_servers

    @abstractmethod
    def destination(self, src_server: int, rng: np.random.Generator) -> int:
        """Destination server for a message generated at ``src_server``."""

    @property
    def is_deterministic(self) -> bool:
        """True when every server has one fixed destination."""
        return False

    def as_permutation(self) -> np.ndarray:
        """The fixed destination map, for deterministic patterns.

        Raises
        ------
        TypeError
            For per-message random patterns such as Uniform.
        """
        raise TypeError(f"{self.name} is not a fixed permutation")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(servers={self.n_servers})"


class PermutationTraffic(TrafficPattern):
    """Base class for fixed server-permutation patterns."""

    def __init__(self, network: Network, permutation: np.ndarray):
        super().__init__(network)
        perm = np.asarray(permutation, dtype=np.int64)
        validate_permutation(perm, self.n_servers)
        self.permutation = perm

    def destination(self, src_server: int, rng: np.random.Generator) -> int:
        return int(self.permutation[src_server])

    @property
    def is_deterministic(self) -> bool:
        return True

    def as_permutation(self) -> np.ndarray:
        return self.permutation.copy()


def break_fixed_points(perm: np.ndarray) -> np.ndarray:
    """Remove fixed points from a permutation, in place, deterministically.

    Fixed points are rotated among themselves (a lone one is swapped with
    its successor index): every touched entry keeps mapping into the
    formerly-fixed set, so the result is still a permutation and the
    perturbation is minimal.
    """
    n = perm.shape[0]
    fixed = np.nonzero(perm == np.arange(n))[0]
    if fixed.size == 1:
        i = int(fixed[0])
        j = (i + 1) % n
        perm[i], perm[j] = perm[j], perm[i]
    elif fixed.size > 1:
        perm[fixed] = perm[np.roll(fixed, 1)]
    return perm


def validate_permutation(perm: np.ndarray, n: int) -> None:
    """Check that ``perm`` is a fixed-point-free permutation of ``range(n)``.

    Fixed points (a server sending to itself) would inject load that never
    uses the network; the paper's patterns have none.
    """
    if perm.shape != (n,):
        raise ValueError(f"permutation must have shape ({n},), got {perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("destination map is not a permutation")
    if (perm == np.arange(n)).any():
        raise ValueError("permutation has fixed points (self-traffic)")
