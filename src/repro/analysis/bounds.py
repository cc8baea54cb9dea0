"""Analytical throughput bounds used to sanity-check the simulations.

These closed-form results come straight from the paper's arguments:

* Valiant's two-phase routing halves capacity: saturation 0.5 on benign
  traffic, and 0.5 is *optimal* for worst-case admissible permutations
  such as Dimension Complement Reverse (§4, [34]).
* Regular Permutation to Neighbour confines k²/2 source servers to the
  k²/4 links of their row: aligned (Omnidimensional) routes cannot exceed
  0.5 (§4, bisection argument).
* Minimal routing under RPN is even worse: every switch's whole server
  load must cross the single direct link to its destination neighbour,
  bounding throughput by 1/servers-per-switch.
* A uniform-traffic bisection bound for the HyperX, showing the topology
  itself is not the limiter on benign traffic.

``tests/analysis/test_bounds.py`` checks the bounds themselves; the
integration tests assert the paper's mechanisms approach them.
"""

from __future__ import annotations

from ..topology.hyperx import HyperX

#: Valiant's randomized two-phase routing: each packet consumes twice the
#: minimal capacity on average, capping saturation at 1/2 (also the
#: optimal guaranteed throughput for worst-case admissible traffic).
VALIANT_BOUND = 0.5


def rpn_aligned_bound(k: int | None = None) -> float:
    """Throughput cap of aligned routes under RPN (paper §4).

    In every loaded ``K_k`` row, ``k/2`` source switches (``k²/2`` servers
    at k servers/switch) must push their flows through the ``k²/4`` links
    joining source switches to destination switches, so per-server
    throughput is at most ``(k²/4) / (k²/2) = 0.5`` — independent of k.
    """
    return 0.5


def rpn_minimal_bound(servers_per_switch: int) -> float:
    """Throughput cap of *minimal* routing under RPN.

    Every destination is the unique neighbour switch one Gray step away;
    minimal routes all use the single direct link, shared by the switch's
    ``servers_per_switch`` servers: at most ``1 / servers_per_switch``.
    """
    if servers_per_switch < 1:
        raise ValueError("servers_per_switch must be >= 1")
    return 1.0 / servers_per_switch


def uniform_bisection_bound(hx: HyperX) -> float:
    """Uniform-traffic bound from the HyperX channel bisection.

    Cutting one dimension of ``K_{k}^n`` in half severs ``(k/2)·(k/2)``
    links in each of the ``k^{n-1}`` rows of that dimension.  Under
    uniform traffic half of all load crosses the cut in each direction;
    with one packet per link per slot each way, per-server throughput is
    bounded by ``2·B / (n_servers / 2) / 2 = 2B / n_servers`` where B is
    the link count of the cut.  For the paper's topologies this exceeds
    1.0 — HyperX is injection-limited, not bisection-limited, on Uniform.
    """
    k = min(hx.sides)
    if k % 2:
        raise ValueError("bisection bound defined for even sides")
    n = hx.n_dims
    cut_links = (k // 2) * (k // 2) * k ** (n - 1)
    servers = hx.n_servers
    # Each direction of the cut moves cut_links packets/slot; half of the
    # servers' traffic must cross it.
    return 4.0 * cut_links / servers


def ladder_max_hops(n_vcs: int, vcs_per_step: int = 1) -> int:
    """Route-length budget of a ladder VC scheme — its fault Achilles heel."""
    if n_vcs < 1 or vcs_per_step < 1:
        raise ValueError("n_vcs and vcs_per_step must be >= 1")
    return n_vcs // vcs_per_step


def omnidimensional_max_hops(n_dims: int, max_deroutes: int | None = None) -> int:
    """Omnidimensional length bound ``n + m`` (paper §3.1.1, m = n)."""
    if max_deroutes is None:
        max_deroutes = n_dims
    return n_dims + max_deroutes


def polarized_max_hops(diameter: int) -> int:
    """Polarized length bound: twice the network diameter (§3.1.2)."""
    return 2 * diameter


def star_completion_multiple(
    servers_per_switch: int,
    usable_root_links: int,
    bulk_throughput: float,
) -> float:
    """Completion time as a multiple of the bulk time T (paper §6).

    The paper's worked example: 8 servers over 3 links at throughput 0.5
    gives 1.33·T for an ideal mechanism; with only 1 usable link, 4·T —
    plus the bulk's own T, about 5·T total, matching Figure 10.
    """
    if not 0 < bulk_throughput <= 1:
        raise ValueError("bulk_throughput must be in (0, 1]")
    if usable_root_links < 1:
        raise ValueError("usable_root_links must be >= 1")
    tail = servers_per_switch / usable_root_links * bulk_throughput
    return 1.0 + tail
