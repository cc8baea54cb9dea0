"""Routing algorithms and mechanisms for HyperX networks (paper §3, Table 4).

A mechanism is a route set (:class:`MinimalRoutes`, :class:`ValiantRoutes`,
:class:`OmnidimensionalRoutes`, :class:`PolarizedRoutes`) under one of two
VC policies, :class:`LadderRouting` or :class:`SurePathRouting`;
:func:`make_mechanism` builds the paper's six by name from
:data:`MECHANISM_REGISTRY`.  :class:`EscapeOnlyRouting` is an ablation
that routes on the escape subnetwork alone.
"""

from __future__ import annotations

from .base import (
    DEROUTE_PENALTY,
    NO_PENALTY,
    POLARIZED_FLAT_PENALTY,
    Candidate,
    CandidateList,
    LadderRouting,
    RouteSet,
    RoutingMechanism,
    ladder_vc,
)
from .catalog import (
    HYPERX_ONLY,
    MECHANISM_REGISTRY,
    MECHANISMS,
    SUREPATH_MECHANISMS,
    default_n_vcs,
    is_fault_tolerant,
    make_mechanism,
)
from .escape_only import EscapeOnlyRouting
from .minimal import MinimalRoutes
from .omni import OmnidimensionalRoutes
from .polarized import PENALTY_BY_DELTA_MU, PolarizedRoutes
from .surepath import SurePathRouting
from .valiant import ValiantRoutes

__all__ = [
    "Candidate",
    "CandidateList",
    "DEROUTE_PENALTY",
    "EscapeOnlyRouting",
    "HYPERX_ONLY",
    "LadderRouting",
    "MECHANISMS",
    "MECHANISM_REGISTRY",
    "MinimalRoutes",
    "NO_PENALTY",
    "OmnidimensionalRoutes",
    "PENALTY_BY_DELTA_MU",
    "POLARIZED_FLAT_PENALTY",
    "PolarizedRoutes",
    "RouteSet",
    "RoutingMechanism",
    "SUREPATH_MECHANISMS",
    "SurePathRouting",
    "ValiantRoutes",
    "default_n_vcs",
    "is_fault_tolerant",
    "ladder_vc",
    "make_mechanism",
]
