"""Routing algorithms and mechanisms for HyperX networks (paper §3, Table 4)."""

from __future__ import annotations

from .base import (
    DEROUTE_PENALTY,
    NO_PENALTY,
    POLARIZED_FLAT_PENALTY,
    Candidate,
    CandidateList,
    RoutingMechanism,
    ladder_vc,
)
from .catalog import (
    HYPERX_ONLY,
    MECHANISMS,
    SUREPATH_MECHANISMS,
    default_n_vcs,
    is_fault_tolerant,
    make_mechanism,
)
from .escape_only import EscapeOnlyRouting
from .minimal import MinimalRouting
from .omni import OmnidimensionalRoutes, OmniWARRouting
from .polarized import PENALTY_BY_DELTA_MU, PolarizedRoutes, PolarizedRouting
from .surepath import (
    OmniSPRouting,
    PolSPRouting,
    SurePathRouting,
    omni_surepath,
    polarized_surepath,
)
from .valiant import ValiantRouting

__all__ = [
    "Candidate",
    "CandidateList",
    "DEROUTE_PENALTY",
    "EscapeOnlyRouting",
    "HYPERX_ONLY",
    "MECHANISMS",
    "MinimalRouting",
    "NO_PENALTY",
    "OmniSPRouting",
    "OmniWARRouting",
    "OmnidimensionalRoutes",
    "PENALTY_BY_DELTA_MU",
    "POLARIZED_FLAT_PENALTY",
    "PolSPRouting",
    "PolarizedRoutes",
    "PolarizedRouting",
    "RoutingMechanism",
    "SUREPATH_MECHANISMS",
    "SurePathRouting",
    "ValiantRouting",
    "default_n_vcs",
    "is_fault_tolerant",
    "ladder_vc",
    "make_mechanism",
    "omni_surepath",
    "polarized_surepath",
]
