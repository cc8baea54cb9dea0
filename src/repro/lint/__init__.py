"""repro-lint: AST-based checkers for the repo's correctness invariants.

The simulator's load-bearing contracts — RNG draw-order byte-identity
across the engine backends, cache-key completeness for every
:class:`~repro.simulator.config.SimConfig` field, metrics-hook parity
between the slot reference and the array backend, and
registry-mediated construction of pluggable components — are proven
after the fact by the differential and golden test suites.  A violation
there surfaces as a mysterious fingerprint mismatch three layers away
from the offending line.  This package moves the enforcement to lint
time: four compiler-style static checkers that understand the domain's
invariants and name the file and line that breaks them.

Run the whole suite over the source tree::

    python -m repro.lint src

The checkers (see each module's docstring for the precise rule):

* :mod:`repro.lint.rng` — RNG discipline: no stdlib ``random``, no
  module-level ``np.random`` draws, generator construction only in the
  sanctioned seeding sites, and every draw call site registered in the
  checked-in allowlist ``rng_sites.toml`` so any change to draw order
  is an explicit, reviewed diff.
* :mod:`repro.lint.cache_key` — cache-key completeness: every
  ``SimConfig`` / ``PointSpec`` / ``PointJob`` field reaches
  ``job_key`` (or an explicit exempt list), and the ``SimConfig``
  field set is acknowledged against ``CACHE_VERSION`` in
  ``invariants.toml``.
* :mod:`repro.lint.hooks` — metrics-hook backend parity: every
  ``metrics.on_*`` dispatch reachable from a slot-backend method must
  have a matching dispatch in any backend that overrides that method.
* :mod:`repro.lint.registries` — registry bypass: no direct
  instantiation of registry-managed classes outside their factory and
  defining modules.

Checkers are pure functions from parsed modules + configuration to
violation lists, so the test fixtures under ``tests/lint/`` drive them
against synthetic trees with synthetic allowlists.
"""

from __future__ import annotations

from .base import LintConfig, Module, Violation, load_modules
from .cache_key import check_cache_key
from .hooks import check_hook_parity
from .registries import check_registry_bypass
from .rng import check_rng, collect_draw_sites

#: The full suite, in report order.
CHECKERS = (
    check_rng,
    check_cache_key,
    check_hook_parity,
    check_registry_bypass,
)


def run_lint(modules: list[Module], config: LintConfig) -> list[Violation]:
    """Run every checker; violations sorted by (path, line)."""
    out: list[Violation] = []
    for checker in CHECKERS:
        out.extend(checker(modules, config))
    return sorted(out, key=lambda v: (v.path, v.line, v.checker))


__all__ = [
    "CHECKERS",
    "LintConfig",
    "Module",
    "Violation",
    "check_cache_key",
    "check_hook_parity",
    "check_registry_bypass",
    "check_rng",
    "collect_draw_sites",
    "load_modules",
    "run_lint",
]
