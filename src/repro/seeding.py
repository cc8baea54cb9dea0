"""The library's one sanctioned seed-coercion point.

Every ``Generator | int | None`` parameter in the library funnels
through :func:`as_generator` instead of calling
``np.random.default_rng`` inline.  The point is auditability: generator
*construction* is allowed only here and in the engine's seeding root
(:mod:`repro.simulator.engine`), so every place a new RNG stream can
enter the system is one of two named modules — anywhere else, a fresh
``default_rng`` call is a stream the backend byte-identity proof does
not know about, and ``tests/test_rng_discipline.py`` rejects it.

Semantics are exactly ``np.random.default_rng``'s: an existing
``Generator`` passes through untouched (same object, same stream
position), an int seeds a fresh PCG64, ``None`` draws OS entropy.
Golden fingerprints are therefore bit-for-bit unaffected by routing a
call site through this helper.
"""

from __future__ import annotations

import numpy as np

def as_generator(
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
) -> np.random.Generator:
    """Coerce a seed-like value to a ``Generator`` (default_rng semantics)."""
    return np.random.default_rng(rng)
