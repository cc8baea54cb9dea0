"""RNG discipline checker.

The two engine backends are proven byte-identical by differential
fingerprints, and that proof rests entirely on every backend making the
*same draws from the same generators in the same order*.  Four rules
keep the discipline visible at lint time instead of failing three
layers away as a fingerprint mismatch:

1. **No stdlib ``random``.**  Its global state is invisible to the
   seeding contract; one ``random.random()`` anywhere silently breaks
   reproducibility across processes.
2. **No module-level ``np.random`` draws.**  ``np.random.<draw>(...)``
   uses numpy's hidden global generator; all draws must come from an
   explicitly seeded ``Generator`` handed down from the engine or a
   job's seed.
3. **Generator construction only at sanctioned seeding sites.**
   ``default_rng`` / ``SeedSequence`` calls are allowed only in the
   modules listed under ``[policy].seeding_modules`` in
   ``rng_sites.toml`` — the engine's seeding root and the
   :mod:`repro.seeding` coercion helper.  Anywhere else, a fresh
   generator is a second RNG stream the differential suite does not
   know about.
4. **Every draw call site is allowlisted.**  Each scope (function or
   method) that calls a draw method (``.random()``, ``.integers()``,
   ``.choice()``, ``.permutation()``, ``.shuffle()``) must appear in
   ``rng_sites.toml`` as a ``[[site]]`` entry recording the *multiset*
   of draw methods it performs.  Adding, removing or re-ordering a kind
   of draw changes the recorded signature, so any change to draw order
   is an explicit, reviewed diff of the allowlist — and a stale entry
   (code gone, entry left behind) is itself an error.
"""

from __future__ import annotations

import ast

from .base import LintConfig, Module, Violation, attr_chain, walk_scoped

CHECKER = "rng"

#: ``np.random`` attributes that are *not* draws from the legacy global
#: generator: constructors and types the seeding sites legitimately use.
NP_RANDOM_NON_DRAWS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64"}
)


def _policy(config: LintConfig) -> dict:
    return config.rng.get("policy", {})


def draw_methods(config: LintConfig) -> frozenset:
    return frozenset(
        _policy(config).get(
            "draw_methods",
            ("random", "integers", "choice", "permutation", "shuffle"),
        )
    )


def collect_draw_sites(
    modules: list[Module], config: LintConfig
) -> dict[tuple[str, str], tuple[list[str], int]]:
    """``(file, scope) -> (sorted draw-method list, first line)``.

    The sorted list is the site's *signature*: multiplicity counts, so
    a second ``.integers()`` call in the same scope changes it.
    """
    methods = draw_methods(config)
    sites: dict[tuple[str, str], tuple[list[str], int]] = {}
    for mod in modules:
        for scope, node in walk_scoped(mod.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            if name not in methods:
                continue
            key = (mod.rel, scope)
            draws, line = sites.get(key, ([], node.lineno))
            draws.append(name)
            sites[key] = (sorted(draws), min(line, node.lineno))
    return sites


def check_rng(modules: list[Module], config: LintConfig) -> list[Violation]:
    out: list[Violation] = []
    seeding_modules = set(_policy(config).get("seeding_modules", ()))

    for mod in modules:
        for node in ast.walk(mod.tree):
            # Rule 1: stdlib random, under any alias.
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        out.append(
                            Violation(
                                CHECKER, mod.rel, node.lineno,
                                "stdlib `random` is banned: its global state is "
                                "outside the seeding contract; draw from the "
                                "engine's np.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    out.append(
                        Violation(
                            CHECKER, mod.rel, node.lineno,
                            "stdlib `random` is banned: its global state is "
                            "outside the seeding contract; draw from the "
                            "engine's np.random.Generator instead",
                        )
                    )
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    chain = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    chain = attr_chain(node.func)
                else:
                    chain = None
                if chain is None:
                    continue
                parts = chain.split(".")
                if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                    fn = parts[2]
                    if fn not in NP_RANDOM_NON_DRAWS:
                        out.append(
                            Violation(
                                CHECKER, mod.rel, node.lineno,
                                f"module-level draw np.random.{fn}(...) uses "
                                "numpy's hidden global generator; draw from an "
                                "explicitly seeded Generator",
                            )
                        )
                    # Rule 3: constructing a generator outside a seeding site.
                    elif (
                        fn in ("default_rng", "SeedSequence")
                        and mod.rel not in seeding_modules
                    ):
                        out.append(
                            Violation(
                                CHECKER, mod.rel, node.lineno,
                                f"np.random.{fn}(...) outside the sanctioned "
                                "seeding sites "
                                f"({', '.join(sorted(seeding_modules)) or 'none'}); "
                                "coerce seeds via repro.seeding.as_generator or "
                                "thread the engine's generator through",
                            )
                        )
                elif (
                    parts[-1] in ("default_rng", "SeedSequence")
                    and len(parts) <= 2
                    and mod.rel not in seeding_modules
                ):
                    # `default_rng(...)` / `rnd.default_rng(...)` via a direct
                    # import — same rule, different spelling.
                    out.append(
                        Violation(
                            CHECKER, mod.rel, node.lineno,
                            f"{parts[-1]}(...) outside the sanctioned seeding "
                            "sites; coerce seeds via repro.seeding.as_generator",
                        )
                    )

    # Rule 4: draw-site allowlist round-trip.
    sites = collect_draw_sites(modules, config)
    allow: dict[tuple[str, str], list[str]] = {}
    for entry in config.rng.get("site", []):
        allow[(entry["file"], entry["scope"])] = sorted(entry.get("draws", []))

    scanned = {mod.rel for mod in modules}
    for (rel, scope), (draws, line) in sorted(sites.items()):
        listed = allow.get((rel, scope))
        if listed is None:
            out.append(
                Violation(
                    CHECKER, rel, line,
                    f"unlisted RNG draw site {scope} (draws: {draws}); every "
                    "draw site must be registered in repro/lint/rng_sites.toml "
                    "with a reason, so draw-order changes are reviewed diffs",
                )
            )
        elif listed != draws:
            out.append(
                Violation(
                    CHECKER, rel, line,
                    f"RNG draw signature of {scope} changed: allowlist has "
                    f"{listed}, code has {draws}; this alters the backend-"
                    "shared draw order — update rng_sites.toml in the same "
                    "reviewed diff",
                )
            )
    for (rel, scope), listed in sorted(allow.items()):
        if rel in scanned and (rel, scope) not in sites:
            out.append(
                Violation(
                    CHECKER, rel, 1,
                    f"stale rng_sites.toml entry: {scope} no longer performs "
                    f"draws {listed}; remove the allowlist entry",
                )
            )
    return out
