"""Fixture-driven proof that each repro-lint checker fires on its
violation class and stays silent on the sanctioned patterns.

Checkers are pure functions ``(modules, config) -> violations``, so the
fixtures here are synthetic module trees built straight from source
strings — no files, no imports of the code under analysis — with
synthetic TOML-shaped dicts injected as the :class:`LintConfig`.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import LintConfig, Module, run_lint
from repro.lint.cache_key import check_cache_key
from repro.lint.hooks import check_hook_parity
from repro.lint.registries import check_registry_bypass
from repro.lint.rng import check_rng, collect_draw_sites


def mods(files: dict[str, str]) -> list[Module]:
    """Parse ``rel path -> source`` into Module records."""
    return [
        Module(rel=rel, tree=ast.parse(textwrap.dedent(src)))
        for rel, src in files.items()
    ]


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------
RNG_CFG = {
    "policy": {
        "draw_methods": ["random", "integers", "choice", "permutation", "shuffle"],
        "seeding_modules": ["repro/seeding.py"],
    },
    "site": [],
}


def rng_config(sites: list[dict] | None = None) -> LintConfig:
    rng = {"policy": dict(RNG_CFG["policy"]), "site": sites or []}
    return LintConfig(rng=rng, invariants={})


class TestRngChecker:
    def test_stdlib_import_fires(self):
        violations = check_rng(
            mods({"repro/topology/x.py": "import random\n"}), rng_config()
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.checker == "rng" and v.path == "repro/topology/x.py"
        assert v.line == 1 and "stdlib" in v.message

    def test_stdlib_from_import_fires(self):
        violations = check_rng(
            mods({"repro/a.py": "from random import shuffle\n"}), rng_config()
        )
        assert [v.line for v in violations] == [1]

    def test_aliased_stdlib_import_fires(self):
        violations = check_rng(
            mods({"repro/a.py": "import random as rnd\n"}), rng_config()
        )
        assert len(violations) == 1

    def test_global_numpy_draw_fires(self):
        src = """
        import numpy as np
        x = np.random.random()
        """
        violations = check_rng(mods({"repro/a.py": src}), rng_config())
        # Fires twice: the global-generator rule and (correctly) the
        # unlisted-draw-site rule — the call site is also a draw.
        assert any("hidden global generator" in v.message for v in violations)
        assert any("unlisted" in v.message for v in violations)

    def test_default_rng_outside_seeding_sites_fires(self):
        src = """
        import numpy as np
        def fresh():
            return np.random.default_rng(0)
        """
        violations = check_rng(mods({"repro/traffic/x.py": src}), rng_config())
        assert len(violations) == 1
        assert "seeding" in violations[0].message

    def test_bare_default_rng_call_fires(self):
        src = """
        from numpy.random import default_rng
        def fresh():
            return default_rng(0)
        """
        violations = check_rng(mods({"repro/traffic/x.py": src}), rng_config())
        assert len(violations) == 1

    def test_default_rng_inside_seeding_site_is_sanctioned(self):
        src = """
        import numpy as np
        def as_generator(rng=None):
            return np.random.default_rng(rng)
        """
        assert check_rng(mods({"repro/seeding.py": src}), rng_config()) == []

    def test_unlisted_draw_site_fires(self):
        src = """
        def pick(rng):
            return rng.integers(7)
        """
        violations = check_rng(mods({"repro/a.py": src}), rng_config())
        assert len(violations) == 1
        assert "unlisted" in violations[0].message
        assert "pick" in violations[0].message

    def test_listed_draw_site_is_silent(self):
        src = """
        def pick(rng):
            return rng.integers(7)
        """
        config = rng_config(
            sites=[{"file": "repro/a.py", "scope": "pick", "draws": ["integers"]}]
        )
        assert check_rng(mods({"repro/a.py": src}), config) == []

    def test_signature_change_fires(self):
        # The allowlist records one integers draw; the code now makes
        # two — a draw-order change the diff must surface.
        src = """
        def pick(rng):
            return rng.integers(7) + rng.integers(3)
        """
        config = rng_config(
            sites=[{"file": "repro/a.py", "scope": "pick", "draws": ["integers"]}]
        )
        violations = check_rng(mods({"repro/a.py": src}), config)
        assert len(violations) == 1
        assert "signature" in violations[0].message

    def test_stale_allowlist_entry_fires(self):
        config = rng_config(
            sites=[{"file": "repro/a.py", "scope": "gone", "draws": ["random"]}]
        )
        violations = check_rng(mods({"repro/a.py": "x = 1\n"}), config)
        assert len(violations) == 1
        assert "stale" in violations[0].message

    def test_entry_for_unscanned_file_not_stale(self):
        # Linting a subtree must not flag entries for files outside it.
        config = rng_config(
            sites=[{"file": "repro/b.py", "scope": "f", "draws": ["random"]}]
        )
        assert check_rng(mods({"repro/a.py": "x = 1\n"}), config) == []

    def test_collect_draw_sites_signature_is_sorted_multiset(self):
        src = """
        class Arbiter:
            def allocate(self, rng):
                if rng.random() < 0.5:
                    return rng.integers(2)
                return rng.integers(3)
        """
        sites = collect_draw_sites(mods({"repro/a.py": src}), rng_config())
        assert sites == {
            ("repro/a.py", "Arbiter.allocate"): (
                ["integers", "integers", "random"],
                4,
            )
        }


# ----------------------------------------------------------------------
# Cache-key completeness
# ----------------------------------------------------------------------
CONFIG_SRC = """
from dataclasses import dataclass

@dataclass(frozen=True)
class SimConfig:
    packet_phits: int = 16
    arbiter: str = "qp"
"""

EXECUTOR_SRC = """
from dataclasses import asdict, dataclass

CACHE_VERSION = 3

@dataclass(frozen=True)
class PointJob:
    spec: object
    warmup: int
    measure: int
    config: object

def job_key(job):
    spec = job.spec
    payload = {
        "cache_version": CACHE_VERSION,
        "seed": spec.seed,
        "warmup": job.warmup,
        "measure": job.measure,
        "config": asdict(job.config),
        "spec": spec.mechanism,
    }
    return payload
"""

RUNNER_SRC = """
from dataclasses import dataclass

@dataclass(frozen=True)
class PointSpec:
    mechanism: str
    seed: int
"""


def cache_cfg(**overrides) -> LintConfig:
    cfg = {
        "config_module": "repro/simulator/config.py",
        "executor_module": "repro/experiments/executor.py",
        "runner_module": "repro/experiments/runner.py",
        "cache_version": 3,
        "simconfig_fields": ["packet_phits", "arbiter"],
        "exempt_job_fields": [],
        "exempt_spec_fields": [],
        "exempt_config_fields": [],
    }
    cfg.update(overrides)
    return LintConfig(rng={}, invariants={"cache_key": cfg})


def cache_mods(
    config_src: str = CONFIG_SRC,
    executor_src: str = EXECUTOR_SRC,
    runner_src: str = RUNNER_SRC,
) -> list[Module]:
    return mods(
        {
            "repro/simulator/config.py": config_src,
            "repro/experiments/executor.py": executor_src,
            "repro/experiments/runner.py": runner_src,
        }
    )


class TestCacheKeyChecker:
    def test_complete_key_is_silent(self):
        assert check_cache_key(cache_mods(), cache_cfg()) == []

    def test_unkeyed_job_field_fires(self):
        src = EXECUTOR_SRC.replace(
            "    config: object", "    config: object\n    series_interval: int = 0"
        )
        violations = check_cache_key(cache_mods(executor_src=src), cache_cfg())
        assert len(violations) == 1
        assert "PointJob.series_interval" in violations[0].message
        assert violations[0].path == "repro/experiments/executor.py"

    def test_exempt_job_field_is_silent(self):
        src = EXECUTOR_SRC.replace(
            "    config: object", "    config: object\n    series_interval: int = 0"
        )
        config = cache_cfg(exempt_job_fields=["series_interval"])
        assert check_cache_key(cache_mods(executor_src=src), config) == []

    def test_unread_spec_field_fires(self):
        src = RUNNER_SRC + "    n_vcs: int = 2\n"
        violations = check_cache_key(cache_mods(runner_src=src), cache_cfg())
        assert len(violations) == 1
        assert "PointSpec.n_vcs" in violations[0].message

    def test_new_simconfig_field_fires_until_repinned(self):
        # asdict(job.config) *does* key the new field — the violation is
        # the un-bumped CACHE_VERSION pin, anchored at the field's line.
        src = CONFIG_SRC + "    new_knob: int = 0\n"
        violations = check_cache_key(cache_mods(config_src=src), cache_cfg())
        assert len(violations) == 1
        v = violations[0]
        assert "new_knob" in v.message and "CACHE_VERSION" in v.message
        assert v.path == "repro/simulator/config.py"

    def test_repinned_new_field_with_bumped_version_is_silent(self):
        config_src = CONFIG_SRC + "    new_knob: int = 0\n"
        executor_src = EXECUTOR_SRC.replace("CACHE_VERSION = 3", "CACHE_VERSION = 4")
        config = cache_cfg(
            cache_version=4,
            simconfig_fields=["packet_phits", "arbiter", "new_knob"],
        )
        assert (
            check_cache_key(
                cache_mods(config_src=config_src, executor_src=executor_src), config
            )
            == []
        )

    def test_version_pin_mismatch_fires(self):
        src = EXECUTOR_SRC.replace("CACHE_VERSION = 3", "CACHE_VERSION = 4")
        violations = check_cache_key(cache_mods(executor_src=src), cache_cfg())
        assert len(violations) == 1
        assert "re-pin" in violations[0].message

    def test_stale_pinned_field_fires(self):
        config = cache_cfg(
            simconfig_fields=["packet_phits", "arbiter", "removed_knob"]
        )
        violations = check_cache_key(cache_mods(), config)
        assert len(violations) == 1
        assert "removed_knob" in violations[0].message

    def test_field_by_field_key_without_asdict(self):
        # Payload reads config fields individually: a missing one fires.
        src = EXECUTOR_SRC.replace(
            '"config": asdict(job.config),', '"phits": job.config.packet_phits,'
        )
        violations = check_cache_key(cache_mods(executor_src=src), cache_cfg())
        assert len(violations) == 1
        assert "SimConfig.arbiter" in violations[0].message

    def test_subtree_without_anchors_is_silent(self):
        assert check_cache_key(mods({"repro/a.py": "x = 1\n"}), cache_cfg()) == []


# ----------------------------------------------------------------------
# Metrics-hook backend parity
# ----------------------------------------------------------------------
METRICS_SRC = """
class MetricsCollector:
    def on_eject(self, slot, pkt):
        pass
    def on_stalled(self, pids):
        pass
"""

BACKENDS_SRC = """
ENGINE_BACKENDS.register_lazy("slot", "repro.simulator.engine", "Simulator")
ENGINE_BACKENDS.register_lazy("fast", "repro.simulator.fast", "FastSim")
"""

ENGINE_SRC = """
class Simulator:
    def _eject(self):
        self.metrics.on_eject(self.slot, None)
    def _watchdog(self):
        self._mark_stalled()
    def _mark_stalled(self):
        self.metrics.on_stalled(0)
"""


def hooks_cfg() -> LintConfig:
    return LintConfig(
        rng={},
        invariants={
            "hooks": {
                "backends_module": "repro/simulator/backends.py",
                "metrics_module": "repro/simulator/metrics.py",
                "package": "repro/simulator/",
                "reference": "slot",
                "receivers": ["metrics"],
                "allow": [],
            }
        },
    )


def hook_mods(fast_src: str) -> list[Module]:
    return mods(
        {
            "repro/simulator/metrics.py": METRICS_SRC,
            "repro/simulator/backends.py": BACKENDS_SRC,
            "repro/simulator/engine.py": ENGINE_SRC,
            "repro/simulator/fast.py": fast_src,
        }
    )


class TestHookParityChecker:
    def test_override_dropping_hook_fires(self):
        fast = """
        class FastSim(Simulator):
            def _eject(self):
                pass
        """
        violations = check_hook_parity(hook_mods(fast), hooks_cfg())
        assert len(violations) == 1
        v = violations[0]
        assert v.path == "repro/simulator/fast.py"
        assert "on_eject" in v.message and "'fast'" in v.message

    def test_override_keeping_hook_is_silent(self):
        fast = """
        class FastSim(Simulator):
            def _eject(self):
                self.metrics.on_eject(self.slot, None)
        """
        assert check_hook_parity(hook_mods(fast), hooks_cfg()) == []

    def test_hook_reached_through_helper_counts(self):
        # The dispatch lives in a shared helper the override calls —
        # transitive reachability must satisfy parity.
        fast = """
        def batch_eject(sim):
            sim.metrics.on_eject(sim.slot, None)

        class FastSim(Simulator):
            def _eject(self):
                batch_eject(self)
        """
        assert check_hook_parity(hook_mods(fast), hooks_cfg()) == []

    def test_unrelated_hook_does_not_satisfy(self):
        fast = """
        class FastSim(Simulator):
            def _watchdog(self):
                self.metrics.on_eject(self.slot, None)
        """
        violations = check_hook_parity(hook_mods(fast), hooks_cfg())
        assert len(violations) == 1
        assert "on_stalled" in violations[0].message

    def test_non_overridden_methods_are_not_checked(self):
        fast = """
        class FastSim(Simulator):
            def unrelated(self):
                pass
        """
        assert check_hook_parity(hook_mods(fast), hooks_cfg()) == []


# ----------------------------------------------------------------------
# Registry bypass
# ----------------------------------------------------------------------
CATALOG_SRC = """
TRAFFIC_REGISTRY.register("uniform", UniformTraffic)
TRAFFIC_REGISTRY.register("shift", lambda net: ShiftTraffic(net, shift=1))
for _entry in (("hotspot", lambda net: HotspotTraffic(net)),):
    TRAFFIC_REGISTRY.register(_entry[0], _entry[1])
"""

PATTERNS_SRC = """
class UniformTraffic:
    pass

class ShiftTraffic:
    pass

class HotspotTraffic:
    pass

def _self_test():
    return ShiftTraffic()
"""


def registry_cfg(allow: list[dict] | None = None) -> LintConfig:
    return LintConfig(
        rng={},
        invariants={
            "registry": {
                "registries": ["TRAFFIC_REGISTRY"],
                "allow": allow or [],
            }
        },
    )


def registry_mods(extra: dict[str, str] | None = None) -> list[Module]:
    files = {
        "repro/traffic/catalog.py": CATALOG_SRC,
        "repro/traffic/patterns.py": PATTERNS_SRC,
    }
    files.update(extra or {})
    return mods(files)


class TestRegistryBypassChecker:
    def test_direct_instantiation_fires(self):
        extra = {
            "repro/experiments/foo.py": "t = ShiftTraffic(net)\n",
        }
        violations = check_registry_bypass(registry_mods(extra), registry_cfg())
        assert len(violations) == 1
        v = violations[0]
        assert v.path == "repro/experiments/foo.py"
        assert "ShiftTraffic" in v.message and "TRAFFIC_REGISTRY" in v.message

    def test_loop_registered_constructor_is_protected(self):
        # The for-loop registration idiom: the factory lambda sits in a
        # module-level tuple, not in register()'s argument list.
        extra = {
            "repro/experiments/foo.py": "t = HotspotTraffic(net)\n",
        }
        violations = check_registry_bypass(registry_mods(extra), registry_cfg())
        assert len(violations) == 1
        assert "HotspotTraffic" in violations[0].message

    def test_defining_module_is_home(self):
        # patterns.py defines ShiftTraffic and calls it in _self_test —
        # idiomatic, silent.
        assert check_registry_bypass(registry_mods(), registry_cfg()) == []

    def test_registering_module_is_home(self):
        # The catalog's own lambdas call the constructors — silent.
        assert check_registry_bypass(registry_mods(), registry_cfg()) == []

    def test_allowlisted_site_is_silent(self):
        extra = {
            "repro/experiments/foo.py": "t = ShiftTraffic(net)\n",
        }
        config = registry_cfg(
            allow=[
                {
                    "file": "repro/experiments/foo.py",
                    "constructor": "ShiftTraffic",
                    "reason": "fixture",
                }
            ]
        )
        assert check_registry_bypass(registry_mods(extra), config) == []

    def test_unregistered_class_is_free(self):
        extra = {
            "repro/experiments/foo.py": "x = SomethingElse()\n",
        }
        assert check_registry_bypass(registry_mods(extra), registry_cfg()) == []

    def test_no_registries_configured_is_silent(self):
        config = LintConfig(rng={}, invariants={"registry": {"registries": []}})
        extra = {"repro/experiments/foo.py": "t = ShiftTraffic(net)\n"}
        assert check_registry_bypass(registry_mods(extra), config) == []


# ----------------------------------------------------------------------
# Suite plumbing
# ----------------------------------------------------------------------
class TestRunLint:
    def test_violations_sorted_by_path_and_line(self):
        files = {
            "repro/z.py": "import random\n",
            "repro/a.py": "import random\nimport random\n",
        }
        violations = run_lint(mods(files), rng_config())
        assert [(v.path, v.line) for v in violations] == [
            ("repro/a.py", 1),
            ("repro/a.py", 2),
            ("repro/z.py", 1),
        ]

    def test_violation_rendering(self):
        (v,) = run_lint(mods({"repro/a.py": "import random\n"}), rng_config())
        assert str(v).startswith("repro/a.py:1: [rng] ")
