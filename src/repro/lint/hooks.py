"""Metrics-hook backend-parity checker.

Every engine backend must feed :class:`MetricsCollector` the same
observations in the same slots — that is what makes their records
byte-identical.  The slot-synchronous ``Simulator`` is the reference;
the other backends subclass it and override phase methods, and an
override that forgets a ``metrics.on_*`` dispatch the reference makes
(directly, or transitively through a shared helper like the arbiters'
``_hol_requests``) silently skews a counter that only a golden
fingerprint would eventually catch.

The check, fully AST-derived:

1. The hook vocabulary is the ``on_*`` methods of ``MetricsCollector``
   (``repro/simulator/metrics.py``).
2. The reference class and the backends are read from the
   ``ENGINE_BACKENDS.register_lazy`` calls in
   ``repro/simulator/backends.py`` — registering a fourth backend
   automatically subjects it to parity.
3. For every module in the simulator package, each function/method is
   mapped to the hooks it dispatches on a ``metrics`` receiver plus the
   simple names of everything it calls; dispatch sets are propagated to
   a fixpoint through name-matched callees, so a hook fired inside
   ``Arbiter._hol_requests`` counts for every method that reaches
   an arbiter's ``allocate``.
4. For each reference method a backend overrides, every hook reachable
   from the reference method must be reachable from the override —
   modulo the per-(backend, method, hook) allowlist in
   ``invariants.toml``.
"""

from __future__ import annotations

import ast
from collections import deque

from .base import (
    LintConfig,
    Module,
    Violation,
    attr_chain,
    class_methods,
    find_module,
)

CHECKER = "hook-parity"


def _registered_backends(tree: ast.Module) -> list[tuple[str, str, str]]:
    """``(name, module_rel, class_name)`` per ``register_lazy`` call."""
    entries = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register_lazy"
        ):
            continue
        args = [
            a.value for a in node.args if isinstance(a, ast.Constant)
        ]
        if len(args) >= 3 and all(isinstance(a, str) for a in args[:3]):
            entries.append(
                (args[0], args[1].replace(".", "/") + ".py", args[2])
            )
    return entries


def _hook_vocabulary(metrics_mod: Module) -> set:
    return {
        name
        for name in class_methods(metrics_mod.tree, "MetricsCollector")
        if name.startswith("on_")
    }


class _FnInfo:
    __slots__ = ("hooks", "calls")

    def __init__(self) -> None:
        self.hooks: set[str] = set()
        self.calls: set[str] = set()


def _function_table(
    modules: list[Module], hook_names: set, receivers: set
) -> dict[tuple[str, str], _FnInfo]:
    """``(module rel, qualname) -> dispatched hooks + called names``."""
    table: dict[tuple[str, str], _FnInfo] = {}

    def scan(rel: str, qual: str, fn: ast.AST) -> None:
        info = table.setdefault((rel, qual), _FnInfo())
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in hook_names:
                    chain = attr_chain(func.value)
                    last = chain.split(".")[-1] if chain else None
                    if last in receivers:
                        info.hooks.add(func.attr)
                        continue
                info.calls.add(func.attr)
            elif isinstance(func, ast.Name):
                info.calls.add(func.id)

    for mod in modules:
        for node in mod.tree.body:
            if isinstance(node, ast.FunctionDef):
                scan(mod.rel, node.name, node)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        scan(mod.rel, f"{node.name}.{stmt.name}", stmt)
    return table


def _transitive_hooks(
    start: tuple[str, str],
    table: dict[tuple[str, str], _FnInfo],
    name_index: dict[str, list],
) -> set:
    """Hooks reachable from ``start`` through name-matched callees."""
    seen = {start}
    queue = deque([start])
    hooks: set[str] = set()
    while queue:
        key = queue.popleft()
        info = table.get(key)
        if info is None:
            continue
        hooks |= info.hooks
        for callee in info.calls:
            for nxt in name_index.get(callee, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return hooks


def check_hook_parity(modules: list[Module], config: LintConfig) -> list[Violation]:
    cfg = config.invariants.get("hooks", {})
    if not cfg:
        return []
    backends_mod = find_module(modules, cfg.get("backends_module", ""))
    metrics_mod = find_module(modules, cfg.get("metrics_module", ""))
    if backends_mod is None or metrics_mod is None:
        return []

    hook_names = _hook_vocabulary(metrics_mod)
    receivers = set(cfg.get("receivers", ("metrics",)))
    registered = _registered_backends(backends_mod.tree)
    reference_name = cfg.get("reference", "slot")
    reference = next(
        ((rel, cls) for name, rel, cls in registered if name == reference_name),
        None,
    )
    if reference is None or not hook_names:
        return []
    ref_rel, ref_cls = reference
    ref_mod = find_module(modules, ref_rel)
    if ref_mod is None:
        return []

    allow = {
        (e.get("backend"), e.get("method"), e.get("hook"))
        for e in cfg.get("allow", ())
    }

    # Simulator-package call graph (the contract lives inside it).
    package = cfg.get("package", "repro/simulator/")
    pkg_modules = [m for m in modules if m.rel.startswith(package)]
    table = _function_table(pkg_modules, hook_names, receivers)
    name_index: dict[str, list] = {}
    for rel, qual in table:
        name_index.setdefault(qual.split(".")[-1], []).append((rel, qual))

    ref_methods = class_methods(ref_mod.tree, ref_cls)
    out: list[Violation] = []
    for backend_name, rel, cls in registered:
        if backend_name == reference_name:
            continue
        mod = find_module(modules, rel)
        if mod is None:
            continue
        methods = class_methods(mod.tree, cls)
        for method, line in sorted(methods.items()):
            if method.startswith("__") or method not in ref_methods:
                continue
            ref_hooks = _transitive_hooks(
                (ref_rel, f"{ref_cls}.{method}"), table, name_index
            )
            if not ref_hooks:
                continue
            own_hooks = _transitive_hooks(
                (rel, f"{cls}.{method}"), table, name_index
            )
            for hook in sorted(ref_hooks):
                if hook in own_hooks:
                    continue
                if (backend_name, method, hook) in allow:
                    continue
                out.append(
                    Violation(
                        CHECKER, rel, line,
                        f"backend {backend_name!r} overrides {ref_cls}."
                        f"{method}, which dispatches metrics.{hook} in the "
                        f"slot reference ({ref_rel}), but no such "
                        "dispatch is reachable from the override — records "
                        "will diverge from the reference fingerprint",
                    )
                )
    return out
