"""Shared plumbing for the repro-lint checkers.

A checker is a pure function ``(modules, config) -> violations``:

* ``modules`` — every Python file under the scanned root, parsed once
  into :class:`Module` records carrying the AST plus a *package-rooted*
  relative path (``repro/simulator/engine.py``), which is the path
  convention every allowlist and anchor entry in the TOML configuration
  uses.
* ``config`` — :class:`LintConfig`, the parsed contents of the two
  checked-in TOML files shipped next to this package
  (``rng_sites.toml`` and ``invariants.toml``).  Tests construct it
  directly with synthetic dictionaries.

Nothing here imports the code under analysis — the suite is AST-only,
so it can lint a tree that does not even import cleanly.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - exercised only on Python 3.10
    import tomli as tomllib

#: Directory holding the checked-in configuration TOMLs.
CONFIG_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Violation:
    """One named invariant break, anchored to a file and line."""

    checker: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}"


@dataclass(frozen=True)
class Module:
    """One parsed source file."""

    #: Package-rooted posix path, e.g. ``repro/simulator/engine.py``.
    rel: str
    tree: ast.Module

    @property
    def dotted(self) -> str:
        """Dotted module name (``repro.simulator.engine``)."""
        return self.rel.removesuffix(".py").removesuffix("/__init__").replace("/", ".")


@dataclass(frozen=True)
class LintConfig:
    """Parsed checker configuration (the two checked-in TOML files)."""

    rng: dict[str, Any] = field(default_factory=dict)
    invariants: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def load_default(cls) -> "LintConfig":
        """The configuration shipped with the package."""
        with open(CONFIG_DIR / "rng_sites.toml", "rb") as f:
            rng = tomllib.load(f)
        with open(CONFIG_DIR / "invariants.toml", "rb") as f:
            invariants = tomllib.load(f)
        return cls(rng=rng, invariants=invariants)


def _package_base(root: Path) -> Path:
    """The directory package-rooted paths are relative to.

    ``python -m repro.lint src`` and ``python -m repro.lint src/repro``
    must produce the same ``repro/...`` relative paths; a fixture tree
    is scanned from a root that itself *contains* a package directory.
    """
    root = root.resolve()
    if root.name == "repro":
        return root.parent
    return root


def load_modules(root: Path) -> list[Module]:
    """Parse every ``*.py`` under ``root`` (sorted, skipping caches)."""
    root = Path(root)
    base = _package_base(root)
    modules = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts or any(
            part.startswith(".") for part in path.parts
        ):
            continue
        rel = path.resolve().relative_to(base).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        modules.append(Module(rel=rel, tree=tree))
    return modules


def find_module(modules: list[Module], rel: str) -> Module | None:
    for mod in modules:
        if mod.rel == rel:
            return mod
    return None


def attr_chain(node: ast.expr) -> str | None:
    """Flatten ``a.b.c`` to ``"a.b.c"``; ``None`` for non-name roots."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_scoped(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(scope_qualname, node)`` for every node in the module.

    The qualname stacks enclosing class and function names
    (``QPArbiter.allocate``); module level is ``"<module>"``.
    Lambdas do not open a scope of their own — a draw inside a
    registration lambda reports under the enclosing (module) scope,
    which is where a reviewer will look for it.
    """

    def visit(node: ast.AST, scope: tuple[str, ...]) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                yield ".".join(inner), child
                yield from visit(child, inner)
            else:
                yield ".".join(scope) if scope else "<module>", child
                yield from visit(child, scope)

    yield from visit(tree, ())


def dataclass_fields(tree: ast.Module, class_name: str) -> dict[str, int]:
    """``field name -> line`` of a dataclass's annotated fields.

    AST-level equivalent of ``dataclasses.fields``: annotated
    assignments in the class body, skipping underscore names and
    ``ClassVar`` annotations.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields: dict[str, int] = {}
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                name = stmt.target.id
                if name.startswith("_"):
                    continue
                anno = ast.unparse(stmt.annotation)
                if "ClassVar" in anno:
                    continue
                fields[name] = stmt.lineno
            return fields
    return {}


def class_methods(tree: ast.Module, class_name: str) -> dict[str, int]:
    """``method name -> def line`` for a class's directly-defined methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                stmt.name: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return {}
