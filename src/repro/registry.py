"""Shared name-registry helper for every pluggable axis.

The library selects pluggable components by short string everywhere a
user-facing knob exists: traffic patterns, topology families, arbiters,
flow controls, injection processes and engine backends.  Historically
each axis grew its own ad-hoc dict + factory + error message; this
module consolidates them behind one :class:`Registry` so that

* alias/case/whitespace folding is identical on every axis,
* every unknown-name rejection raises the same ``ValueError`` shape —
  ``unknown <kind> <name>; expected one of [...]`` — naming both the bad
  key and the valid choices, and
* registering a new implementation is one call, after which the name is
  reachable from configs, sweeps, cache keys and the CLI alike.

A :class:`Registry` behaves like a read-only mapping from canonical name
to registered object (``set(ARBITERS)``, ``"qp" in ARBITERS``,
``FLOW_CONTROLS["vct"].label`` all keep working), preserving
registration order, with alias resolution via :meth:`canonical` and
instantiation via :meth:`make`.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module
from typing import Any, Iterator


class _Lazy:
    """A registered entry resolved on first access (breaks import cycles:
    the backend registry can name classes whose modules import it)."""

    __slots__ = ("module", "attr")

    def __init__(self, module: str, attr: str) -> None:
        self.module = module
        self.attr = attr

    def load(self) -> Any:
        return getattr(import_module(self.module), self.attr)


class Registry(Mapping[str, Any]):
    """One named axis of pluggable implementations.

    Parameters
    ----------
    kind:
        Human-readable axis name used in error messages (``"arbiter"``,
        ``"traffic pattern"``, ...).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._alias_of: dict[str, str] = {}
        self._display: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _claim(self, key: str) -> None:
        if key in self._entries or key in self._alias_of:
            raise ValueError(f"duplicate {self.kind} name {key!r}")

    def register(
        self,
        name: str,
        obj: Any,
        *,
        aliases: tuple[str, ...] = (),
        display: str | None = None,
    ) -> Any:
        """Register ``obj`` under ``name`` (plus lower-case ``aliases``).

        Returns ``obj`` so the call can wrap a class definition.  Names
        and aliases share one namespace; collisions fail loudly at import
        time, never by silently shadowing an earlier entry.
        """
        key = name.strip().lower()
        self._claim(key)
        self._entries[key] = obj
        self._display[key] = display if display is not None else name
        for alias in aliases:
            akey = alias.strip().lower()
            self._claim(akey)
            self._alias_of[akey] = key
        return obj

    def register_lazy(
        self,
        name: str,
        module: str,
        attr: str,
        *,
        aliases: tuple[str, ...] = (),
        display: str | None = None,
    ) -> None:
        """Register ``module.attr`` without importing it yet.

        The name is valid (canonicalisable, listed, cache-keyable)
        immediately; the object loads on first :meth:`__getitem__` /
        :meth:`make`.  This is how the engine-backend registry avoids an
        import cycle: backends live in modules that import the registry.
        """
        self.register(name, _Lazy(module, attr), aliases=aliases, display=display)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._entries)

    def _unknown(self, name: str) -> ValueError:
        return ValueError(
            f"unknown {self.kind} {name!r}; "
            f"expected one of {sorted(self._entries)}"
        )

    def canonical(self, name: str) -> str:
        """Resolve a name or alias (case/whitespace-folded) to its
        canonical registry name; unknown names raise the registry's one
        ``ValueError``."""
        key = str(name).strip().lower()
        if key in self._entries:
            return key
        alias = self._alias_of.get(key)
        if alias is not None:
            return alias
        raise self._unknown(name)

    def require(self, name: str, *, aliases: bool = False) -> str:
        """Like :meth:`canonical` but *strict*: only an exact canonical
        name passes — or, with ``aliases=True``, an exact alias, returned
        as its canonical name.  Config fields use this — they travel
        verbatim into cache keys, where ``"QP"`` and ``"qp"`` must not
        name two entries for one physical configuration."""
        if name in self._entries:
            return name
        if aliases and name in self._alias_of:
            return self._alias_of[name]
        raise self._unknown(name)

    def display_name(self, name: str) -> str:
        """Human-readable label of a registered name (or alias)."""
        return self._display[self.canonical(name)]

    def make(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call the registered factory/class for ``name`` (or an alias)."""
        return self[name](*args, **kwargs)

    # ------------------------------------------------------------------
    # Mapping protocol (canonical names only, registration order)
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        obj = self._entries[self.canonical(name)]
        if isinstance(obj, _Lazy):
            obj = obj.load()
            self._entries[self.canonical(name)] = obj
        return obj

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        # ``canonical`` str()-folds internally, so coercing here changes
        # nothing observable while keeping its signature honestly ``str``.
        try:
            self.canonical(str(name))
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={list(self._entries)})"
