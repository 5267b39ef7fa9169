"""Named factories, instantiated once: the Factory pattern of paper §VI-1.

Deep-learning backends (:mod:`repro.core.backend`) are looked up by name
through one of these.  Execution engines are not: the two ship as fixed
instances in :data:`repro.core.engine.ENGINES`.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


def _definition(factory: Callable) -> tuple[str | None, str | None]:
    return getattr(factory, "__module__", None), getattr(factory, "__qualname__", None)


def _same_factory(a: Callable, b: Callable) -> bool:
    """Identity, or the same module + qualname (what a re-import produces)."""
    return a is b or (_definition(a)[0] is not None and _definition(a) == _definition(b))


class Registry(Generic[T]):
    """``name -> factory`` with one lazily built instance per name."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[[], T]] = {}
        self._instances: dict[str, T] = {}

    def register(self, name: str, factory: Callable[[], T]) -> None:
        """Register ``factory``; the same factory again is a no-op (module
        re-imports), a different one for a taken name raises ``ValueError``."""
        existing = self._factories.setdefault(name, factory)
        if not _same_factory(existing, factory):
            raise ValueError(
                f"{self.kind} {name!r} already registered with a different factory "
                f"({existing!r}); refusing to replace it with {factory!r}"
            )

    def get(self, name: str) -> T:
        """The instance for ``name``; unknown names list what is available."""
        if name not in self._instances:
            if name not in self._factories:
                raise KeyError(
                    f"unknown {self.kind} {name!r}; available {self.kind}s: "
                    f"{', '.join(self.available())}"
                )
            self._instances[name] = self._factories[name]()
        return self._instances[name]

    def available(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._factories)
