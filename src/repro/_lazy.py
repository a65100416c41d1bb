"""Lazy package re-exports (PEP 562): a process imports what it runs.

Every package ``__init__`` under ``repro`` re-exports its public names
through :func:`lazy_exports` instead of importing its submodules, so
``from repro.runner import derive_seed`` executes ``runner.seeds`` and
nothing else. A name is resolved by ``importlib`` on first attribute
access and cached in the package namespace — the second access is a
plain module attribute and never reaches ``__getattr__`` again.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import (Callable, Dict, Iterator, List, Mapping, Sequence,
                    Tuple)


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object],
                            Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps each submodule (relative to the package) to the
    names it defines that the package re-exports.
    """
    origin: Dict[str, str] = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)


class LazyModules(Mapping):
    """Read-only ``key -> module`` registry that imports on ``[]``.

    ``in``, ``len`` and iteration answer from the names alone, so an
    unknown key is rejected without importing anything.
    """

    def __init__(self, package: str, submodules: Mapping[str, str]) -> None:
        self._names = {key: f"{package}.{submodule}"
                       for key, submodule in submodules.items()}

    def __getitem__(self, key: str) -> ModuleType:
        return import_module(self._names[key])

    def __contains__(self, key: object) -> bool:
        return key in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)
