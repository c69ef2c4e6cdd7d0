"""Lazy package exports (PEP 562) for the ``repro`` package inits.

Every package ``__init__`` lists its public names by the module that
defines them and imports nothing up front.  A name's module loads on its
first lookup, so a process pays only for the modules its run touches:
``import repro`` loads neither numpy nor networkx.  That map is the only
list of a package's public names: ``__all__`` is derived from it.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object],
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for a package init.

    ``namespace`` is the package's ``globals()``.  ``exports`` maps a
    defining module (relative to the package when it starts with a dot)
    to the public names it provides; ``submodules`` are child modules
    that resolve as attributes too.  ``__all__`` is set in the namespace
    to the sorted exported names (submodules excluded).  A resolved value
    is stored in the namespace, so each name is looked up once.  Unknown
    names raise ``AttributeError``, which ``from package import
    submodule`` relies on to fall back to importing the submodule.
    """
    package = str(namespace["__name__"])
    owner = {name: module for module, names in exports.items() for name in names}
    children = frozenset(submodules)
    namespace["__all__"] = sorted(owner)

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif name in children:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner) | children)

    return __getattr__, __dir__
