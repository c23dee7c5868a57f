"""Module attributes that resolve on first access (PEP 562).

A package façade lists the names it exports and the modules that define
them; :func:`lazy_exports` turns that list into the package's
``__getattr__`` and ``__dir__``.  Importing the package then costs
nothing beyond its own ``__init__``, and reading a name imports only the
module behind it.  ``from pkg import name``, ``pkg.name`` and ``from pkg
import *`` all go through ``__getattr__``.  A plain module can re-export
a name the same way.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for the module whose globals are
    ``namespace``; ``exports`` maps each defining module to its names.

    A resolved name is stored in ``namespace``, so every later read is a
    plain attribute lookup.  In a package, a name that is not exported
    is imported as a submodule: after a bare ``import pkg``,
    ``pkg.sub.name`` works whether or not anything imported ``pkg.sub``
    yet.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        value = getattr(_load(module), name) if module else _submodule(name)
        namespace[name] = value
        return value

    def _submodule(name: str) -> Any:
        if "__path__" in namespace:  # only a package has submodules
            try:
                return _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__


def _load(module: str) -> Any:
    # The import statement's machinery, not importlib.import_module, so
    # that ``python -X importtime`` charges each module its own time.
    __import__(module)
    return sys.modules[module]
