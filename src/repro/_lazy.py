"""Lazy package exports (PEP 562).

Each package ``__init__`` hands :func:`lazy_exports` one table,
``{defining module: [names]}``, and binds what it returns as its
``__all__``, ``__getattr__`` and ``__dir__``.  A name is imported from
its defining module on first access, so ``import repro`` loads no
submodule and a command pays only for the modules it uses.  Names the
package defines itself are listed under the package's own name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` re-exporting ``table``.

    ``__getattr__`` also imports a submodule of ``package`` on first
    attribute access, so ``import repro; repro.sim.table2`` works
    without an explicit ``import repro.sim``.
    """
    exported = [name for names in table.values() for name in names]
    owners = {
        name: module
        for module, names in table.items()
        if module != package
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is not None:
            return getattr(importlib.import_module(module), name)
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exported))

    return exported, __getattr__, __dir__
