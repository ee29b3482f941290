"""Package attributes imported on first access (PEP 562)."""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``(names, __getattr__)`` for *package*: every name in *table*
    (defining module -> names) is imported from its module when first
    read, so importing the package does not import those modules."""
    module_of = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(module), name)

    return list(module_of), __getattr__
