"""Exact bases and triangle products on singular integral affine polygons,
cross-verified through a polynomial ring, free-group word counts, tropical
geometry, and floating-point coordinate integrals.

Each submodule is imported the first time it is read as an attribute of the
package (`affinefloer.floer`), so a process loads only the modules it uses.
Names are imported from their module: `from affinefloer.floer import mu2`.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    {"affine", "cli", "floer", "homotopy", "numchecks", "polyring", "render",
     "tropical", "verify", "wrapped"}
)


def __getattr__(name: str):
    # `from . import name` here would call this function again without end.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
