"""Instance compilers and sequence bridges.

The names below load their module on first use (PEP 562), so a process that
runs one compiler, such as ``rekonfig reduce pmr2isr``, does not load the
others. No submodule shares its name with a function it exports: once such a
submodule were loaded, the package attribute would be the module.
"""

from importlib import import_module

_EXPORTS = {
    "annotations": ("GadgetAnnotation", "GadgetTag"),
    "bridges": ("ktj_seq_to_tar_seq", "tar_highval_to_tj"),
    "crossover": ("GADGET_EDGES", "GADGET_ROLES", "build_crossover_gadget", "planarize"),
    "drawing": ("Crossing", "Drawing", "find_crossings", "grid_draw", "segment_intersection"),
    "isr_from_sat": ("add_isolated_pads", "inte3sat_to_isr"),
    "ncl": ("decompose_state", "ncl_to_isr"),
    "pmr": ("pmr_to_isr",),
    "sat": ("e3sat_to_inte3sat", "replace_long_clause"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached here: the name always reads the current binding in its module.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
