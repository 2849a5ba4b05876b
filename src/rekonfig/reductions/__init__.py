"""Instance compilers and sequence bridges.

The names below load their module on first use (PEP 562), so a process that
runs one compiler, such as ``rekonfig reduce pmr2isr``, does not load the
others. No submodule shares its name with a function it exports: once such a
submodule were loaded, the package attribute would be the module.
"""

from .. import _lazy_exports

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
_lazy_exports(globals(), _EXPORTS)
