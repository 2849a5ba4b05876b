"""Per-vertex labels emitted by every instance compiler, so tests can assert
gadget-local invariants without re-deriving which vertex came from where.
"""

from __future__ import annotations

from enum import Enum

from ..record import Record


class GadgetTag(Enum):
    TRUE_VERTEX = "true"
    FALSE_VERTEX = "false"
    POSITIVE_VERTEX = "positive"
    NEGATIVE_VERTEX = "negative"
    CONNECTOR = "connector"
    INTERNAL = "internal"
    CROSSOVER = "crossover"
    PAD = "pad"


class GadgetAnnotation(Record):
    """tags[v] is the role of vertex v; provenance[v] is a tuple naming the
    variable/clause/machine-element/crossing it came from.

    Provenance shapes used by the compilers:
      ("var", x, occ)                  variable-cycle vertex, occurrence occ of variable x
      ("clause", h, slot, lit, occ)    clause-gadget vertex for literal lit in slot
      ("pad", i)                       isolated padding vertex
      ("ncl-edge", e, pos)             edge-gadget cycle position (connectors included)
      ("ncl-vertex", v, idx)           internal vertex idx of the gadget for machine vertex v
      ("crossing", c, role)            crossover-gadget vertex, role in
                                       {"u1p","u2p","v1p","v2p","w1","w2","w3","w4"}
    """

    tags: tuple[GadgetTag, ...]
    provenance: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.tags) != len(self.provenance):
            raise ValueError("tags and provenance must have equal length")

    def __len__(self) -> int:
        return len(self.tags)

    def vertices_with_tag(self, tag: GadgetTag) -> tuple[int, ...]:
        return tuple(v for v, t in enumerate(self.tags) if t is tag)

    def tag(self, v: int) -> GadgetTag:
        return self.tags[v]

    def of(self, v: int) -> tuple:
        return self.provenance[v]
