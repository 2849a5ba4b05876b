"""Every record class against the frozen dataclass it stands for: the same
repr, equality and hash, the same refusal to change, and its own checks."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rekonfig.bounds import LengthBound
from rekonfig.budget import Budget
from rekonfig.errors import PreconditionError
from rekonfig.exact import SolveResult, TarResult
from rekonfig.graph import (
    FeasibilityKind,
    Graph,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    Verdict,
    iter_bits,
    mask_to_set,
    new_graph,
)
from rekonfig.matching import Bipartition
from rekonfig.oracles import Assignment, CnfFormula, NclConfig, NclMachine
from rekonfig.record import Record
from rekonfig.reductions.annotations import GadgetAnnotation, GadgetTag
from rekonfig.reductions.drawing import Crossing, Drawing
from rekonfig.xp import CliqueCompressedGraph

_P2 = new_graph(2, [(0, 1)])
_SEQ = ReconfigSequence((frozenset({0}), frozenset({1})))
_K4 = tuple((u, v, 2) for u in range(4) for v in range(u + 1, 4))

# Each record class with the arguments of two instances that differ in at
# least one field, already in the form their checks normalise to.
_CASES = {
    Graph: ((2, ((1,), (0,))), (2, ((), ()))),
    Rule: ((RuleKind.KTJ, 1), (RuleKind.KTS, 1)),
    ReconfigInstance: (
        (_P2, FeasibilityKind.INDEPENDENT_SET, frozenset({0}), frozenset({1}), Rule(RuleKind.KTJ, 1)),
        (_P2, FeasibilityKind.INDEPENDENT_SET, frozenset({0}), frozenset({1}), Rule(RuleKind.KTJ, 2)),
    ),
    ReconfigSequence: (((frozenset({0}), frozenset({1})),), ((frozenset({0}),),)),
    Verdict: ((False, 1, "not adjacent"), (False, 1, "not feasible")),
    Budget: ((10, 1.5), (10, 2.5)),
    SolveResult: ((True, _SEQ, 3), (True, None, 3)),
    TarResult: ((1, _SEQ), (2, _SEQ)),
    Bipartition: ((frozenset({0}), frozenset({1})), (frozenset({1}), frozenset({0}))),
    CliqueCompressedGraph: (
        (1, 2, (frozenset({0}), frozenset({1})), frozenset({(0, 1)})),
        (1, 2, (frozenset({0}), frozenset({1})), frozenset()),
    ),
    CnfFormula: ((2, ((1, -2, 2),)), (2, ((1, -2, -2),))),
    Assignment: (((True, False),), ((False, True),)),
    NclMachine: ((4, _K4), (4, _K4[::-1])),
    NclConfig: (((0, 1),), ((1, 0),)),
    LengthBound: ((6, 3, 1, Fraction(2), Fraction(3), 3), (6, 3, 1, Fraction(2), Fraction(3), 1)),
    GadgetAnnotation: (((GadgetTag.PAD,), (("pad", 0),)), ((GadgetTag.PAD,), (("pad", 1),))),
    Crossing: (((0, 1), (2, 3), (Fraction(1), Fraction(1, 2))), ((0, 1), (2, 4), (Fraction(1), Fraction(1, 2)))),
    Drawing: (
        (3, 6, ((0, 1), (1, 1)), {(0, 1): ((0, 1), (1, 1))}, ()),
        (3, 6, ((0, 1), (1, 2)), {(0, 1): ((0, 1), (1, 2))}, ()),
    ),
}


def _reference(cls):
    """The frozen dataclass with cls's declared fields and defaults."""
    fields = []
    for name in cls.__annotations__:
        if name in cls.__dict__:
            fields.append((name, object, dataclasses.field(default=cls.__dict__[name])))
        else:
            fields.append((name, object))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def test_every_record_class_has_a_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(Record)) == set(_CASES)


@pytest.mark.parametrize("cls", list(_CASES), ids=lambda cls: cls.__name__)
def test_record_matches_the_frozen_dataclass(cls):
    ref = _reference(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref))
    args_a, args_b = _CASES[cls]
    a, a2, b = cls(*args_a), cls(*args_a), cls(*args_b)
    ra, ra2, rb = ref(*args_a), ref(*args_a), ref(*args_b)
    assert repr(a) == repr(ra) and repr(b) == repr(rb)
    assert (a == a2, a != a2, a == b, a != b) == (ra == ra2, ra != ra2, ra == rb, ra != rb) == (True, False, False, True)
    # Equality holds only within one class.
    assert a != ra and (a == args_a) is False
    if cls is Drawing:  # a dict field makes both unhashable
        for value in (a, ra):
            with pytest.raises(TypeError):
                hash(value)
    else:
        assert hash(a) == hash(ra) == hash(a2) and hash(b) == hash(rb)
    # Keyword construction gives the same record.
    assert cls(**dict(zip(cls._fields, args_a))) == a
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    # A missing argument, or one too many where every field has a default.
    required = [name for name in cls.__annotations__ if name not in cls.__dict__]
    with pytest.raises(TypeError):
        cls() if required else cls(*args_a, None)


def test_defaults_and_keywords():
    assert Budget() == Budget(5_000_000, 60.0)
    assert Budget(max_seconds=2.0) == Budget(5_000_000, 2.0)
    assert repr(Verdict(True)) == "Verdict(accepted=True, index=None, reason=None)"
    assert Verdict(False, reason="x") == Verdict(False, None, "x")
    with pytest.raises(TypeError):
        Rule(kind=RuleKind.KTJ)
    with pytest.raises(TypeError):
        Rule(RuleKind.KTJ, 1, k=1)


def test_cached_property_on_a_record():
    g = Graph(2, ((1,), (0,)))
    assert g.neighbor_masks == (2, 1) and g.neighbor_masks is g.neighbor_masks
    assert g == Graph(2, ((1,), (0,)))  # a cached value is not a field


def test_post_init_checks_still_fire():
    with pytest.raises(PreconditionError, match="NaN"):
        Budget(max_seconds=math.nan)
    with pytest.raises(PreconditionError):
        Rule(RuleKind.KTJ, 0)
    with pytest.raises(PreconditionError):
        ReconfigSequence(())
    for variables, clauses in ((-1, ()), (2, ((),)), (2, ((1, 0, 2),)), (2, ((3,),))):
        with pytest.raises(PreconditionError):
            CnfFormula(variables, clauses)
    for vertices, edges in ((-1, ()), (4, ((0, 0, 2),)), (4, _K4 + ((0, 1, 2),)), (4, _K4[:-1])):
        with pytest.raises(PreconditionError):
            NclMachine(vertices, edges)
    # The checks normalise their fields through the frozen guard.
    assert ReconfigSequence(([0], {1})).steps == (frozenset({0}), frozenset({1}))
    assert CnfFormula(1, [[1, 1, -1]]).clauses == ((1, 1, -1),)


# Few bits of a wide mask are walked; dense masks are read as digits.
@given(
    st.sets(st.integers(0, 3000), max_size=64)
    | st.sets(st.integers(0, 40))
    | st.tuples(st.integers(0, 3000), st.integers(1, 7)).map(lambda t: set(range(0, t[0], t[1])))
)
def test_mask_to_set_is_the_set_of_its_bits(vertices):
    m = sum(1 << v for v in vertices)
    assert mask_to_set(m) == frozenset(iter_bits(m)) == frozenset(vertices)
