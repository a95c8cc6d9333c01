"""The records are namedtuple subclasses: their repr, hash, order,
immutability, keyword construction and validation messages, on which
violation texts, digests and verdicts depend."""

import pytest

from starurd.admissibility import AdmissiblePair, CoverageVerdict
from starurd.assembler import BuildRequest
from starurd.aurd import AurdOutput
from starurd.blowup import WeightedCycle, WeightedOneFactor
from starurd.model import (
    ONE_FACTOR,
    Decomposition,
    Edge,
    FactorClass,
    FlatClass,
    Params,
    StarBlock,
    VerificationReport,
    Vertex,
)
from starurd.search import SearchOutcome
from starurd.seeds import HamDecomposition, OneFactorization

EDGE = Edge(Vertex(0, 1), Vertex(0, 0))
STAR = StarBlock(Vertex(0, 0), (Vertex(1, 3), Vertex(1, 1), Vertex(1, 2)))
FLAT = FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 2, 4), b"\x00\x00", False)
RECORDS = [
    Params(12, 3, 3),
    Vertex(0, 1),
    EDGE,
    STAR,
    FactorClass(ONE_FACTOR, [EDGE]),
    FLAT,
    Decomposition(Params(4, 3, 1), (FLAT,), 1, 0),
    VerificationReport(True, ()),
    AdmissiblePair(5, 4, 1),
    CoverageVerdict("CONSTRUCTIVE", "r = 2n*0 + 5 with m=3", 0),
    WeightedCycle([0, 1, 2], 4),
    WeightedOneFactor([(1, 0)], 4),
    HamDecomposition(3, ((2, 0, 1),), None),
    OneFactorization(2, (((0, 1),),)),
    BuildRequest(12, 3, 0),
    AurdOutput((FLAT,), ("F@j=0",), 4),
    SearchOutcome("FOUND", None, 1, 0.5),
]
# Decomposition and AurdOutput cache their object view on the instance
WITH_DICT = (Decomposition, AurdOutput)


def _name(record):
    return type(record).__name__


def test_every_record_class_is_sampled():
    assert len({type(record) for record in RECORDS}) == 17


def test_repr_text():
    assert repr(EDGE) == "Edge(u=Vertex(base=0, level=0), v=Vertex(base=0, level=1))"
    assert repr(STAR) == (
        "StarBlock(center=Vertex(base=0, level=0), leaves=(Vertex(base=1, level=1), "
        "Vertex(base=1, level=2), Vertex(base=1, level=3)))"
    )
    assert repr(Params(12, 3, 3)) == "Params(v=12, n=3, m=3)"
    assert repr(CoverageVerdict("INADMISSIBLE", "why")) == (
        "CoverageVerdict(status='INADMISSIBLE', reason='why', ell=None)"
    )
    assert str(Vertex(2, 1)) == "Vertex(base=2, level=1)"


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_repr_lists_every_field_in_order(record):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
    assert repr(record) == f"{_name(record)}({fields})"


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_hash_is_that_of_the_field_tuple(record):
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)  # the one change: a record equals its plain tuple


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_keyword_construction(record):
    assert type(record)(**dict(zip(record._fields, record))) == record


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_fields_cannot_be_set(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if not isinstance(record, WITH_DICT):
        with pytest.raises(AttributeError):
            record.extra = None


def test_defaults():
    assert CoverageVerdict("INADMISSIBLE", "why").ell is None
    assert SearchOutcome("FOUND", None, 1, 0.5).reason is None


def test_sort_order_is_the_field_order():
    vertices = [Vertex(b, l) for b in (2, 0, 1) for l in (3, 0, 2)]
    edges = [Edge(u, v) for u in vertices for v in vertices if u != v]
    stars = [StarBlock(c, tuple(v for v in vertices[:4] if v != c)) for c in vertices]

    def key(vertex):
        return (vertex.base, vertex.level)

    assert sorted(vertices) == sorted(vertices, key=key)
    assert sorted(edges) == sorted(edges, key=lambda e: (key(e.u), key(e.v)))
    assert sorted(stars) == sorted(stars, key=lambda s: (key(s.center), [*map(key, s.leaves)]))
    params = [Params(8, 3, 2), Params(4, 3, 1), Params(12, 5, 2), Params(12, 3, 3)]
    assert sorted(params) == sorted(params, key=lambda p: (p.v, p.n, p.m))


def test_canonical_fields():
    assert EDGE.u == Vertex(0, 0) and EDGE.v == Vertex(0, 1)
    assert STAR.leaves == (Vertex(1, 1), Vertex(1, 2), Vertex(1, 3))
    assert FactorClass(ONE_FACTOR, [EDGE]).blocks == (EDGE,)
    assert WeightedCycle([0, 1, 2], 4).base == (0, 1, 2)
    assert WeightedOneFactor([(1, 0)], 4).base_matching == ((0, 1),)


@pytest.mark.parametrize("make,message", [
    (lambda: Params(16, 4, 4), "n must be odd and >= 3, got 4"),
    (lambda: Params(0, 3, 0), "m must be positive, got 0"),
    (lambda: Params(13, 3, 3), "v=13 is not m*(n+1)=12"),
    (lambda: Edge(Vertex(0, 0), Vertex(0, 0)), "loop edge at Vertex(base=0, level=0)"),
    (lambda: StarBlock(Vertex(0, 0), ()), "star needs at least one leaf"),
    (lambda: StarBlock(Vertex(0, 0), (Vertex(1, 1), Vertex(1, 1))),
     "duplicate leaves in star at Vertex(base=0, level=0)"),
    (lambda: StarBlock(Vertex(0, 0), (Vertex(1, 1), Vertex(0, 0))),
     "star center Vertex(base=0, level=0) repeated as leaf"),
    (lambda: FactorClass("triangle", ()), "unknown class kind 'triangle'"),
    (lambda: WeightedCycle((0, 1), 4), "cycle needs >= 3 base points, got 2"),
    (lambda: WeightedCycle((0, 1, 1), 4), "cycle base points must be distinct"),
    (lambda: WeightedCycle((0, 1, 2), 1), "weight must be >= 2, got 1"),
    (lambda: WeightedOneFactor(((0, 1), (1, 2)), 4), "base matching pairs are not disjoint"),
    (lambda: WeightedOneFactor((), 4), "base matching is empty"),
    (lambda: WeightedOneFactor(((0, 1),), 1), "weight must be >= 2, got 1"),
    (lambda: BuildRequest(8, 3, 0), "need m >= 3, got m=2"),
    (lambda: BuildRequest(12, 3, 2), "ell=2 out of range 0..1 for m=3"),
    (lambda: AurdOutput((FLAT,), (), 4), "one source tag per class required"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
