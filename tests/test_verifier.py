import json

import pytest

from reference_verifier import verify_aurd

from starurd import verifier
from starurd.assembler import BuildRequest, construct, construct_pair
from starurd.aurd import matching_aurd, star_aurd
from starurd.blowup import WeightedCycle
from starurd.model import (
    COUNT_MISMATCH,
    DUPLICATE_EDGE,
    Decomposition,
    EXTRA_EDGE,
    Edge,
    FactorClass,
    FlatClass,
    MISSING_EDGE,
    NOT_DISJOINT,
    NOT_SPANNING,
    ONE_FACTOR,
    PARAM_MISMATCH,
    STAR_FACTOR,
    Params,
    StarBlock,
    Vertex,
    WRONG_KIND,
)
from starurd.search import exhaustive_urd
from starurd.serialize import dumps, loads, to_text
from starurd.verifier import verify


def with_classes(d, classes):
    return Decomposition(d.params, tuple(classes), d.r, d.s)


def assert_shape_fault(d, ci, fault):
    """verify reports class ci's shape fault as written, and the writers
    and the object view each raise it as a ValueError and nothing else."""
    report = verify(d)
    assert not report.passed
    assert (WRONG_KIND, f"class {ci}: {fault}") in report.violations
    for read in (dumps, to_text, lambda d: d.classes):
        with pytest.raises(ValueError) as info:
            read(d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"class {ci}: {fault}"
    return report


def cycle_host(base, w):
    host = set()
    m = len(base)
    for p in range(m):
        a, b = base[p], base[(p + 1) % m]
        for i in range(w):
            for j in range(w):
                if i != j:
                    host.add(Edge(Vertex(a, i), Vertex(b, j)))
    return host


def test_valid_build_passes():
    report = verify(construct(BuildRequest(12, 3, 0)))
    assert report.passed and report.violations == ()


def test_deleted_edge_detected():
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    broken = FactorClass(ONE_FACTOR, classes[0].blocks[1:])
    classes[0] = broken
    report = verify(with_classes(d, classes))
    assert not report.passed
    assert {NOT_SPANNING, MISSING_EDGE} <= report.codes()


def test_shared_vertex_detected():
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    dup = classes[0].blocks[0]
    classes[0] = FactorClass(ONE_FACTOR, classes[0].blocks + (dup,))
    report = verify(with_classes(d, classes))
    assert not report.passed
    assert {NOT_DISJOINT, DUPLICATE_EDGE} <= report.codes()


def test_kind_flip_detected():
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    classes[0] = FactorClass(STAR_FACTOR, classes[0].blocks)
    report = verify(with_classes(d, classes))
    assert not report.passed
    assert WRONG_KIND in report.codes()
    assert COUNT_MISMATCH in report.codes()  # recorded r, s no longer match


def test_wrong_star_arity_detected():
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    si = next(i for i, fc in enumerate(classes) if fc.kind == STAR_FACTOR)
    blocks = list(classes[si].blocks)
    short = StarBlock(blocks[0].center, blocks[0].leaves[:2])
    blocks[0] = short
    classes[si] = FactorClass(STAR_FACTOR, tuple(blocks))
    report = verify(with_classes(d, classes))
    assert not report.passed
    assert {WRONG_KIND, NOT_SPANNING, MISSING_EDGE} <= report.codes()


@pytest.mark.parametrize("kind,detail", [
    (ONE_FACTOR, "block 5 holds 0 ids"),
    (STAR_FACTOR, "block 2 holds 0 ids"),
], ids=["one-factor", "star-factor"])
def test_object_that_is_no_block_is_reported_not_raised(kind, detail):
    # FlatClass.of makes an empty edge block of it, a shape fault; the
    # reference verifier cannot view such a class, so the report is
    # checked here rather than agreement with it
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    ci = next(i for i, fc in enumerate(classes) if fc.kind == kind)
    classes[ci] = FactorClass(kind, classes[ci].blocks[1:] + ("not a block",))
    report = assert_shape_fault(with_classes(d, classes), ci, detail)
    assert {WRONG_KIND, NOT_SPANNING, MISSING_EDGE} <= report.codes()


@pytest.mark.parametrize("ids,bounds,stars,fault", [
    ((0, 1, 2, 3), (0, 4, 4), b"\x01\x01", "block 1 holds 0 ids"),
    ((), (0, 0), b"\x01", "block 0 holds 0 ids"),
], ids=["star-then-empty", "empty"])
def test_empty_star_block_is_reported_not_raised(ids, bounds, stars, fault):
    # a star block with no ids has no center: a shape fault.  The
    # reference verifier cannot view such a class, so the codes are
    # checked here
    fc = FlatClass(STAR_FACTOR, ids, bounds, stars)
    report = assert_shape_fault(Decomposition(Params(4, 3, 1), (fc,) * 4, 0, 4), 0, fault)
    assert COUNT_MISMATCH in report.codes()


@pytest.mark.parametrize("loop,name", [
    ((2, 2), "(0, 2)"),
    (((1, 0), (1, 0)), "(1, 0)"),
], ids=["inside", "outside"])
def test_loop_in_a_hand_built_class_is_reported_not_raised(loop, name):
    # no reader makes a loop, and no Edge can hold one: a block that names
    # one vertex twice is a shape fault, so no block of its class is read
    # and each class that holds it covers no vertex
    one = FlatClass(ONE_FACTOR, (0, 1) + loop, (0, 2, 4), b"\x00\x00")
    two = FlatClass(ONE_FACTOR, (0, 2, 1, 3), (0, 2, 4), b"\x00\x00")
    three = FlatClass(ONE_FACTOR, (0, 3, 1, 2), (0, 2, 4), b"\x00\x00")
    extra = FlatClass(ONE_FACTOR, loop, (0, 2), b"\x00")
    d = Decomposition(Params(4, 3, 1), (one, two, three, extra), 4, 0)
    assert assert_shape_fault(d, 0, f"block 1 names {name} twice").violations == (
        (PARAM_MISMATCH, "(n+1)r + 2ns = 16 != (n+1)(v-1) = 12"),
        (WRONG_KIND, f"class 0: block 1 names {name} twice"),
        (NOT_SPANNING, "class 0: 4 vertices uncovered"),
        (WRONG_KIND, f"class 3: block 0 names {name} twice"),
        (NOT_SPANNING, "class 3: 4 vertices uncovered"),
        (MISSING_EDGE, f"2 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 1))}"),
    )


def test_edge_block_of_other_than_two_ids_is_reported():
    # K_4 = {01,23} + {02,13} + {03,12}, with the first two written as the
    # blocks (0,1,2),(3) and (3,1,2),(0): the same four edges if read as
    # edges from each block's first id, but an edge holds 2 ids, so each
    # class has a shape fault and none of its blocks is read
    one = FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 3, 4), b"\x00\x00")
    two = FlatClass(ONE_FACTOR, (3, 1, 2, 0), (0, 3, 4), b"\x00\x00")
    three = FlatClass(ONE_FACTOR, (0, 3, 1, 2), (0, 2, 4), b"\x00\x00")
    d = Decomposition(Params(4, 3, 1), (one, two, three), 3, 0)
    assert assert_shape_fault(d, 0, "block 0 holds 3 ids").violations == (
        (WRONG_KIND, "class 0: block 0 holds 3 ids"),
        (NOT_SPANNING, "class 0: 4 vertices uncovered"),
        (WRONG_KIND, "class 1: block 0 holds 3 ids"),
        (NOT_SPANNING, "class 1: 4 vertices uncovered"),
        (MISSING_EDGE, f"4 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 1))}"),
    )


def test_v_ids_in_blocks_of_the_other_kinds_size_are_reported():
    # K_8 (n=3): a star class of 8 ids in 2-id stars, a one-factor of 8 ids
    # in 4-id edges; each block's size fits the other kind, not its own.
    # A star of one leaf is a star of the wrong size for the class, walked
    # block by block; an edge of 4 ids is a shape fault, and no block of
    # its class is read
    stars = FlatClass(STAR_FACTOR, tuple(range(8)), (0, 2, 4, 6, 8), b"\x01" * 4)
    edges = FlatClass(ONE_FACTOR, tuple(range(8)), (0, 4, 8), b"\x00" * 2)
    report = assert_shape_fault(Decomposition(Params(8, 3, 2), (stars, edges), 1, 1),
                                1, "block 0 holds 4 ids")
    assert [detail for code, detail in report.violations if code == WRONG_KIND] == [
        "class 0: star with 1 leaves, expected 3",
    ] * 4 + ["class 1: block 0 holds 4 ids"]


def test_fudged_counts_detected():
    d = construct(BuildRequest(12, 3, 0))
    report = verify(Decomposition(d.params, d.classes, d.r + 2, d.s))
    assert not report.passed
    assert COUNT_MISMATCH in report.codes()
    assert PARAM_MISMATCH in report.codes()  # counting identity breaks too


def test_center_uniformity_checked():
    # swap one star's center with one of its leaves: the edge multiset of
    # that block is NOT preserved, but build a case where it is: exchange
    # the roles inside a 2-star class is impossible; instead check the
    # x-count on a hand-made unbalanced star layout over K_8's star part
    d = construct(BuildRequest(12, 3, 0))
    classes = list(d.classes)
    stars = [i for i, fc in enumerate(classes) if fc.kind == STAR_FACTOR]
    a, b = classes[stars[0]], classes[stars[1]]
    # move a whole star block between classes: keeps kinds and counts per
    # block intact but breaks spanning/disjointness and center balance
    classes[stars[0]] = FactorClass(STAR_FACTOR, a.blocks[:-1])
    classes[stars[1]] = FactorClass(STAR_FACTOR, b.blocks + (a.blocks[-1],))
    report = verify(with_classes(d, classes))
    assert not report.passed
    assert COUNT_MISMATCH in report.codes() or NOT_DISJOINT in report.codes()


def test_verify_aurd_passes_on_real_output():
    base = (0, 1, 2, 3)
    c = WeightedCycle(base, 4)
    out = matching_aurd(c)
    report = verify_aurd(out.classes, cycle_host(base, 4))
    assert report.passed


def test_verify_aurd_detects_swapped_leaf_level():
    base = (0, 1, 2)
    c = WeightedCycle(base, 4)
    out = star_aurd(c)
    classes = list(out.classes)
    fc = classes[0]
    blocks = list(fc.blocks)
    star = blocks[0]
    # move one leaf onto the aligned level: creates an off-host edge and
    # drops a host edge
    bad_leaves = (Vertex(star.leaves[0].base, star.center.level),) + star.leaves[1:]
    blocks[0] = StarBlock(star.center, bad_leaves)
    classes[0] = FactorClass(STAR_FACTOR, tuple(blocks))
    report = verify_aurd(classes, cycle_host(base, 4))
    assert not report.passed
    assert {EXTRA_EDGE, MISSING_EDGE} <= report.codes()


def test_verify_aurd_empty_classes():
    host = cycle_host((0, 1, 2), 4)
    report = verify_aurd((), host)
    assert not report.passed
    assert MISSING_EDGE in report.codes()


def test_verify_aurd_mixed_arity_flagged():
    base = (0, 1, 2)
    c = WeightedCycle(base, 4)
    out = star_aurd(c)
    blocks = list(out.classes[0].blocks)
    blocks[0] = StarBlock(blocks[0].center, blocks[0].leaves[:2])
    classes = [FactorClass(STAR_FACTOR, tuple(blocks))] + list(out.classes[1:])
    report = verify_aurd(classes, cycle_host(base, 4))
    assert not report.passed
    assert WRONG_KIND in report.codes()


def test_report_codes_empty_on_pass():
    d = construct(BuildRequest(16, 3, 1))
    report = verify(d)
    assert report.passed and report.codes() == set()


def _valid_certificates():
    """A valid certificate from each producer of flat classes."""
    odd, even = construct(BuildRequest(12, 3, 0)), construct(BuildRequest(16, 3, 0))
    text = dumps(even)
    obj = json.loads(text)  # written with classes first, it is parsed whole
    first = json.dumps({"classes": obj.pop("classes"), **obj})
    return {
        "construct odd m": odd,
        "construct even m": even,
        "construct_pair m=1": construct_pair(4, 3, 3, 0),
        "construct_pair m=2": construct_pair(8, 3, 7, 0),
        "search witness": exhaustive_urd(8, 3, 1, 4).witness,
        "loads header first": loads(text),
        "loads classes first": loads(first),
        "FlatClass.of": Decomposition(odd.params, odd.classes, odd.r, odd.s),
    }


def test_valid_classes_of_every_producer_pass_the_clean_class_test(monkeypatch):
    certificates = _valid_certificates()

    def walk(index, fc, *args):
        raise AssertionError(f"class {index} of a valid certificate was walked")

    monkeypatch.setattr(verifier, "_walk_class", walk)
    for name, d in certificates.items():
        assert verify(d).passed, name


def test_the_fault_walk_passes_every_valid_class(monkeypatch):
    # bounds as a list fail the clean-class test, so every class is walked:
    # on a class with no fault the two paths must agree
    walked = []
    walk = verifier._walk_class
    monkeypatch.setattr(verifier, "_walk_class", lambda *args: walked.append(1) or walk(*args))
    for name, d in _valid_certificates().items():
        flat = tuple(fc._replace(bounds=list(fc.bounds)) for fc in d.flat)
        walked.clear()
        assert verify(Decomposition(d.params, flat, d.r, d.s)).passed, name
        assert len(walked) == len(flat), name


def _clean_but_uncovering(d):
    """d with two blocks of its first one-factor class re-paired, and d
    with two leaves swapped between two stars of its first star class
    (when it has one): every class still holds the ids 0..v-1 once in
    blocks of its kind, so each is clean, but some pairs are covered twice
    and others not at all."""
    w = d.params.n + 1
    for kind, a, b in ((ONE_FACTOR, 1, 3), (STAR_FACTOR, 1, w + 1)):
        ci = next((ci for ci, fc in enumerate(d.flat) if fc.kind == kind), None)
        if ci is None:
            continue
        flat = list(d.flat)
        ids = list(flat[ci].ids)
        ids[a], ids[b] = ids[b], ids[a]
        flat[ci] = flat[ci]._replace(ids=tuple(ids))
        yield kind, flat


def test_the_fault_walk_and_the_clean_path_report_alike(monkeypatch):
    # bounds as tuples pass the clean-class test and as lists fail it: on
    # classes that are clean but break the pair coverage, both paths must
    # report the same violations
    walked = []
    walk = verifier._walk_class
    monkeypatch.setattr(verifier, "_walk_class", lambda *args: walked.append(1) or walk(*args))
    for name, d in _valid_certificates().items():
        for kind, flat in _clean_but_uncovering(d):
            walked.clear()
            clean = verify(Decomposition(d.params, tuple(flat), d.r, d.s))
            assert walked == [], (name, kind)
            listed = tuple(fc._replace(bounds=list(fc.bounds)) for fc in flat)
            walk_report = verify(Decomposition(d.params, listed, d.r, d.s))
            assert len(walked) == len(flat), (name, kind)
            assert not clean.passed, (name, kind)
            assert walk_report.violations == clean.violations, (name, kind)


def test_verify_peaks_under_20_bytes_a_pair():
    # the pairs of K_144 as 8-byte ints in one row per smaller end, each
    # row sorted on its own: about 13 bytes a pair; an int object a pair in
    # one sorted list took 46, and a set of them beside it more than 100
    import tracemalloc

    d = construct(BuildRequest(144, 7, 0))
    tracemalloc.start()
    try:
        assert verify(d).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * (144 * 143 // 2)


@pytest.mark.parametrize("v,far", [(2**72, 2**69), (2**64, 2**64 - 1), (2**63, 2**63 - 1)])
def test_ids_past_8_bytes_are_audited_not_raised_on(v, far):
    # v > 2**63 puts in-set ids past 2**63 - 1, which no row of 8-byte ints
    # holds, and 2**63 - 1 is the last id such a row holds: the one edge
    # (0, far) is audited as any other pair
    d = Decomposition(Params(v, 3, v // 4), (FactorClass(ONE_FACTOR, (
        Edge(Vertex(0, 0), Vertex(*divmod(far, 4))),)),), 1, 0)
    assert verify(d).violations == (
        (PARAM_MISMATCH, f"(n+1)r + 2ns = 4 != (n+1)(v-1) = {4 * (v - 1)}"),
        (NOT_SPANNING, f"class 0: {v - 2} vertices uncovered"),
        (COUNT_MISMATCH, f"class 0: 1 blocks, expected {v // 2}"),
        (MISSING_EDGE, f"{v * (v - 1) // 2 - 1} target edges uncovered, "
                       f"e.g. {Edge(Vertex(0, 0), Vertex(0, 1))}"),
    )


def _k4(ids, bounds):
    """The one-factorization of K_4 with class 0 written as ids in bounds."""
    one = FlatClass(ONE_FACTOR, ids, bounds, b"\x00\x00")
    two = FlatClass(ONE_FACTOR, (0, 2, 1, 3), (0, 2, 4), b"\x00\x00")
    three = FlatClass(ONE_FACTOR, (0, 3, 1, 2), (0, 2, 4), b"\x00\x00")
    return Decomposition(Params(4, 3, 1), (one, two, three), 3, 0)


@pytest.mark.parametrize("bounds", [(0, 2, 4), [0, 2, 4]], ids=["clean-shape", "walked"])
@pytest.mark.parametrize("ids,first", [
    ((0.0, 1.0, 2.0, 3.0), 0.0),
    ((0, True, 2, 3), True),
    ((0, "x", 2, 3), "x"),
    ((0, None, 2, 3), None),
    ((0, (1, 2, 3), 2, 3), (1, 2, 3)),
    ((0, [1], 2, 3), [1]),
], ids=["floats", "true", "str", "none", "triple", "list"])
def test_ids_of_another_type_than_int_are_outside_the_vertex_set(ids, bounds, first):
    # 1.0 and True equal 1 and hash as 1, so a set of such ids equals the
    # vertex set; they name no vertex all the same.  'x' and None do not
    # sort with an int, (1, 2, 3) is no (base, level) pair and [1] has no
    # hash.  The clean-class test takes only int ids, and bounds as a list
    # fail it too, so the class is walked either way: its first such id is
    # a shape fault, no block of it is read, and nothing raises
    d = _k4(ids, bounds)
    assert assert_shape_fault(d, 0, f"id {first!r} names no vertex").violations == (
        (WRONG_KIND, f"class 0: id {first!r} names no vertex"),
        (NOT_SPANNING, "class 0: 4 vertices uncovered"),
        (MISSING_EDGE, f"2 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 1))}"),
    )


@pytest.mark.parametrize("ids,bounds,detail", [
    ((0, 2, 1, 3), (0, 2.0, 4), "bound 1 is 2.0, not an int"),
    ((0, 2, 1, 9), (0, 2.0, 4), "bound 1 is 2.0, not an int"),
    ((0, 2, 1, 3), (False, 2, 4), "bound 0 is False, not an int"),
    ((0, 2, 1, 3), [0, "2", 4], "bound 1 is '2', not an int"),
], ids=["float-clean-shape", "float-walked", "false", "str"])
def test_bounds_of_another_type_than_int_are_reported_not_raised(ids, bounds, detail):
    # 2.0 and False equal ints, so (0, 2.0, 4) equals the clean shape of a
    # one-factor; no bound that is not an int names a position in the ids,
    # so the class is walked, reported and none of its blocks is read
    one = FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 2, 4), b"\x00\x00")
    two = FlatClass(ONE_FACTOR, ids, bounds, b"\x00\x00")
    three = FlatClass(ONE_FACTOR, (0, 3, 1, 2), (0, 2, 4), b"\x00\x00")
    d = Decomposition(Params(4, 3, 1), (one, two, three), 3, 0)
    assert verify(d).violations == (
        (WRONG_KIND, f"class 1: {detail}"),
        (NOT_SPANNING, "class 1: 4 vertices uncovered"),
        (MISSING_EDGE, f"2 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 2))}"),
    )


@pytest.mark.parametrize("field,value,fault,counts", [
    ("kind", "foo", "kind 'foo' is not one_factor or star_factor", [
        (COUNT_MISMATCH, "recorded (r,s)=(3,0) but classes give (2,0)"),
    ]),
    ("ids", None, "ids is None, not a sequence", []),
    ("bounds", None, "bounds is None, not a sequence", []),
    ("stars", None, "stars is None, not a sequence", []),
], ids=["kind", "ids", "bounds", "stars"])
def test_a_kind_or_a_field_outside_the_shape_rule_is_reported_not_raised(
        field, value, fault, counts):
    # class 0 of K_4 with a kind that is none of the two, or a field that is
    # no sequence: a shape fault, so no block of it is read and no field of
    # it is sized, sliced or iterated, and it has no block count to report:
    # only the kinds' count of the classes is a COUNT_MISMATCH
    b = construct(BuildRequest(4, 3, 0))
    d = Decomposition(b.params, (b.flat[0]._replace(**{field: value}),) + b.flat[1:], b.r, b.s)
    report = assert_shape_fault(d, 0, fault)
    assert [found for found in report.violations if found[0] != COUNT_MISMATCH] == [
        (WRONG_KIND, f"class 0: {fault}"),
        (NOT_SPANNING, "class 0: 4 vertices uncovered"),
        (MISSING_EDGE, f"2 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 1))}"),
    ]
    assert [found for found in report.violations if found[0] == COUNT_MISMATCH] == counts
