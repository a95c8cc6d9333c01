from reference_verifier import verify_aurd

from starurd.assembler import BuildRequest, construct
from starurd.aurd import matching_aurd, star_aurd
from starurd.blowup import WeightedCycle
from starurd.model import (
    COUNT_MISMATCH,
    DUPLICATE_EDGE,
    Decomposition,
    EXTRA_EDGE,
    Edge,
    FactorClass,
    MISSING_EDGE,
    NOT_DISJOINT,
    NOT_SPANNING,
    ONE_FACTOR,
    PARAM_MISMATCH,
    STAR_FACTOR,
    StarBlock,
    Vertex,
    WRONG_KIND,
)
from starurd.verifier import verify


def with_classes(d, classes):
    return Decomposition(d.params, tuple(classes), d.r, d.s)


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
    out = matching_aurd(c, 3)
    report = verify_aurd(out.classes, cycle_host(base, 4))
    assert report.passed


def test_verify_aurd_detects_swapped_leaf_level():
    base = (0, 1, 2)
    c = WeightedCycle(base, 4)
    out = star_aurd(c, 3)
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
    out = star_aurd(c, 3)
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
