"""Differential tests: `verify` against the reference verifier it replaced.

The reference (`reference_verifier.py`) enumerates E(K_v) as objects; the
package's `verify` audits flat ids and never enumerates E(K_v).  On every
input here both must return the same violations: the same codes and
details, in the same order.  `starurd verify` reads a file straight into
flat ids and audits those; on written files it must print the reference's
verdict on `from_dict` of the same file.  Classes built by hand may hold
ids that no reader makes, ints outside 0..v-1: `verify` must find them
from the ids alone and judge them as the reference judges their object
view.  The last tests show that `verify` costs what its input holds, not
what the v it claims would cost.
"""

import itertools
import json
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verifier import block_vertices
from reference_verifier import verify as reference_verify
from test_acceptance import mutate as acceptance_mutate

from starurd.assembler import BuildRequest, construct, construct_pair
from starurd.model import (
    COUNT_MISMATCH,
    DUPLICATE_EDGE,
    EXTRA_EDGE,
    MISSING_EDGE,
    NOT_SPANNING,
    ONE_FACTOR,
    PARAM_MISMATCH,
    STAR_FACTOR,
    WRONG_KIND,
    Decomposition,
    Edge,
    FactorClass,
    Params,
    StarBlock,
    VerificationReport,
    Vertex,
    vertex_key,
)
from starurd.cli import main
from starurd.search import exhaustive_urd
from starurd.serialize import dumps, from_dict, loads, to_dict, to_text
from starurd.verifier import verify

SMALL = [(12, 3, 0), (16, 3, 1), (24, 5, 1), (20, 3, 0)]
_BUILT: dict = {}


def built(v, n, ell):
    if (v, n, ell) not in _BUILT:
        _BUILT[v, n, ell] = construct(BuildRequest(v, n, ell))
    return _BUILT[v, n, ell]


def assert_same(d):
    got = verify(d)
    want = reference_verify(d)
    assert got.violations == want.violations
    assert got.passed == want.passed
    return got


def with_classes(d, classes, r=None, s=None):
    out = Decomposition(
        d.params, tuple(classes), d.r if r is None else r, d.s if s is None else s
    )
    # the reference audits the object view: it must be the objects built here
    assert out.classes == tuple(classes)
    return out


def _ones(classes):
    return [i for i, fc in enumerate(classes) if fc.kind == ONE_FACTOR]


def _stars(classes):
    return [i for i, fc in enumerate(classes) if fc.kind == STAR_FACTOR]


def _replace_block(classes, ci, bi, block):
    fc = classes[ci]
    blocks = list(fc.blocks)
    blocks[bi] = block
    classes[ci] = FactorClass(fc.kind, tuple(blocks))


# The mutations of the benchmark's certificate mutator, on model objects.


def _endpoint_move(d, rng):
    classes = list(d.classes)
    while True:
        i, j = rng.sample(_ones(classes), 2)
        bi = rng.randrange(len(classes[i].blocks))
        bj = rng.randrange(len(classes[j].blocks))
        (a, b) = classes[i].blocks[bi]
        (x, y) = classes[j].blocks[bj]
        if len({a, b, x, y}) == 4:
            break
    _replace_block(classes, i, bi, Edge(a, y))
    _replace_block(classes, j, bj, Edge(x, b))
    return with_classes(d, classes)


def _leaf_swap(d, rng):
    classes = list(d.classes)
    ci = rng.choice(_stars(classes))
    blocks = classes[ci].blocks
    p, q = rng.sample(range(len(blocks)), 2)
    sp, sq = blocks[p], blocks[q]
    lp, lq = rng.randrange(len(sp.leaves)), rng.randrange(len(sq.leaves))
    leaves_p, leaves_q = list(sp.leaves), list(sq.leaves)
    leaves_p[lp], leaves_q[lq] = leaves_q[lq], leaves_p[lp]
    _replace_block(classes, ci, p, StarBlock(sp.center, tuple(leaves_p)))
    _replace_block(classes, ci, q, StarBlock(sq.center, tuple(leaves_q)))
    return with_classes(d, classes)


def _drop_block(d, rng):
    classes = list(d.classes)
    ci = rng.randrange(len(classes))
    fc = classes[ci]
    bi = rng.randrange(len(fc.blocks))
    classes[ci] = FactorClass(fc.kind, fc.blocks[:bi] + fc.blocks[bi + 1 :])
    return with_classes(d, classes)


def _move_block(d, rng):
    classes = list(d.classes)
    i, j = rng.sample(_ones(classes), 2)
    blocks = list(classes[i].blocks)
    moved = blocks.pop(rng.randrange(len(blocks)))
    classes[i] = FactorClass(ONE_FACTOR, tuple(blocks))
    classes[j] = FactorClass(ONE_FACTOR, classes[j].blocks + (moved,))
    return with_classes(d, classes)


def _flip_kind(d, rng):
    classes = list(d.classes)
    ci = rng.randrange(len(classes))
    fc = classes[ci]
    flipped = STAR_FACTOR if fc.kind == ONE_FACTOR else ONE_FACTOR
    classes[ci] = FactorClass(flipped, fc.blocks)
    return with_classes(d, classes)


def _claim_r(d, rng):
    return with_classes(d, d.classes, r=d.r + 1)


def _foreign_vertex(d, rng):
    classes = list(d.classes)
    ci = rng.choice(_ones(classes))
    bi = rng.randrange(len(classes[ci].blocks))
    ends = list(classes[ci].blocks[bi])
    ends[rng.randrange(2)] = Vertex(d.params.m, rng.randrange(d.params.n + 1))
    _replace_block(classes, ci, bi, Edge(*ends))
    return with_classes(d, classes)


MUTATIONS = {
    "endpoint_move": _endpoint_move,
    "leaf_swap": _leaf_swap,
    "drop_block": _drop_block,
    "move_block": _move_block,
    "flip_kind": _flip_kind,
    "claim_r": _claim_r,
    "foreign_vertex": _foreign_vertex,
}


def test_valid_builds_agree():
    for args in SMALL + [(48, 15, 1), (32, 7, 1)]:
        assert assert_same(built(*args)).passed


def test_acceptance_fault_injection_agrees():
    # the 1050 mutations of test_criterion_6_fault_injection, same seed
    rng = random.Random(20260808)
    orders = [(12, 3, 0), (12, 3, 1), (16, 3, 0), (20, 3, 1), (24, 5, 0)]
    bases = [built(*args) for args in orders]
    for k in range(1050):
        mutated, _, _ = acceptance_mutate(bases[k % len(bases)], rng)
        assert not assert_same(mutated).passed


def test_benchmark_mutations_agree():
    for kind, mutation in MUTATIONS.items():
        for args in SMALL:
            d = built(*args)
            if kind == "leaf_swap" and d.s == 0:
                continue
            for seed in range(8):
                assert not assert_same(mutation(d, random.Random(seed))).passed, kind


def test_foreign_vertices_do_not_alias():
    # as flat ids, (0, n+1) would alias (1, 0) and (m, 0) would be v, one
    # past the last vertex; each must stay a vertex of its own.  A vertex
    # with a negative coordinate names no vertex at all: a shape fault
    # (test_negative_ids_are_a_shape_fault)
    d = built(20, 3, 1)
    m, n = d.params.m, d.params.n
    foreigners = [Vertex(0, n + 1), Vertex(m, 0)]
    ci = _ones(d.classes)[0]
    si = _stars(d.classes)[0]
    for foreign in foreigners:
        for bi in (0, 3):
            classes = list(d.classes)
            u = classes[ci].blocks[bi].u
            _replace_block(classes, ci, bi, Edge(u, foreign))
            assert not assert_same(with_classes(d, classes)).passed
            classes = list(d.classes)
            star = classes[si].blocks[bi]
            _replace_block(classes, si, bi, StarBlock(foreign, star.leaves))
            assert not assert_same(with_classes(d, classes)).passed
            classes = list(d.classes)
            leaves = (foreign,) + star.leaves[1:]
            _replace_block(classes, si, bi, StarBlock(star.center, leaves))
            assert not assert_same(with_classes(d, classes)).passed
    # the same foreign vertex twice in one class, and a foreign edge twice
    classes = list(d.classes)
    fc = classes[ci]
    a, c = fc.blocks[0].u, fc.blocks[1].u
    twice = (Edge(a, Vertex(0, n + 1)), Edge(c, Vertex(0, n + 1)))
    classes[ci] = FactorClass(ONE_FACTOR, twice + fc.blocks[2:])
    classes.append(FactorClass(ONE_FACTOR, twice))
    assert not assert_same(with_classes(d, classes)).passed


def test_empty_extra_and_relabelled_classes_agree():
    d = built(20, 3, 1)
    classes = list(d.classes)
    rng = random.Random(5)

    def counted(classes):
        """d with classes, claiming the r and s their kinds give."""
        kinds = [fc.kind for fc in classes]
        return with_classes(d, classes, kinds.count(ONE_FACTOR), kinds.count(STAR_FACTOR))

    for kind in (ONE_FACTOR, STAR_FACTOR):
        empty = FactorClass(kind, ())
        assert_same(with_classes(d, classes + [empty]))
        assert_same(counted(classes + [empty]))
    for ci in (0, len(classes) - 1):
        assert_same(with_classes(d, classes + [classes[ci]]))
        assert_same(counted(classes + [classes[ci]]))
    assert_same(with_classes(d, []))
    assert_same(counted([]))
    shuffled = classes[:]
    rng.shuffle(shuffled)
    assert assert_same(with_classes(d, shuffled)).passed
    for ci, fc in enumerate(classes):
        kind = STAR_FACTOR if fc.kind == ONE_FACTOR else ONE_FACTOR
        relabelled = classes[:ci] + [FactorClass(kind, fc.blocks)] + classes[ci + 1 :]
        assert not assert_same(with_classes(d, relabelled)).passed
    # relabel the vertices by a random permutation: still valid, and each
    # mutation of the relabelled copy is judged alike
    w = d.params.n + 1
    perm = list(range(d.params.v))
    rng.shuffle(perm)
    relabel = {Vertex(f // w, f % w): Vertex(p // w, p % w) for f, p in enumerate(perm)}
    moved = []
    for fc in classes:
        if fc.kind == ONE_FACTOR:
            blocks = [
                Edge(relabel[b.u], relabel[b.v]) for b in fc.blocks
            ]
        else:
            blocks = [
                StarBlock(relabel[b.center], tuple(relabel[x] for x in b.leaves))
                for b in fc.blocks
            ]
        moved.append(FactorClass(fc.kind, tuple(blocks)))
    permuted = with_classes(d, moved)
    assert assert_same(permuted).passed
    for mutation in MUTATIONS.values():
        for seed in range(4):
            assert_same(mutation(permuted, random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [(m, n) for n in range(3, 20, 2) for m in range(3, 16) if m * (n + 1) <= 60]
    ),
    st.integers(0, 6),
    st.sampled_from([None] + sorted(MUTATIONS)),
    st.integers(0, 2**16),
)
def test_sweep_agrees(mn, ell_seed, kind, seed):
    m, n = mn
    t = (m - 1) // 2 if m % 2 else (m - 2) // 2
    d = built(m * (n + 1), n, ell_seed % (t + 1))
    if kind is None:
        assert assert_same(d).passed
        return
    if (kind == "leaf_swap" and d.s == 0) or (
        kind in ("endpoint_move", "move_block", "foreign_vertex") and d.r < 2
    ):
        return
    assert not assert_same(MUTATIONS[kind](d, random.Random(seed))).passed


# (v, n, r, s) of search instances with a witness found in milliseconds
WITNESSES = [(4, 3, 3, 0), (8, 3, 1, 4), (8, 3, 7, 0), (12, 3, 5, 4)]


def witness(v, n, r, s):
    if (v, n, r, s) not in _BUILT:
        _BUILT[v, n, r, s] = exhaustive_urd(v, n, r, s).witness
    return _BUILT[v, n, r, s]


def renamed(d, k, new, ci=None):
    """d with id k written as new on its flat classes: its first
    occurrence in class ci, or every occurrence if ci is None."""
    flat = list(d.flat)
    for i, fc in enumerate(flat):
        ids = list(fc.ids)
        if ci is None:
            ids = [new if x == k else x for x in ids]
        elif i == ci:
            ids[ids.index(k)] = new
        flat[i] = fc._replace(ids=tuple(ids))
    return Decomposition(d.params, tuple(flat), d.r, d.s)


def test_one_factorization_with_a_vertex_past_v_fails():
    # every id 7 of the one-factorization of K_8 written as 15: vertex 7
    # never appears, and 15 is no vertex, though a*8 + 15 is the pair id
    # of (a + 1, 7)
    d = construct_pair(8, 3, 7, 0)
    report = assert_same(renamed(d, 7, 15))
    assert report.codes() == {NOT_SPANNING, EXTRA_EDGE, MISSING_EDGE}


def test_star_center_past_v_fails():
    # one star center c of a valid K_12 written as c + 12
    d = built(12, 3, 0)
    si = _stars(d.flat)[0]
    report = assert_same(renamed(d, d.flat[si].ids[0], d.flat[si].ids[0] + 12, si))
    assert report.codes() == {NOT_SPANNING, EXTRA_EDGE, MISSING_EDGE, COUNT_MISMATCH}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(12, 3, 0), (16, 3, 1), (24, 5, 1)]), st.booleans(), st.data())
def test_respelled_ids_keep_the_verdict(key, moved, data):
    # a valid build, or one with an endpoint moved outside the grid to the
    # id v+3, with some ids written as the other spelling of their vertex:
    # an int as the (base, level) pair it names, a pair as its int.  Both
    # spellings name one vertex (model.vertex_key), so the verdict is that
    # of the build as it was, and of the text the writer makes of it, and
    # the object view names every id as vertex_key does.  Some ints may be
    # written as a number that equals them, float(k) or True for 1, which
    # names no vertex: the first class that holds one has a shape fault,
    # which verify reports and the writers and the object view raise
    d = built(*key)
    v, w = d.params.v, d.params.n + 1
    flat = [list(fc.ids) for fc in d.flat]
    place = st.tuples(st.integers(0, len(flat) - 1), st.integers(0, v - 1))
    if moved:
        ci, i = data.draw(place)
        flat[ci][i] = v + 3
    for ci, i in data.draw(st.lists(place, min_size=1, max_size=12)):
        k = flat[ci][i]
        flat[ci][i] = divmod(k, w) if type(k) is int else k[0] * w + k[1]
    retyped = set()
    for ci, i in data.draw(st.lists(place, max_size=2)):
        k = flat[ci][i]
        if type(k) is int and k < v:
            flat[ci][i] = True if k == 1 and data.draw(st.booleans()) else float(k)
            retyped.add(ci)
    plain = Decomposition(d.params, tuple(
        fc._replace(ids=tuple(k[0] * w + k[1] if type(k) is tuple else k for k in ids))
        for fc, ids in zip(d.flat, flat)
    ), d.r, d.s)
    respelled = Decomposition(
        d.params, tuple(fc._replace(ids=tuple(ids)) for fc, ids in zip(d.flat, flat)), d.r, d.s
    )
    if retyped:
        report = verify(respelled)
        assert not report.passed
        for read in (dumps, to_text, lambda d: d.classes):
            with pytest.raises(ValueError) as info:
                read(respelled)
            assert type(info.value) is ValueError
            assert str(info.value).startswith(f"class {min(retyped)}: id ")
            assert (WRONG_KIND, str(info.value)) in report.violations
        return
    report = assert_same(respelled)
    assert report == verify(plain)
    assert report.passed == (not moved)
    assert verify(loads(dumps(respelled))) == report
    assert [[sorted(block_vertices(b)) for b in fc.blocks] for fc in respelled.classes] == [
        [sorted(Vertex(*vertex_key(k, w)) for k in fc.ids[a:b])
         for a, b in zip(fc.bounds, fc.bounds[1:])]
        for fc in respelled.flat
    ]


def _with_flat(d, ci, **fields):
    """d with the given fields of its flat class ci replaced."""
    flat = list(d.flat)
    flat[ci] = flat[ci]._replace(**fields)
    return Decomposition(d.params, tuple(flat), d.r, d.s)


def _one_flagged_as_a_star(d, ci):
    stars = bytearray(d.flat[ci].stars)
    stars[1] = 1
    return _with_flat(d, ci, stars=bytes(stars))


def _repeated_and_missing(d, ci):
    ids = d.flat[ci].ids
    return renamed(d, ids[5], ids[0], ci)


def _past_v(d, ci):
    k = d.flat[ci].ids[5]
    return renamed(d, k, k + d.params.v, ci)


def _trailing_id(d, ci):
    # ids[5] written as ids[0], and ids[5] once more after the last block:
    # the ids are the vertex set, but the blocks repeat one and miss one
    fc = _repeated_and_missing(d, ci).flat[ci]
    return _with_flat(d, ci, ids=fc.ids + (d.flat[ci].ids[5],))


# Each case fails one condition of the clean-class test: v ids, the bounds of
# v ids in blocks of the kind's size, every block flagged as the kind, or
# the ids 0..v-1 (stars of two ids fail the bounds and, with them, the
# count of flags).  The fault walk must judge it as the reference judges
# its object view.
CLEAN_CLASS_FAULTS = {
    "one-factor-block-flagged-as-star": (ONE_FACTOR, _one_flagged_as_a_star),
    "stars-of-two-ids": (STAR_FACTOR, lambda d, ci: _with_flat(
        d, ci, bounds=tuple(range(0, d.params.v + 1, 2)), stars=b"\x01" * (d.params.v // 2))),
    "stars-of-other-sizes": (STAR_FACTOR, lambda d, ci: _with_flat(d, ci, bounds=(0, 2, 6, 12))),
    "one-factor-id-repeated": (ONE_FACTOR, _repeated_and_missing),
    "star-id-repeated": (STAR_FACTOR, _repeated_and_missing),
    "one-factor-id-past-v": (ONE_FACTOR, _past_v),
    "star-id-past-v": (STAR_FACTOR, _past_v),
    "one-factor-id-after-the-last-block": (ONE_FACTOR, _trailing_id),
}


@pytest.mark.parametrize("case", sorted(CLEAN_CLASS_FAULTS))
def test_class_failing_one_clean_class_condition_agrees(case):
    kind, forge = CLEAN_CLASS_FAULTS[case]
    d = built(12, 3, 0)
    for ci in [i for i, fc in enumerate(d.flat) if fc.kind == kind][:2]:
        assert not assert_same(forge(d, ci)).passed


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(built, args) for args in SMALL] + [(witness, args) for args in WITNESSES]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.integers(1, 3),
    st.booleans(),
)
def test_ids_outside_the_vertex_set_never_pass(source, ci, position, t, everywhere):
    # id k of one class, or every occurrence of it in every class, written
    # as k + t*v: an int that names a vertex outside the vertex set
    make, args = source
    d = make(*args)
    v = d.params.v
    ci %= len(d.flat)
    k = d.flat[ci].ids[position % len(d.flat[ci].ids)]
    forged = renamed(d, k, k + t * v, None if everywhere else ci)
    assert not assert_same(forged).passed


def _refused_as_a_shape_fault(d, fault):
    """verify reports fault, a shape fault, without raising, and the
    writers and the object view raise it as the same ValueError."""
    report = verify(d)
    assert not report.passed
    assert (WRONG_KIND, fault) in report.violations
    for read in (dumps, to_text, lambda d: d.classes):
        with pytest.raises(ValueError) as info:
            read(d)
        assert type(info.value) is ValueError
        assert str(info.value) == fault


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(built, args) for args in SMALL] + [(witness, args) for args in WITNESSES]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_negative_ids_are_a_shape_fault(source, ci, position, everywhere):
    # id k of one class, or every occurrence of it in every class, written
    # as -1 - k: an int below 0, which names no vertex, as the schema's
    # vertices are pairs of nonnegative integers.  The first class that
    # holds it, class 0 if every class does, has a shape fault
    make, args = source
    d = make(*args)
    ci %= len(d.flat)
    k = d.flat[ci].ids[position % len(d.flat[ci].ids)]
    forged = renamed(d, k, -1 - k, None if everywhere else ci)
    fault = f"class {0 if everywhere else ci}: id {-1 - k} names no vertex"
    _refused_as_a_shape_fault(forged, fault)


def test_foreign_vertices_with_a_negative_coordinate_are_a_shape_fault():
    # Vertex(-1, 0) and Vertex(0, -1) as an edge's end, a star's center or
    # a star's leaf keep their pair as their id, which names no vertex
    d = built(20, 3, 1)
    ci = _ones(d.classes)[0]
    si = _stars(d.classes)[0]
    for foreign in (Vertex(-1, 0), Vertex(0, -1)):
        fault = f"id {tuple(foreign)!r} names no vertex"
        for bi in (0, 3):
            star = d.classes[si].blocks[bi]
            for index, block in (
                (ci, Edge(d.classes[ci].blocks[bi].u, foreign)),
                (si, StarBlock(foreign, star.leaves)),
                (si, StarBlock(star.center, (foreign,) + star.leaves[1:])),
            ):
                classes = list(d.classes)
                _replace_block(classes, index, bi, block)
                _refused_as_a_shape_fault(Decomposition(d.params, tuple(classes), d.r, d.s),
                                          f"class {index}: {fault}")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(built, args) for args in SMALL] + [(witness, args) for args in WITNESSES]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.sampled_from([float, Fraction, Decimal, bool, str, lambda k: None,
                     lambda k: (k, k, k), lambda k: [k]]),
    st.booleans(),
)
def test_ids_of_another_type_than_int_never_pass(source, ci, position, retype, everywhere):
    # id k written as a number of another type that equals it and hashes as
    # it does (True for 1, False for 0): no vertex, though a set of the ids
    # is the vertex set; or as an id that does not sort with an int, is no
    # (base, level) pair or has no hash.  The first class that holds it,
    # class 0 if every class does, has a shape fault: the object view
    # refuses it, so the reference cannot judge it, and verify reports it
    # and raises nothing
    make, args = source
    d = make(*args)
    ci %= len(d.flat)
    ids = d.flat[ci].ids
    k = ids[position % len(ids)] if retype is not bool else min(ids)
    report = verify(renamed(d, k, retype(k), None if everywhere else ci))
    assert not report.passed
    fault = f"class {0 if everywhere else ci}: id {retype(k)!r} names no vertex"
    assert (WRONG_KIND, fault) in report.violations


def _written(d, rng):
    """d as compact JSON with each edge's endpoints reversed and each
    star's leaves shuffled: the reader must put them back in order."""
    obj = to_dict(d)
    for klass in obj["classes"]:
        for block in klass["blocks"]:
            if isinstance(block, list):
                block.reverse()
            else:
                rng.shuffle(block["leaves"])
    return json.dumps(obj, separators=(",", ":"))


def assert_cli_same(text, path, capsys):
    path.write_text(text, encoding="utf-8")
    code = main(["verify", "--in", str(path)])
    out, err = capsys.readouterr()
    d = from_dict(json.loads(text))
    want = reference_verify(d)
    if want.passed:
        lines = [f"PASS: valid decomposition of K_{d.params.v} with r={d.r}, s={d.s}"]
    else:
        lines = [f"{name}: {detail}" for name, detail in want.violations]
        lines.append(f"FAIL: {len(want.violations)} violation(s)")
    assert (code, out, err) == (0 if want.passed else 1, "\n".join(lines) + "\n", "")


def test_cli_verify_of_written_files_agrees(tmp_path, capsys):
    path = tmp_path / "cert.json"
    rng = random.Random(3)
    for args in SMALL:
        assert_cli_same(_written(built(*args), rng), path, capsys)
    for kind, mutation in MUTATIONS.items():
        for args in SMALL:
            d = built(*args)
            if kind == "leaf_swap" and d.s == 0:
                continue
            for seed in range(3):
                assert_cli_same(_written(mutation(d, random.Random(seed)), rng), path, capsys)
    # classes that mix edges and stars, in both kinds, one with a star first
    d = built(20, 3, 1)
    ones, stars = d.classes[_ones(d.classes)[0]], d.classes[_stars(d.classes)[0]]
    for kind in (ONE_FACTOR, STAR_FACTOR):
        mixed = [
            FactorClass(kind, ones.blocks[:4] + stars.blocks[1:3] + ones.blocks[6:]),
            FactorClass(kind, stars.blocks[:1] + ones.blocks[2:5] + stars.blocks[1:]),
        ]
        assert_cli_same(_written(with_classes(d, list(d.classes) + mixed), rng), path, capsys)
    # a repeated edge, and a star whose leaves but not its center are in
    # an earlier star: NOT_DISJOINT names the first shared vertex in
    # canonical order, also when the class holds a vertex outside the
    # vertex set, whose block the reader sorts on (base, level) pairs
    d = built(24, 5, 0)
    m = d.params.m
    ci, si = _ones(d.classes)[0], _stars(d.classes)[0]
    for foreign in (False, True):
        classes = list(d.classes)
        edges, stars = classes[ci].blocks, classes[si].blocks
        edges = (edges[0], edges[0]) + edges[1:]
        stars = (stars[0], StarBlock(stars[1].center, stars[0].leaves)) + stars[2:]
        if foreign:
            edges = edges[:-1] + (Edge(edges[-1].u, Vertex(m, 0)),)
            last = stars[-1]
            stars = stars[:-1] + (StarBlock(last.center, last.leaves[1:] + (Vertex(m, 1),)),)
        classes[ci] = FactorClass(ONE_FACTOR, edges)
        classes[si] = FactorClass(STAR_FACTOR, stars)
        for _ in range(4):
            assert_cli_same(_written(with_classes(d, classes), rng), path, capsys)
    # the hostile claim of the benchmark: a large order and no class
    hostile = {"version": "1", "v": 800, "n": 15, "m": 50, "r": 799, "s": 0, "classes": []}
    assert_cli_same(json.dumps(hostile), path, capsys)


def _hostile(v, n, classes=(), r=None, s=0):
    params = Params(v, n, v // (n + 1))
    d = Decomposition(params, tuple(classes), v - 1 if r is None else r, s)
    assert d.classes == tuple(classes)
    return d


def _traced(d):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify(d)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak, elapsed


def test_hostile_claim_details_match_reference():
    assert_same(_hostile(96, 15))
    text = '{"version": "1", "v": 96, "n": 15, "m": 6, "r": 95, "s": 0, "classes": []}'
    assert_same(loads(text))


# The pair audit row by row: a pair a < b is kept as b in row a, and each row
# is sorted on its own, so repeats of a pair are adjacent and the least
# uncovered pair lies in the first row out of step.


def _edge_dropped(d, edge):
    """d with the one-factor block that is edge taken out."""
    classes = list(d.classes)
    ci = next(ci for ci, fc in enumerate(classes) if edge in fc.blocks)
    classes[ci] = FactorClass(ONE_FACTOR, tuple(b for b in classes[ci].blocks if b != edge))
    return with_classes(d, classes)


def test_pair_covered_three_times_counts_once():
    d = built(12, 3, 0)
    ones = _ones(d.classes)
    classes = list(d.classes) + [d.classes[ones[0]]] * 2 + [d.classes[ones[1]]]
    report = assert_same(with_classes(d, classes, r=d.r + 3))
    assert (DUPLICATE_EDGE, "12 edges covered more than once, e.g. "
            f"{Edge(Vertex(0, 0), Vertex(0, 1))}") in report.violations


@pytest.mark.parametrize("v", [8, 12])
@pytest.mark.parametrize("end", ["first", "last"])
def test_uncovered_pair_at_either_end_of_the_order(v, end):
    # the one-factorization of K_v with the edge (0,1), the first pair, or
    # (v-2,v-1), the last, taken out
    d = construct_pair(v, 3, v - 1, 0)
    w = d.params.n + 1
    a = 0 if end == "first" else v - 2
    u, x = Vertex(*divmod(a, w)), Vertex(*divmod(a + 1, w))
    report = assert_same(_edge_dropped(d, Edge(u, x)))
    assert report.violations[-1] == (MISSING_EDGE, f"1 target edges uncovered, e.g. {Edge(u, x)}")


def _flat_edge(a, b, w=4):
    return Edge(Vertex(*divmod(a, w)), Vertex(*divmod(b, w)))


def _one_factorization_without(v, drop):
    """The one-factorization of K_v (n = 3), with each edge whose flat ids
    a < b satisfy drop(a, b) taken out."""
    d = construct_pair(v, 3, v - 1, 0)
    classes = [
        FactorClass(ONE_FACTOR, tuple(
            e for e in fc.blocks if not drop(*(u.base * 4 + u.level for u in e))
        ))
        for fc in d.classes
    ]
    return with_classes(d, classes)


# Each case drops pairs of the one-factorization of K_12 and pins the
# uncovered count and least sample: row 0 or a middle row absent as a whole,
# or a row short only at its end (b = v-1).  The last pair alone is
# test_uncovered_pair_at_either_end_of_the_order.
ROW_GAPS = {
    "row-0-absent": (lambda a, b: a == 0, 11, _flat_edge(0, 1)),
    "row-5-absent": (lambda a, b: a == 5, 6, _flat_edge(5, 6)),
    "row-0-short-at-its-end": (lambda a, b: (a, b) == (0, 11), 1, _flat_edge(0, 11)),
    "row-4-short-at-its-end": (lambda a, b: (a, b) == (4, 11), 1, _flat_edge(4, 11)),
}


@pytest.mark.parametrize("case", sorted(ROW_GAPS))
def test_uncovered_rows_and_row_ends(case):
    drop, count, sample = ROW_GAPS[case]
    report = assert_same(_one_factorization_without(12, drop))
    assert report.violations[-1] == (
        MISSING_EDGE, f"{count} target edges uncovered, e.g. {sample}")


def test_duplicates_in_two_rows_count_each_pair_once_and_name_the_least():
    # (3, 4) and, in the lower row, (2, 9) covered twice, (3, 4) written
    # first: the least sample is (2, 9), however the pairs were met
    d = construct_pair(12, 3, 11, 0)
    extra = FactorClass(ONE_FACTOR, (_flat_edge(3, 4), _flat_edge(2, 9)))
    report = assert_same(with_classes(d, list(d.classes) + [extra], r=12))
    assert (DUPLICATE_EDGE, f"2 edges covered more than once, e.g. {_flat_edge(2, 9)}"
            ) in report.violations


@pytest.mark.parametrize("args", [(12, 3, 0), (20, 3, 1), (24, 5, 0)])
def test_duplicates_and_gaps_in_one_certificate(args):
    d = built(*args)
    w = d.params.n + 1
    last = Edge(Vertex(*divmod(d.params.v - 2, w)), Vertex(*divmod(d.params.v - 1, w)))
    ones = _ones(d.classes)
    for ci in ones[:2]:
        # an edge of one class written again in place of an edge of another:
        # one pair twice, one never
        classes = list(d.classes)
        other = ones[0] if ci != ones[0] else ones[1]
        _replace_block(classes, ci, 0, classes[other].blocks[-1])
        report = assert_same(with_classes(d, classes))
        assert {DUPLICATE_EDGE, MISSING_EDGE} <= report.codes()
    # a class three times over, a star class left out, and a class of the
    # last pair alone
    classes = list(d.classes)
    classes += [classes[ones[0]]] * 2 + [FactorClass(ONE_FACTOR, (last,))]
    del classes[_stars(classes)[0]]
    report = assert_same(with_classes(d, classes))
    assert {DUPLICATE_EDGE, MISSING_EDGE} <= report.codes()


def test_forged_params_get_only_the_param_mismatch():
    # Params refuses m=4 for v=12, n=3; a forged one is reported, not audited
    params = tuple.__new__(Params, (12, 3, 4))
    d = built(12, 3, 0)
    report = assert_same(Decomposition(params, d.classes, d.r, d.s))
    assert report.violations == ((PARAM_MISMATCH, "invalid parameters v=12, n=3, m=4"),)


def test_forged_params_on_a_grid_always_get_a_report():
    # v = m(n+1) with m < 1 passed the order check and sent the missing-edge
    # walk over an empty range(v)
    for v, n, m, r, s in itertools.product(
        range(-8, 9), (-3, -1, 1, 3, 5), range(-3, 4), range(-6, 8), (-4, 0, 4)
    ):
        report = verify(Decomposition(tuple.__new__(Params, (v, n, m)), (), r, s))
        assert isinstance(report, VerificationReport)
        if m < 1:
            assert report.violations == (
                (PARAM_MISMATCH, f"invalid parameters v={v}, n={n}, m={m}"),
            )


def test_hostile_claim_of_millions_of_vertices_is_cheap():
    v = 16 * 10**6
    claim = {"version": "1", "v": v, "n": 15, "m": v // 16, "r": v - 1, "s": 0}
    claim["classes"] = []
    report, peak, elapsed = _traced(loads(json.dumps(claim)))
    first = Edge(Vertex(0, 0), Vertex(0, 1))
    assert report.violations == (
        (COUNT_MISMATCH, f"recorded (r,s)=({v - 1},0) but classes give (0,0)"),
        (MISSING_EDGE, f"{v * (v - 1) // 2} target edges uncovered, e.g. {first}"),
    )
    assert peak < 2**20
    assert elapsed < 1.0  # an O(v) pass alone would take seconds


def test_many_empty_classes_at_a_large_order_stay_cheap():
    v, n = 16 * 10**5, 15
    classes = [FactorClass(ONE_FACTOR, ())] * 200 + [FactorClass(STAR_FACTOR, ())] * 208
    d = _hostile(v, n, classes, r=200, s=208)
    report, peak, elapsed = _traced(d)
    assert peak < 2**20
    assert elapsed < 1.0  # an O(v) pass per class would take minutes
    codes = [code for code, _ in report.violations]
    assert codes == [PARAM_MISMATCH] + [NOT_SPANNING, COUNT_MISMATCH] * 408 + [
        MISSING_EDGE,
        COUNT_MISMATCH,
    ]
    assert report.violations[1] == (NOT_SPANNING, f"class 0: {v} vertices uncovered")
    assert report.violations[-1] == (
        COUNT_MISMATCH,
        f"{v} vertices are star centers != 13 times, e.g. {Vertex(0, 0)}",
    )
    # the same claim at a small order reads as the reference reads it
    assert_same(_hostile(96, n, classes, r=200, s=208))
