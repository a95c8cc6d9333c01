"""Differential tests: `verify` against the reference verifier it replaced.

The reference (`reference_verifier.py`) enumerates E(K_v) as objects; the
package's `verify` audits flat ids and never enumerates E(K_v).  On every
input here both must return the same violations: the same codes and
details, in the same order.  `starurd verify` reads a file straight into
flat ids and audits those; on written files it must print the reference's
verdict on `from_dict` of the same file.  The last tests show that
`verify` costs what its input holds, not what the v it claims would cost.
"""

import json
import random
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verifier import verify as reference_verify
from test_acceptance import mutate as acceptance_mutate

from starurd.assembler import BuildRequest, construct
from starurd.model import (
    COUNT_MISMATCH,
    MISSING_EDGE,
    NOT_SPANNING,
    ONE_FACTOR,
    PARAM_MISMATCH,
    STAR_FACTOR,
    Decomposition,
    Edge,
    FactorClass,
    Params,
    StarBlock,
    Vertex,
)
from starurd.cli import main
from starurd.serialize import from_dict, loads, to_dict
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
        (a, b) = classes[i].blocks[bi].endpoints()
        (x, y) = classes[j].blocks[bj].endpoints()
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
    ends = list(classes[ci].blocks[bi].endpoints())
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
    # past the last vertex; each must stay a vertex of its own
    d = built(20, 3, 1)
    m, n = d.params.m, d.params.n
    foreigners = [Vertex(0, n + 1), Vertex(m, 0), Vertex(-1, 0), Vertex(0, -1)]
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
    for kind in (ONE_FACTOR, STAR_FACTOR):
        empty = FactorClass(kind, ())
        assert_same(with_classes(d, classes + [empty]))
        assert_same(Decomposition.from_classes(d.params, classes + [empty]))
    for ci in (0, len(classes) - 1):
        assert_same(with_classes(d, classes + [classes[ci]]))
        assert_same(Decomposition.from_classes(d.params, classes + [classes[ci]]))
    assert_same(with_classes(d, []))
    assert_same(Decomposition.from_classes(d.params, []))
    shuffled = classes[:]
    rng.shuffle(shuffled)
    assert assert_same(with_classes(d, shuffled)).passed
    for ci, fc in enumerate(classes):
        kind = STAR_FACTOR if fc.kind == ONE_FACTOR else ONE_FACTOR
        relabelled = classes[:ci] + [FactorClass(kind, fc.blocks)] + classes[ci + 1 :]
        assert not assert_same(with_classes(d, relabelled)).passed
    # relabel the vertices by a random permutation: still valid, and each
    # mutation of the relabelled copy is judged alike
    w = d.params.weight
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


def test_forged_params_get_only_the_param_mismatch():
    # Params refuses m=4 for v=12, n=3; a forged one is reported, not audited
    params = tuple.__new__(Params, (12, 3, 4))
    d = built(12, 3, 0)
    report = assert_same(Decomposition(params, d.classes, d.r, d.s))
    assert report.violations == ((PARAM_MISMATCH, "invalid parameters v=12, n=3, m=4"),)


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
