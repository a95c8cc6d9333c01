from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verifier import block_vertices, edges_of_block
from starurd.aurd import matching_aurd, star_aurd, weighted_one_factor_aurd
from starurd.blowup import WeightedCycle, WeightedOneFactor
from starurd.model import Edge, ONE_FACTOR, STAR_FACTOR, StarBlock, Vertex


def host_of_cycle(base, w):
    """Blown-up cycle edges minus aligned ones, enumerated from scratch."""
    m = len(base)
    host = set()
    for p in range(m):
        a, b = base[p], base[(p + 1) % m]
        for i in range(w):
            for j in range(w):
                if i != j:
                    host.add(Edge(Vertex(a, i), Vertex(b, j)))
    return host


def host_of_matching(pairs, w):
    host = set()
    for x, y in pairs:
        for i in range(w):
            for j in range(w):
                if i != j:
                    host.add(Edge(Vertex(x, i), Vertex(y, j)))
    return host


def class_edges(fc):
    out = []
    for b in fc.blocks:
        out.extend(edges_of_block(b))
    return out


def assert_exact_partition(classes, host):
    counts = Counter()
    for fc in classes:
        counts.update(class_edges(fc))
    assert set(counts) == host
    assert all(c == 1 for c in counts.values())


def is_perfect_matching(fc, vertices):
    seen = [u for b in fc.blocks for u in b]
    return fc.kind == ONE_FACTOR and len(seen) == len(set(seen)) and set(seen) == vertices


def test_matching_aurd_m3_n3_shape():
    c = WeightedCycle((0, 1, 2), 4)
    out = matching_aurd(c)
    assert len(out.classes) == 6
    assert all(len(fc.blocks) == 6 for fc in out.classes)
    assert out.sources == (
        "B11a@d=1",
        "B11b@d=1",
        "B7a@d=2",
        "B7b@d=2",
        "B11a@d=3",
        "B11b@d=3",
    )


def test_matching_aurd_m3_n3_b7a_exact():
    # the residue-0 half of the difference-2 pair: levels 0,1 to levels 2,3
    c = WeightedCycle((0, 1, 2), 4)
    out = matching_aurd(c)
    b7a = out.classes[out.sources.index("B7a@d=2")]
    expected = set()
    for x in range(3):
        expected.add(Edge(Vertex(x, 0), Vertex((x + 1) % 3, 2)))
        expected.add(Edge(Vertex(x, 1), Vertex((x + 1) % 3, 3)))
    assert set(class_edges(b7a)) == expected
    assert is_perfect_matching(b7a, set(c.vertices()))


def test_matching_aurd_m4_n3_counts():
    c = WeightedCycle((0, 1, 2, 3), 4)
    out = matching_aurd(c)
    assert len(out.classes) == 6
    assert all(len(fc.blocks) == 8 for fc in out.classes)
    total = sum(len(class_edges(fc)) for fc in out.classes)
    assert total == 4 * 16 - 4 * 4  # m(n+1)^2 - m(n+1)
    assert out.sources == (
        "B1a@d=1",
        "B1b@d=1",
        "B2a@d=2",
        "B2b@d=2",
        "B1a@d=3",
        "B1b@d=3",
    )


def test_matching_aurd_m3_n5_families():
    # weight 6 is 2 mod 4: d=3 mixes with 2 and 4, d=1 and d=5 stay plain
    c = WeightedCycle((0, 1, 2), 6)
    out = matching_aurd(c)
    assert len(out.classes) == 10
    assert out.sources == (
        "B6a@d=1",
        "B6b@d=1",
        "B3a@d=3",
        "B3b@d=3",
        "B4a@d=3",
        "B4b@d=3",
        "B5a@d=3",
        "B5b@d=3",
        "B6a@d=5",
        "B6b@d=5",
    )


def test_matching_aurd_m3_n7_families():
    # weight 8 is 0 mod 4: d=2 special pair, d=5 mixes with 4 and 6
    c = WeightedCycle((0, 1, 2), 8)
    out = matching_aurd(c)
    assert len(out.classes) == 14
    assert out.sources == (
        "B11a@d=1",
        "B11b@d=1",
        "B7a@d=2",
        "B7b@d=2",
        "B11a@d=3",
        "B11b@d=3",
        "B8a@d=5",
        "B8b@d=5",
        "B9a@d=5",
        "B9b@d=5",
        "B10a@d=5",
        "B10b@d=5",
        "B11a@d=7",
        "B11b@d=7",
    )


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("n", [3, 5])
def test_matching_aurd_partitions_host(m, n):
    base = tuple(range(m))
    c = WeightedCycle(base, n + 1)
    out = matching_aurd(c)
    assert len(out.classes) == 2 * n
    vertices = set(c.vertices())
    for fc in out.classes:
        assert is_perfect_matching(fc, vertices)
    assert_exact_partition(out.classes, host_of_cycle(base, n + 1))


def test_matching_aurd_on_non_canonical_cycle():
    base = (4, 0, 1, 3, 2)
    c = WeightedCycle(base, 4)
    out = matching_aurd(c)
    assert_exact_partition(out.classes, host_of_cycle(base, 4))


def test_matching_aurd_rejects_bad_args():
    # the weight is n+1 with n odd and >= 3: weight 5 means an even n,
    # weight 2 means n = 1
    for weight in (5, 2):
        with pytest.raises(ValueError):
            matching_aurd(WeightedCycle((0, 1, 2), weight))


def test_star_aurd_m3_n3_first_class():
    c = WeightedCycle((0, 1, 2), 4)
    out = star_aurd(c)
    assert len(out.classes) == 4
    assert out.sources == ("S@j=0", "S@j=1", "S@j=2", "S@j=3")
    s0 = out.classes[0]
    assert s0.kind == STAR_FACTOR
    assert len(s0.blocks) == 3
    star_at_0 = next(b for b in s0.blocks if b.center == Vertex(0, 0))
    assert star_at_0.leaves == (Vertex(1, 1), Vertex(1, 2), Vertex(1, 3))
    covered = {u for b in s0.blocks for u in (b.center, *b.leaves)}
    assert covered == set(c.vertices())


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("n", [3, 5])
def test_star_aurd_partitions_host(m, n):
    base = tuple(range(m))
    c = WeightedCycle(base, n + 1)
    out = star_aurd(c)
    assert len(out.classes) == n + 1
    for fc in out.classes:
        assert len(fc.blocks) == m
        assert all(len(b.leaves) == n for b in fc.blocks)
        # m centers of degree n, m*n leaves of degree 1
        degrees = Counter()
        for e in class_edges(fc):
            degrees.update(e)
        values = sorted(degrees.values())
        assert values.count(n) == m and values.count(1) == m * n
    assert_exact_partition(out.classes, host_of_cycle(base, n + 1))


def test_star_classes_pairwise_edge_disjoint():
    c = WeightedCycle((0, 1, 2), 4)
    out = star_aurd(c)
    e0 = set(class_edges(out.classes[0]))
    e1 = set(class_edges(out.classes[1]))
    assert e0.isdisjoint(e1)


def test_weighted_one_factor_aurd_basic():
    w = WeightedOneFactor(((0, 1), (2, 3)), 4)
    out = weighted_one_factor_aurd(w)
    assert len(out.classes) == 3
    assert out.sources == ("Bd@d=1", "Bd@d=2", "Bd@d=3")
    d1 = set(class_edges(out.classes[0]))
    assert len(d1) == 8
    assert Edge(Vertex(0, 0), Vertex(1, 1)) in d1
    assert Edge(Vertex(2, 3), Vertex(3, 0)) in d1
    vertices = set(w.vertices())
    for fc in out.classes:
        assert is_perfect_matching(fc, vertices)
    assert_exact_partition(out.classes, host_of_matching(((0, 1), (2, 3)), 4))


@pytest.mark.parametrize("pairs", [((0, 1), (2, 3)), ((0, 3), (1, 2), (4, 5))])
@pytest.mark.parametrize("n", [3, 5])
def test_weighted_one_factor_aurd_partition(pairs, n):
    w = WeightedOneFactor(pairs, n + 1)
    out = weighted_one_factor_aurd(w)
    assert len(out.classes) == n
    total = sum(len(class_edges(fc)) for fc in out.classes)
    assert total == n * len(pairs) * (n + 1)
    assert_exact_partition(out.classes, host_of_matching(w.base_matching, n + 1))


def test_no_aligned_edges_in_any_output():
    c = WeightedCycle((0, 1, 2, 3, 4), 4)
    aligned = {
        Edge(Vertex(c.base[p], i), Vertex(c.base[(p + 1) % 5], i))
        for p in range(5)
        for i in range(4)
    }
    for out in (matching_aurd(c), star_aurd(c)):
        for fc in out.classes:
            assert aligned.isdisjoint(class_edges(fc))


def test_doubly_covered_vertex_raises_with_family_tag(monkeypatch):
    # the aligned rule (e := 0) makes each position's edges meet the next's
    import starurd.aurd as aurd
    from starurd.model import ConstructionError

    rule = aurd._pos_pairs

    def aligned(c, x, k, e, levels):
        return rule(c, x, k, 0, levels)

    monkeypatch.setattr(aurd, "_pos_pairs", aligned)
    with pytest.raises(ConstructionError, match="covered twice") as info:
        matching_aurd(WeightedCycle((0, 1, 2), 4))
    assert info.value.family == "B11a@d=1"


def test_class_that_does_not_span_raises():
    from starurd.aurd import _class
    from starurd.model import ConstructionError

    # (0, 0), (0, 1), (1, 0), (1, 1) at weight 4; the edge (0, 0)-(1, 1)
    with pytest.raises(ConstructionError, match="not spanning: 2 of 4") as info:
        _class(ONE_FACTOR, [(0, 5)], {0, 1, 4, 5}, 4, "T@k=0")
    assert info.value.family == "T@k=0"


def _spanning(rnd, shape, m, w):
    """Random blocks of one shape covering the m x w grid once, shuffled."""
    grid = [Vertex(x, i) for x in range(m) for i in range(w)]
    rnd.shuffle(grid)
    if shape == "edge":
        blocks = [Edge(grid[k], grid[k + 1]) for k in range(0, len(grid), 2)]
    else:
        blocks, k = [], 0
        while k < len(grid):
            size = min(rnd.randint(2, 5), len(grid) - k)
            if len(grid) - k - size == 1:
                size += 1
            blocks.append(StarBlock(grid[k], tuple(grid[k + 1:k + size])))
            k += size
    rnd.shuffle(blocks)
    return blocks


def _flat(rnd, block, w):
    """The run of flat ids of a block that aurd._class takes: an edge as
    its two ids in either order, a star as its center id and then its
    sorted leaf ids."""
    if isinstance(block, Edge):
        pair = (block.u.base * w + block.u.level, block.v.base * w + block.v.level)
        return pair if rnd.random() < 0.5 else pair[::-1]
    return tuple(u.base * w + u.level for u in (block.center, *block.leaves))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["edge", "star"]),
       st.integers(1, 6), st.sampled_from([2, 4, 6]))
def test_class_orders_blocks_as_the_dataclass_order(rnd, shape, m, w):
    # _class sorts flat ids; the order must be that of sorted(blocks), and a
    # doubly covered vertex must be the one the dataclass order finds
    from starurd.aurd import _class
    from starurd.model import ConstructionError, factor_classes

    kind = ONE_FACTOR if shape == "edge" else STAR_FACTOR
    vertex = {x * w + i: Vertex(x, i) for x in range(m) for i in range(w)}
    blocks = _spanning(rnd, shape, m, w)
    built = _class(kind, [_flat(rnd, b, w) for b in blocks], set(vertex), w, "T")
    assert factor_classes((built,), w)[0].blocks == tuple(sorted(blocks))

    extra = rnd.sample(sorted(vertex), 2 if shape == "edge" else min(len(vertex), 4))
    extra = [vertex[u] for u in extra]
    blocks.insert(rnd.randrange(len(blocks) + 1),
                  Edge(*extra) if shape == "edge" else StarBlock(extra[0], tuple(extra[1:])))
    seen, expected = set(), None
    for b in sorted(blocks):
        for v in block_vertices(b):
            if v in seen and expected is None:
                expected = f"[T] vertex {v} covered twice"
            seen.add(v)
    with pytest.raises(ConstructionError) as info:
        _class(kind, [_flat(rnd, b, w) for b in blocks], set(vertex), w, "T")
    assert str(info.value) == expected


@pytest.mark.parametrize("build", [matching_aurd, star_aurd])
def test_stage_makes_one_vertex_per_id(build):
    # every block of a stage shares the stage's one Vertex object per vertex
    c = WeightedCycle((0, 2, 4, 1, 3), 6)
    out = build(c)
    made = {id(u) for fc in out.classes for b in fc.blocks for u in block_vertices(b)}
    assert len(made) == 5 * 6
