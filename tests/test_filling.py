from collections import Counter

import pytest

from starurd.filling import fill_even, fill_odd
from reference_verifier import edges_of_block
from starurd.model import Edge, ONE_FACTOR, Vertex


def remainder_edges(m, n):
    """Aligned edges between every base pair, plus all in-base edges,
    enumerated from scratch."""
    w = n + 1
    out = set()
    for a in range(m):
        for b in range(a + 1, m):
            for i in range(w):
                out.add(Edge(Vertex(a, i), Vertex(b, i)))
    for x in range(m):
        for i in range(w):
            for j in range(i + 1, w):
                out.add(Edge(Vertex(x, i), Vertex(x, j)))
    return out


def class_edges(fc):
    out = []
    for b in fc.blocks:
        out.extend(edges_of_block(b))
    return out


def assert_all_perfect_matchings(classes, m, n):
    vertices = {Vertex(x, i) for x in range(m) for i in range(n + 1)}
    for fc in classes:
        assert fc.kind == ONE_FACTOR
        seen = [u for b in fc.blocks for u in b]
        assert len(seen) == len(set(seen))
        assert set(seen) == vertices


def test_fill_odd_m3_n3_first_class_exact():
    out = fill_odd(3, 3)
    assert len(out.classes) == 5
    assert out.sources[:3] == ("AxBx@x=0", "AxBx@x=1", "AxBx@x=2")
    first = set(class_edges(out.classes[0]))
    expected = {Edge(Vertex(1, i), Vertex(2, i)) for i in range(4)}
    expected |= {
        Edge(Vertex(0, 0), Vertex(0, 1)),
        Edge(Vertex(0, 2), Vertex(0, 3)),
    }
    assert first == expected
    assert len(first) == 6


def test_fill_odd_m3_n3_edge_budget():
    # remainder has 3*4 aligned + 3*6 in-base edges = 30 = 5 classes of 6
    out = fill_odd(3, 3)
    host = remainder_edges(3, 3)
    assert len(host) == 30
    counts = Counter()
    for fc in out.classes:
        assert len(fc.blocks) == 6
        counts.update(class_edges(fc))
    assert set(counts) == host and all(c == 1 for c in counts.values())


def test_fill_odd_m5_midpoint_uniqueness():
    # each base pair {a,b} is aligned-covered in exactly the class of its
    # midpoint x = (a+b)/2 mod 5, since doubling is invertible mod 5
    out = fill_odd(5, 3)
    inv2 = 3  # 2*3 = 6 = 1 mod 5
    for a in range(5):
        for b in range(a + 1, 5):
            hits = [
                k
                for k, fc in enumerate(out.classes[:5])
                if Edge(Vertex(a, 0), Vertex(b, 0)) in class_edges(fc)
            ]
            assert hits == [((a + b) * inv2) % 5]


def test_fill_odd_m5_n3_shape():
    out = fill_odd(5, 3)
    assert len(out.classes) == 7
    assert all(len(fc.blocks) == 10 for fc in out.classes)
    assert_all_perfect_matchings(out.classes, 5, 3)


def test_fill_even_m4_n3_first_aligned_class():
    out = fill_even(4, 3)
    assert len(out.classes) == 6
    # A-classes blow up the round-robin factors of K_4; the first factor
    # is {01, 23}
    a1 = set(class_edges(out.classes[0]))
    expected = {Edge(Vertex(0, i), Vertex(1, i)) for i in range(4)}
    expected |= {Edge(Vertex(2, i), Vertex(3, i)) for i in range(4)}
    assert a1 == expected
    assert out.sources[0] == "Ak@k=1"


def test_fill_even_m4_n3_edge_budget():
    out = fill_even(4, 3)
    host = remainder_edges(4, 3)
    assert len(host) == 48
    counts = Counter()
    for fc in out.classes:
        assert len(fc.blocks) == 8
        counts.update(class_edges(fc))
    assert set(counts) == host and all(c == 1 for c in counts.values())


def test_fill_even_m6_n5_shape():
    out = fill_even(6, 5)
    assert len(out.classes) == 10
    assert all(len(fc.blocks) == 18 for fc in out.classes)
    assert_all_perfect_matchings(out.classes, 6, 5)


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_fill_odd_partitions_remainder(m, n):
    out = fill_odd(m, n)
    assert len(out.classes) == m + n - 1
    assert_all_perfect_matchings(out.classes, m, n)
    counts = Counter()
    for fc in out.classes:
        counts.update(class_edges(fc))
    host = remainder_edges(m, n)
    assert set(counts) == host and all(c == 1 for c in counts.values())


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_fill_even_partitions_remainder(m, n):
    out = fill_even(m, n)
    assert len(out.classes) == m + n - 1
    assert_all_perfect_matchings(out.classes, m, n)
    counts = Counter()
    for fc in out.classes:
        counts.update(class_edges(fc))
    host = remainder_edges(m, n)
    assert set(counts) == host and all(c == 1 for c in counts.values())


def test_parity_validation():
    with pytest.raises(ValueError):
        fill_odd(4, 3)
    with pytest.raises(ValueError):
        fill_even(5, 3)
    with pytest.raises(ValueError):
        fill_odd(3, 4)
    with pytest.raises(ValueError):
        fill_even(4, 2)


@pytest.mark.parametrize("m", range(3, 10, 2))
@pytest.mark.parametrize("n", range(3, 16, 2))
def test_fill_odd_axbx_classes_hold_their_level_matching(m, n):
    # the relabelled first factor of the inner one-factorization is the
    # level matching (x, 2i)-(x, 2i+1) of base x, by construction
    out = fill_odd(m, n)
    for x in range(m):
        fc = out.classes[out.sources.index(f"AxBx@x={x}")]
        inner = {b for b in fc.blocks if b.u.base == b.v.base}
        assert inner == {Edge(Vertex(x, 2 * i), Vertex(x, 2 * i + 1)) for i in range((n + 1) // 2)}
