"""Blow-ups, and the cycle-edge rule that the AURD families are written in.

`aurd._pos_edge(c, x, i, j)` is the edge from (position x, level i) to
(position x+1, level j) of a blown-up cycle, with positions and levels
taken modulo m and the weight.  The blow-up's edge set is enumerated here
from raw loops over the base ordering, not from the package.
"""

import pytest

from starurd.aurd import _pos_edge, matching_aurd, star_aurd, weighted_one_factor_aurd
from starurd.blowup import WeightedCycle, WeightedOneFactor
from starurd.model import Edge, Vertex, edges_of_block


def raw_cycle_edges(base, w):
    m = len(base)
    return {
        Edge(Vertex(base[p], i), Vertex(base[(p + 1) % m], j))
        for p in range(m)
        for i in range(w)
        for j in range(w)
    }


def covered(classes):
    return [e for fc in classes for b in fc.blocks for e in edges_of_block(b)]


def test_cycle_edge_basic():
    c = WeightedCycle((0, 1, 2), 4)
    assert _pos_edge(c, 0, 0, 1) == Edge(Vertex(0, 0), Vertex(1, 1))


def test_cycle_edge_arbitrary_base_order_with_wrap():
    c = WeightedCycle((0, 2, 4, 1, 3), 4)
    # level wraps: 3 + 2 = 5 = 1 mod 4
    assert _pos_edge(c, 1, 3, 5) == Edge(Vertex(2, 3), Vertex(4, 1))


def test_cycle_edge_position_wrap():
    c = WeightedCycle((0, 1, 2), 4)
    assert _pos_edge(c, 2, 1, 2) == Edge(Vertex(2, 1), Vertex(0, 2))


def test_j_edges_cycle():
    # both cycle routes leave out exactly the aligned edges
    c = WeightedCycle((0, 1, 2), 4)
    aligned = {
        Edge(Vertex(c.base[p], i), Vertex(c.base[(p + 1) % 3], i))
        for p in range(3)
        for i in range(4)
    }
    assert len(aligned) == 12
    host = raw_cycle_edges(c.base, 4)
    for out in (matching_aurd(c, 3), star_aurd(c, 3)):
        assert host - set(covered(out.classes)) == aligned


def test_j_edges_weighted_one_factor():
    w = WeightedOneFactor(((0, 1), (2, 3)), 4)
    aligned = {
        Edge(Vertex(x, i), Vertex(y, i)) for x, y in ((0, 1), (2, 3)) for i in range(4)
    }
    assert len(aligned) == 8
    host = {
        Edge(Vertex(x, i), Vertex(y, j))
        for x, y in ((0, 1), (2, 3))
        for i in range(4)
        for j in range(4)
    }
    assert host - set(covered(weighted_one_factor_aurd(w, 3).classes)) == aligned


def test_j_edges_weight_two():
    # the least weight a blow-up accepts
    c = WeightedCycle((0, 1, 2), 2)
    assert len({_pos_edge(c, x, i, i) for x in range(3) for i in range(2)}) == 6


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("w", [4, 6, 8])
def test_difference_classes_partition(m, w):
    c = WeightedCycle(tuple(range(m)), w)
    every = raw_cycle_edges(c.base, w)
    assert len(every) == m * w * w
    seen = set()
    for d in range(w):
        part = {_pos_edge(c, x, i, i + d) for x in range(m) for i in range(w)}
        assert len(part) == m * w
        assert seen.isdisjoint(part)
        seen |= part
    assert seen == every
    # both cycle routes cover every difference but 0, each edge once
    aligned = {_pos_edge(c, x, i, i) for x in range(m) for i in range(w)}
    for out in (matching_aurd(c, w - 1), star_aurd(c, w - 1)):
        edges = covered(out.classes)
        assert len(edges) == len(set(edges))
        assert set(edges) == every - aligned


@pytest.mark.parametrize("base", [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 1, 3, 2)])
def test_edge_difference_round_trip(base):
    c = WeightedCycle(base, 4)
    for p in range(c.m):
        here, after = base[p], base[(p + 1) % c.m]
        for i in range(4):
            for d in range(4):
                level = {u.base: u.level for u in _pos_edge(c, p, i, i + d).endpoints()}
                assert set(level) == {here, after}
                assert level[here] == i
                assert (level[after] - level[here]) % 4 == d


def test_weighted_one_factor_edges_and_host():
    w = WeightedOneFactor(((0, 1), (2, 3)), 4)
    edges = covered(weighted_one_factor_aurd(w, 3).classes)
    # the host: 2 * 16 blow-up edges less the 8 aligned ones, each once
    assert len(edges) == len(set(edges)) == 2 * 16 - 8


def test_weighted_one_factor_rejects_overlap():
    with pytest.raises(ValueError):
        WeightedOneFactor(((0, 1), (1, 2)), 4)


def test_cycle_validation():
    with pytest.raises(ValueError):
        WeightedCycle((0, 1), 4)
    with pytest.raises(ValueError):
        WeightedCycle((0, 1, 1), 4)
    with pytest.raises(ValueError):
        WeightedCycle((0, 1, 2), 1)
