"""Blow-ups of base cycles and base matchings.

Giving weight w to a graph replaces each base vertex x by the w vertices
(x, 0)..(x, w-1) and each base edge {x, y} by the complete bipartite join
between the copies.  Along the cycle orientation, the edge from (position
p, level i) to (position p+1, level j) has difference (j - i) mod w; the
difference-0 edges form the aligned subgraph, which the decompositions in
`aurd` avoid and the filling stage covers.

A cycle is stored as its base ordering, so the constructions apply to any
base cycle, not just (0, 1, ..., m-1).
"""

from __future__ import annotations

from collections import namedtuple

from .model import Vertex
from .seeds import Matching, _pair


class WeightedCycle(namedtuple("WeightedCycle", "base weight")):
    """A base m-cycle blown up by the given weight."""

    __slots__ = ()

    def __new__(cls, base: tuple[int, ...], weight: int):
        base = tuple(base)
        if len(base) < 3:
            raise ValueError(f"cycle needs >= 3 base points, got {len(base)}")
        if len(set(base)) != len(base):
            raise ValueError("cycle base points must be distinct")
        if weight < 2:
            raise ValueError(f"weight must be >= 2, got {weight}")
        return tuple.__new__(cls, (base, weight))

    @property
    def m(self) -> int:
        return len(self.base)

    def vertices(self) -> list[Vertex]:
        return [Vertex(x, i) for x in self.base for i in range(self.weight)]


class WeightedOneFactor(namedtuple("WeightedOneFactor", "base_matching weight")):
    """A base perfect matching blown up by the given weight.

    Pairs are stored canonically (smaller point first); difference
    arithmetic orients each pair from its smaller to its larger point.
    """

    __slots__ = ()

    def __new__(cls, base_matching: Matching, weight: int):
        pairs = tuple(sorted(_pair(a, b) for a, b in base_matching))
        points = [p for pair in pairs for p in pair]
        if len(set(points)) != len(points):
            raise ValueError("base matching pairs are not disjoint")
        if not pairs:
            raise ValueError("base matching is empty")
        if weight < 2:
            raise ValueError(f"weight must be >= 2, got {weight}")
        return tuple.__new__(cls, (pairs, weight))

    def vertices(self) -> list[Vertex]:
        points = sorted(p for pair in self.base_matching for p in pair)
        return [Vertex(x, i) for x in points for i in range(self.weight)]

