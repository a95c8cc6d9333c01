"""Factorizations of blown-up cycles and matchings that avoid aligned edges.

Inputs are weight-(n+1) blow-ups (n odd).  Three decompositions are built,
each covering every non-aligned edge exactly once:

* matching_aurd: 2n one-factors of a blown-up m-cycle.  Two one-factors
  are produced per difference d in 1..n, split by level parity.  For even
  m every difference is handled on its own (families B1 for odd d, B2 for
  even d).  For odd m an even difference cannot be split by parity alone,
  so one odd difference is mixed with its two even neighbours d-1, d+1
  into six factors (families B3-B5, used when the weight is 2 mod 4, and
  B8-B10 when it is 0 mod 4); unmixed odd differences use the plain
  parity split (B6/B11).  Weight 0 mod 4 has an odd number of even
  differences, so d=2 is handled first by a special pair (B7) that splits
  levels by residue mod 4.

* star_aurd: n+1 spanning star factors S_j of a blown-up m-cycle; class j
  puts a center at level j of every position and its n leaves on the
  other levels of the next position.

* weighted_one_factor_aurd: n one-factors B_d of a blown-up perfect
  matching; class d pairs level i with level i+d across every base pair.

Every class is checked to be a perfect matching (or a spanning disjoint
star set) the moment it is built; a failure raises ConstructionError with
the family tag rather than being repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .blowup import WeightedCycle, WeightedOneFactor
from .model import (
    ONE_FACTOR,
    STAR_FACTOR,
    ConstructionError,
    Edge,
    FactorClass,
    K2Block,
    StarBlock,
    Vertex,
)


@dataclass(frozen=True)
class AurdOutput:
    """Factor classes plus the construction family that produced each."""

    classes: tuple[FactorClass, ...]
    sources: tuple[str, ...]

    def __post_init__(self):
        if len(self.classes) != len(self.sources):
            raise ValueError("one source tag per class required")


def _check_args(weight: int, n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if weight != n + 1:
        raise ValueError(f"structure has weight {weight}, expected n+1 = {n + 1}")


def _matching_class(edges: Iterable[Edge], vertices: set[Vertex], tag: str) -> FactorClass:
    edges = sorted(edges)
    seen: set[Vertex] = set()
    for e in edges:
        for w in e.endpoints():
            if w in seen:
                raise ConstructionError(tag, f"vertex {w} covered twice")
            seen.add(w)
    if seen != vertices:
        raise ConstructionError(
            tag, f"not spanning: {len(seen)} of {len(vertices)} vertices covered"
        )
    return FactorClass(ONE_FACTOR, tuple(K2Block(e) for e in edges))


def _star_class(blocks: Iterable[StarBlock], vertices: set[Vertex], tag: str) -> FactorClass:
    blocks = sorted(blocks)
    seen: set[Vertex] = set()
    for b in blocks:
        for w in (b.center, *b.leaves):
            if w in seen:
                raise ConstructionError(tag, f"vertex {w} covered twice")
            seen.add(w)
    if seen != vertices:
        raise ConstructionError(
            tag, f"not spanning: {len(seen)} of {len(vertices)} vertices covered"
        )
    return FactorClass(STAR_FACTOR, tuple(blocks))


def _pos_edge(c: WeightedCycle, x: int, i: int, j: int) -> Edge:
    """Edge from (position x, level i) to (position x+1, level j), wrapped."""
    return Edge(
        Vertex(c.base[x % c.m], i % c.weight),
        Vertex(c.base[(x + 1) % c.m], j % c.weight),
    )


def _levels(c: WeightedCycle, parity: int) -> range:
    return range(parity, c.weight, 2)


# Family bodies.  Each returns the edge list for one level parity; the
# caller instantiates both parities as a pair of classes tagged a and b.


def _family_uniform(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B1 / B6 / B11: one difference, one level parity, every position.
    return [_pos_edge(c, x, i, i + d) for x in range(c.m) for i in _levels(c, parity)]


def _family_staggered(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B2 (even m): positions paired (x, x+1) for even x; the second slot
    # runs one level higher so both parities get matched.
    edges = []
    for x in range(0, c.m, 2):
        for i in _levels(c, parity):
            edges.append(_pos_edge(c, x, i, i + d))
            edges.append(_pos_edge(c, x + 1, i + 1, i + d + 1))
    return edges


def _family_low_anchor(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B3 / B8 (odd m): slot 0 carries difference d; slots from odd
    # positions carry difference d-1 in staggered pairs.
    edges = [_pos_edge(c, 0, i, i + d) for i in _levels(c, parity)]
    for x in range(1, c.m, 2):
        for i in _levels(c, parity):
            edges.append(_pos_edge(c, x, i, i + (d - 1)))
            edges.append(_pos_edge(c, x + 1, i + 1, i + 1 + (d - 1)))
    return edges


def _family_high_anchor(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B4 / B9 (odd m): slot 1 carries difference d; slots from even
    # positions x != 0 carry difference d+1 in staggered pairs.
    edges = [_pos_edge(c, 1, i, i + d) for i in _levels(c, parity)]
    for x in range(2, c.m, 2):
        for i in _levels(c, parity):
            edges.append(_pos_edge(c, x, i, i + (d + 1)))
            edges.append(_pos_edge(c, x + 1, i + 1, i + 1 + (d + 1)))
    return edges


def _family_split_anchor(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B5 / B10 (odd m): slot 0 takes d-1, slot 1 takes d+1 one level up,
    # all remaining slots take d.
    edges = [_pos_edge(c, 0, i, i + (d - 1)) for i in _levels(c, parity)]
    edges += [_pos_edge(c, 1, i + 1, i + 1 + (d + 1)) for i in _levels(c, parity)]
    for x in range(2, c.m):
        for i in _levels(c, parity):
            edges.append(_pos_edge(c, x, i, i + d))
    return edges


def _family_mod4(c: WeightedCycle, d: int, parity: int) -> list[Edge]:
    # B7 (odd m, weight 0 mod 4): difference d = 2 only, levels i and i+1
    # for i in residue class 2*parity mod 4.
    edges = []
    for x in range(c.m):
        for i in range(2 * parity, c.weight, 4):
            edges.append(_pos_edge(c, x, i, i + d))
            edges.append(_pos_edge(c, x, i + 1, i + 1 + d))
    return edges


def matching_aurd(c: WeightedCycle, n: int) -> AurdOutput:
    """2n one-factors covering every non-aligned edge of the blow-up once."""
    _check_args(c.weight, n)
    vertices = set(c.vertices())
    classes: list[FactorClass] = []
    sources: list[str] = []

    def emit(family, fam_id: str, d: int, first: int = 0) -> None:
        # level parity `first` gets tag suffix a, the other parity b
        for suffix, parity in (("a", first), ("b", 1 - first)):
            tag = f"B{fam_id}{suffix}@d={d}"
            classes.append(_matching_class(family(c, d, parity), vertices, tag))
            sources.append(tag)

    if c.m % 2 == 0:
        for d in range(1, n + 1):
            if d % 2 == 1:
                emit(_family_uniform, "1", d)
            else:
                emit(_family_staggered, "2", d)
    elif c.weight % 4 == 2:
        for d in range(1, n + 1):
            if d % 4 == 1:
                emit(_family_uniform, "6", d, first=1)  # odd levels first
            elif d % 4 == 3:
                emit(_family_low_anchor, "3", d)
                emit(_family_high_anchor, "4", d)
                emit(_family_split_anchor, "5", d)
    else:
        if c.weight % 4 != 0:
            raise AssertionError("weight n+1 must be even for odd n")
        for d in range(1, n + 1):
            if d == 2:
                emit(_family_mod4, "7", d)
            elif d % 4 == 1 and d != 1:
                emit(_family_low_anchor, "8", d)
                emit(_family_high_anchor, "9", d)
                emit(_family_split_anchor, "10", d)
            elif d % 2 == 1:
                emit(_family_uniform, "11", d, first=1)  # odd levels first

    if len(classes) != 2 * n:
        raise ConstructionError(
            "matching_aurd", f"built {len(classes)} classes, expected {2 * n}"
        )
    return AurdOutput(tuple(classes), tuple(sources))


def star_aurd(c: WeightedCycle, n: int) -> AurdOutput:
    """n+1 spanning star factors covering every non-aligned edge once."""
    _check_args(c.weight, n)
    vertices = set(c.vertices())
    w = c.weight
    classes: list[FactorClass] = []
    sources: list[str] = []
    for j in range(w):
        tag = f"S@j={j}"
        blocks = []
        for x in range(c.m):
            center = Vertex(c.base[x], j)
            leaves = tuple(
                Vertex(c.base[(x + 1) % c.m], (j + t) % w) for t in range(1, n + 1)
            )
            blocks.append(StarBlock(center, leaves))
        classes.append(_star_class(blocks, vertices, tag))
        sources.append(tag)
    return AurdOutput(tuple(classes), tuple(sources))


def weighted_one_factor_aurd(wof: WeightedOneFactor, n: int) -> AurdOutput:
    """n one-factors covering every non-aligned edge of a blown-up matching."""
    _check_args(wof.weight, n)
    vertices = set(wof.vertices())
    w = wof.weight
    classes: list[FactorClass] = []
    sources: list[str] = []
    for d in range(1, n + 1):
        tag = f"Bd@d={d}"
        edges = [
            Edge(Vertex(x, i), Vertex(y, (i + d) % w))
            for x, y in wof.base_matching
            for i in range(w)
        ]
        classes.append(_matching_class(edges, vertices, tag))
        sources.append(tag)
    return AurdOutput(tuple(classes), tuple(sources))
