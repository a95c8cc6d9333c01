"""Factorizations of blown-up cycles and matchings that avoid aligned edges.

Inputs are weight-(n+1) blow-ups, n odd and >= 3; each stage reads n from
the weight.  Three decompositions are built, each covering every
non-aligned edge exactly once:

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

  Each family is a slot list, the map from the paper to the code.  A slot
  (x, k, e) at level i is the edge from (position x, level i+k) to
  (position x+1, level i+k+e), positions mod m and levels mod n+1.  Class
  a takes the even levels i and class b the odd ones, except that B6 and
  B11 take the odd levels first and B7 splits i by residue 0 / 2 mod 4.

    family     shape         slots (x, k, e) and why
    B1 B6 B11  uniform       (x, 0, d), every x: one odd difference, one
                             level parity, every position.
    B2         staggered     (x, 0, d) and (x+1, 1, d), even x: positions
                             paired (x, x+1); the second slot runs one
                             level higher so both parities get matched.
    B3 B8      low_anchor    (0, 0, d); (x, 0, d-1) and (x+1, 1, d-1), odd
                             x: slot 0 carries d; the slots from odd
                             positions carry d-1 in staggered pairs.
    B4 B9      high_anchor   (1, 0, d); (x, 0, d+1) and (x+1, 1, d+1), even
                             x >= 2: slot 1 carries d; the slots from even
                             positions x != 0 carry d+1 in staggered pairs,
                             the last pair wrapping to position 0.
    B5 B10     split_anchor  (0, 0, d-1), (1, 1, d+1); (x, 0, d), x >= 2:
                             slot 0 takes d-1, slot 1 takes d+1 one level
                             up, all others take d.  With B3/B4 (B8/B9),
                             each of d-1, d, d+1 meets every slot once.
    B7         mod4          (x, 0, 2) and (x, 1, 2), every x: d = 2 only;
                             levels i and i+1 for i in one residue class
                             mod 4.

* star_aurd: n+1 spanning star factors S_j of a blown-up m-cycle; class j
  puts a center at level j of every position and its n leaves on the
  other levels of the next position.

* weighted_one_factor_aurd: n one-factors B_d of a blown-up perfect
  matching; class d pairs level i with level i+d across every base pair.

Slots, stars and blown-up matchings give flat vertex ids base*(n+1)+level:
an edge is a pair of ids, a star its center id and sorted leaf ids.
`_output` is the one emitter that turns flat blocks into classes, for these
stages, the filling, the one-factorization of K_v for m <= 2 and the search
witness.  It sorts each class and checks it on those ids to be a perfect
matching (or a spanning disjoint star set) the moment it is built; a
failure raises ConstructionError with the family tag rather than being
repaired.  A checked class is kept as the model.FlatClass of its sorted
ids; Edge and StarBlock objects are made only when `AurdOutput.classes`
is read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from itertools import accumulate

from .blowup import WeightedCycle, WeightedOneFactor
from .model import (
    ONE_FACTOR,
    STAR_FACTOR,
    ConstructionError,
    FactorClass,
    FlatClass,
    factor_classes,
    vertex_from_flat,
)


class AurdOutput(namedtuple("AurdOutput", "flat sources weight")):
    """Factor classes on the flat ids of a weight-`weight` blow-up, plus
    the construction family that produced each; classes is their object
    view, built on request and cached on the instance."""

    def __new__(cls, flat: tuple[FlatClass, ...], sources: tuple[str, ...], weight: int):
        if len(flat) != len(sources):
            raise ValueError("one source tag per class required")
        return tuple.__new__(cls, (flat, sources, weight))

    @cached_property
    def classes(self) -> tuple[FactorClass, ...]:
        return factor_classes(self.flat, self.weight)


def _check_args(weight: int) -> int:
    """n of a weight-(n+1) blow-up, n odd and >= 3."""
    if weight < 4 or weight % 2 == 1:
        raise ValueError(f"weight must be even and >= 4 (n odd, n >= 3), got {weight}")
    return weight - 1


def _class(kind: str, blocks: list, ids: set[int], w: int, tag: str) -> FlatClass:
    """The class of the flat blocks, sorted, if they cover each of ids
    exactly once.

    Edges are pairs of flat ids in either order; stars are (center, leaves)
    with the leaves sorted.  Flat ids order vertices as the Vertex order
    does, so the sorted blocks are in the order of sorted(blocks) on the
    Edge and StarBlock objects, and each block's ids are in their
    canonical order.
    """
    if kind == ONE_FACTOR:
        blocks = sorted(p if p[0] < p[1] else (p[1], p[0]) for p in blocks)
        covered = [u for pair in blocks for u in pair]
        bounds = range(0, len(covered) + 1, 2)
        stars = bytes(len(blocks))
    else:
        blocks = sorted(blocks)
        covered = [u for center, leaves in blocks for u in (center, *leaves)]
        bounds = accumulate((1 + len(leaves) for _, leaves in blocks), initial=0)
        stars = b"\x01" * len(blocks)
    seen = set(covered)
    if len(seen) != len(covered):  # name the first repeat, in block order
        first: set[int] = set()
        for u in covered:
            if u in first:
                raise ConstructionError(tag, f"vertex {vertex_from_flat(u, w)} covered twice")
            first.add(u)
    if seen != ids:
        raise ConstructionError(
            tag, f"not spanning: {len(seen)} of {len(ids)} vertices covered"
        )
    return FlatClass(kind, tuple(covered), tuple(bounds), stars, False)


def _output(
    kind: str, bases: Iterable[int], w: int, tagged: Iterable[tuple[str, list]]
) -> AurdOutput:
    """Check each (tag, flat blocks) pair as a class of the given kind that
    spans the w levels of the bases, in order."""
    ids = {x * w + i for x in bases for i in range(w)}
    flat: list[FlatClass] = []
    sources: list[str] = []
    for tag, blocks in tagged:
        flat.append(_class(kind, blocks, ids, w, tag))
        sources.append(tag)
    return AurdOutput(tuple(flat), tuple(sources), w)


def _pos_pairs(c: WeightedCycle, x: int, k: int, e: int, levels: range) -> list[tuple[int, int]]:
    """Flat ids of the edges from (position x, level i+k) to (position x+1,
    level i+k+e) for each i in levels, wrapped."""
    w = c.weight
    here, after = c.base[x % c.m] * w, c.base[(x + 1) % c.m] * w
    return [(here + (i + k) % w, after + (i + k + e) % w) for i in levels]


def _blown(pairs: Iterable[tuple[int, int]], w: int, d: int = 0) -> list[tuple[int, int]]:
    """Flat ids of the edges (x, i)-(y, i+d) of every pair (x, y) and level i."""
    return [(x * w + i, y * w + (i + d) % w) for x, y in pairs for i in range(w)]


def _staggered(first: int, m: int, e: int) -> list[tuple[int, int, int]]:
    return [(x + k, k, e) for x in range(first, m, 2) for k in (0, 1)]


# Slot lists (x, k, e) of each shape for an m-cycle and difference d; the
# table in the module docstring gives the families of each shape and why.
_SLOTS = {
    "uniform": lambda m, d: [(x, 0, d) for x in range(m)],
    "staggered": lambda m, d: _staggered(0, m, d),
    "low_anchor": lambda m, d: [(0, 0, d)] + _staggered(1, m, d - 1),
    "high_anchor": lambda m, d: [(1, 0, d)] + _staggered(2, m, d + 1),
    "split_anchor": lambda m, d: [(0, 0, d - 1), (1, 1, d + 1)] + [(x, 0, d) for x in range(2, m)],
    "mod4": lambda m, d: [(x, k, d) for x in range(m) for k in (0, 1)],
}


def _family(c: WeightedCycle, fam: str, shape: str, d: int, first: int):
    """Classes a and b of family B<fam> at difference d, one per level
    parity; class a takes parity `first` (B7: residue 2*first mod 4)."""
    step = 4 if shape == "mod4" else 2
    for suffix, parity in (("a", first), ("b", 1 - first)):
        levels = range(parity * step // 2, c.weight, step)
        yield f"B{fam}{suffix}@d={d}", [
            pair for x, k, e in _SLOTS[shape](c.m, d) for pair in _pos_pairs(c, x, k, e, levels)
        ]


def matching_aurd(c: WeightedCycle) -> AurdOutput:
    """2n one-factors covering every non-aligned edge of the blow-up once."""
    n = _check_args(c.weight)
    plan = []  # (family id, slot shape, d, level parity of class a)
    if c.m % 2 == 0:
        for d in range(1, n + 1):
            plan.append(("1", "uniform", d, 0) if d % 2 else ("2", "staggered", d, 0))
    elif c.weight % 4 == 2:
        for d in range(1, n + 1):
            if d % 4 == 1:
                plan.append(("6", "uniform", d, 1))  # odd levels first
            elif d % 4 == 3:
                plan += [("3", "low_anchor", d, 0), ("4", "high_anchor", d, 0)]
                plan.append(("5", "split_anchor", d, 0))
    else:
        if c.weight % 4 != 0:
            raise AssertionError("weight n+1 must be even for odd n")
        for d in range(1, n + 1):
            if d == 2:
                plan.append(("7", "mod4", d, 0))
            elif d % 4 == 1 and d != 1:
                plan += [("8", "low_anchor", d, 0), ("9", "high_anchor", d, 0)]
                plan.append(("10", "split_anchor", d, 0))
            elif d % 2 == 1:
                plan.append(("11", "uniform", d, 1))  # odd levels first

    tagged = (pair for family in plan for pair in _family(c, *family))
    out = _output(ONE_FACTOR, c.base, c.weight, tagged)
    if len(out.flat) != 2 * n:
        raise ConstructionError(
            "matching_aurd", f"built {len(out.flat)} classes, expected {2 * n}"
        )
    return out


def star_aurd(c: WeightedCycle) -> AurdOutput:
    """n+1 spanning star factors covering every non-aligned edge once."""
    w = _check_args(c.weight) + 1
    starts = [x * w for x in c.base]
    # the leaves of the star at level j are the levels j+1..j+n, that is
    # every level but j, of the next position
    return _output(STAR_FACTOR, c.base, w, (
        (f"S@j={j}", [
            (here + j, tuple(after + i for i in range(w) if i != j))
            for here, after in zip(starts, starts[1:] + starts[:1])
        ])
        for j in range(w)
    ))


def weighted_one_factor_aurd(wof: WeightedOneFactor) -> AurdOutput:
    """n one-factors covering every non-aligned edge of a blown-up matching."""
    n = _check_args(wof.weight)
    points = [p for pair in wof.base_matching for p in pair]
    return _output(ONE_FACTOR, points, wof.weight, (
        (f"Bd@d={d}", _blown(wof.base_matching, wof.weight, d)) for d in range(1, n + 1)
    ))
