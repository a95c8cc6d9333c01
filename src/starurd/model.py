"""Shared vocabulary for matching/star factorizations of complete graphs.

Every object lives on the complete graph K_v with v = m*(n+1), n odd.  A
vertex is addressed as a pair (base, level): base in Z_m names one of the m
"groups" and level in Z_{n+1} names the copy inside the group.  The flat
index base*(n+1) + level orders vertices as Vertex does.  It is the one
stored form of a class: `aurd._output` makes and checks each class of the
construction on flat ids, the JSON reader gives each class on them, and
the verifier audits them as they stand, all as FlatClass.  Decomposition
and `aurd.AurdOutput` keep FlatClass classes; their `classes` is a view
of Vertex, Edge and StarBlock objects (`factor_classes`), built on
request with one Vertex per id.  `vertex_from_flat` turns a flat id back
into a Vertex, and `FlatClass.of` turns a FactorClass into a FlatClass.

Blocks are either a single Edge (a K_2) or an n-star (StarBlock: one
center joined to n leaves).  A FactorClass is a spanning set of pairwise
vertex-disjoint blocks of one kind; a Decomposition collects r one-factor
classes and s star-factor classes that together partition E(K_v).

Counting identity: a decomposition of K_v into r one-factors and s n-star
factors forces (n+1)*r + 2*n*s = (n+1)*(v-1).  It is checked exactly,
never with a tolerance.

All types are immutable after construction and safe to share between
threads.  Each record is a namedtuple subclass that checks or
canonicalizes its fields in __new__.  Its repr is Name(field=value, ...);
its hash and its order are those of the tuple of its fields, and it
equals that plain tuple (and so any record with equal fields).  All but
Decomposition, whose `classes` view is cached on the instance, have no
instance __dict__.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

ONE_FACTOR = "one_factor"
STAR_FACTOR = "star_factor"
KINDS = (ONE_FACTOR, STAR_FACTOR)

# Violation codes emitted by the verifier.
DUPLICATE_EDGE = "DUPLICATE_EDGE"
MISSING_EDGE = "MISSING_EDGE"
EXTRA_EDGE = "EXTRA_EDGE"
NOT_SPANNING = "NOT_SPANNING"
NOT_DISJOINT = "NOT_DISJOINT"
WRONG_KIND = "WRONG_KIND"
COUNT_MISMATCH = "COUNT_MISMATCH"
PARAM_MISMATCH = "PARAM_MISMATCH"


class ConstructionError(RuntimeError):
    """A generated factor class failed its immediate structural check.

    Carries the tag of the construction family that produced the bad class,
    so failures point at the responsible branch instead of being repaired
    silently.
    """

    def __init__(self, family: str, message: str):
        super().__init__(f"[{family}] {message}")
        self.family = family


def _require_odd_n(n: int, name: str = "n") -> None:
    """Raise ValueError unless the star size n is odd and >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 3, got {n}")


class Params(namedtuple("Params", "v n m")):
    """Order data: v = m*(n+1) with n odd, n >= 3."""

    __slots__ = ()

    def __new__(cls, v: int, n: int, m: int):
        _require_odd_n(n)
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        if v != m * (n + 1):
            raise ValueError(f"v={v} is not m*(n+1)={m * (n + 1)}")
        return tuple.__new__(cls, (v, n, m))

    @classmethod
    def for_order(cls, v: int, n: int) -> "Params":
        _require_odd_n(n)
        if v < 1 or v % (n + 1) != 0:
            raise ValueError(f"v={v} is not a multiple of n+1={n + 1}")
        return cls(v, n, v // (n + 1))

    @property
    def weight(self) -> int:
        return self.n + 1


class Vertex(namedtuple("Vertex", "base level")):
    __slots__ = ()


def vertex_from_flat(index: int | tuple[int, int], weight: int) -> Vertex:
    """The Vertex a flat id names; a (base, level) pair, the id FlatClass
    gives a vertex outside Z_m x Z_weight, names its own Vertex."""
    if type(index) is tuple:
        return Vertex(*index)
    return Vertex(index // weight, index % weight)


class Edge(namedtuple("Edge", "u v")):
    """Unordered pair of distinct vertices, stored in canonical sorted order."""

    __slots__ = ()

    def __new__(cls, u: Vertex, v: Vertex):
        if v <= u:
            if v == u:
                raise ValueError(f"loop edge at {u}")
            u, v = v, u
        return tuple.__new__(cls, (u, v))

    def endpoints(self) -> tuple[Vertex, Vertex]:
        return (self.u, self.v)


class StarBlock(namedtuple("StarBlock", "center leaves")):
    """An n-star: the edges {center, leaf} for each leaf.

    Leaves are stored sorted, so two stars are equal exactly when their edge
    sets are equal.
    """

    __slots__ = ()

    def __new__(cls, center: Vertex, leaves: tuple[Vertex, ...]):
        leaves = tuple(sorted(leaves))
        if not leaves:
            raise ValueError("star needs at least one leaf")
        distinct = set(leaves)
        if len(distinct) != len(leaves):
            raise ValueError(f"duplicate leaves in star at {center}")
        if center in distinct:
            raise ValueError(f"star center {center} repeated as leaf")
        return tuple.__new__(cls, (center, leaves))


Block = Edge | StarBlock


class FactorClass(namedtuple("FactorClass", "kind blocks")):
    """One resolution class: blocks of a single kind, meant to span K_v.

    Only the kind label is validated here; disjointness and spanning are the
    verifier's job, so that hostile input can be represented and audited.
    """

    __slots__ = ()

    def __new__(cls, kind: str, blocks: tuple[Block, ...]):
        if kind not in KINDS:
            raise ValueError(f"unknown class kind {kind!r}")
        return tuple.__new__(cls, (kind, tuple(blocks)))


class FlatClass(namedtuple("FlatClass", "kind ids bounds stars foreign")):
    """One resolution class on flat ids: the form every class is kept in.

    ids holds the vertex ids of every block, block after block: block i
    is ids[bounds[i]:bounds[i + 1]], and stars[i] is 1 if it is a star, 0
    if an edge.  Each block's ids are in the canonical order of Edge and
    StarBlock: an edge's endpoints, or a star's center and then its
    leaves, each in (base, level) order.  The id of a vertex of
    Z_m x Z_{n+1} is base*(n+1)+level; any other vertex keeps its
    (base, level) pair as its id, so that (0, n+1) cannot alias (1, 0),
    and foreign says whether ids holds one.  One tuple per class, not one
    object per block, keeps it smaller than the Edge and StarBlock objects
    it stands for.  Like FactorClass, it is not checked for disjointness
    or spanning.
    """

    __slots__ = ()

    @classmethod
    def of(cls, fc: FactorClass, m: int, w: int) -> "FlatClass":
        """fc on the flat ids of Z_m x Z_w.  A block that is neither an Edge
        nor a StarBlock becomes a block of the other shape than the class
        kind with no vertices: the audit reports it as of the wrong kind
        and nothing else."""
        ids, bounds, stars = [], [0], bytearray()
        foreign = False
        for b in fc.blocks:
            if isinstance(b, Edge):
                ends, star = (b.u, b.v), 0
            elif isinstance(b, StarBlock):
                ends, star = (b.center, *b.leaves), 1
            else:
                ends, star = (), int(fc.kind == ONE_FACTOR)
            block = [u.base * w + u.level for u in ends if 0 <= u.base < m and 0 <= u.level < w]
            if len(block) != len(ends):
                foreign = True
                block = [
                    u.base * w + u.level if 0 <= u.base < m and 0 <= u.level < w
                    else (u.base, u.level)
                    for u in ends
                ]
            ids += block
            bounds.append(len(ids))
            stars.append(star)
        return cls(fc.kind, tuple(ids), tuple(bounds), bytes(stars), foreign)

    def blocks(self):
        """Each block's ids, as a tuple, in block order."""
        ids, bounds = self.ids, self.bounds
        return (ids[a:b] for a, b in zip(bounds, bounds[1:]))


def factor_classes(flat, w: int) -> tuple[FactorClass, ...]:
    """The FactorClass of each FlatClass of weight w, with one Vertex per
    id for all of them: the view behind Decomposition.classes and
    `aurd.AurdOutput.classes`."""
    vertex: dict = {}
    classes = []
    for fc in flat:
        vertex.update((k, vertex_from_flat(k, w)) for k in set(fc.ids) - vertex.keys())
        classes.append(FactorClass(fc.kind, tuple(
            StarBlock(vertex[ids[0]], tuple(map(vertex.__getitem__, ids[1:]))) if star
            else Edge(*map(vertex.__getitem__, ids))
            for ids, star in zip(fc.blocks(), fc.stars)
        )))
    return tuple(classes)


class Decomposition(namedtuple("Decomposition", "params flat r s")):
    """A claimed decomposition of K_v: the certificate the verifier audits.

    flat holds each class as a FlatClass; a FactorClass given in its place
    is flattened (FlatClass.of), hostile ones included.  classes is their
    object view, built on the first request and kept; a class that held an
    object that is no block has no view.  r and s are stored as claimed
    (e.g. as read from a file); the verifier checks them against the
    actual class kinds.
    """

    def __new__(cls, params: Params, flat: tuple[FlatClass, ...], r: int, s: int):
        m, w = params.m, params.n + 1
        flat = tuple(fc if isinstance(fc, FlatClass) else FlatClass.of(fc, m, w) for fc in flat)
        return tuple.__new__(cls, (params, flat, r, s))

    @cached_property
    def classes(self) -> tuple[FactorClass, ...]:
        return factor_classes(self.flat, self.params.n + 1)

    @classmethod
    def from_classes(cls, params: Params, classes) -> "Decomposition":
        classes = tuple(classes)
        r = sum(1 for c in classes if c.kind == ONE_FACTOR)
        s = sum(1 for c in classes if c.kind == STAR_FACTOR)
        return cls(params, classes, r, s)


class VerificationReport(namedtuple("VerificationReport", "passed violations")):
    __slots__ = ()

    @classmethod
    def from_violations(cls, violations) -> "VerificationReport":
        violations = tuple(violations)
        return cls(not violations, violations)

    def codes(self) -> set[str]:
        return {code for code, _ in self.violations}
