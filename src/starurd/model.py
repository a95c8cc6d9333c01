"""Shared vocabulary for matching/star factorizations of complete graphs.

Every object lives on the complete graph K_v with v = m*(n+1), n odd.  A
vertex is addressed as a pair (base, level): base in Z_m names one of the m
"groups" and level in Z_{n+1} names the copy inside the group.  The flat
index base*(n+1) + level orders vertices as Vertex does.  It is the one
stored form of a class: `aurd._output` makes and checks each class of the
construction on flat ids, the JSON reader gives each class on them, and the
verifier audits them as they stand, all as FlatClass.  Decomposition and
`aurd.AurdOutput` keep FlatClass classes; their `classes` is a view of
Vertex, Edge and StarBlock objects (`factor_classes`), built on request
with one Vertex per id.  `FlatClass.shape_fault` is the one rule for the
shape of a class: fields that are sequences (SEQUENCES), a kind of KINDS,
int bounds within its ids, one 0 or 1 flag per block, blocks of their
flag's size, ids that are nonnegative ints or pairs of nonnegative ints,
and no block that names one vertex twice, at the weight n+1 of its ids.
The verifier's walk reports a class that breaks it, and `id_keys` raises
it for the writers and the object view.  `vertex_key` is the one rule that turns a flat id back
into its (base, level) pair, for the verifier's walk, the reader's sort and
`vertex_from_flat`, which makes the Vertex.  `FlatClass.of` turns a
FactorClass into a FlatClass.

Blocks are either a single Edge (a K_2) or an n-star (StarBlock: one
center joined to n leaves).  A FactorClass is a spanning set of pairwise
vertex-disjoint blocks of one kind; a Decomposition collects r one-factor
classes and s star-factor classes that together partition E(K_v).

Counting identity: a decomposition of K_v into r one-factors and s n-star
factors forces (n+1)*r + 2*n*s = (n+1)*(v-1).  It is checked exactly,
never with a tolerance.

All types are immutable after construction and safe to share between
threads.  Each record is a namedtuple subclass.  Params, Edge, StarBlock
and FactorClass check or canonicalize their fields in __new__, and
Decomposition flattens a FactorClass; Vertex and FlatClass keep their
fields as given, so that a hand-built class can be audited.
VerificationReport keeps only its violations and derives passed from
them, so a report cannot pass with a violation.  A record's repr is
Name(field=value, ...); its hash and its order are those of the tuple of
its fields, and it equals that plain tuple (and so any record with equal
fields).  All but Decomposition, whose `classes` view is cached on the
instance, have no instance __dict__.
"""

from collections import namedtuple
from functools import cached_property
from operator import sub

ONE_FACTOR = "one_factor"
STAR_FACTOR = "star_factor"
KINDS = (ONE_FACTOR, STAR_FACTOR)
# the types a FlatClass field may have: a field of any other type is a
# shape fault (FlatClass.shape_fault), read by no reader
SEQUENCES = (tuple, list, bytes, bytearray)

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


class Vertex(namedtuple("Vertex", "base level")):
    __slots__ = ()


def vertex_key(k, weight: int) -> tuple:
    """The (base, level) pair a flat id names: the one rule for ids.

    An int names divmod(id, weight), so on K_v exactly the ints 0..v-1
    name vertices of Z_m x Z_weight, and v+3 names (m, 3) outside it.  A
    pair of nonnegative ints, the id FlatClass gives a vertex outside the
    grid, names itself, so (1, 1) and 1*weight + 1 are two spellings of
    one vertex.  Ids sort on it as their vertices do.  No other id, a
    negative one among them, names a vertex: a class that holds one has
    a shape fault (FlatClass.shape_fault), and no reader takes its ids
    to this rule."""
    return divmod(k, weight) if type(k) is int else k


def vertex_from_flat(index, weight: int) -> Vertex:
    """The Vertex a flat id names (vertex_key)."""
    return Vertex(*vertex_key(index, weight))


class Edge(namedtuple("Edge", "u v")):
    """Unordered pair of distinct vertices, stored in canonical sorted order."""

    __slots__ = ()

    def __new__(cls, u: Vertex, v: Vertex):
        if v <= u:
            if v == u:
                raise ValueError(f"loop edge at {u}")
            u, v = v, u
        return tuple.__new__(cls, (u, v))


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


class FlatClass(namedtuple("FlatClass", "kind ids bounds stars")):
    """One resolution class on flat ids: the form every class is kept in.

    ids holds the vertex ids of every block, block after block: block i
    is ids[bounds[i]:bounds[i + 1]], and stars[i] is 1 if it is a star, 0
    if an edge.  Each block's ids are in the canonical order of Edge and
    StarBlock: an edge's endpoints, or a star's center and then its
    leaves, each in (base, level) order.  The id of a vertex of
    Z_m x Z_{n+1} is base*(n+1)+level; any other vertex keeps its
    (base, level) pair as its id, so that (0, n+1) cannot alias (1, 0).
    vertex_key gives the vertex an id names.  One tuple per class, not
    one object per block, keeps it smaller than the Edge and StarBlock
    objects it stands for.  It is not checked when made, so that a
    hand-built class can be audited, whatever its kind and the types of
    its fields: shape_fault states the one rule for its shape, and like
    FactorClass it is not checked for disjointness or spanning.
    """

    __slots__ = ()

    @classmethod
    def of(cls, fc: FactorClass, m: int, w: int) -> "FlatClass":
        """fc on the flat ids of Z_m x Z_w.  A block that is neither an Edge
        nor a StarBlock becomes an edge block with no ids: a shape fault."""
        ids, bounds, stars = [], [0], bytearray()
        for b in fc.blocks:
            star = isinstance(b, StarBlock)
            ends = (b.center, *b.leaves) if star else (b.u, b.v) if isinstance(b, Edge) else ()
            ids += [
                u.base * w + u.level if 0 <= u.base < m and 0 <= u.level < w
                else (u.base, u.level)
                for u in ends
            ]
            bounds.append(len(ids))
            stars.append(star)
        return cls(fc.kind, tuple(ids), tuple(bounds), bytes(stars))

    def shape_fault(self, w: int) -> str | None:
        """The first fault of the class's shape, said as a fault, or None:
        an ids, bounds or stars that is not a sequence (SEQUENCES); a kind
        other than ONE_FACTOR and STAR_FACTOR; a bound that is not an int
        (2.0 and False among them, though they equal ints, name no
        position in the ids); bounds that run outside the ids; flags other
        than one 0 or 1 per block; a block of the wrong size for its flag
        (an edge holds 2 ids, a star a center and at least one leaf); an
        id that is neither a nonnegative int nor a pair of nonnegative
        ints, and so names no vertex (vertex_key), as the schema has it;
        a block that names one vertex twice at weight w (a loop, a
        repeated leaf, a center among its leaves), compared by
        vertex_key, so that 5 and (1, 1) at w=4 are one vertex.  Ids
        that are all distinct ints need no block scanned.  It is the one
        shape rule: no reader reads a block of a class that has a fault,
        and in a class that has none each block is the slice its bounds
        name, and an Edge or a StarBlock of distinct vertices."""
        ids, bounds, stars = self.ids, self.bounds, self.stars
        for name, field in ("ids", ids), ("bounds", bounds), ("stars", stars):
            if not isinstance(field, SEQUENCES):
                return f"{name} is {field!r}, not a sequence"
        if self.kind not in KINDS:
            return f"kind {self.kind!r} is not {ONE_FACTOR} or {STAR_FACTOR}"
        if not set(map(type, bounds)) <= {int}:
            bi, bound = next((bi, b) for bi, b in enumerate(bounds) if type(b) is not int)
            return f"bound {bi} is {bound!r}, not an int"
        if bounds and (bounds[0] < 0 or bounds[-1] > len(ids)):
            return f"blocks span ids[{bounds[0]}:{bounds[-1]}] of {len(ids)} ids"
        if len(stars) != len(bounds[1:]):
            return f"{len(stars)} flags for {len(bounds[1:])} blocks"
        if not (set(map(type, stars)) <= {int} and set(stars) <= {0, 1}):
            bi, flag = next((bi, f) for bi, f in enumerate(stars)
                            if type(f) is not int or f not in (0, 1))
            return f"block {bi} is flagged {flag!r}, not 0 or 1"
        sizes = set(map(sub, bounds[1:], bounds))
        if min(sizes, default=2) < 2 or (max(sizes, default=2) > 2 and 0 in stars):
            for bi, (k, star) in enumerate(zip(map(sub, bounds[1:], bounds), stars)):
                if k < 2 or (k > 2 and not star):
                    return f"block {bi} holds {k} ids"
        if not set(map(type, ids)) <= {int} or min(ids, default=0) < 0:
            for k in ids:
                if not (type(k) is int and k >= 0 or type(k) is tuple and len(k) == 2
                        and type(k[0]) is type(k[1]) is int and min(k) >= 0):
                    return f"id {k!r} names no vertex"
        elif len(set(ids)) == len(ids):
            return None
        for bi, (a, b) in enumerate(zip(bounds, bounds[1:])):
            names = [vertex_key(k, w) for k in ids[a:b]]
            if len(set(names)) != len(names):
                twice = next(name for i, name in enumerate(names) if name in names[:i])
                return f"block {bi} names {twice} twice"
        return None


def id_keys(ci: int, fc: FlatClass, w: int):
    """The ids of class ci of weight w, by which every reader of a class
    but the verifier looks its vertices up: fc.ids as they stand, or the
    ValueError of its shape fault at w (FlatClass.shape_fault), which
    names the class.  So the class's kind is one of KINDS, its fields are
    sequences, each key is a nonnegative int or a pair of nonnegative
    ints, keys equal only if they name one vertex, and no block names a
    vertex twice."""
    if fault := fc.shape_fault(w):
        raise ValueError(f"class {ci}: {fault}")
    return fc.ids


def factor_classes(flat, w: int) -> tuple[FactorClass, ...]:
    """The FactorClass of each FlatClass of weight w, with one Vertex per
    key (id_keys) for all of them: the view behind
    Decomposition.classes and `aurd.AurdOutput.classes`.  A class with a
    shape fault raises id_keys' ValueError."""
    vertex: dict = {}
    get = vertex.__getitem__
    classes = []
    for ci, fc in enumerate(flat):
        keys, bounds = id_keys(ci, fc, w), fc.bounds
        vertex.update((k, vertex_from_flat(k, w)) for k in set(keys) - vertex.keys())
        classes.append(FactorClass(fc.kind, tuple(
            StarBlock(get(keys[a]), tuple(map(get, keys[a + 1:b]))) if star
            else Edge(get(keys[a]), get(keys[a + 1]))
            for a, b, star in zip(bounds, bounds[1:], fc.stars)
        )))
    return tuple(classes)


class Decomposition(namedtuple("Decomposition", "params flat r s")):
    """A claimed decomposition of K_v: the certificate the verifier audits.

    flat holds each class as a FlatClass; a FactorClass given in its place
    is flattened (FlatClass.of), hostile ones included.  classes is their
    object view, built on the first request and kept; a class with a
    shape fault (FlatClass.shape_fault), such as one that held an object
    that is no block, raises id_keys' ValueError instead.
    r and s are stored as claimed (e.g. as read from a file); the
    verifier checks them against the actual class kinds.
    """

    def __new__(cls, params: Params, flat: tuple[FlatClass, ...], r: int, s: int):
        m, w = params.m, params.n + 1
        flat = tuple(fc if isinstance(fc, FlatClass) else FlatClass.of(fc, m, w) for fc in flat)
        return tuple.__new__(cls, (params, flat, r, s))

    @cached_property
    def classes(self) -> tuple[FactorClass, ...]:
        return factor_classes(self.flat, self.params.n + 1)


class VerificationReport(namedtuple("VerificationReport", "violations")):
    """The verifier's (code, detail) violations, in the order found; a
    certificate passes exactly when there are none."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {code for code, _ in self.violations}
