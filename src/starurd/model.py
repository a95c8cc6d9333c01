"""Shared vocabulary for matching/star factorizations of complete graphs.

Every object lives on the complete graph K_v with v = m*(n+1), n odd.  A
vertex is addressed as a pair (base, level): base in Z_m names one of the m
"groups" and level in Z_{n+1} names the copy inside the group.  The flat
index base*(n+1) + level is used only for serialization and for orderings
that need a single integer per vertex.

Blocks are either a single edge (K2Block) or an n-star (StarBlock: one
center joined to n leaves).  A FactorClass is a spanning set of pairwise
vertex-disjoint blocks of one kind; a Decomposition collects r one-factor
classes and s star-factor classes that together partition E(K_v).

Counting identity: a decomposition of K_v into r one-factors and s n-star
factors forces (n+1)*r + 2*n*s = (n+1)*(v-1).  It is checked exactly,
never with a tolerance.

All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, order=True)
class Params:
    """Order data: v = m*(n+1) with n odd, n >= 3."""

    v: int
    n: int
    m: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.v != self.m * (self.n + 1):
            raise ValueError(f"v={self.v} is not m*(n+1)={self.m * (self.n + 1)}")

    @classmethod
    def for_order(cls, v: int, n: int) -> "Params":
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {n}")
        if v < 1 or v % (n + 1) != 0:
            raise ValueError(f"v={v} is not a multiple of n+1={n + 1}")
        return cls(v, n, v // (n + 1))

    @property
    def weight(self) -> int:
        return self.n + 1


@dataclass(frozen=True, order=True)
class Vertex:
    base: int
    level: int

    def flat(self, weight: int) -> int:
        return self.base * weight + self.level


def vertex_from_flat(index: int, weight: int) -> Vertex:
    return Vertex(index // weight, index % weight)


def all_vertices(params: Params) -> list[Vertex]:
    """All v vertices of K_v in flat (lexicographic) order."""
    return [Vertex(b, i) for b in range(params.m) for i in range(params.weight)]


@dataclass(frozen=True, order=True)
class Edge:
    """Unordered pair of distinct vertices, stored in canonical sorted order."""

    u: Vertex
    v: Vertex

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u}")
        if self.v < self.u:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)

    def endpoints(self) -> tuple[Vertex, Vertex]:
        return (self.u, self.v)


@dataclass(frozen=True, order=True)
class K2Block:
    edge: Edge


@dataclass(frozen=True, order=True)
class StarBlock:
    """An n-star: the edges {center, leaf} for each leaf.

    Leaves are stored sorted, so two stars are equal exactly when their edge
    sets are equal.
    """

    center: Vertex
    leaves: tuple[Vertex, ...]

    def __post_init__(self):
        leaves = tuple(sorted(self.leaves))
        if not leaves:
            raise ValueError("star needs at least one leaf")
        if len(set(leaves)) != len(leaves):
            raise ValueError(f"duplicate leaves in star at {self.center}")
        if self.center in leaves:
            raise ValueError(f"star center {self.center} repeated as leaf")
        object.__setattr__(self, "leaves", leaves)


Block = K2Block | StarBlock


def edges_of_block(block: Block) -> frozenset[Edge]:
    if isinstance(block, K2Block):
        return frozenset((block.edge,))
    return frozenset(Edge(block.center, leaf) for leaf in block.leaves)


def block_vertices(block: Block) -> tuple[Vertex, ...]:
    if isinstance(block, K2Block):
        return block.edge.endpoints()
    return (block.center,) + block.leaves


@dataclass(frozen=True)
class FactorClass:
    """One resolution class: blocks of a single kind, meant to span K_v.

    Only the kind label is validated here; disjointness and spanning are the
    verifier's job, so that hostile input can be represented and audited.
    """

    kind: str
    blocks: tuple[Block, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))


@dataclass(frozen=True)
class Decomposition:
    """A claimed decomposition of K_v: the certificate the verifier audits.

    r and s are stored as claimed (e.g. as read from a file); the verifier
    checks them against the actual class kinds.
    """

    params: Params
    classes: tuple[FactorClass, ...]
    r: int
    s: int

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))

    @classmethod
    def from_classes(cls, params: Params, classes) -> "Decomposition":
        classes = tuple(classes)
        r = sum(1 for c in classes if c.kind == ONE_FACTOR)
        s = sum(1 for c in classes if c.kind == STAR_FACTOR)
        return cls(params, classes, r, s)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: tuple[tuple[str, str], ...]

    @classmethod
    def from_violations(cls, violations) -> "VerificationReport":
        violations = tuple(violations)
        return cls(not violations, violations)

    def codes(self) -> set[str]:
        return {code for code, _ in self.violations}
