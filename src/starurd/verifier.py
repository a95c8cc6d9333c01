"""Independent certificate checker for claimed decompositions.

Shares no code with the construction modules: every structural claim a
certificate makes is re-derived from the blocks themselves.  All failures
are reported as (code, detail) violations; nothing raises on hostile
input.

`verify` audits the model.FlatClass classes of a Decomposition, on flat
vertex ids base*(n+1)+level, as the JSON reader, the construction or a
flattened FactorClass made them; it never reads the object view
`Decomposition.classes`.  A class passes the clean-class test if it holds
the ids 0..v-1 in a tuple, each once and each of type int, in blocks
flagged as its kind and of its kind's size, 2 ids for an edge and n+1 for
a star, with bounds of type int: it has no fault to find, and only its
edges and star centers are taken.  A block's edges join its first id to
the rest: a one-factor's are read as the pairs of its two strides, a star
class's block by block.  One stride loop for both kinds, the j-th edges
of all blocks at a time, reads the same pairs into the same rows in the
same order per row, but was measured slower on star classes (ROADMAP
item 12).  Any other class goes through the fault walk.  A class with a
shape fault (model.FlatClass.shape_fault: the one rule, by which the
writers and the object view refuse a class) is reported as its fault
alone: one WRONG_KIND with the fault's text, and, as no block
of it is read, a NOT_SPANNING of all v vertices uncovered; no block count
is read from fields the rule rejected.  Else the walk takes its blocks in
order and reports each block of the wrong kind and each star of the wrong
size, and the first vertex that an earlier block holds (blocks list their
ids in the canonical order of Edge and StarBlock), then the vertices it
fails to cover or holds outside the vertex set, and a block count other
than its kind's.  The walk takes each id as the vertex that
model.vertex_key names, however it is spelled, trusting no flag of
whoever made the class, and keeps the edges with an end outside the
vertex set as Edge objects.  A block that names one vertex twice, a loop
among them, is a shape fault, so every pair the walk takes is an edge.

Together the classes must cover every pair of vertices exactly once,
checked on integer ids without enumerating E(K_v).  A pair a < b is kept
as b in row a: a C array of 8-byte ints made on the first pair with that
smaller end (a list when v > 2**63, for ids past what 8 bytes hold), so
the rows take 8 bytes a pair and one row per distinct a, not an int
object a pair.  The audit walks the rows in order of a and sorts one row
at a time, so repeats are adjacent and no set of the pairs is built: the
pairs covered more than once are read off each row, the uncovered pairs
are v(v-1)/2 minus the distinct pairs covered, and the first lies in
the least row a that lacks one of a+1..v-1: it is (a, a+1) if that row
is absent, and else the least b missing from it.  The vertex set and the
clean shapes are built only if some class holds v ids, so time and
memory are bounded by the size of the certificate, not by the v it
claims.  Last, every vertex must be a star center in s/(n+1) classes: a
valid decomposition forces it, and an edge count alone would miss it.
"""

from array import array
from collections import Counter, defaultdict
from functools import partial
from itertools import groupby, islice
from operator import eq

from .model import (
    COUNT_MISMATCH,
    DUPLICATE_EDGE,
    EXTRA_EDGE,
    MISSING_EDGE,
    NOT_DISJOINT,
    NOT_SPANNING,
    ONE_FACTOR,
    PARAM_MISMATCH,
    STAR_FACTOR,
    WRONG_KIND,
    Decomposition,
    Edge,
    FlatClass,
    VerificationReport,
    Vertex,
    vertex_from_flat,
    vertex_key,
)


def _walk_class(index: int, fc: FlatClass, n: int, v: int, rows: defaultdict,
                extra: set[Edge], centers: list[int]) -> list[tuple[str, str]]:
    """The faults of one class, found block by block.  A class with a
    shape fault (FlatClass.shape_fault) has that fault and all v vertices
    uncovered, and nothing else: no block of it is read and no field of
    it is sized or sliced.  Else each block is the slice of the ids its
    bounds name, no block names a vertex twice, and the faults are, in
    block order, each block of the wrong kind, each star of the wrong size
    and the first vertex in two blocks; then the vertices the class fails
    to cover or holds outside the vertex set, and a block count other
    than its kind's.  Collects the class's edges on the way: a pair a < b
    of the vertex set as b in rows[a], the row verify fills with the
    clean classes, an edge with an end outside it into extra, and, in a
    star class, the star centers in the vertex set into centers.  Every
    id is taken as the vertex model.vertex_key names, however it is
    spelled."""
    w = n + 1
    m = v // w

    def flat(name) -> int | None:
        """The id in 0..v-1 of the vertex a name names, or None outside it."""
        base, level = name
        return base * w + level if 0 <= base < m and 0 <= level < w else None

    where = f"class {index}"
    if fault := fc.shape_fault(w):
        return [(WRONG_KIND, f"{where}: {fault}"),
                (NOT_SPANNING, f"{where}: {v} vertices uncovered")]
    stars = fc.kind == STAR_FACTOR
    faults: list[tuple[str, str]] = []
    ids, bounds = fc.ids, fc.bounds
    walked: set = set()
    disjoint = True
    for lo, hi, star in zip(bounds, bounds[1:], fc.stars):
        block = ids[lo:hi]
        if star != stars:
            kind = "edge block in a star factor" if stars else "star block in a one-factor"
            faults.append((WRONG_KIND, f"{where}: {kind}"))
        elif star and len(block) != w:
            faults.append((WRONG_KIND, f"{where}: star with {len(block) - 1} leaves, "
                                       f"expected {n}"))
        names = [vertex_key(k, w) for k in block]
        if disjoint and not walked.isdisjoint(names):
            u = Vertex(*next(name for name in names if name in walked))
            faults.append((NOT_DISJOINT, f"{where}: vertex {u} in two blocks"))
            disjoint = False
        walked.update(names)
        # a block's edges join its first vertex to each of the others
        c = names[0]
        a = flat(c)
        if a is not None and star and stars:
            centers.append(a)
        for k in names[1:]:
            if a is not None and (b := flat(k)) is not None:
                if a < b:
                    rows[a].append(b)
                else:
                    rows[b].append(a)
            else:
                extra.add(Edge(Vertex(*c), Vertex(*k)))
    outside = sum(1 for name in walked if flat(name) is None)
    covered = len(walked) - outside
    if covered != v or outside:
        detail = f"{where}: {v - covered} vertices uncovered"
        if outside:
            detail += f", {outside} outside the vertex set"
        faults.append((NOT_SPANNING, detail))
    want = v // 2 if fc.kind == ONE_FACTOR else v // w
    count = len(bounds[1:])
    if count != want:
        faults.append((COUNT_MISMATCH, f"{where}: {count} blocks, expected {want}"))
    return faults


def _pair_edge(a: int, b: int, weight: int) -> Edge:
    return Edge(vertex_from_flat(a, weight), vertex_from_flat(b, weight))


def _audit_flat_edges(rows: defaultdict, extra: set[Edge], v: int, weight: int,
                      violations: list[tuple[str, str]]) -> None:
    """Audit the collected edges against E(K_v): edges outside it, pairs
    covered more than once, pairs never covered; each with a count and
    its least sample.  rows[a] holds b for each pair a < b covered, so the
    rows are walked in order of a and each is sorted on its own: equal
    pairs are adjacent, no set of them is built, and the scratch is one
    row.  The least uncovered pair lies in the first row out of step, the
    least a whose row lacks one of a+1..v-1, so finding it takes at most
    one step a row, however large v is."""
    if extra:
        violations.append((EXTRA_EDGE,
                           f"{len(extra)} edges outside the target, e.g. {min(extra)}"))
    distinct = dupes = 0
    first_dupe = gap = None
    full = 0  # the rows before it hold all their pairs
    for a in sorted(rows):
        row = sorted(rows[a])
        repeats = sum(map(eq, row, islice(row, 1, None)))
        if repeats:
            # the extra memory is the duplicates, not a table of every pair
            twice = {b for b, c in zip(row, islice(row, 1, None)) if b == c}
            dupes += len(twice)
            first_dupe = first_dupe or (a, min(twice))
        distinct += len(row) - repeats
        if gap is not None:
            continue
        if a != full:  # row full is absent
            gap = (full, full + 1)
        elif len(row) - repeats == v - 1 - a:
            full = a + 1
        else:
            b = a + 1
            for k, _ in groupby(row):
                if k != b:
                    break
                b += 1
            gap = (a, b)
    if dupes:
        sample = _pair_edge(*first_dupe, weight)
        violations.append(
            (DUPLICATE_EDGE, f"{dupes} edges covered more than once, e.g. {sample}")
        )
    missing = v * (v - 1) // 2 - distinct
    if missing:
        sample = _pair_edge(*(gap or (full, full + 1)), weight)
        violations.append(
            (MISSING_EDGE, f"{missing} target edges uncovered, e.g. {sample}")
        )


def verify(d: Decomposition) -> VerificationReport:
    """Audit a claimed decomposition of K_v on its flat classes."""
    p, r, s, classes = d.params, d.r, d.s, d.flat
    violations: list[tuple[str, str]] = []
    n, v = p.n, p.v

    if p.v != p.m * (n + 1) or n % 2 == 0 or n < 3 or p.m < 1:
        violations.append((PARAM_MISMATCH, f"invalid parameters v={p.v}, n={n}, m={p.m}"))
        return VerificationReport(tuple(violations))

    if (n + 1) * r + 2 * n * s != (n + 1) * (v - 1):
        violations.append((PARAM_MISMATCH, f"(n+1)r + 2ns = {(n + 1) * r + 2 * n * s} "
                           f"!= (n+1)(v-1) = {(n + 1) * (v - 1)}"))

    kinds = [fc.kind for fc in classes]
    actual_r, actual_s = kinds.count(ONE_FACTOR), kinds.count(STAR_FACTOR)
    if (actual_r, actual_s) != (r, s):
        violations.append((COUNT_MISMATCH,
                           f"recorded (r,s)=({r},{s}) but classes give ({actual_r},{actual_s})"))

    # the kind, bounds and flags of a class of v ids with every block of its
    # kind and size: built only if some class holds v ids, and so is the
    # vertex set, at no cost beyond the input
    shapes, vertices = (), None
    if any(type(fc.ids) is tuple and len(fc.ids) == v for fc in classes):
        shapes = ((ONE_FACTOR, tuple(range(0, v + 1, 2)), bytes(v // 2)),
                  (STAR_FACTOR, tuple(range(0, v + 1, n + 1)), b"\x01" * (v // (n + 1))))
        vertices = set(range(v))
    # a row of 8-byte ints holds every id below 2**63
    rows = defaultdict(partial(array, "q") if v <= 2**63 else list)
    extra: set[Edge] = set()
    centers: list[int] = []
    for index, fc in enumerate(classes):
        ids, bounds = fc.ids, fc.bounds
        if (type(ids) is tuple and len(ids) == v and (fc.kind, bounds, fc.stars) in shapes
                and set(map(type, bounds)) == set(map(type, ids)) == {int}
                and set(ids) == vertices):
            # a clean class: v distinct vertices in blocks of its kind, so
            # no fault to find; a block's edges join its first id to the rest
            if fc.kind == ONE_FACTOR:
                for c, k in zip(ids[::2], ids[1::2]):
                    if c < k:
                        rows[c].append(k)
                    else:
                        rows[k].append(c)
            else:
                for a in range(0, v, n + 1):
                    c = ids[a]
                    for k in ids[a + 1:a + n + 1]:
                        if c < k:
                            rows[c].append(k)
                        else:
                            rows[k].append(c)
                centers += ids[::n + 1]
        else:
            violations += _walk_class(index, fc, n, v, rows, extra, centers)

    _audit_flat_edges(rows, extra, v, n + 1, violations)

    if actual_s > 0:
        if actual_s % (n + 1) != 0:
            violations.append(
                (COUNT_MISMATCH, f"s={actual_s} is not a multiple of n+1={n + 1}")
            )
        else:
            # x >= 1, so every vertex counted x times is a center: the walk
            # to the first unbalanced vertex passes only centers.
            x = actual_s // (n + 1)
            counts = Counter(centers)
            balanced = sum(1 for c in counts.values() if c == x)
            if balanced != v:
                first = next(u for u in range(v) if counts[u] != x)
                violations.append(
                    (
                        COUNT_MISMATCH,
                        f"{v - balanced} vertices are star centers != {x} times, "
                        f"e.g. {vertex_from_flat(first, n + 1)}",
                    )
                )

    return VerificationReport(tuple(violations))

