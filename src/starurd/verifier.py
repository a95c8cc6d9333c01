"""Independent certificate checker for claimed decompositions.

Shares no code with the construction modules: every structural claim a
certificate makes is re-derived from the blocks themselves.  All failures
are reported as (code, detail) violations; nothing raises on hostile
input.

The audit checks a certificate of K_v on flat vertex ids
base*(n+1)+level, one model.FlatClass at a time: `verify` takes the
classes of a Decomposition as it stores them, whether they came from the
JSON reader (`starurd verify`), from the construction (the build's
self-check) or from a FactorClass flattened on the way in (the library
API).  It never reads the object view `Decomposition.classes`.  The ids
of each block come in the canonical order of Edge and StarBlock, and the
samples follow it: NOT_DISJOINT names the first vertex of a block, in
that order, that an earlier block of its class holds.

Each class must span the vertex set with disjoint blocks, checked with a
per-class seen-set; together the classes must cover every pair of
vertices exactly once, checked on integer pair ids.  E(K_v) is never
enumerated: the uncovered pairs are counted as v(v-1)/2 minus the
distinct pairs covered, and the first of them is found by walking the
pairs in lexicographic order up to the first gap.  Time and memory are
thus bounded by the size of the certificate, not by the v it claims.
Ids that are not an int in 0..v-1, such as the (base, level) pair kept
for a vertex outside Z_m x Z_{n+1}, are outside the vertex set: the
audit finds them from the ids, trusting no flag of whoever made the
class, and keeps their edges as Edge objects.  Otherwise Vertex and Edge
objects are made only to name a sample in a violation.

Beyond the edge-partition audit, the checker recomputes, per vertex, the
number of star classes in which that vertex is a center.  A valid
decomposition forces this count to be s/(n+1) uniformly, which catches
class imbalances that an edge count alone would miss.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

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
    Params,
    VerificationReport,
    vertex_from_flat,
)


def _audit_flat_class(
    index: int,
    fc: FlatClass,
    params: Params,
    vertices: set[int] | None,
    spans: tuple[tuple[int, ...], ...],
    pairs: list[int],
    extra: set[Edge],
    centers: list[int],
    violations: list[tuple[str, str]],
) -> None:
    """Audit one class of a certificate of K_v on flat ids.

    Reports, in this order, blocks of the wrong kind or arity, the first
    vertex in two blocks, and the vertices the class fails to cover or
    holds outside the vertex set.  Collects the class's edges on the way:
    pairs of the vertex set as a*v + b with a < b into pairs, edges with
    an endpoint outside it into extra, and, in a star class, the star
    centers in the vertex set into centers.  vertices is {0..v-1} or None;
    spans is the bounds of v ids in edges and in stars, or () when vertices
    is None.
    """
    n, v = params.n, params.v
    w = n + 1
    where = f"class {index}"
    ids, bounds = fc.ids, fc.bounds
    stars = fc.kind == STAR_FACTOR
    seen = set(ids)
    # the ids that are not an int in 0..v-1: none if seen is the vertex set
    outside = set() if seen == vertices else {
        k for k in seen if type(k) is not int or not 0 <= k < v}
    # v ids, each block of the class's kind, with w ids if a star and 2 if
    # an edge; any other class is walked block by block, which reports
    # only the faults it finds
    shapes_ok = len(ids) == v and (0 if stars else 1) not in fc.stars and bounds == spans[stars]
    if not shapes_ok or len(seen) != len(ids):
        # some block has a fault: find each, in block order
        walked: set = set()
        disjoint = True
        for block, star in zip(fc.blocks(), fc.stars):
            if star != stars:
                kind = "edge block in a star factor" if stars else "star block in a one-factor"
                violations.append((WRONG_KIND, f"{where}: {kind}"))
            elif star and len(block) != w:
                violations.append(
                    (WRONG_KIND, f"{where}: star with {len(block) - 1} leaves, expected {n}")
                )
            elif not star and len(block) != 2:
                violations.append((WRONG_KIND, f"{where}: edge with {len(block)} vertices"))
            if disjoint and not walked.isdisjoint(block):
                u = vertex_from_flat(next(k for k in block if k in walked), w)
                violations.append((NOT_DISJOINT, f"{where}: vertex {u} in two blocks"))
                disjoint = False
            walked.update(block)
    # a block's edges join its first id to each of the others; an edge with
    # an end outside the vertex set has no pair id and goes into extra
    if outside:
        for block in fc.blocks():
            c = block[0] if block else None
            for k in block[1:]:
                if c in outside or k in outside:
                    extra.add(Edge(vertex_from_flat(c, w), vertex_from_flat(k, w)))
                else:
                    pairs.append(c * v + k if c < k else k * v + c)
    else:
        pairs += [
            c * v + k if c < k else k * v + c
            for a, b in zip(bounds, bounds[1:]) if a < b
            for c in (ids[a],) for k in ids[a + 1:b]
        ]
    if stars:  # an empty block has no center; it is of the wrong kind
        centers += [ids[a] for a, b, star in zip(bounds, bounds[1:], fc.stars)
                    if star and a < b and ids[a] not in outside]
    covered = len(seen) - len(outside)
    if covered != v or outside:
        detail = f"{where}: {v - covered} vertices uncovered"
        if outside:
            detail += f", {len(outside)} outside the vertex set"
        violations.append((NOT_SPANNING, detail))


def _pair_edge(pair: int, v: int, weight: int) -> Edge:
    a, b = divmod(pair, v)
    return Edge(vertex_from_flat(a, weight), vertex_from_flat(b, weight))


def _audit_flat_edges(
    pairs: list[int],
    extra: set[Edge],
    v: int,
    weight: int,
    violations: list[tuple[str, str]],
) -> None:
    """Audit the collected edges against E(K_v): edges outside it, pairs
    covered more than once, pairs never covered; each with a count and
    its least sample."""
    covered = set(pairs)
    if extra:
        violations.append(
            (EXTRA_EDGE, f"{len(extra)} edges outside the target, e.g. {min(extra)}")
        )
    if len(covered) != len(pairs):
        # sorted in place, equal ids are adjacent: the extra memory is the
        # duplicates, not a second table of every pair
        pairs.sort()
        dupes = {a for a, b in zip(pairs, islice(pairs, 1, None)) if a == b}
        sample = _pair_edge(min(dupes), v, weight)
        violations.append(
            (DUPLICATE_EDGE, f"{len(dupes)} edges covered more than once, e.g. {sample}")
        )
    missing = v * (v - 1) // 2 - len(covered)
    if missing:
        # the least uncovered pair: every pair passed over is covered, so
        # this takes at most len(covered) + 1 steps, however large v is
        gap = next(
            a * v + b for a in range(v) for b in range(a + 1, v) if a * v + b not in covered
        )
        sample = _pair_edge(gap, v, weight)
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
        return VerificationReport.from_violations(violations)

    if (n + 1) * r + 2 * n * s != (n + 1) * (v - 1):
        violations.append(
            (
                PARAM_MISMATCH,
                f"(n+1)r + 2ns = {(n + 1) * r + 2 * n * s} "
                f"!= (n+1)(v-1) = {(n + 1) * (v - 1)}",
            )
        )

    kinds = [fc.kind for fc in classes]
    actual_r, actual_s = kinds.count(ONE_FACTOR), kinds.count(STAR_FACTOR)
    if (actual_r, actual_s) != (r, s):
        violations.append(
            (
                COUNT_MISMATCH,
                f"recorded (r,s)=({r},{s}) but classes give ({actual_r},{actual_s})",
            )
        )

    # built only if some class may equal it, so at no cost beyond the input;
    # so are the bounds of a class of v ids in edges and in stars
    vertices = set(range(v)) if any(len(fc.ids) >= v for fc in classes) else None
    spans = (tuple(range(0, v + 1, 2)), tuple(range(0, v + 1, n + 1))) if vertices else ()
    pairs: list[int] = []
    extra: set[Edge] = set()
    centers: list[int] = []
    for index, fc in enumerate(classes):
        _audit_flat_class(index, fc, p, vertices, spans, pairs, extra, centers, violations)
        blocks = len(fc.stars)
        want = v // 2 if fc.kind == ONE_FACTOR else v // (n + 1)
        if blocks != want:
            violations.append(
                (COUNT_MISMATCH, f"class {index}: {blocks} blocks, expected {want}")
            )

    _audit_flat_edges(pairs, extra, v, n + 1, violations)

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

    return VerificationReport.from_violations(violations)

