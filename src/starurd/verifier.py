"""Independent certificate checker for claimed decompositions.

Shares no code with the construction modules: every structural claim a
certificate makes is re-derived from the blocks themselves.  All failures
are reported as (code, detail) violations; nothing raises on hostile
input.

`verify` audits a certificate of K_v on flat vertex ids base*(n+1)+level.
Each class must span the vertex set with disjoint blocks, checked with a
per-class seen-set; together the classes must cover every pair of
vertices exactly once, checked on integer pair ids.  E(K_v) is never
enumerated: the uncovered pairs are counted as v(v-1)/2 minus the
distinct pairs covered, and the first of them is found by walking the
pairs in lexicographic order up to the first gap.  Time and memory are
thus bounded by the size of the certificate, not by the v it claims.  A
vertex outside Z_m x Z_{n+1} gets no flat id, so that (0, n+1) cannot
alias (1, 0): it is kept as its (base, level) pair, and its edges as Edge
objects.  Otherwise Vertex and Edge objects are made only to name a
sample in a violation.

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
    FactorClass,
    K2Block,
    Params,
    StarBlock,
    VerificationReport,
    vertex_from_flat,
)


def _audit_flat_class(
    index: int,
    fc: FactorClass,
    params: Params,
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
    centers in the vertex set into centers.
    """
    m, n, v = params.m, params.n, params.v
    w = n + 1
    where = f"class {index}"
    stars = fc.kind == STAR_FACTOR
    seen: set = set()  # flat ids, and (base, level) of vertices outside
    disjoint = True
    foreign = False
    for b in fc.blocks:
        if isinstance(b, K2Block):
            if stars:
                violations.append((WRONG_KIND, f"{where}: edge block in a star factor"))
            ends = b.edge.endpoints()
        elif isinstance(b, StarBlock):
            if not stars:
                violations.append((WRONG_KIND, f"{where}: star block in a one-factor"))
            elif len(b.leaves) != n:
                violations.append(
                    (WRONG_KIND, f"{where}: star with {len(b.leaves)} leaves, expected {n}")
                )
            ends = (b.center, *b.leaves)
        else:
            kind = "edge block in a star factor" if stars else "star block in a one-factor"
            violations.append((WRONG_KIND, f"{where}: {kind}"))
            continue
        ids = [
            u.base * w + u.level
            if 0 <= u.base < m and 0 <= u.level < w
            else (u.base, u.level)
            for u in ends
        ]
        if disjoint and not seen.isdisjoint(ids):
            u = next(u for u, k in zip(ends, ids) if k in seen)
            violations.append((NOT_DISJOINT, f"{where}: vertex {u} in two blocks"))
            disjoint = False
        seen.update(ids)
        c = ids[0]
        if tuple in map(type, ids):
            foreign = True
            for u, k in zip(ends[1:], ids[1:]):
                if type(c) is tuple or type(k) is tuple:
                    extra.add(Edge(ends[0], u))
                else:
                    pairs.append(c * v + k if c < k else k * v + c)
        else:
            for k in ids[1:]:
                pairs.append(c * v + k if c < k else k * v + c)
        if stars and isinstance(b, StarBlock) and type(c) is int:
            centers.append(c)
    outside = sum(type(k) is tuple for k in seen) if foreign else 0
    covered = len(seen) - outside
    if covered != v or outside:
        detail = f"{where}: {v - covered} vertices uncovered"
        if outside:
            detail += f", {outside} outside the vertex set"
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
    """Audit a claimed decomposition of K_v."""
    violations: list[tuple[str, str]] = []
    p = d.params
    n, v = p.n, p.v

    if p.v != p.m * (n + 1) or n % 2 == 0 or n < 3:
        violations.append((PARAM_MISMATCH, f"invalid parameters v={p.v}, n={n}, m={p.m}"))
        return VerificationReport.from_violations(violations)

    if (n + 1) * d.r + 2 * n * d.s != (n + 1) * (v - 1):
        violations.append(
            (
                PARAM_MISMATCH,
                f"(n+1)r + 2ns = {(n + 1) * d.r + 2 * n * d.s} "
                f"!= (n+1)(v-1) = {(n + 1) * (v - 1)}",
            )
        )

    actual_r = sum(1 for c in d.classes if c.kind == ONE_FACTOR)
    actual_s = sum(1 for c in d.classes if c.kind == STAR_FACTOR)
    if (actual_r, actual_s) != (d.r, d.s):
        violations.append(
            (
                COUNT_MISMATCH,
                f"recorded (r,s)=({d.r},{d.s}) but classes give ({actual_r},{actual_s})",
            )
        )

    pairs: list[int] = []
    extra: set[Edge] = set()
    centers: list[int] = []
    for index, fc in enumerate(d.classes):
        _audit_flat_class(index, fc, p, pairs, extra, centers, violations)
        want = v // 2 if fc.kind == ONE_FACTOR else v // (n + 1)
        if len(fc.blocks) != want:
            violations.append(
                (
                    COUNT_MISMATCH,
                    f"class {index}: {len(fc.blocks)} blocks, expected {want}",
                )
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

