"""Reference verifier for tests: `starurd.verifier.verify` as it stood
before the flat-id audit, kept verbatim, and `verify_aurd`.

`verify` enumerates all of E(K_v) as `Edge` objects and audits the
certificate against that set, so its cost grows with the claimed v.
Tests compare its violations, codes and details in order, with those of
the package's `verify`.  `verify_aurd` runs the same Edge-object audit
against an explicit target edge set, which lets tests check a single
construction family on its host graph.  Neither is part of the package,
and nor are the Vertex-object helpers below, which tests also use to
enumerate vertices and edges independently of the flat-id construction.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from starurd.model import (
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
    Params,
    StarBlock,
    VerificationReport,
    Vertex,
)


def all_vertices(params: Params) -> list[Vertex]:
    """All v vertices of K_v in flat (lexicographic) order."""
    return [Vertex(b, i) for b in range(params.m) for i in range(params.n + 1)]


def edges_of_block(block) -> frozenset[Edge]:
    if isinstance(block, Edge):
        return frozenset((block,))
    return frozenset(Edge(block.center, leaf) for leaf in block.leaves)


def block_vertices(b) -> tuple[Vertex, ...]:
    if isinstance(b, Edge):
        return (b.u, b.v)
    if isinstance(b, StarBlock):
        return (b.center, *b.leaves)
    return ()


def _audit_class(
    index: int,
    fc: FactorClass,
    vertex_set: set[Vertex],
    star_arity: int | None,
    violations: list[tuple[str, str]],
) -> None:
    where = f"class {index}"
    seen: set[Vertex] = set()
    disjoint = True
    for b in fc.blocks:
        if fc.kind == ONE_FACTOR and not isinstance(b, Edge):
            violations.append((WRONG_KIND, f"{where}: star block in a one-factor"))
        if fc.kind == STAR_FACTOR:
            if not isinstance(b, StarBlock):
                violations.append((WRONG_KIND, f"{where}: edge block in a star factor"))
            elif star_arity is not None and len(b.leaves) != star_arity:
                violations.append(
                    (
                        WRONG_KIND,
                        f"{where}: star with {len(b.leaves)} leaves, expected {star_arity}",
                    )
                )
        for v in block_vertices(b):
            if v in seen and disjoint:
                violations.append((NOT_DISJOINT, f"{where}: vertex {v} in two blocks"))
                disjoint = False
            seen.add(v)
    if seen != vertex_set:
        missing = len(vertex_set - seen)
        foreign = len(seen - vertex_set)
        detail = f"{where}: {missing} vertices uncovered"
        if foreign:
            detail += f", {foreign} outside the vertex set"
        violations.append((NOT_SPANNING, detail))


def _audit_edge_multiset(
    classes,
    expected: set[Edge],
    violations: list[tuple[str, str]],
) -> None:
    counts: Counter[Edge] = Counter()
    for fc in classes:
        for b in fc.blocks:
            counts.update(edges_of_block(b))
    extra = [e for e in counts if e not in expected]
    if extra:
        sample = min(extra)
        violations.append(
            (EXTRA_EDGE, f"{len(extra)} edges outside the target, e.g. {sample}")
        )
    dupes = [e for e, c in counts.items() if c > 1 and e in expected]
    if dupes:
        sample = min(dupes)
        violations.append(
            (DUPLICATE_EDGE, f"{len(dupes)} edges covered more than once, e.g. {sample}")
        )
    missing = [e for e in expected if e not in counts]
    if missing:
        sample = min(missing)
        violations.append(
            (MISSING_EDGE, f"{len(missing)} target edges uncovered, e.g. {sample}")
        )


def verify(d: Decomposition) -> VerificationReport:
    """Audit a claimed decomposition of K_v."""
    violations: list[tuple[str, str]] = []
    p = d.params
    n, v = p.n, p.v

    if p.v != p.m * (n + 1) or n % 2 == 0 or n < 3:
        violations.append((PARAM_MISMATCH, f"invalid parameters v={p.v}, n={n}, m={p.m}"))
        return VerificationReport(tuple(violations))

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

    vertex_list = all_vertices(p)
    vertex_set = set(vertex_list)
    for index, fc in enumerate(d.classes):
        _audit_class(index, fc, vertex_set, n, violations)
        want = v // 2 if fc.kind == ONE_FACTOR else v // (n + 1)
        if len(fc.blocks) != want:
            violations.append(
                (
                    COUNT_MISMATCH,
                    f"class {index}: {len(fc.blocks)} blocks, expected {want}",
                )
            )

    expected = {Edge(a, b) for a, b in combinations(vertex_list, 2)}
    _audit_edge_multiset(d.classes, expected, violations)

    if actual_s > 0:
        if actual_s % (n + 1) != 0:
            violations.append(
                (COUNT_MISMATCH, f"s={actual_s} is not a multiple of n+1={n + 1}")
            )
        else:
            x = actual_s // (n + 1)
            centers: Counter[Vertex] = Counter()
            for fc in d.classes:
                if fc.kind != STAR_FACTOR:
                    continue
                for b in fc.blocks:
                    if isinstance(b, StarBlock):
                        centers[b.center] += 1
            bad = [u for u in vertex_list if centers.get(u, 0) != x]
            if bad:
                violations.append(
                    (
                        COUNT_MISMATCH,
                        f"{len(bad)} vertices are star centers != {x} times, "
                        f"e.g. {bad[0]}",
                    )
                )

    return VerificationReport(tuple(violations))


def verify_aurd(classes, host_edges: set[Edge]) -> VerificationReport:
    """Audit factor classes against an explicit target edge set.

    The vertex set is taken to be the endpoints of the target edges; each
    class must span it with disjoint blocks of one kind, and the classes
    together must cover every target edge exactly once.
    """
    violations: list[tuple[str, str]] = []
    vertex_set = {u for e in host_edges for u in e}
    classes = tuple(classes)

    for index, fc in enumerate(classes):
        where = f"class {index}"
        arities = {len(b.leaves) for b in fc.blocks if isinstance(b, StarBlock)}
        if len(arities) > 1:
            violations.append((WRONG_KIND, f"{where}: stars of unequal arity"))
        arity = arities.pop() if len(arities) == 1 else None
        _audit_class(index, fc, vertex_set, arity, violations)

    _audit_edge_multiset(classes, host_edges, violations)

    return VerificationReport(tuple(violations))
