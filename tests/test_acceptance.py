"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
equality checks are exact; the only tolerances are the stated wall-clock
budgets.  Where a criterion calls for an independently enumerated edge
set, the enumeration here is built from raw loops over base structures,
never from the construction modules under test.
"""

import random
import time
from collections import Counter

from reference_verifier import edges_of_block, verify_aurd

from starurd.admissibility import admissible_pairs, construction_range
from starurd.assembler import BuildRequest, construct
from starurd.aurd import matching_aurd, star_aurd, weighted_one_factor_aurd
from starurd.blowup import WeightedCycle, WeightedOneFactor
from starurd.model import (
    COUNT_MISMATCH,
    DUPLICATE_EDGE,
    Decomposition,
    Edge,
    FactorClass,
    MISSING_EDGE,
    NOT_DISJOINT,
    NOT_SPANNING,
    ONE_FACTOR,
    STAR_FACTOR,
    StarBlock,
    Vertex,
    WRONG_KIND,
)
from starurd.search import FOUND, exhaustive_urd
from starurd.seeds import hamiltonian_decomposition
from starurd.verifier import verify

ODD_GRID = [(m, n) for n in (3, 5, 7) for m in (3, 5, 7)]
EVEN_GRID = [(m, n) for n in (3, 5, 7) for m in (4, 6)]


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# independent enumerators (raw loops only)


def raw_cycle_minus_aligned(base, w):
    m = len(base)
    return {
        Edge(Vertex(base[p], i), Vertex(base[(p + 1) % m], j))
        for p in range(m)
        for i in range(w)
        for j in range(w)
        if i != j
    }


def raw_matching_minus_aligned(pairs, w):
    return {
        Edge(Vertex(x, i), Vertex(y, j))
        for x, y in pairs
        for i in range(w)
        for j in range(w)
        if i != j
    }


def raw_difference_edges(base, w, d):
    m = len(base)
    return {
        Edge(Vertex(base[p], i), Vertex(base[(p + 1) % m], (i + d) % w))
        for p in range(m)
        for i in range(w)
    }


def class_edge_list(fc):
    out = []
    for b in fc.blocks:
        out.extend(edges_of_block(b))
    return out


def test_criterion_1_odd_m_sweep():
    t0 = time.perf_counter()
    builds = 0
    for m, n in ODD_GRID:
        v = m * (n + 1)
        for ell in range((m - 1) // 2 + 1):
            d = construct(BuildRequest(v, n, ell))
            assert d.r == 2 * n * ell + m + n - 1
            assert d.s == (n + 1) * ((m - 1) // 2 - ell)
            assert verify(d).passed
            builds += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 10.0,
        f"odd-m sweep: {builds} builds (largest v=56) verified in {elapsed:.2f}s < 10s",
    )


def test_criterion_2_even_m_sweep():
    t0 = time.perf_counter()
    builds = 0
    for m, n in EVEN_GRID:
        v = m * (n + 1)
        for ell in range((m - 2) // 2 + 1):
            d = construct(BuildRequest(v, n, ell))
            assert d.r == 2 * n * ell + m + 2 * n - 1
            assert d.s == (n + 1) * ((m - 2) // 2 - ell)
            assert verify(d).passed
            builds += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 5.0, f"even-m sweep: {builds} builds verified in {elapsed:.2f}s < 5s")


def test_criterion_3_counting_identity():
    checked = 0
    for n in (3, 5, 7, 9):
        for m in range(1, 11):
            v = m * (n + 1)
            for pair in admissible_pairs(v, n):
                assert (n + 1) * pair.r + 2 * n * pair.s == (n + 1) * (v - 1)
                checked += 1
    for m, n in ODD_GRID + EVEN_GRID:
        v = m * (n + 1)
        d = construct(BuildRequest(v, n, 0))
        assert verify(d).passed
        assert (n + 1) * d.r + 2 * n * d.s == (n + 1) * (v - 1)
        checked += 1
    report(3, True, f"identity (n+1)r + 2ns = (n+1)(v-1) exact on {checked} cases")


def test_criterion_4_aurd_partition_oracles():
    cases = 0
    for n in (3, 5, 7):
        w = n + 1
        for m in (3, 4, 5, 6, 7):
            base = tuple(range(m))
            host = raw_cycle_minus_aligned(base, w)
            cycle = WeightedCycle(base, w)
            for out in (matching_aurd(cycle), star_aurd(cycle)):
                assert verify_aurd(out.classes, host).passed
                cases += 1
        for m in (4, 6):
            pairs = hamiltonian_decomposition(m).leftover_matching
            wof = WeightedOneFactor(pairs, w)
            out = weighted_one_factor_aurd(wof)
            host = raw_matching_minus_aligned(pairs, w)
            assert verify_aurd(out.classes, host).passed
            cases += 1
    report(4, True, f"{cases} decompositions edge-partition independently enumerated hosts")


def parse_tag(tag):
    fam, d = tag.split("@d=")
    return fam[:-1], int(d)  # strip the a/b suffix


def test_criterion_5_per_difference_coverage():
    checks = 0
    for n in (3, 5, 7):
        w = n + 1
        for m in (3, 4, 5, 6, 7):
            base = tuple(range(m))
            cycle = WeightedCycle(base, w)
            out = matching_aurd(cycle)
            by_d = {}
            for fc, tag in zip(out.classes, out.sources):
                fam, d = parse_tag(tag)
                by_d.setdefault(d, (set(), []))
                by_d[d][0].add(fam)
                by_d[d][1].extend(class_edge_list(fc))
            for d, (fams, edges) in by_d.items():
                if fams <= {"B1"} or fams <= {"B2"} or fams <= {"B6"} or fams <= {"B7"} or fams <= {"B11"}:
                    expected = raw_difference_edges(base, w, d)
                elif fams == {"B3", "B4", "B5"} or fams == {"B8", "B9", "B10"}:
                    expected = (
                        raw_difference_edges(base, w, d - 1)
                        | raw_difference_edges(base, w, d)
                        | raw_difference_edges(base, w, d + 1)
                    )
                else:
                    raise AssertionError(f"unexpected family group {fams} at d={d}")
                counts = Counter(edges)
                assert set(counts) == expected and all(c == 1 for c in counts.values())
                checks += 1
    report(5, True, f"{checks} tagged groups cover exactly their difference classes")


def mutate(d, rng):
    classes = list(d.classes)
    ci = rng.randrange(len(classes))
    fc = classes[ci]
    op = rng.choice(("delete", "duplicate", "swap", "flip"))
    if op == "delete":
        bi = rng.randrange(len(fc.blocks))
        classes[ci] = FactorClass(fc.kind, fc.blocks[:bi] + fc.blocks[bi + 1 :])
        expected = {NOT_SPANNING, MISSING_EDGE, COUNT_MISMATCH}
    elif op == "duplicate":
        bi = rng.randrange(len(fc.blocks))
        classes[ci] = FactorClass(fc.kind, fc.blocks + (fc.blocks[bi],))
        expected = {NOT_DISJOINT, DUPLICATE_EDGE, COUNT_MISMATCH}
    elif op == "swap":
        b1, b2 = rng.sample(range(len(fc.blocks)), 2)
        blocks = list(fc.blocks)
        if fc.kind == ONE_FACTOR:
            e1, e2 = blocks[b1], blocks[b2]
            blocks[b1] = Edge(e1.u, e2.v)
            blocks[b2] = Edge(e2.u, e1.v)
        else:
            s1, s2 = blocks[b1], blocks[b2]
            l1 = rng.randrange(len(s1.leaves))
            l2 = rng.randrange(len(s2.leaves))
            blocks[b1] = StarBlock(
                s1.center, s1.leaves[:l1] + (s2.leaves[l2],) + s1.leaves[l1 + 1 :]
            )
            blocks[b2] = StarBlock(
                s2.center, s2.leaves[:l2] + (s1.leaves[l1],) + s2.leaves[l2 + 1 :]
            )
        classes[ci] = FactorClass(fc.kind, tuple(blocks))
        expected = {DUPLICATE_EDGE, MISSING_EDGE}
    else:
        flipped = STAR_FACTOR if fc.kind == ONE_FACTOR else ONE_FACTOR
        classes[ci] = FactorClass(flipped, fc.blocks)
        expected = {WRONG_KIND, COUNT_MISMATCH}
    return Decomposition(d.params, tuple(classes), d.r, d.s), op, expected


def test_criterion_6_fault_injection():
    rng = random.Random(20260808)
    bases = [
        construct(BuildRequest(12, 3, 0)),
        construct(BuildRequest(12, 3, 1)),
        construct(BuildRequest(16, 3, 0)),
        construct(BuildRequest(20, 3, 1)),
        construct(BuildRequest(24, 5, 0)),
    ]
    for base in bases:
        assert verify(base).passed
    total = 1050
    false_passes = 0
    wrong_codes = 0
    for k in range(total):
        mutated, op, expected = mutate(bases[k % len(bases)], rng)
        outcome = verify(mutated)
        if outcome.passed:
            false_passes += 1
        elif not (outcome.codes() & expected):
            wrong_codes += 1
    report(
        6,
        false_passes == 0 and wrong_codes == 0,
        f"{total} single mutations all flagged with a correct code "
        f"(false passes: {false_passes}, wrong codes: {wrong_codes})",
    )


def test_criterion_7_cross_oracle_agreement():
    results = []
    for m in (1, 2, 3):
        v = 4 * m
        t, threshold = construction_range(m, 3)
        for ell in range(t + 1):
            r, s = 6 * ell + threshold, 4 * (t - ell)
            out = exhaustive_urd(v, 3, r, s, timeout=60)
            assert out.status == FOUND, (v, r, s)
            assert verify(out.witness).passed
            assert (out.witness.r, out.witness.s) == (r, s)
            results.append((v, r, s, out.nodes_explored))
    report(
        7,
        len(results) == 4,
        f"every constructive pair at v<=12, n=3 re-found by exhaustive search: {results}",
    )


def test_criterion_8_branch_coverage_of_finite_grid():
    # The general all-orders claims cannot be enumerated; the acceptance
    # surface is the finite grid above, which must exercise every branch.
    families = set()
    for m, n in ODD_GRID + EVEN_GRID:
        cycle = WeightedCycle(tuple(range(m)), n + 1)
        for tag in matching_aurd(cycle).sources:
            families.add(parse_tag(tag)[0])
    expected = {f"B{i}" for i in range(1, 12)}
    dprime_empty = parse_tag_families(3, 3)
    dprime_nonempty = parse_tag_families(3, 7)
    ok = (
        families == expected
        and not ({"B8", "B9", "B10"} & dprime_empty)
        and {"B8", "B9", "B10"} <= dprime_nonempty
        and "B7" in dprime_empty
    )
    report(
        8,
        ok,
        "finite grid exercises every family B1-B11, both m parities, both "
        "weight mod-4 classes, the d=2 special pair, and both empty and "
        "nonempty mixed-difference sets",
    )


def parse_tag_families(m, n):
    cycle = WeightedCycle(tuple(range(m)), n + 1)
    return {parse_tag(tag)[0] for tag in matching_aurd(cycle).sources}
