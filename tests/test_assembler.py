from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starurd.admissibility import ADMISSIBLE_UNRESOLVED, INADMISSIBLE, constructive_pairs
from starurd.assembler import (
    BuildRequest,
    PairNotConstructive,
    construct,
    construct_pair,
)
from starurd.model import Edge, ONE_FACTOR, STAR_FACTOR, all_vertices, edges_of_block
from starurd.verifier import verify


def total_edges(d):
    out = []
    for fc in d.classes:
        for b in fc.blocks:
            out.extend(edges_of_block(b))
    return out


def test_construct_v12_counts():
    d = construct(BuildRequest(12, 3, 0))
    assert (d.r, d.s) == (5, 4)
    ones = [fc for fc in d.classes if fc.kind == ONE_FACTOR]
    stars = [fc for fc in d.classes if fc.kind == STAR_FACTOR]
    assert len(ones) == 5 and all(len(fc.blocks) == 6 for fc in ones)
    assert len(stars) == 4 and all(len(fc.blocks) == 3 for fc in stars)
    edges = total_edges(d)
    assert len(edges) == 66 == len(set(edges))  # C(12,2)
    assert verify(d).passed


def test_construct_v16_pure_matching():
    d = construct(BuildRequest(16, 3, 1))
    assert (d.r, d.s) == (15, 0)
    assert verify(d).passed


def test_construct_v20_cross_check_admissibility():
    d = construct(BuildRequest(20, 3, 1))
    assert (d.r, d.s) == (13, 4)  # the x=1 admissible pair
    assert verify(d).passed


def test_classes_ordered_one_factors_first():
    d = construct(BuildRequest(12, 3, 0))
    kinds = [fc.kind for fc in d.classes]
    assert kinds == [ONE_FACTOR] * 5 + [STAR_FACTOR] * 4


def test_construct_deterministic():
    assert construct(BuildRequest(12, 3, 0)) == construct(BuildRequest(12, 3, 0))
    assert construct(BuildRequest(16, 3, 0)) == construct(BuildRequest(16, 3, 0))


def test_edge_partition_is_exact():
    d = construct(BuildRequest(16, 3, 0))
    edges = total_edges(d)
    expected = {Edge(a, b) for a, b in combinations(all_vertices(d.params), 2)}
    assert len(edges) == len(expected)
    assert set(edges) == expected


def test_bad_requests_rejected():
    with pytest.raises(ValueError):
        BuildRequest(12, 3, 2)  # ell beyond (m-1)/2 = 1
    with pytest.raises(ValueError):
        BuildRequest(12, 3, -1)
    with pytest.raises(ValueError):
        BuildRequest(13, 3, 0)  # not m(n+1)
    with pytest.raises(ValueError):
        BuildRequest(8, 3, 0)  # m = 2
    with pytest.raises(ValueError):
        BuildRequest(12, 4, 0)


def test_construct_pair_matches_direct_build():
    assert construct_pair(12, 3, 5, 4) == construct(BuildRequest(12, 3, 0))


def test_construct_pair_resolves_ell():
    d = construct_pair(16, 3, 9, 4)
    assert (d.r, d.s) == (9, 4)
    assert len(d.classes) == 13


def test_construct_pair_rejects_inadmissible():
    with pytest.raises(PairNotConstructive) as info:
        construct_pair(12, 3, 4, 4)
    assert info.value.verdict.status == INADMISSIBLE


def test_construct_pair_rejects_unresolved():
    with pytest.raises(PairNotConstructive) as info:
        construct_pair(8, 3, 1, 4)
    assert info.value.verdict.status == ADMISSIBLE_UNRESOLVED


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_r_s_formulas_over_small_grid(n, m):
    from starurd.admissibility import admissible_pairs

    v = m * (n + 1)
    t = (m - 1) // 2 if m % 2 == 1 else (m - 2) // 2
    threshold = m + n - 1 if m % 2 == 1 else m + 2 * n - 1
    admissible = {(p.r, p.s) for p in admissible_pairs(v, n)}
    for ell in range(t + 1):
        d = construct(BuildRequest(v, n, ell))
        assert d.r == 2 * n * ell + threshold
        assert d.s == (n + 1) * (t - ell)
        assert (d.r, d.s) in admissible
        assert verify(d).passed


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.sampled_from(range(3, 16, 2)), st.data())
def test_sweep_past_the_acceptance_grid(m, n, data):
    # reaches the matching families B1-B11 at orders past the acceptance grid
    v = m * (n + 1)
    pair, ell = data.draw(st.sampled_from(constructive_pairs(v, n)))
    d = construct(BuildRequest(v, n, ell))
    assert verify(d).passed
    assert (d.r, d.s) == (pair.r, pair.s)
