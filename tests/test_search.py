import sys

import pytest

from starurd.admissibility import CONSTRUCTIVE, admissible_pairs, check_pair
from starurd.model import ONE_FACTOR
from starurd.search import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND_EXHAUSTED,
    exhaustive_urd,
)
from starurd.verifier import verify


def test_k4_one_factorization_found():
    out = exhaustive_urd(4, 3, 3, 0)
    assert out.status == FOUND
    assert (out.witness.r, out.witness.s) == (3, 0)
    assert verify(out.witness).passed


def test_k12_one_factorization_found():
    out = exhaustive_urd(12, 3, 11, 0)
    assert out.status == FOUND
    assert verify(out.witness).passed


def test_k12_mixed_pair_found():
    out = exhaustive_urd(12, 3, 5, 4, timeout=60)
    assert out.status == FOUND
    assert (out.witness.r, out.witness.s) == (5, 4)
    assert verify(out.witness).passed


def test_inadmissible_rejected_without_search():
    out = exhaustive_urd(12, 3, 4, 4)
    assert out.status == NOT_FOUND_EXHAUSTED
    assert out.nodes_explored == 0
    assert out.witness is None
    assert "necessary conditions fail" in out.reason


def test_open_case_m2_exists():
    # regression fixture: the order-2(n+1) case the constructions skip does
    # exist for n=3; recorded as search output, not as a general claim
    out = exhaustive_urd(8, 3, 1, 4, timeout=60)
    assert out.status == FOUND
    assert (out.witness.r, out.witness.s) == (1, 4)
    assert verify(out.witness).passed


def test_pure_matching_m2_exists():
    out = exhaustive_urd(8, 3, 7, 0, timeout=60)
    assert out.status == FOUND
    assert verify(out.witness).passed


def test_budget_exceeded_reported():
    # (24, 3, 5, 12) is open: no construction reaches it, and no search has
    # settled it within 2,000,000 nodes
    out = exhaustive_urd(24, 3, 5, 12, max_nodes=20000)
    assert out.status == BUDGET_EXCEEDED
    assert out.witness is None
    assert out.nodes_explored >= 20000


def test_zero_timeout_stops_at_the_first_deadline_check():
    # the clock is read every 256 nodes, so an expired deadline is seen
    # there; (24, 3, 17, 4) takes 412 nodes, so it is still running then
    out = exhaustive_urd(24, 3, 17, 4, timeout=0)
    assert out.status == BUDGET_EXCEEDED
    assert out.nodes_explored == 256


def test_recursion_limit_is_a_budget_stop():
    # K_64 into 63 one-factors is about 2000 levels deep, past Python's
    # default recursion limit: the run is cut short, not exhausted
    out = exhaustive_urd(64, 3, 63, 0)
    assert out.status == BUDGET_EXCEEDED
    assert out.witness is None
    assert out.nodes_explored > 0
    assert out.reason == f"stopped at Python's recursion limit ({sys.getrecursionlimit()} frames)"


def test_witness_iff_found():
    found = exhaustive_urd(4, 3, 3, 0)
    assert (found.witness is not None) == (found.status == FOUND)
    empty = exhaustive_urd(12, 3, 4, 4)
    assert empty.witness is None


def test_first_class_is_canonical_matching():
    out = exhaustive_urd(12, 3, 5, 4, timeout=60)
    first = next(fc for fc in out.witness.classes if fc.kind == ONE_FACTOR)
    flat_pairs = sorted((4 * b.u.base + b.u.level, 4 * b.v.base + b.v.level) for b in first.blocks)
    assert flat_pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]


def test_deterministic_node_counts():
    a = exhaustive_urd(12, 3, 5, 4, timeout=60)
    b = exhaustive_urd(12, 3, 5, 4, timeout=60)
    assert a.nodes_explored == b.nodes_explored
    assert a.witness == b.witness


def test_rejects_orders_without_grid():
    with pytest.raises(ValueError):
        exhaustive_urd(6, 3, 5, 0)
    with pytest.raises(ValueError):
        exhaustive_urd(12, 4, 5, 4)


def test_all_star_requests_fail_arithmetic():
    # r = 0 can never satisfy the counting identity on these orders (v is
    # even, so v-1-2nx is odd), so all-star requests die at the pre-filter
    out = exhaustive_urd(8, 3, 0, 0, max_nodes=10)
    assert out.status == NOT_FOUND_EXHAUSTED and out.nodes_explored == 0
    out = exhaustive_urd(12, 3, 0, 4, max_nodes=10)
    assert out.status == NOT_FOUND_EXHAUSTED and out.nodes_explored == 0


def test_one_factor_classes_branch_on_the_most_constrained_vertex():
    # the found instance of the benchmark's search workload: branched on
    # their least uncovered vertex, its one-factor classes take 395,644 nodes
    out = exhaustive_urd(24, 3, 17, 4, max_nodes=1000)
    assert out.status == FOUND
    assert verify(out.witness).passed


@pytest.mark.parametrize("v,n,r,s", [(24, 3, 23, 0), (24, 3, 17, 4), (24, 5, 23, 0),
                                     (24, 7, 23, 0), (24, 11, 23, 0)])
def test_pairs_settled_within_twenty_thousand_nodes(v, n, r, s):
    # branched on their least uncovered vertex, the one-factor classes of
    # these pairs do not end within 20000 nodes
    out = exhaustive_urd(v, n, r, s, max_nodes=20000)
    assert out.status == FOUND
    assert (out.witness.r, out.witness.s) == (r, s)
    assert verify(out.witness).passed


@pytest.mark.parametrize("v,n", [(8, 3), (12, 3), (16, 3), (20, 3), (12, 5), (18, 5), (16, 7)])
def test_search_never_exhausts_a_pair_the_package_realizes(v, n):
    # a node budget may stop the search, but an exhausted verdict on a pair
    # that check_pair builds would be a false nonexistence claim
    pairs = [(p.r, p.s) for p in admissible_pairs(v, n)
             if check_pair(v, n, p.r, p.s).status == CONSTRUCTIVE]
    assert pairs
    for r, s in pairs:
        out = exhaustive_urd(v, n, r, s, max_nodes=20000)
        assert out.status in (FOUND, BUDGET_EXCEEDED), (r, s, out.status)
        if out.status == FOUND:
            assert (out.witness.r, out.witness.s) == (r, s)
            assert verify(out.witness).passed
