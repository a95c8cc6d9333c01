import pytest

from starurd.admissibility import (
    ADMISSIBLE_UNRESOLVED,
    CONSTRUCTIVE,
    INADMISSIBLE,
    AdmissiblePair,
    admissible_pairs,
    check_pair,
    construction_range,
    inadmissibility_reason,
)


def test_pairs_v12_n3():
    assert admissible_pairs(12, 3) == [
        AdmissiblePair(11, 0, 0),
        AdmissiblePair(5, 4, 1),
    ]


def test_pairs_v7_n3_empty():
    # odd v kills r > 0 and 4 does not divide 7, so nothing survives
    assert admissible_pairs(7, 3) == []


def test_pairs_v20_n3():
    assert admissible_pairs(20, 3) == [
        AdmissiblePair(19, 0, 0),
        AdmissiblePair(13, 4, 1),
        AdmissiblePair(7, 8, 2),
        AdmissiblePair(1, 12, 3),
    ]


def test_even_n_rejected():
    with pytest.raises(ValueError):
        admissible_pairs(12, 4)
    with pytest.raises(ValueError):
        check_pair(12, 4, 5, 4)


def test_check_pair_constructive():
    verdict = check_pair(12, 3, 5, 4)
    assert verdict.status == CONSTRUCTIVE
    assert verdict.ell == 0


def test_check_pair_max_ell():
    verdict = check_pair(12, 3, 11, 0)
    assert verdict.status == CONSTRUCTIVE
    assert verdict.ell == 1


def test_check_pair_small_m_unresolved():
    verdict = check_pair(8, 3, 1, 4)
    assert verdict.status == ADMISSIBLE_UNRESOLVED
    assert verdict.ell is None


@pytest.mark.parametrize("v,n", [(4, 3), (8, 3), (12, 5)])
def test_check_pair_small_m_one_factorization(v, n):
    # m = v/(n+1) <= 2: (v-1, 0) is the ell-knob build at ell = 0
    verdict = check_pair(v, n, v - 1, 0)
    assert verdict == (CONSTRUCTIVE, f"r = 2n*0 + {v - 1} with m={v // (n + 1)}", 0)


def test_check_pair_order_without_grid_unresolved():
    verdict = check_pair(10, 3, 9, 0)
    assert verdict.status == ADMISSIBLE_UNRESOLVED and verdict.ell is None
    assert verdict.reason == "v=10 is not a multiple of n+1=4; constructions need v = m(n+1)"


def test_nonpositive_order_rejected():
    with pytest.raises(ValueError, match="v must be positive, got 0"):
        admissible_pairs(0, 3)


def test_check_pair_inadmissible():
    verdict = check_pair(12, 3, 4, 4)
    assert verdict.status == INADMISSIBLE
    assert verdict.ell is None


def test_check_pair_sub_threshold_unresolved():
    # admissible at x=2 but r=7 is below the even-m minimum m+2n-1=9
    assert check_pair(16, 3, 3, 8).status == ADMISSIBLE_UNRESOLVED


def constructive(v, n):
    """(pair, ell) of every admissible pair that check_pair finds
    constructive on K_v, in increasing ell."""
    verdicts = [(pair, check_pair(v, n, pair.r, pair.s)) for pair in admissible_pairs(v, n)]
    built = [(pair, verdict.ell) for pair, verdict in verdicts if verdict.status == CONSTRUCTIVE]
    return sorted(built, key=lambda entry: entry[1])


def range_pairs(m, n):
    """(pair, ell) for each ell in 0..t of construction_range on K_{m(n+1)}."""
    t, threshold = construction_range(m, n)
    return [(AdmissiblePair(2 * n * ell + threshold, (n + 1) * (t - ell), t - ell), ell)
            for ell in range(t + 1)]


def test_constructive_pairs_v12_n3():
    assert constructive(12, 3) == range_pairs(3, 3) == [
        (AdmissiblePair(5, 4, 1), 0),
        (AdmissiblePair(11, 0, 0), 1),
    ]


def test_constructive_pairs_v16_n3():
    assert constructive(16, 3) == range_pairs(4, 3) == [
        (AdmissiblePair(9, 4, 1), 0),
        (AdmissiblePair(15, 0, 0), 1),
    ]


def test_constructive_pairs_v20_n3():
    assert constructive(20, 3) == range_pairs(5, 3) == [
        (AdmissiblePair(7, 8, 2), 0),
        (AdmissiblePair(13, 4, 1), 1),
        (AdmissiblePair(19, 0, 0), 2),
    ]


def test_constructive_pairs_small_m():
    assert constructive(4, 3) == range_pairs(1, 3) == [(AdmissiblePair(3, 0, 0), 0)]
    assert constructive(8, 3) == range_pairs(2, 3) == [(AdmissiblePair(7, 0, 0), 0)]
    assert constructive(9, 3) == []


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_counting_identity_over_grid(n):
    for m in range(1, 11):
        v = m * (n + 1)
        for pair in admissible_pairs(v, n):
            assert (n + 1) * pair.r + 2 * n * pair.s == (n + 1) * (v - 1)
            assert pair.s == (n + 1) * pair.x
            assert pair.r == v - 1 - 2 * n * pair.x
        # odd orders too: the identity must hold for whatever survives
        for pair in admissible_pairs(v + 1, n):
            assert (n + 1) * pair.r + 2 * n * pair.s == (n + 1) * v


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_constructive_subset_of_admissible(n):
    for m in range(3, 11):
        v = m * (n + 1)
        admissible = {(p.r, p.s) for p in admissible_pairs(v, n)}
        for pair, ell in range_pairs(m, n):
            assert (pair.r, pair.s) in admissible
            verdict = check_pair(v, n, pair.r, pair.s)
            assert verdict.status == CONSTRUCTIVE
            assert verdict.ell == ell


def test_inadmissibility_reason_passes_good_pair():
    assert inadmissibility_reason(12, 3, 5, 4) is None
    assert inadmissibility_reason(12, 3, 4, 4) is not None


@pytest.mark.parametrize("r,s,reason", [
    (-1, 4, "negative class count (r=-1, s=4)"),
    (4, 2, "s=2 is not a multiple of n+1=4"),
])
def test_inadmissibility_reason_names_the_failed_condition(r, s, reason):
    assert inadmissibility_reason(8, 3, r, s) == reason


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_admissible_pairs_are_constructive_exactly_above_threshold(n):
    # the converse of test_constructive_subset_of_admissible: on v = m(n+1)
    # every admissible r is odd, and every admissible pair with
    # r >= threshold is built, with an ell in 0..t of construction_range
    for m in range(1, 13):
        v = m * (n + 1)
        pairs = admissible_pairs(v, n)
        assert all(pair.r >= 1 and pair.r % 2 == 1 for pair in pairs)
        _, threshold = construction_range(m, n)
        constructive = range_pairs(m, n)
        for pair in pairs:
            verdict = check_pair(v, n, pair.r, pair.s)
            assert (verdict.status == CONSTRUCTIVE) == (pair.r >= threshold)
            if verdict.status == CONSTRUCTIVE:
                assert (pair, verdict.ell) in constructive


@pytest.mark.parametrize("n,unresolved", [(3, 24), (5, 16), (7, 13)])
def test_frontier_counts(n, unresolved):
    # the admissible pairs of K_{m(n+1)}, m = 1..16, by verdict: a new
    # route or a catalogued witness moves pairs from unresolved to
    # constructive, and every constructive verdict names its ell
    verdicts = [
        check_pair(m * (n + 1), n, pair.r, pair.s)
        for m in range(1, 17) for pair in admissible_pairs(m * (n + 1), n)
    ]
    statuses = [verdict.status for verdict in verdicts]
    assert statuses.count(CONSTRUCTIVE) == 72
    assert statuses.count(ADMISSIBLE_UNRESOLVED) == unresolved
    assert len(statuses) == 72 + unresolved
    assert all(type(verdict.ell) is int for verdict in verdicts if verdict.status == CONSTRUCTIVE)
