from itertools import combinations

import pytest

from starurd.seeds import hamiltonian_decomposition, one_factorization


def cycle_edge_set(cycle):
    return {
        frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))
    }


def complete_edges(m):
    return {frozenset(p) for p in combinations(range(m), 2)}


def test_k3_is_one_triangle():
    ham = hamiltonian_decomposition(3)
    assert len(ham.cycles) == 1
    assert ham.leftover_matching is None
    assert cycle_edge_set(ham.cycles[0]) == complete_edges(3)


def test_k5_two_disjoint_hamiltonian_cycles():
    ham = hamiltonian_decomposition(5)
    assert len(ham.cycles) == 2 and ham.leftover_matching is None
    e0, e1 = cycle_edge_set(ham.cycles[0]), cycle_edge_set(ham.cycles[1])
    assert len(e0) == len(e1) == 5
    assert e0.isdisjoint(e1)
    assert e0 | e1 == complete_edges(5)


def test_k4_cycle_plus_matching():
    ham = hamiltonian_decomposition(4)
    assert len(ham.cycles) == 1
    cyc = cycle_edge_set(ham.cycles[0])
    mat = {frozenset(p) for p in ham.leftover_matching}
    assert len(cyc) == 4 and len(mat) == 2
    assert cyc | mat == complete_edges(4)
    assert cyc.isdisjoint(mat)


@pytest.mark.parametrize("m", range(3, 13))
def test_hamiltonian_partition(m):
    ham = hamiltonian_decomposition(m)
    want_cycles = (m - 1) // 2 if m % 2 == 1 else (m - 2) // 2
    assert len(ham.cycles) == want_cycles
    seen = set()
    for cycle in ham.cycles:
        assert sorted(cycle) == list(range(m)), "cycle must visit every point once"
        edges = cycle_edge_set(cycle)
        assert len(edges) == m
        assert seen.isdisjoint(edges)
        seen |= edges
    if m % 2 == 0:
        mat = {frozenset(p) for p in ham.leftover_matching}
        assert len(mat) == m // 2
        assert sorted(x for p in mat for x in p) == list(range(m))
        assert seen.isdisjoint(mat)
        seen |= mat
    else:
        assert ham.leftover_matching is None
    assert seen == complete_edges(m)


def test_hamiltonian_rejects_small_m():
    with pytest.raises(ValueError, match="need m >= 1, got 0"):
        hamiltonian_decomposition(0)


def test_hamiltonian_m1_m2():
    # K_1 has no edge; K_2 is its one edge, the leftover matching
    assert hamiltonian_decomposition(1) == ((), None)
    assert hamiltonian_decomposition(2) == ((), ((0, 1),))


def test_one_factorization_k2():
    assert one_factorization(2) == (((0, 1),),)


def test_one_factorization_k4_exact():
    assert one_factorization(4) == (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )


@pytest.mark.parametrize("k", range(2, 13, 2))
def test_one_factorization_partition(k):
    factors = one_factorization(k)
    assert len(factors) == k - 1
    seen = set()
    for factor in factors:
        assert sorted(x for p in factor for x in p) == list(range(k))
        pairs = {frozenset(p) for p in factor}
        assert len(pairs) == k // 2
        assert seen.isdisjoint(pairs)
        seen |= pairs
    assert seen == complete_edges(k)


def test_one_factorization_rejects_odd():
    with pytest.raises(ValueError):
        one_factorization(5)
    with pytest.raises(ValueError):
        one_factorization(0)

