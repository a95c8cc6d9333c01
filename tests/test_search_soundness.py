"""The search's star-class rules cut no real decomposition.

The spent-center rule, the balance rule, the mate rule, the key-gap rule
and the star-class order (the `search` module docstring) cut branches of
the search, so one that cut a real decomposition would turn a pair that
exists into a false NOT_FOUND_EXHAUSTED.  Each decomposition here is replayed the way the
search builds it: relabeled so that one of its one-factor classes is the
canonical matching {0,1}, {2,3}, ..., its star classes taken in
increasing order of their key, and each class's stars placed in the
search's order, the star that holds the least uncovered vertex next.
Every rule must accept every step.  The decompositions are every
certificate that `construct_pair` builds at v <= 24, each relabeled on
every one of its one-factor classes, the witnesses of the pinned
searches under random relabelings that keep their first one-factor
class, and the four-cycle family at v = 2(n+1), r = 1 under random
relabelings that keep its one-factor class.  No pair with r = 1 is built
at v <= 64, so only the last two reach the mate rule, which runs at r = 1
alone.
"""

import random
from itertools import combinations

import pytest

from starurd.admissibility import CONSTRUCTIVE, admissible_pairs, check_pair
from starurd.assembler import construct_pair
from starurd.model import ONE_FACTOR, STAR_FACTOR, Decomposition, FlatClass, Params
from starurd.search import (
    FOUND,
    _balanced,
    _center_fits,
    _key_gap,
    _mates,
    _order_key,
    exhaustive_urd,
)
from starurd.verifier import verify

# (v, n, r, s) of the pinned searches (test_golden_search, test_golden_emitter)
# whose witnesses hold star classes
SEARCHED = [(8, 3, 1, 4), (12, 3, 5, 4), (12, 5, 1, 6), (16, 3, 3, 8), (16, 7, 1, 8),
            (20, 3, 1, 12), (24, 3, 17, 4)]


def _built() -> list:
    return [
        construct_pair(v, n, p.r, p.s)
        for n in range(3, 12, 2)
        for v in range(n + 1, 25, n + 1)
        for p in admissible_pairs(v, n)
        if p.s and check_pair(v, n, p.r, p.s).status == CONSTRUCTIVE
    ]


def _blocks(d, kind: str) -> list[list[tuple]]:
    """The classes of d of the given kind, each as its blocks of ids."""
    return [
        [fc.ids[a:b] for a, b in zip(fc.bounds, fc.bounds[1:])]
        for fc in d.flat
        if fc.kind == kind
    ]


def _four_cycles(n: int, rng: random.Random) -> Decomposition:
    """A decomposition of K_{2(n+1)} into the matching {0,1}, {2,3}, ...
    and n+1 star classes.  Each two matching edges {a, a+1} and {b, b+1}
    are joined as a directed 4-cycle, a -> b -> a+1 -> b+1 -> a or its
    reverse, as rng chooses, so every vertex has one out-neighbour in every
    other matching edge; the star class of {a, a+1} holds the out-stars of
    a and a+1, which cover the other vertices between them."""
    v = 2 * (n + 1)
    out = [[] for _ in range(v)]
    for a, b in combinations(range(0, v, 2), 2):
        b, b2 = (b, b + 1) if rng.random() < 0.5 else (b + 1, b)
        for tail, head in (a, b), (b, a + 1), (a + 1, b2), (b2, a):
            out[tail].append(head)
    star_classes = [
        FlatClass(STAR_FACTOR, (a, *sorted(out[a]), a + 1, *sorted(out[a + 1])),
                  (0, n + 1, 2 * n + 2), b"\x01\x01")
        for a in range(0, v, 2)
    ]
    matching = FlatClass(ONE_FACTOR, tuple(range(v)), tuple(range(0, v + 1, 2)), bytes(n + 1))
    return Decomposition(Params.for_order(v, n), (matching, *star_classes), 1, n + 1)


def _replay(d, matching) -> int:
    """Replay the star classes of d with matching as the canonical class,
    assert that every rule accepts them, and return how many rule tests
    ran."""
    v, n, r, s = d.params.v, d.params.n, d.r, d.s
    label = [0] * v
    for i, (a, b) in enumerate(matching):
        label[a], label[b] = 2 * i, 2 * i + 1
    classes = [
        [(label[c], sum(1 << label[x] for x in leaves)) for c, *leaves in blocks]
        for blocks in _blocks(d, STAR_FACTOR)
    ]

    def key(stars):
        return _order_key(*next(st for st in stars if st[0] == 0 or st[1] & 1))

    classes.sort(key=key)
    keys = list(map(key, classes))
    assert all(a < b for a, b in zip(keys, keys[1:])), keys

    full = (1 << v) - 1
    adj = [full ^ (1 << u) ^ (1 << (u ^ 1)) for u in range(v)]
    quota, spare = s // (n + 1), r - 1
    centers_used = [0] * v
    used_by = [full] + [0] * quota
    tests = 0
    for ci, stars in enumerate(classes, 1):
        assert 1 << keys[ci - 1] & _key_gap(adj[0], spare), (ci, keys)
        tests += 1
        uncovered = full
        while uncovered:
            low = uncovered & -uncovered
            center, leaves = next(st for st in stars if 1 << st[0] == low or st[1] & low)
            k = centers_used[center]
            if k + 1 == quota:
                assert _center_fits(adj[center], used_by[quota], leaves, spare), (ci, center)
                tests += 1
            centers_used[center] = k + 1
            used_by[k] ^= 1 << center
            used_by[k + 1] |= 1 << center
            uncovered ^= 1 << center | leaves
        for center, leaves in stars:
            adj[center] ^= leaves
            for x in range(v):
                if leaves >> x & 1:
                    adj[x] ^= 1 << center
        if ci < s:
            assert _balanced(adj, centers_used, used_by, n, s - ci, spare), ci
            tests += 1
            if not spare:
                assert _mates(adj, used_by, d.params.m), ci
                tests += 1
    return tests


def test_rules_accept_every_built_certificate():
    built = _built()
    assert len(built) >= 9
    tests = 0
    for d in built:
        for matching in _blocks(d, ONE_FACTOR):
            tests += _replay(d, matching)
    assert tests > 0


def _relabelings(matching, rng: random.Random, count: int) -> list[list]:
    """matching as it stands and count random relabelings of it: its edges
    in a random order, each with its ends in a random order."""
    return [matching] + [
        [rng.sample(edge, 2) for edge in rng.sample(matching, len(matching))]
        for _ in range(count)
    ]


@pytest.mark.parametrize("v,n,r,s", SEARCHED)
def test_rules_accept_every_searched_witness(v, n, r, s):
    out = exhaustive_urd(v, n, r, s)
    assert out.status == FOUND
    rng = random.Random(v * n)
    for matching in _relabelings(_blocks(out.witness, ONE_FACTOR)[0], rng, 20):
        assert _replay(out.witness, matching) > 0


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_rules_accept_the_four_cycle_family(n):
    rng = random.Random(n)
    for _ in range(20):
        d = _four_cycles(n, rng)
        assert verify(d).passed
        for matching in _relabelings(_blocks(d, ONE_FACTOR)[0], rng, 5):
            assert _replay(d, matching) > 0
