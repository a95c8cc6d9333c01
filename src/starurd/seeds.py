"""Classical seed structures on small complete graphs.

Two deterministic schemes, both built around a fixed hub vertex:

* Hamiltonian decomposition of K_m.  The non-hub vertices are Z_{m-1};
  the zig-zag k, k+1, k-1, k+2, k-2, ... through all m-1 of them, closed
  through the hub, is a Hamiltonian cycle.  For odd m = 2t+1 the rotations
  k = 0..t-1 partition E(K_m).  For even m = 2t the rotations k = 0..t-2
  miss the perfect matching {hub, t-1} together with the pairs symmetric
  about t-1.

* Round-robin one-factorization of K_k (k even): vertex 0 is fixed and
  1..k-1 rotate, giving the k-1 factors F_j = {0, 1+j} plus the pairs
  symmetric about 1+j.

Everything returned is in canonical form: pairs sorted, factors sorted.
"""

from __future__ import annotations

from collections import namedtuple

Pair = tuple[int, int]
Matching = tuple[Pair, ...]


def _pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


def _canon_matching(pairs) -> Matching:
    return tuple(sorted(_pair(a, b) for a, b in pairs))


class HamDecomposition(namedtuple("HamDecomposition", "m cycles leftover_matching")):
    """Edge partition of K_m into Hamiltonian cycles (plus a perfect
    matching when m is even)."""

    __slots__ = ()


class OneFactorization(namedtuple("OneFactorization", "k factors")):
    """Edge partition of K_k into k-1 perfect matchings."""

    __slots__ = ()


def hamiltonian_decomposition(m: int) -> HamDecomposition:
    """Decompose K_m into (m-1)/2 Hamiltonian cycles (m odd), or into
    (m-2)/2 Hamiltonian cycles plus a perfect matching (m even)."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    hub = top = m - 1  # the other vertices rotate mod m-1
    # point j of rotation k is k + ceil(j/2), or k - ceil(j/2) for even j
    cycles = tuple(
        (hub, *((k + (j + 1) // 2 * (1 if j % 2 else -1)) % top for j in range(top)))
        for k in range(top // 2)
    )
    if m % 2 == 1:
        return HamDecomposition(m, cycles, None)
    t = m // 2
    center = t - 1
    matching = [(hub, center)]
    for j in range(1, t):
        matching.append(_pair((center - j) % top, (center + j) % top))
    return HamDecomposition(m, cycles, _canon_matching(matching))


def one_factorization(k: int) -> OneFactorization:
    """Round-robin one-factorization of K_k for even k >= 2 (for k = 2 the
    loop gives the single factor ((0, 1),))."""
    if k < 2 or k % 2 == 1:
        raise ValueError(f"need even k >= 2, got {k}")
    top = k - 1
    factors = []
    for j in range(k - 1):
        pairs = [(0, 1 + j)]
        for i in range(1, k // 2):
            pairs.append(_pair(1 + (j - i) % top, 1 + (j + i) % top))
        factors.append(_canon_matching(pairs))
    return OneFactorization(k, tuple(factors))


def _check_matching(prescribed) -> tuple[Matching, int]:
    pairs = _canon_matching(prescribed)
    points = [p for pair in pairs for p in pair]
    k = 2 * len(pairs)
    if len(set(points)) != len(points):  # a loop pair (a, a) included
        raise ValueError("prescribed pairs are not disjoint")
    if sorted(points) != list(range(k)):
        raise ValueError(f"prescribed matching must cover the points 0..{k - 1}")
    return pairs, k


def one_factorization_containing(prescribed) -> OneFactorization:
    """One-factorization of K_k whose first factor is the given perfect
    matching on points 0..k-1.

    Built by relabeling: any perfect matching maps onto any other under a
    point bijection, so we send the round-robin factorization's first
    factor onto the prescribed one and relabel every factor.
    """
    pairs, k = _check_matching(prescribed)
    base = one_factorization(k)
    relabel = {}
    for (a, b), (c, d) in zip(base.factors[0], pairs):
        relabel[a] = c
        relabel[b] = d
    factors = tuple(
        _canon_matching((relabel[a], relabel[b]) for a, b in factor)
        for factor in base.factors
    )
    return OneFactorization(k, factors)
