"""One-factorization of the aligned-plus-inner remainder of K_{m(n+1)}.

After the blown-up cycles (and, for even m, the blown-up matching) give up
their non-aligned edges, what is left of K_v is the graph made of

* every aligned edge {(a,i),(b,i)} between distinct bases a, b, and
* the m inner complete graphs on the n+1 levels of each base.

Both parities of m >= 1 admit exactly m+n-1 one-factors:

* odd m: for each base x, the aligned edges between the base pairs
  symmetric about x (x-j with x+j, j = 1..(m-1)/2; every base pair has a
  unique midpoint since m is odd) together with the level matching
  {(x,0)(x,1), (x,2)(x,3), ...} inside base x form one factor -- m
  factors.  The remaining inner edges are factored by completing that
  level matching to a one-factorization of K_{n+1} and pooling the k-th
  leftover factor across all bases -- n-1 more factors.

* even m: blow up each factor of a one-factorization of K_m level by
  level (m-1 factors), then pool the k-th factor of a one-factorization
  of K_{n+1} across all bases (n factors).

Vertex (x, i) is built as its flat id x*(n+1) + i, and every factor is
checked and kept on those ids by `aurd._output`, as the AURD stages are.
"""

from itertools import chain

from . import seeds
from .aurd import AurdOutput, _blown, _output
from .model import ONE_FACTOR, _require_odd_n


def _check_args(m: int, n: int, m_parity: int) -> None:
    _require_odd_n(n)
    if m < 1 or m % 2 != m_parity:
        want = "odd m >= 1" if m_parity == 1 else "even m >= 2"
        raise ValueError(f"need {want}, got m={m}")


def _pooled(bases, factor, w: int) -> list[tuple[int, int]]:
    """Flat ids of the edges (x, a)-(x, b) of every base x and level pair (a, b)."""
    return [(x * w + a, x * w + b) for x in bases for a, b in factor]


def fill_odd(m: int, n: int) -> AurdOutput:
    """m+n-1 one-factors of the remainder for odd m."""
    _check_args(m, n, 1)
    w = n + 1
    level_matching = tuple((i, i + 1) for i in range(0, n, 2))
    # The level matching is the same in every base, so one completion to a
    # one-factorization of K_{n+1} serves all of them: relabel the
    # round-robin one so that the j-th pair of its first factor becomes
    # (2j, 2j+1), the j-th pair of the level matching.
    factors = seeds.one_factorization(w)
    label = {u: 2 * j + t for j, pair in enumerate(factors[0]) for t, u in enumerate(pair)}
    half = range(1, (m - 1) // 2 + 1)
    return _output(ONE_FACTOR, range(m), w, chain(
        (
            (f"AxBx@x={x}", _blown([((x - j) % m, (x + j) % m) for j in half], w)
             + _pooled((x,), level_matching, w))
            for x in range(m)
        ),
        (
            (f"Bxk@k={k}", _pooled(range(m), [(label[a], label[b]) for a, b in factors[k]], w))
            for k in range(1, n)
        ),
    ))


def fill_even(m: int, n: int) -> AurdOutput:
    """m+n-1 one-factors of the remainder for even m."""
    _check_args(m, n, 0)
    w = n + 1
    base_factors = seeds.one_factorization(m)
    inner_factors = seeds.one_factorization(w)
    return _output(ONE_FACTOR, range(m), w, chain(
        ((f"Ak@k={k}", _blown(f, w)) for k, f in enumerate(base_factors, start=1)),
        ((f"Bk@k={k}", _pooled(range(m), f, w)) for k, f in enumerate(inner_factors, start=1)),
    ))
