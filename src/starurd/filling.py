"""One-factorization of the aligned-plus-inner remainder of K_{m(n+1)}.

After the blown-up cycles (and, for even m, the blown-up matching) give up
their non-aligned edges, what is left of K_v is the graph made of

* every aligned edge {(a,i),(b,i)} between distinct bases a, b, and
* the m inner complete graphs on the n+1 levels of each base.

Both parities of m admit exactly m+n-1 one-factors:

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
"""

from __future__ import annotations

from . import seeds
from .aurd import AurdOutput, _class
from .model import ONE_FACTOR, ConstructionError, Edge, FactorClass, Vertex


def _check_args(m: int, n: int, m_parity: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if m < 3 or m % 2 != m_parity:
        want = "odd m >= 3" if m_parity == 1 else "even m >= 4"
        raise ValueError(f"need {want}, got m={m}")


def _grid(m: int, w: int) -> set[Vertex]:
    return {Vertex(x, i) for x in range(m) for i in range(w)}


def fill_odd(m: int, n: int) -> AurdOutput:
    """m+n-1 one-factors of the remainder for odd m."""
    _check_args(m, n, 1)
    w = n + 1
    vertices = _grid(m, w)
    classes: list[FactorClass] = []
    sources: list[str] = []

    level_matching = tuple((i, i + 1) for i in range(0, n, 2))
    for x in range(m):
        tag = f"AxBx@x={x}"
        edges = []
        for j in range(1, (m - 1) // 2 + 1):
            a, b = (x - j) % m, (x + j) % m
            edges.extend(Edge(Vertex(a, i), Vertex(b, i)) for i in range(w))
        edges.extend(Edge(Vertex(x, a), Vertex(x, b)) for a, b in level_matching)
        classes.append(_class(ONE_FACTOR, edges, vertices, tag))
        sources.append(tag)

    # The level matching is the same in every base, so one completion to a
    # one-factorization of K_{n+1} serves all of them.
    inner = seeds.one_factorization_containing(level_matching)
    if inner.factors[0] != level_matching:
        raise ConstructionError("AxBx", "completion lost the prescribed level matching")
    for k in range(1, n):
        tag = f"Bxk@k={k}"
        edges = [
            Edge(Vertex(x, a), Vertex(x, b))
            for x in range(m)
            for a, b in inner.factors[k]
        ]
        classes.append(_class(ONE_FACTOR, edges, vertices, tag))
        sources.append(tag)

    return AurdOutput(tuple(classes), tuple(sources))


def fill_even(m: int, n: int) -> AurdOutput:
    """m+n-1 one-factors of the remainder for even m."""
    _check_args(m, n, 0)
    w = n + 1
    vertices = _grid(m, w)
    classes: list[FactorClass] = []
    sources: list[str] = []

    base_factors = seeds.one_factorization(m).factors
    for k, factor in enumerate(base_factors, start=1):
        tag = f"Ak@k={k}"
        edges = [
            Edge(Vertex(x, i), Vertex(y, i)) for x, y in factor for i in range(w)
        ]
        classes.append(_class(ONE_FACTOR, edges, vertices, tag))
        sources.append(tag)

    inner_factors = seeds.one_factorization(w).factors
    for k, factor in enumerate(inner_factors, start=1):
        tag = f"Bk@k={k}"
        edges = [
            Edge(Vertex(x, a), Vertex(x, b)) for x in range(m) for a, b in factor
        ]
        classes.append(_class(ONE_FACTOR, edges, vertices, tag))
        sources.append(tag)

    return AurdOutput(tuple(classes), tuple(sources))
