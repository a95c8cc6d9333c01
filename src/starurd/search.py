"""Exhaustive backtracking search for desk-scale decompositions.

An independent existence oracle: given (v, n, r, s), build the classes
depth-first, always extending the current class at its lexicographically
least uncovered vertex.  Edge availability is tracked as per-vertex
bitmasks.  The first class is always the canonical perfect matching
{0,1}, {2,3}, ...: v = m(n+1) is even, so every admissible r = v-1-2nx is
odd and at least 1, and there is always a one-factor to fix.  Fixing it is
sound symmetry reduction: any solution can be relabeled to start with it.
No deeper isomorph rejection is attempted, so NOT_FOUND_EXHAUSTED is a
genuine nonexistence certificate for the instance.

Class scheduling: after the canonical first class, all star classes are
built before the remaining one-factor classes.  Star classes carry the
binding constraints (center quotas, leaf arity); one-factor classes are
the flexible filler, and building them first was measured to defer every
conflict into an enormous star subtree (tens of millions of nodes for
v=12) while stars-early resolves the same instances in hundreds.  The
witness is reported with its one-factor classes first regardless.  Blocks
are placed as flat vertex ids; `aurd._output`, the emitter of the
construction classes, packages the witness, and the independent verifier
re-checks it before it is returned.

Two sound prunes keep exhaustion honest and fast; neither can discard a
solution:

* in any solution every vertex is a star center in exactly s/(n+1) of
  the star classes (its degree across the star classes is v-1-r =
  n*x + (s-x), which forces x = s/(n+1) per vertex).  Center quotas are
  tracked, and branches where a vertex overshoots its quota or can no
  longer meet it are cut.

* within a star class (one-factor classes skip it), every uncovered
  vertex must still be joinable to some other uncovered vertex; a vertex
  isolated inside the remaining uncovered set kills the branch at once.

Pairs failing the arithmetic necessary conditions are rejected without
search.  The vertex model addresses K_v as an m x (n+1) grid, so v must
be a multiple of n+1; other orders (pure one-factorization instances) are
outside this module's scope and raise ValueError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from . import admissibility
from .aurd import _output
from .model import ONE_FACTOR, STAR_FACTOR, Decomposition, Params
from .verifier import verify

FOUND = "FOUND"
NOT_FOUND_EXHAUSTED = "NOT_FOUND_EXHAUSTED"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search run."""

    status: str
    witness: Decomposition | None
    nodes_explored: int
    elapsed: float
    reason: str | None = None

    @property
    def complete(self) -> bool:
        """True when the run was not cut short by a budget: either a witness
        was found or the symmetry-reduced tree was fully exhausted."""
        return self.status != BUDGET_EXCEEDED


class _BudgetExceeded(Exception):
    pass


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def exhaustive_urd(
    v: int,
    n: int,
    r: int,
    s: int,
    max_nodes: int | None = None,
    timeout: float | None = None,
) -> SearchOutcome:
    """Search K_v exhaustively for r one-factors plus s star-factor classes.

    max_nodes must be >= 0 and timeout (seconds) >= 0, inf included;
    None means no limit.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
    if timeout is not None and not timeout >= 0:
        raise ValueError(f"timeout must be >= 0 seconds, got {timeout}")
    start = time.perf_counter()
    reason = admissibility.inadmissibility_reason(v, n, r, s)
    if reason is not None:
        return SearchOutcome(
            NOT_FOUND_EXHAUSTED,
            None,
            0,
            time.perf_counter() - start,
            reason=f"necessary conditions fail: {reason}",
        )
    if v % (n + 1) != 0:
        raise ValueError(
            f"v={v} is not a multiple of n+1={n + 1}: no grid vertex model"
        )
    params = Params.for_order(v, n)

    full = (1 << v) - 1
    adj = [full ^ (1 << u) for u in range(v)]
    # r >= 1 (module docstring), and r + s >= 2 since s = 0 means r = v-1 >= 3.
    kinds = [ONE_FACTOR] + [STAR_FACTOR] * s + [ONE_FACTOR] * (r - 1)
    placed: list[list[tuple]] = [[] for _ in kinds]
    quota = s // (n + 1)  # forced per-vertex center count
    centers_used = [0] * v
    nodes = 0
    deadline = start + timeout if timeout is not None else None

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _BudgetExceeded
        if deadline is not None and nodes % 256 == 0:
            if time.perf_counter() > deadline:
                raise _BudgetExceeded

    def take_edge(a: int, b: int) -> None:
        adj[a] &= ~(1 << b)
        adj[b] &= ~(1 << a)

    def give_edge(a: int, b: int) -> None:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def place_star(ci: int, covered: int, center: int, leaves: tuple[int, ...]) -> bool:
        mask = 1 << center
        for leaf in leaves:
            take_edge(center, leaf)
            mask |= 1 << leaf
        centers_used[center] += 1
        placed[ci].append((center, leaves))
        if extend(ci, covered | mask):
            return True
        placed[ci].pop()
        centers_used[center] -= 1
        for leaf in leaves:
            give_edge(center, leaf)
        return False

    def extend(ci: int, covered: int) -> bool:
        if covered == full:
            if ci + 1 == len(kinds):
                return True
            return extend(ci + 1, 0)
        low = (~covered & full) & -(~covered & full)
        u = low.bit_length() - 1
        tick()
        avail = adj[u] & ~covered
        if kinds[ci] == ONE_FACTOR:
            for w in _bits(avail):
                take_edge(u, w)
                placed[ci].append((u, w))
                if extend(ci, covered | low | (1 << w)):
                    return True
                placed[ci].pop()
                give_edge(u, w)
            return False

        # Star class.  left = star classes (1..s) still open, current included.
        left = s + 1 - ci
        uncovered = ~covered & full
        must = 0
        leaf_ok = 0
        scan = uncovered
        while scan:
            bit = scan & -scan
            scan ^= bit
            w = bit.bit_length() - 1
            need = quota - centers_used[w]
            if need > left:
                return False
            if need == left:
                must |= bit
            else:
                leaf_ok |= bit
            if adj[w] & uncovered == 0:
                return False
        if must.bit_count() > uncovered.bit_count() // (n + 1):
            return False

        # u joins a star either as its center or as a leaf of a later center;
        # every other member of that star is > u, so each star is tried once.
        if centers_used[u] < quota:
            for leaves in combinations(_bits(avail & leaf_ok), n):
                if place_star(ci, covered, u, leaves):
                    return True
        if leaf_ok & low:
            for center in _bits(avail):
                if centers_used[center] >= quota:
                    continue
                rest = adj[center] & ~covered & ~low & leaf_ok & ~(1 << center)
                for others in combinations(_bits(rest), n - 1):
                    if place_star(ci, covered, center, (u, *others)):
                        return True
        return False

    placed[0] = [(u, u + 1) for u in range(0, v, 2)]
    for a, b in placed[0]:
        take_edge(a, b)

    try:
        ok = extend(1, 0)
    except _BudgetExceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes, time.perf_counter() - start)
    elapsed = time.perf_counter() - start

    if not ok:
        return SearchOutcome(
            NOT_FOUND_EXHAUSTED,
            None,
            nodes,
            elapsed,
            reason="symmetry-reduced search tree exhausted",
        )

    def classes(kind: str) -> tuple:
        tagged = ((f"search@class={ci}", blocks)
                  for ci, blocks in enumerate(placed) if kinds[ci] == kind)
        return _output(kind, range(params.m), n + 1, tagged).classes

    witness = Decomposition.from_classes(params, classes(ONE_FACTOR) + classes(STAR_FACTOR))
    report = verify(witness)
    if not report.passed:
        raise AssertionError(f"search produced an invalid witness: {report.violations}")
    return SearchOutcome(FOUND, witness, nodes, elapsed)
