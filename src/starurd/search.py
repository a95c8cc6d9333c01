"""Exhaustive backtracking search for desk-scale decompositions.

An independent existence oracle: given (v, n, r, s), build the classes
depth-first, always extending the current class at its lexicographically
least uncovered vertex.  The first class is always the canonical
perfect matching {0,1}, {2,3}, ...: v = m(n+1) is even, so every
admissible r = v-1-2nx is odd and at least 1, and there is always a
one-factor to fix.  Fixing it is sound symmetry reduction: any solution
can be relabeled to start with it.  No deeper isomorph rejection is
attempted, so NOT_FOUND_EXHAUSTED is a genuine nonexistence certificate
for the instance.

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

Bookkeeping is in bitmasks over the vertices: the covered set of the
current class, each vertex's row of still-unused edges (`adj`), and
`used_by[k]`, the vertices that are already the center of k stars.  A
class's edges leave `adj` when the class is complete and come back when
the search backtracks out of it: within a class only edges between two
covered vertices are taken, and the search reads no row of a covered
vertex, so deferring them changes no choice.

Two sound prunes keep exhaustion honest and fast; neither can discard a
solution:

* in any solution every vertex is a star center in exactly s/(n+1) of
  the star classes (its degree across the star classes is v-1-r =
  n*x + (s-x), which forces x = s/(n+1) per vertex).  Center quotas are
  tracked in `used_by`: a vertex that has met its quota is never made a
  center again, and one that must be a center in every star class still
  open is never made a leaf; a branch with more of those uncovered than
  the class has stars left is cut.  No vertex falls further behind: at
  the first star class each needs fewer centers than there are star
  classes, and each class makes a center of every vertex that needs one
  in all the classes left.

* within a star class (one-factor classes skip it), every uncovered
  vertex must still be joinable to some other uncovered vertex; a vertex
  isolated inside the remaining uncovered set kills the branch at once.

The search recurses at every node.  A tree deeper than Python's
recursion limit (K_64 into 63 one-factors is about 2000 levels deep) is
reported as BUDGET_EXCEEDED with a reason that names the limit: the run
was cut short, not exhausted.

Pairs failing the arithmetic necessary conditions are rejected without
search.  The vertex model addresses K_v as an m x (n+1) grid, so v must
be a multiple of n+1; other orders (pure one-factorization instances) are
outside this module's scope and raise ValueError.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple
from itertools import combinations

from . import admissibility
from .aurd import _output
from .model import ONE_FACTOR, STAR_FACTOR, Decomposition, Params
from .verifier import verify

FOUND = "FOUND"
NOT_FOUND_EXHAUSTED = "NOT_FOUND_EXHAUSTED"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class SearchOutcome(namedtuple(
    "SearchOutcome", "status witness nodes_explored elapsed reason", defaults=(None,)
)):
    """Result of one search run: status, witness (a Decomposition or None),
    nodes_explored, elapsed seconds and reason (a str or None)."""

    __slots__ = ()

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
    # Classes 1..s are the star classes.
    kinds = [ONE_FACTOR] + [STAR_FACTOR] * s + [ONE_FACTOR] * (r - 1)
    last = len(kinds) - 1
    placed: list[list[tuple]] = [[] for _ in kinds]
    quota = s // (n + 1)  # forced per-vertex center count
    centers_used = [0] * v
    # used_by[k]: the vertices that are already the center of k stars
    used_by = [full] + [0] * quota
    nodes = 0
    limit = max_nodes if max_nodes is not None else math.inf
    deadline = start + timeout if timeout is not None else None

    def toggle(ci: int) -> None:
        """Take the edges of class ci out of adj, or give them back."""
        if 0 < ci <= s:
            for center, leaves in placed[ci]:
                for leaf in leaves:
                    adj[center] ^= 1 << leaf
                    adj[leaf] ^= 1 << center
        else:
            for a, b in placed[ci]:
                adj[a] ^= 1 << b
                adj[b] ^= 1 << a

    def place_star(ci: int, covered: int, center: int, leaves: tuple[int, ...]) -> bool:
        cbit = 1 << center
        mask = cbit
        for leaf in leaves:
            mask |= 1 << leaf
        k = centers_used[center]
        centers_used[center] = k + 1
        used_by[k] ^= cbit
        used_by[k + 1] |= cbit
        blocks = placed[ci]
        blocks.append((center, leaves))
        if extend(ci, covered | mask):
            return True
        blocks.pop()
        used_by[k + 1] ^= cbit
        used_by[k] |= cbit
        centers_used[center] = k
        return False

    def extend(ci: int, covered: int) -> bool:
        nonlocal nodes
        if covered == full:
            if ci == last:
                return True
            toggle(ci)
            if extend(ci + 1, 0):
                return True
            toggle(ci)
            return False
        uncovered = full ^ covered
        low = uncovered & -uncovered
        u = low.bit_length() - 1
        nodes += 1
        if nodes > limit:
            raise _BudgetExceeded
        if not nodes & 255 and deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExceeded
        avail = adj[u] & uncovered
        if ci > s:  # one-factor class
            blocks = placed[ci]
            while avail:
                bw = avail & -avail
                avail ^= bw
                blocks.append((u, bw.bit_length() - 1))
                if extend(ci, covered | low | bw):
                    return True
                blocks.pop()
            return False

        # Star class.  left = s + 1 - ci star classes are still open, current
        # included.  A vertex that is the center of j stars needs quota - j
        # more: with j == k = quota - left it must be a center in every open
        # class.  None has j < k (module docstring): k < 0 at the first star
        # class, and must is never a leaf, so each class makes it a center.
        k = quota - (s + 1 - ci)
        must = used_by[k] & uncovered if k >= 0 else 0
        scan = uncovered
        while scan:
            bit = scan & -scan
            scan ^= bit
            if not adj[bit.bit_length() - 1] & uncovered:
                return False
        if must.bit_count() > uncovered.bit_count() // (n + 1):
            return False
        leaf_ok = uncovered ^ must
        spent = used_by[quota]

        # u joins a star either as its center or as a leaf of a later center;
        # every other member of that star is > u, so each star is tried once.
        if not spent & low:
            for leaves in combinations(_bits(avail & leaf_ok), n):
                if place_star(ci, covered, u, leaves):
                    return True
        if leaf_ok & low:
            for center in _bits(avail & ~spent):
                rest = (adj[center] & leaf_ok) ^ low  # u is in both
                for others in combinations(_bits(rest), n - 1):
                    if place_star(ci, covered, center, (u, *others)):
                        return True
        return False

    placed[0] = [(u, u + 1) for u in range(0, v, 2)]
    toggle(0)

    try:
        ok = extend(1, 0)
    except _BudgetExceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes, time.perf_counter() - start)
    except RecursionError:
        return SearchOutcome(
            BUDGET_EXCEEDED,
            None,
            nodes,
            time.perf_counter() - start,
            reason=f"stopped at Python's recursion limit ({sys.getrecursionlimit()} frames)",
        )
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
        return _output(kind, range(params.m), n + 1, tagged).flat

    witness = Decomposition.from_classes(params, classes(ONE_FACTOR) + classes(STAR_FACTOR))
    report = verify(witness)
    if not report.passed:
        raise AssertionError(f"search produced an invalid witness: {report.violations}")
    return SearchOutcome(FOUND, witness, nodes, elapsed)
