"""Exhaustive backtracking search for desk-scale decompositions.

An independent existence oracle: given (v, n, r, s), build the classes
depth-first, each node extending the current class at one uncovered
vertex u by every block that can hold u.  The first class is always the
canonical perfect matching {0,1}, {2,3}, ...: v = m(n+1) is even, so every
admissible r = v-1-2nx is odd and at least 1, and there is always a
one-factor to fix.  Fixing it is sound symmetry reduction: any solution
can be relabeled to start with it.  The only other symmetry used is the
order of the star classes (below), which relabels no vertex, so
NOT_FOUND_EXHAUSTED is a genuine nonexistence certificate for the
instance.

Class scheduling: after the canonical first class, all star classes are
built before the remaining one-factor classes.  Star classes carry the
binding constraints (center quotas, leaf arity); one-factor classes are
the flexible filler, and building them first was measured to defer every
conflict into an enormous star subtree (tens of millions of nodes for
v=12) while stars-early resolves the same instances in hundreds.  The
witness is reported with its one-factor classes first regardless: class
0 and classes s+1..r+s-1, then the star classes 1..s, as a Decomposition
that claims the r and s searched for.  Every placed block, edge or star,
is its first vertex and a mask of the others (an edge's partner, a star's
leaves), so one loop takes any class's edges out of `adj`; on FOUND each
becomes its run of flat ids, which `aurd._output`, the emitter of the
construction classes, packages into each kind's classes, and the
independent verifier re-checks the witness before it is returned.

The branch vertex u depends on the kind of the class:

* a one-factor class branches on the uncovered vertex with the fewest
  uncovered partners left, the least such vertex on a tie; the scan stops
  at a vertex with at most one, and a vertex with none ends the node.
  Every uncovered vertex must be matched in any completion of the class,
  so trying each partner of any one of them misses no completion: the
  choice of u is free, and taking the most constrained one (Knuth's rule
  for exact cover, arXiv:cs/0011047) keeps the search from stranding the
  high vertices that the least-vertex rule leaves to last.  It reads only
  rows of uncovered vertices, which the deferred edges below leave exact.
* a star class branches on its least uncovered vertex u.  Every star
  through u is tried once: u is its center, or a leaf of a center above
  u, and every other member of that star is above u too.  When n+1
  vertices are left, the last star must hold them all, so it is decided
  directly: u is its center exactly when u's leafable uncovered partners
  are all the others, and a leaf of c exactly when c and c's leafable
  uncovered partners are all of them.

Star-class order.  The s star classes are interchangeable: permuting
them relabels no vertex, so it keeps the canonical first class.  Vertex
0's least neighbour in a star class (its center, or its least leaf if 0
is the center) is a different vertex in every class, since each edge at
0 is used once.  So the star classes are built in increasing order of
that key: at the first node of every star class vertex 0 is the branch
vertex, and at ci >= 2 only the stars that give it a key above class
ci-1's are tried.

Bookkeeping is in bitmasks over the vertices: the covered set of the
current class, each vertex's row of still-unused edges (`adj`), the
other vertices of each placed block, and `used_by[k]`, the vertices that
are already the center of k stars.  A class's edges leave `adj` when the
class is complete and come back when the search backtracks out of it:
within a class only edges between two covered vertices are taken, and
the search reads no row of a covered vertex, so deferring them changes
no choice.

Below, quota = s/(n+1), a vertex is spent once it has been the center of
quota stars (`used_by[quota]`), and spare = r-1 one-factor classes follow
the star classes.  These sound prunes keep exhaustion honest and fast;
none can discard a solution:

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

* within a star class, every uncovered vertex must still be joinable to
  some other uncovered vertex; a vertex isolated inside the remaining
  uncovered set kills the branch at once.  A star node is counted and
  given this test where its star is placed, before any bookkeeping, so
  the half or so of star nodes that fail it cost no call and no undo.
  One-factor classes skip it: their scan for the branch vertex ends the
  node on a vertex with no partner, and a child with n+1 vertices left
  skips it too, since the last star's own test implies it.

* the spent-center rule (`_center_fits`): a spent vertex is never a
  center again, so an unused edge between two spent vertices can only go
  into one of the spare one-factor classes, and each of those holds one
  edge at a vertex.  So a star whose center becomes spent with it leaves
  at most spare unused edges from that center to spent vertices outside
  its leaves.  The center was uncovered, so its row is exact.  The test
  runs before the child is counted.  With r = 1 it says that the star
  takes every spent vertex its center still has an edge to, so the
  candidate leaves are also filtered that way, which costs less than
  making and testing each child.

* the balance rule (`_balanced`), once star class ci < s is complete and
  its edges have left `adj`, with L = s-ci star classes left: a vertex a
  that needs q more centers holds each unused edge to a spent vertex as
  its center (at most n*q of them fit), and each unused edge to a vertex
  that must be a center in every class left as its leaf (at most L-q
  fit).  The edges over either bound need the spare one-factor classes,
  so together they are at most spare.  It is one pass over the vertices
  per completed star class.

* the key-gap rule (`_key_gap`), at the first node of every star class
  ci, class 1 included: the class's key k is vertex 0's least neighbour
  in it, and classes ci+1..s have greater keys, so no neighbour of 0 in
  classes ci..s is below k.  An unused edge from 0 to a vertex below k
  can then only go into one of the spare one-factor classes, each of
  which holds one edge at 0, so k is at most the (spare+1)-th least
  vertex of 0's row; with r = 1, k is 0's least unused neighbour.  When
  0 is a leaf the rule caps its center.  When 0 is the center its least
  leaf is chosen first, under the cap, and the other leaves above it, so
  the leaf sets still come in lexicographic order and none is made only
  to be dropped.

* the mate rule (`_mates`), at r = 1 only, next to the balance rule once
  star class ci < s is complete.  A vertex a that needs one more center
  is the center in exactly one star class X still to come, and is spent
  after it.  No one-factor class follows, so every spent vertex z that a
  still has an edge to is a leaf of a in X (z is never a center again).
  Another center b of X that needs one more is spent after X too, so an
  unused edge a-b (both are centers in X) or b-z (z is a's leaf in X)
  could never be taken.  Neither a nor b is a center before X and z
  never is, and every star edge holds its center, so those edges are
  unused now exactly when they are at X.  The other v/(n+1) - 1 centers
  of X are therefore mates of a: vertices not spent now that, if they
  need one more center too, have no unused edge to a or to such a z.
  Vertices that need two or more centers are unconstrained.  A branch in
  which some a has fewer mates than that is cut.  It is one pass over the
  vertices that need one more center per completed star class, with one
  row read per spent neighbour.

The search recurses at every node.  A tree deeper than Python's
recursion limit (K_64 into 63 one-factors is about 2000 levels deep) is
reported as BUDGET_EXCEEDED with a reason that names the limit: the run
was cut short, not exhausted.

The outcome is decided once, after the walk: how the walk ended gives
the status (FOUND, NOT_FOUND_EXHAUSTED, or BUDGET_EXCEEDED when the node
budget, the timeout or the recursion limit stopped it) and the reason,
the elapsed time is read then, before a witness is packaged and
verified, and one SearchOutcome is returned.  Pairs failing the
arithmetic necessary conditions are rejected without search, the only
earlier return.  The vertex model addresses K_v as an m x (n+1) grid,
so v must be a multiple of n+1; other orders (pure one-factorization
instances) are outside this module's scope and raise ValueError.
"""

import math
import sys
import time
from collections import namedtuple
from itertools import chain, combinations

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
    nodes_explored, elapsed seconds and reason (a str or None).  A budget
    cut the run short exactly when status is BUDGET_EXCEEDED."""

    __slots__ = ()


class _BudgetExceeded(Exception):
    pass


def _bits(mask: int) -> list[int]:
    """The single-bit masks of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _center_fits(row: int, spent: int, leaves: int, spare: int) -> bool:
    """The spent-center rule, for a star whose center becomes spent with
    it: row is the center's unused edges before the star, spent the
    vertices already spent, leaves the star's leaf mask.  Each unused edge
    left between two spent vertices needs one of the spare one-factor
    classes, and each holds one edge at the center."""
    return (row & spent & ~leaves).bit_count() <= spare


def _balanced(adj: list[int], centers_used: list[int], used_by: list[int],
              n: int, left: int, spare: int) -> bool:
    """The balance rule, once a star class is complete and its edges have
    left adj, with `left` star classes still to build (used_by[k] for
    k = 0..quota).  A vertex a that needs q more centers can hold n*q
    unused edges to spent vertices (it must be their center) and left - q
    to the vertices that must be a center in every class left (it must be
    their leaf); the rest needs the spare one-factor classes."""
    quota = len(used_by) - 1
    spent = used_by[quota]
    must = used_by[quota - left] if left <= quota else 0
    for row, used in zip(adj, centers_used):
        q = quota - used
        over = max((row & spent).bit_count() - n * q, 0)
        over += max((row & must).bit_count() - (left - q), 0)
        if over > spare:
            return False
    return True


def _mates(adj: list[int], used_by: list[int], centers: int) -> bool:
    """The mate rule at r = 1, once a star class is complete and its edges
    have left adj, with `centers` stars in a class (used_by[k] for
    k = 0..quota).  A vertex a that needs one more center must find
    centers - 1 mates for its last star class: vertices that are not spent
    and, if they need one more center too, have no unused edge to a or to a
    spent vertex that a still has an edge to."""
    quota = len(used_by) - 1
    spent, once = used_by[quota], used_by[quota - 1]
    unspent = ((1 << len(adj)) - 1) ^ spent
    for abit in _bits(once):
        row = adj[abit.bit_length() - 1]
        reach = row | abit
        for z in _bits(row & spent):
            reach |= adj[z.bit_length() - 1]
        if (unspent & ~(once & reach)).bit_count() < centers - 1:
            return False
    return True


def _key_gap(row: int, spare: int) -> int:
    """The key-gap rule, from row, vertex 0's unused edges at the first node
    of a star class: the keys it allows, the spare + 1 least vertices of
    row, as a mask."""
    return sum(_bits(row)[:spare + 1])


def _order_key(center: int, leaves: int) -> int:
    """Vertex 0's least neighbour in a star class, from the star (center,
    leaf mask) that holds vertex 0: the center, or the least leaf if 0 is
    the center.  No two star classes share it, and they are built in its
    increasing order."""
    return center or (leaves & -leaves).bit_length() - 1


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
    try:
        params = Params.for_order(v, n)
    except ValueError as exc:  # v is no multiple of n+1: n and v passed above
        raise ValueError(f"{exc}: no grid vertex model") from None

    full = (1 << v) - 1
    adj = [full ^ (1 << u) for u in range(v)]
    # r >= 1 (module docstring), and r + s >= 2 since s = 0 means r = v-1 >= 3.
    # Classes 1..s are the star classes.
    last = r + s - 1
    placed: list[list[tuple]] = [[] for _ in range(r + s)]
    quota = s // (n + 1)  # forced per-vertex center count
    spare = r - 1  # one-factor classes after the star classes
    centers_used = [0] * v
    # used_by[k]: the vertices that are already the center of k stars
    used_by = [full] + [0] * quota
    nodes = 0
    limit = max_nodes if max_nodes is not None else math.inf
    deadline = start + timeout if timeout is not None else math.inf

    def toggle(ci: int) -> None:
        """Take the edges of class ci out of adj, or give them back."""
        for first, others in placed[ci]:
            adj[first] ^= others
            bit = 1 << first
            while others:
                low = others & -others
                others ^= low
                adj[low.bit_length() - 1] ^= bit

    def place_star(ci: int, uncovered: int, center: int, leaves: int) -> bool:
        # The spent-center rule runs first, and the child node is counted
        # and its isolation test run here, before any bookkeeping: a child
        # that fails either costs no call and no undo.
        nonlocal nodes
        cbit = 1 << center
        k = centers_used[center]
        if k + 1 == quota and not _center_fits(adj[center], used_by[quota], leaves, spare):
            return False
        uncovered ^= cbit | leaves
        if uncovered:
            nodes += 1
            if nodes > limit:
                raise _BudgetExceeded
            if not nodes & 255 and time.perf_counter() > deadline:
                raise _BudgetExceeded
            # With n+1 left, the last star's own test below implies this one.
            if uncovered.bit_count() > n + 1:
                scan = uncovered
                while scan:
                    bit = scan & -scan
                    scan ^= bit
                    if not adj[bit.bit_length() - 1] & uncovered:
                        return False
        centers_used[center] = k + 1
        used_by[k] ^= cbit
        used_by[k + 1] |= cbit
        blocks = placed[ci]
        blocks.append((center, leaves))
        found = star_node(ci, uncovered) if uncovered else extend(ci, full)
        if found:
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
            balanced = ci >= s or (
                _balanced(adj, centers_used, used_by, n, s - ci, spare)
                and (spare or _mates(adj, used_by, params.m))
            )
            if balanced and extend(ci + 1, 0):
                return True
            toggle(ci)
            return False
        nodes += 1
        if nodes > limit:
            raise _BudgetExceeded
        if not nodes & 255 and time.perf_counter() > deadline:
            raise _BudgetExceeded
        if ci <= s:
            # The first node of a star class; place_star counts the others.
            # It needs no isolation test: each vertex has used 1 + j*n +
            # (ci-1-j) of its v-1 = r + x*n + (s-x) edges (j <= x = quota
            # centers so far), which leaves at least s + 1 - ci >= 1.
            # Vertex 0 is the branch vertex here.  Its least neighbour in
            # this class, the class's key, must exceed the key of class ci-1
            # (star-class order) and pass the key-gap rule.
            above = -2 << _order_key(*placed[ci - 1][0]) if ci > 1 else -1
            return star_node(ci, full, above & _key_gap(adj[0], spare))

        # One-factor class: branch on the uncovered vertex with the fewest
        # uncovered partners, the least such vertex on a tie.
        uncovered = full ^ covered
        best = v
        scan = uncovered
        while scan:
            bit = scan & -scan
            scan ^= bit
            count = (adj[bit.bit_length() - 1] & uncovered).bit_count()
            if count < best:
                best, low = count, bit
                if count <= 1:
                    break
        if not best:
            return False
        u = low.bit_length() - 1
        avail = adj[u] & uncovered
        blocks = placed[ci]
        while avail:
            bw = avail & -avail
            avail ^= bw
            blocks.append((u, bw))
            if extend(ci, covered | low | bw):
                return True
            blocks.pop()
        return False

    def star_node(ci: int, uncovered: int, keys: int = -1) -> bool:
        """Branch a counted star-class node that has no isolated vertex on
        its least uncovered vertex u, whose least neighbour in the star must
        be in keys.  Only a class's first node narrows keys, and it never
        holds the last star: a star class needs v >= 2(n+1)."""
        low = uncovered & -uncovered
        u = low.bit_length() - 1
        avail = adj[u] & uncovered
        # left = s + 1 - ci star classes are still open, current
        # included.  A vertex that is the center of j stars needs quota - j
        # more: with j == k = quota - left it must be a center in every open
        # class.  None has j < k (module docstring): k < 0 at the first star
        # class, and must is never a leaf, so each class makes it a center.
        k = quota - (s + 1 - ci)
        must = used_by[k] & uncovered if k >= 0 else 0
        count = uncovered.bit_count()
        if must.bit_count() > count // (n + 1):
            return False
        leaf_ok = uncovered ^ must
        spent = used_by[quota]

        if count == n + 1:
            # The last star of the class holds every uncovered vertex.
            others = uncovered ^ low
            if not spent & low and adj[u] & leaf_ok == others:
                if place_star(ci, uncovered, u, others):
                    return True
            if leaf_ok & low:
                scan = avail & ~spent
                while scan:
                    cbit = scan & -scan
                    scan ^= cbit
                    center = cbit.bit_length() - 1
                    if adj[center] & leaf_ok | cbit == uncovered:
                        if place_star(ci, uncovered, center, uncovered ^ cbit):
                            return True
            return False

        # u joins a star either as its center or as a leaf of a later center;
        # every other member of that star is > u, so each star is tried once.
        if not spent & low:
            pool = avail & leaf_ok
            if keys == -1:
                stars = leaf_sets(u, pool, n, 0)
            else:
                # u's least leaf is the key: it is chosen first, in keys, and
                # the other leaves above it, still in lexicographic order.
                stars = chain.from_iterable(leaf_sets(u, pool & -2 * least, n - 1, least)
                                            for least in _bits(pool & keys))
            for leaves in stars:
                if place_star(ci, uncovered, u, leaves):
                    return True
        if leaf_ok & low:
            for cbit in _bits(avail & ~spent & keys):
                center = cbit.bit_length() - 1
                rest = (adj[center] & leaf_ok) ^ low  # u is in both
                for leaves in leaf_sets(center, rest, n - 1, low):
                    if place_star(ci, uncovered, center, leaves):
                        return True
        return False

    def leaf_sets(center: int, pool: int, size: int, fixed: int):
        """The leaf masks of the stars at center: fixed and size more
        leaves from pool, in lexicographic order.  With r = 1, a center
        that becomes spent takes every spent vertex it still has an edge to
        (the spent-center rule at spare = 0), so those leaves are fixed."""
        if not spare and centers_used[center] + 1 == quota:
            forced = adj[center] & used_by[quota] & ~fixed
            size -= forced.bit_count()
            if size < 0 or forced & ~pool:
                return ()
            pool ^= forced
            fixed |= forced
        masks = map(sum, combinations(_bits(pool), size))
        return map(fixed.__or__, masks) if fixed else masks

    placed[0] = [(u, 2 << u) for u in range(0, v, 2)]
    toggle(0)

    witness = reason = None
    try:
        status = FOUND if extend(1, 0) else NOT_FOUND_EXHAUSTED
    except _BudgetExceeded:
        status = BUDGET_EXCEEDED
    except RecursionError:
        status = BUDGET_EXCEEDED
        reason = f"stopped at Python's recursion limit ({sys.getrecursionlimit()} frames)"
    elapsed = time.perf_counter() - start
    if status == NOT_FOUND_EXHAUSTED:
        reason = "symmetry-reduced search tree exhausted"
    elif status == FOUND:
        # A block is kept as its first vertex and a mask of the others; the
        # emitter takes it as their run of ids.
        runs = [[(first, *(bit.bit_length() - 1 for bit in _bits(others)))
                 for first, others in blocks] for blocks in placed]

        def classes(kind: str, cis) -> tuple:
            tagged = ((f"search@class={ci}", runs[ci]) for ci in cis)
            return _output(kind, range(params.m), n + 1, tagged).flat

        ones = classes(ONE_FACTOR, [0, *range(s + 1, r + s)])
        witness = Decomposition(params, ones + classes(STAR_FACTOR, range(1, s + 1)), r, s)
        report = verify(witness)
        if not report.passed:
            raise AssertionError(f"search produced an invalid witness: {report.violations}")
    return SearchOutcome(status, witness, nodes, elapsed, reason)
