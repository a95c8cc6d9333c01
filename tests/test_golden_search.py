"""The search oracle's outcomes are pinned: status, nodes and witness.

One digest covers every admissible pair (r, s) at m >= 2, v <= 24 and odd
n in 3..11, searched with a budget of 20000 nodes: 22 end FOUND and 8
BUDGET_EXCEEDED.  Each row is (v, n, r, s, status, nodes, sha256 of
`dumps` of the witness or None).  A per-node rewrite of the search must
walk the same tree, so the digest, the node counts and the witnesses must
not change; a budgeted row pins only that the walk did not end within the
budget.  The budget boundaries are pinned too: where `max_nodes` and
`timeout` stop the walk.

The rows were re-pinned when one-factor classes began to branch on their
most constrained uncovered vertex instead of the least one: that changed
the tree of every search with a one-factor class past the canonical one.
They were re-pinned again when the star classes gained the spent-center
rule, the balance rule and the star-class order (the `search` module
docstring): only the URD(8; 1, 4) row moved, from 1273 nodes to 216,
with the same witness, and SOME_NODE_COUNTS held.  They were re-pinned
once more when the star classes gained the key-gap rule and, at r = 1,
the mate rule: URD(8; 1, 4) went from 216 nodes to 14, with the same
witness; (16,3,3,8), (20,3,1,12), (12,5,1,6) and (16,7,1,8) went from
BUDGET_EXCEEDED to FOUND (18/12 to 22/8), and SOME_NODE_COUNTS held.
"""

import hashlib

import pytest

from starurd import serialize
from starurd.admissibility import admissible_pairs
from starurd.search import BUDGET_EXCEEDED, FOUND, exhaustive_urd

OUTCOMES_SHA256 = "3f4bb427ee1b6670c5f11572a35d4738ef908ce077a75281b570133c73b2a1f7"

# (v, n, r, s): nodes of rows that the digest also covers, named for reading
SOME_NODE_COUNTS = {
    (16, 3, 9, 4): 82,
    (20, 3, 13, 4): 454,
    (18, 5, 7, 6): 4750,
    (20, 3, 19, 0): 200,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcomes() -> list[tuple]:
    rows = []
    for n in range(3, 12, 2):
        for v in range(2 * (n + 1), 25, n + 1):
            for p in admissible_pairs(v, n):
                out = exhaustive_urd(v, n, p.r, p.s, max_nodes=20000)
                witness = _sha256(serialize.dumps(out.witness)) if out.witness else None
                rows.append((v, n, p.r, p.s, out.status, out.nodes_explored, witness))
    return rows


def test_search_outcomes_unchanged():
    rows = _outcomes()
    statuses = [row[4] for row in rows]
    assert (len(rows), statuses.count(FOUND), statuses.count(BUDGET_EXCEEDED)) == (30, 22, 8)
    nodes = {row[:4]: row[5] for row in rows}
    assert {key: nodes[key] for key in SOME_NODE_COUNTS} == SOME_NODE_COUNTS
    assert _sha256(repr(rows)) == OUTCOMES_SHA256


# (v, n, r, s): (nodes explored, sha256 of dumps of the witness).
# (24,3,17,4) is a found instance of the benchmark's search workload;
# (24,3,11,8) has a center quota of 2, and the must-center prune cuts its
# tree (the budgeted rows above cannot show that).  (20,3,1,12), which no
# construction route reaches, and URD(16; 3, 8) are found only with the
# star-class rules: before them the first stopped at a budget of 5,000,000
# nodes and the second took 2,941,220; before the key-gap and mate rules
# they took 30,972 and 22,453 nodes, with the same witnesses.
# (12,5,1,6) and (16,7,1,8), which no construction route reaches either,
# are found only with the key-gap and mate rules: before them the first
# took 1,684,336 nodes and the second stopped at a budget of 3,000,000.
LONG_SEARCHES = {
    (24, 3, 17, 4): (412, "771dd750b3c53eacf49a60d7a60bbb1e85c463fb0702b3410f2687936e32d7ec"),
    (24, 3, 11, 8): (823132, "017ed033af7337d5ce2d2e329b5dee20d947e112e28a381cec4830e06a656d05"),
    (20, 3, 1, 12): (8451, "cd903c588d072886196951f2cc77fd5ed83059e7605f994e262f6e861a52c82e"),
    (16, 3, 3, 8): (12511, "d01434c0b9aad2c0286ccf0ff08b46bd0d5b24d754bff88c7445f392eaaf38d0"),
    (12, 5, 1, 6): (114, "28084ba25c5ddfe3ea40d118c8619159c2e780dd0fe6036aa1e96f5e88d081f5"),
    (16, 7, 1, 8): (1482, "9d0d8e898f2d31eb57274735fb6b3a05326ba17970c70df25202d177772ab21d"),
}


@pytest.mark.parametrize("v,n,r,s", sorted(LONG_SEARCHES))
def test_long_search_witness_unchanged(v, n, r, s):
    out = exhaustive_urd(v, n, r, s)
    assert out.status == FOUND
    assert (out.nodes_explored, _sha256(serialize.dumps(out.witness))) == LONG_SEARCHES[v, n, r, s]


def test_node_budget_boundaries():
    # URD(8; 1, 4) is found at node 14: a budget of one node less stops
    # on that node, and a budget of 0 stops on the first
    for budget, status, nodes in [(0, BUDGET_EXCEEDED, 1), (13, BUDGET_EXCEEDED, 14),
                                  (14, FOUND, 14)]:
        out = exhaustive_urd(8, 3, 1, 4, max_nodes=budget)
        assert (out.status, out.nodes_explored) == (status, nodes), budget


def test_zero_timeout_on_a_star_heavy_instance():
    # the clock is read every 256 nodes, also deep inside the star classes
    out = exhaustive_urd(20, 3, 1, 12, timeout=0)
    assert (out.status, out.nodes_explored) == (BUDGET_EXCEEDED, 256)
