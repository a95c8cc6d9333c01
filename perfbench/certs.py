"""Certificate helpers of the benchmark: canonical digest, seeded mutator,
hostile claim.

They work on the JSON object of a certificate (schema version "1"), never
on the package's own types, so a change to the package's model cannot
change what they compute.
"""

from __future__ import annotations

import hashlib
import json
import random

ONE_FACTOR = "one_factor"
STAR_FACTOR = "star_factor"

# Each mutation of a valid certificate, with the violation codes the
# verifier must then report.  The sets follow from the mutation alone:
# a valid certificate covers every edge of K_v exactly once.
MUTATIONS = {
    # swap the second endpoints of two edges in different one-factor
    # classes, on four distinct vertices
    "endpoint_move": {"NOT_DISJOINT", "NOT_SPANNING", "DUPLICATE_EDGE", "MISSING_EDGE"},
    # swap one leaf between two stars of a star class
    "leaf_swap": {"DUPLICATE_EDGE", "MISSING_EDGE"},
    # delete one block of a class
    "drop_block": {"NOT_SPANNING", "COUNT_MISMATCH", "MISSING_EDGE"},
    # move an edge block from one one-factor class to another
    "move_block": {"NOT_SPANNING", "NOT_DISJOINT", "COUNT_MISMATCH"},
    # relabel a class as the other kind
    "flip_kind": {"WRONG_KIND", "COUNT_MISMATCH"},
    # claim one more one-factor than the classes hold
    "claim_r": {"PARAM_MISMATCH", "COUNT_MISMATCH"},
    # replace an edge endpoint by a vertex outside Z_m x Z_{n+1}
    "foreign_vertex": {"NOT_SPANNING", "EXTRA_EDGE", "MISSING_EDGE"},
}


def digest(cert: dict) -> str:
    """sha256 of the certificate's content, independent of its layout.

    Vertices become flat ids base*(n+1)+level.  An edge block is its sorted
    pair, a star block its center followed by its sorted leaves; blocks are
    sorted within a class and classes sorted within their kind.  Key order,
    block and class order and keys other than v, n, kind and blocks do not
    change the digest.
    """
    w = cert["n"] + 1
    kinds: dict[str, list] = {}
    for cls in cert["classes"]:
        blocks = []
        for block in cls["blocks"]:
            if isinstance(block, dict):
                center = block["center"][0] * w + block["center"][1]
                blocks.append([center, *sorted(b * w + l for b, l in block["leaves"])])
            else:
                blocks.append(sorted(b * w + l for b, l in block))
        kinds.setdefault(cls["kind"], []).append(sorted(blocks))
    canon = {
        "v": cert["v"],
        "n": cert["n"],
        "classes": {kind: sorted(classes) for kind, classes in kinds.items()},
    }
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def hostile_claim(v: int = 800, n: int = 15) -> dict:
    """A tiny certificate that claims a large order and holds no class."""
    return {"version": "1", "v": v, "n": n, "m": v // (n + 1), "r": v - 1, "s": 0, "classes": []}


def _indices(cert: dict, kind: str) -> list[int]:
    return [i for i, cls in enumerate(cert["classes"]) if cls["kind"] == kind]


def mutate(cert: dict, kind: str, rng: random.Random) -> None:
    """Apply one mutation of the given kind to a valid certificate, in place."""
    classes = cert["classes"]
    ones = _indices(cert, ONE_FACTOR)
    if kind == "endpoint_move":
        while True:
            i, j = rng.sample(ones, 2)
            bi = rng.randrange(len(classes[i]["blocks"]))
            bj = rng.randrange(len(classes[j]["blocks"]))
            (a, b), (x, y) = classes[i]["blocks"][bi], classes[j]["blocks"][bj]
            if len({tuple(a), tuple(b), tuple(x), tuple(y)}) == 4:
                break
        classes[i]["blocks"][bi] = [a, y]
        classes[j]["blocks"][bj] = [x, b]
    elif kind == "leaf_swap":
        blocks = classes[rng.choice(_indices(cert, STAR_FACTOR))]["blocks"]
        p, q = rng.sample(range(len(blocks)), 2)
        lp = rng.randrange(len(blocks[p]["leaves"]))
        lq = rng.randrange(len(blocks[q]["leaves"]))
        leaves_p, leaves_q = blocks[p]["leaves"], blocks[q]["leaves"]
        leaves_p[lp], leaves_q[lq] = leaves_q[lq], leaves_p[lp]
    elif kind == "drop_block":
        blocks = rng.choice(classes)["blocks"]
        del blocks[rng.randrange(len(blocks))]
    elif kind == "move_block":
        i, j = rng.sample(ones, 2)
        blocks = classes[i]["blocks"]
        classes[j]["blocks"].append(blocks.pop(rng.randrange(len(blocks))))
    elif kind == "flip_kind":
        cls = rng.choice(classes)
        cls["kind"] = STAR_FACTOR if cls["kind"] == ONE_FACTOR else ONE_FACTOR
    elif kind == "claim_r":
        cert["r"] += 1
    elif kind == "foreign_vertex":
        block = rng.choice(classes[rng.choice(ones)]["blocks"])
        block[rng.randrange(2)] = [cert["m"], rng.randrange(cert["n"] + 1)]
    else:
        raise ValueError(f"unknown mutation {kind!r}")
