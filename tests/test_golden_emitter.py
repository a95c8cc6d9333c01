"""The builds and witnesses outside the acceptance grid, pinned byte for byte.

`tests/test_golden.py` pins the ell-knob builds of the grid (m >= 3).
These digests pin what it does not reach: the (v-1, 0) pair at m in
{1, 2}, which the same route builds at ell = 0 as the v-1 one-factors of
K_v, and the witnesses that `exhaustive_urd` finds, with the number of
nodes each search takes.  Both make their classes through `aurd._output`;
a digest that changes means the output changed.  The rows but (4, 3) of
ONE_FACTORIZATIONS were re-pinned when that route replaced the round-robin
one-factorization of K_v at m in {1, 2}; (4, 3) came out the same.
The WITNESSES rows (12, 3, 11, 0), (12, 5, 11, 0) and (16, 3, 15, 0) were
re-pinned when the search's one-factor classes began to branch on their
most constrained vertex.  The (8, 3, 1, 4) row went from 1273 nodes to 216,
with the same witness, when the star classes gained their spent-center,
balance and order rules, and from 216 to 14, with the same witness again,
when they gained the key-gap and mate rules.
"""

import hashlib

import pytest

from starurd import serialize
from starurd.assembler import construct_pair
from starurd.search import FOUND, exhaustive_urd

# (v, n): (sha256 of dumps, sha256 of to_text) of construct_pair(v, n, v-1, 0)
ONE_FACTORIZATIONS = {
    (4, 3): (
        "1387e6c9d297378742c46b89d726d91da7bbbd36d431e9c7ff93eac6990a7b6d",
        "1ee1f1fdbde9524e4ef0683e6aa1a320455f8b4344bf4fbb137828c22f1f9905",
    ),
    (8, 3): (
        "5e811cb030a001854d62d8bbcee9e560a2fd9d85967e43ee39cc0c8c6493c60d",
        "bc0636503eadca07f9c215fc2615115c268f15a3950bd183a2be2724deae434e",
    ),
    (6, 5): (
        "38aebe9b14c9e902794191aa4af5dfe1c7d3aeabf9bff824c66b1e68896ef988",
        "4280082eba5a1ad348ba23327ce1086ed24706d2c1c1924566e0e0bea24fecf0",
    ),
    (12, 5): (
        "9d8a2eac7301d29803dad680008ee39adadaf3782c1810dcbdff68c9a299e348",
        "e59b33726eb389d64237d6ff3c805e5a8d8568588bbcb2f6f090b367cb891f9c",
    ),
    (8, 7): (
        "c485e4d95eb798254e796efc94dade7599018eac3f0b8b75efdc1893c14f1a67",
        "6e6a5b97b832228aaf415b916c4d4823d43c2f0b572dd5033ef04ee7479150b7",
    ),
    (16, 7): (
        "0930b36a0714165a9064b7979c4ca15b998eb48eddcbcd492f01373483b7d823",
        "4434052c4ad92939fb6e3a67ce808743af270b22f7c69637a8d4fe94d3eaf702",
    ),
    (10, 9): (
        "e2f8fcd70dbf7c8f907dcb1861e3fe7dc3aede64de860ed77ced9b72fd248bf1",
        "cd3d12c077e1e648f5e07833da5f1f987cf6d49c52e68b280738d120fdc1dd32",
    ),
    (20, 9): (
        "0b91a04cbc10ce63230af9788f99221575c1476320b1fcd17379c7bfdbf14385",
        "640e7db6ac8afdd3b29aa3ba0d5c9f2d3096e97c902369b05a429c2fdfda05bd",
    ),
}

# (v, n, r, s): (nodes explored, sha256 of dumps of the witness)
WITNESSES = {
    (8, 3, 1, 4): (14, "259504a7135d3763cbcdafbd6a774a37331e46e9b40297d68224536b9e002de4"),
    (12, 3, 11, 0): (63, "11e8c2b2de926bb342951d147d1e4bf1e86ec36e1d7780159410a64497aabdde"),
    (16, 3, 15, 0): (114, "89d933453a9154649097cec00200af60de836a6c3cdea0925b2bb55686d4fbd7"),
    (12, 5, 11, 0): (63, "73e9840baa27e7ca66f7cabf094d496e1ce443cf3dbb969dbe439d8e85b577e8"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("v,n", sorted(ONE_FACTORIZATIONS))
def test_one_factorization_output_unchanged(v, n):
    d = construct_pair(v, n, v - 1, 0)
    assert (_sha256(serialize.dumps(d)), _sha256(serialize.to_text(d))) == ONE_FACTORIZATIONS[v, n]


@pytest.mark.parametrize("v,n,r,s", sorted(WITNESSES))
def test_search_witness_unchanged(v, n, r, s):
    out = exhaustive_urd(v, n, r, s)
    assert out.status == FOUND
    assert (out.nodes_explored, _sha256(serialize.dumps(out.witness))) == WITNESSES[v, n, r, s]
