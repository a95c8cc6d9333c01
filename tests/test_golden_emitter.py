"""The other two producers of factor classes are pinned byte for byte.

`tests/test_golden.py` pins the ell-knob builds (m >= 3).  These digests
pin what it does not reach: the one-factorization that `construct_pair`
builds for the (v-1, 0) pair at m in {1, 2}, and the witnesses that
`exhaustive_urd` finds, with the number of nodes each search takes.  Both
make their classes through `aurd._output`; a digest that changes means
the output changed.
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
        "824181aa53dbdafd9a9a487607290e9ad5fc8eee54f73b60032d517220c4e491",
        "eaf936727189111f3190273171125164da07738166317ee8ae5be17e3aaa8c1a",
    ),
    (6, 5): (
        "cb00c3a64bed31d7ca0263edd9ff7cae9fe34cc2a6ff88347bbefefda88b1808",
        "779acf7f42cc00f1ccb3f59412a922d19e11b2bfe49eb89ca5b9c52acd3597d1",
    ),
    (12, 5): (
        "602fa5d75174006133af46828bc86bad84c08f779a9ad8fad403b523e505308c",
        "379576033591c13dcf569da78a448c9a25a6b0aeb13c429cec54d90f45eeccb4",
    ),
    (8, 7): (
        "26648897bf42c0696396b3fa43c0b3c94f0e63f0c26c40eccc1946025accd114",
        "50e9fb84f2eb67b7bdb62b6e78c4595ecf84328a85c33b0b334be591dfbc668b",
    ),
    (16, 7): (
        "38327678d0d7e0a1b85c4d0c157213ca00a59c455e8f9dd00ec57ef284902e80",
        "dfeef8ad1f47752b25a45d9d7245a0d231bc21f38379a70f9fce5e4fd60d5882",
    ),
    (10, 9): (
        "2f6f85dc0e0836beaaccd73dfbd1dbb63a336f4715752d9e25fab8184f7eaddf",
        "560e63ed4918173c8fc85e3d4dd25393a0318e13f37dce32729a4ee6c7992506",
    ),
    (20, 9): (
        "59cef75b04b65f05bef69851bcbf66fe9354ea20659d7dee0c0dd73b4fbd5fcf",
        "5dd1fa49c7d3d32ab6e689ce83980938742e588d61cbc548e724975542ac204b",
    ),
}

# (v, n, r, s): (nodes explored, sha256 of dumps of the witness)
WITNESSES = {
    (8, 3, 1, 4): (1273, "259504a7135d3763cbcdafbd6a774a37331e46e9b40297d68224536b9e002de4"),
    (12, 3, 11, 0): (212, "e36f8257ddf0703ec7bd10d17db4a258dfeec9dd4896406bb58f1432051542dd"),
    (16, 3, 15, 0): (112, "bb223e7ade01290440e7e7e3330a5637c7051f6126f211401ea8a1c94b43ff6f"),
    (12, 5, 11, 0): (212, "93225676a8f03d7c4db948c0056a1592b93e04b8f944346bc59bba1533d81a98"),
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
