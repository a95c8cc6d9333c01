"""Uniformly resolvable decompositions of K_v into perfect matchings and
odd n-star factors: admissibility, explicit constructions for v = m(n+1),
an independent verifier, and an exhaustive small-case search oracle.

The construction stages (seeds, blowup, aurd, filling) are importable
from their own modules."""

from .admissibility import (
    ADMISSIBLE_UNRESOLVED,
    CONSTRUCTIVE,
    INADMISSIBLE,
    AdmissiblePair,
    CoverageVerdict,
    admissible_pairs,
    check_pair,
    constructive_pairs,
)
from .assembler import BuildRequest, PairNotConstructive, construct, construct_pair
from .model import (
    ONE_FACTOR,
    STAR_FACTOR,
    ConstructionError,
    Decomposition,
    Edge,
    FactorClass,
    K2Block,
    Params,
    StarBlock,
    VerificationReport,
    Vertex,
)
from .search import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND_EXHAUSTED,
    SearchOutcome,
    exhaustive_urd,
)
from .verifier import verify

__version__ = "0.1.0"
