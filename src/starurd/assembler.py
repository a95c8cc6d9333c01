"""Top-level assembly: a verified decomposition of K_v from the pieces.

K_v is carved as: a Hamiltonian decomposition of K_m, blown up by n+1,
plus the m inner complete graphs.  Each blown-up cycle contributes either
2n one-factors (matching route) or n+1 star factors (star route); for even
m the blown-up leftover matching contributes n more one-factors; the
aligned-plus-inner remainder contributes a final m+n-1 one-factors.

The knob ell = number of cycles sent down the matching route gives

    odd  m: r = 2n*ell + m+n-1,   s = (n+1) * ((m-1)/2 - ell)
    even m: r = 2n*ell + m+2n-1,  s = (n+1) * ((m-2)/2 - ell)

K_1 and K_2 have no cycle, so there ell = 0 gives the v-1 one-factors of
K_v.  The first ell cycles in the deterministic seed order take the matching
route; output classes are ordered one-factors first, then star factors.
Equal requests produce structurally identical decompositions.
"""

from collections import namedtuple

from . import admissibility
from .aurd import matching_aurd, star_aurd, weighted_one_factor_aurd
from .blowup import WeightedCycle, WeightedOneFactor
from .filling import fill_even, fill_odd
from .model import Decomposition, Params
from .seeds import hamiltonian_decomposition


class PairNotConstructive(ValueError):
    """A requested (r, s) pair the engine cannot build, with the verdict."""

    def __init__(self, verdict: admissibility.CoverageVerdict):
        super().__init__(f"{verdict.status}: {verdict.reason}")
        self.verdict = verdict


class BuildRequest(namedtuple("BuildRequest", "v n ell")):
    """The ell-knob construction of K_v, v = m(n+1) with m >= 1."""

    __slots__ = ()

    def __new__(cls, v: int, n: int, ell: int):
        params = Params.for_order(v, n)
        t, _ = admissibility.construction_range(params.m, n)
        if not 0 <= ell <= t:
            raise ValueError(f"ell={ell} out of range 0..{t} for m={params.m}")
        return tuple.__new__(cls, (v, n, ell))


def construct(req: BuildRequest) -> Decomposition:
    """Build the decomposition of K_v for the requested ell."""
    params = Params.for_order(req.v, req.n)
    m, n, w = params.m, params.n, params.n + 1
    seed = hamiltonian_decomposition(m)

    one_classes = []
    star_classes = []
    for index, cycle in enumerate(seed.cycles):
        blown = WeightedCycle(cycle, w)
        if index < req.ell:
            one_classes.extend(matching_aurd(blown).flat)
        else:
            star_classes.extend(star_aurd(blown).flat)

    if m % 2 == 0:
        blown = WeightedOneFactor(seed.leftover_matching, w)
        one_classes.extend(weighted_one_factor_aurd(blown).flat)
        fill = fill_even(m, n)
    else:
        fill = fill_odd(m, n)
    one_classes.extend(fill.flat)

    t, threshold = admissibility.construction_range(m, n)
    expected_r = 2 * n * req.ell + threshold
    expected_s = w * (t - req.ell)
    if len(one_classes) != expected_r or len(star_classes) != expected_s:
        raise AssertionError(
            f"assembled (r,s)=({len(one_classes)},{len(star_classes)}), "
            f"expected ({expected_r},{expected_s})"
        )
    classes = tuple(one_classes) + tuple(star_classes)
    return Decomposition(params, classes, expected_r, expected_s)


def construct_pair(v: int, n: int, r: int, s: int) -> Decomposition:
    """Build the decomposition realizing (r, s), if the engine covers it."""
    verdict = admissibility.check_pair(v, n, r, s)
    if verdict.status != admissibility.CONSTRUCTIVE:
        raise PairNotConstructive(verdict)
    built = construct(BuildRequest(v, n, verdict.ell))
    if (built.r, built.s) != (r, s):
        raise AssertionError(
            f"built (r,s)=({built.r},{built.s}) but requested ({r},{s})"
        )
    return built
