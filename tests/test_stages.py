"""Each construction stage's output is pinned, not just whole builds.

One sha256 covers `repr((tag, class))` of every class that the AURD and
filling stages produce over m in 3..12 and odd n in 3..15 (first seed
cycle, seed leftover matching for even m), plus base cycles and a base
matching that are not in identity order, which whole builds never reach.
`repr` of a class names every block and vertex in its stored order, so a
change of tag, class order, block order or leaf order changes the digest.
"""

import hashlib

from starurd.aurd import matching_aurd, star_aurd, weighted_one_factor_aurd
from starurd.blowup import WeightedCycle, WeightedOneFactor
from starurd.filling import fill_even, fill_odd
from starurd.seeds import hamiltonian_decomposition

DIGEST = "abbffd4c8d5f5365482ea0f3c5205cd69db33434e5ef2c181940438d8945f06c"


def _stage_outputs():
    for m in range(3, 13):
        seed = hamiltonian_decomposition(m)
        for n in range(3, 16, 2):
            w = n + 1
            cycle = WeightedCycle(seed.cycles[0], w)
            yield f"matching_aurd {m} {n}", matching_aurd(cycle)
            yield f"star_aurd {m} {n}", star_aurd(cycle)
            if m % 2:
                yield f"fill_odd {m} {n}", fill_odd(m, n)
            else:
                matching = WeightedOneFactor(seed.leftover_matching, w)
                yield f"weighted_one_factor_aurd {m} {n}", weighted_one_factor_aurd(matching)
                yield f"fill_even {m} {n}", fill_even(m, n)
    for base, w in (((4, 0, 3, 1, 2), 8), ((5, 2, 0, 1, 4, 3), 6)):
        yield f"matching_aurd {base} {w}", matching_aurd(WeightedCycle(base, w))
        yield f"star_aurd {base} {w}", star_aurd(WeightedCycle(base, w))
    matching = ((0, 5), (3, 1), (4, 2))
    yield f"weighted_one_factor_aurd {matching} 8", weighted_one_factor_aurd(
        WeightedOneFactor(matching, 8)
    )


def test_stage_outputs_unchanged():
    h = hashlib.sha256()
    for stage, out in _stage_outputs():
        h.update(stage.encode())
        for item in zip(out.sources, out.classes):
            h.update(repr(item).encode())
    assert h.hexdigest() == DIGEST
