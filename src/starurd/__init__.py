"""Uniformly resolvable decompositions of K_v into perfect matchings and
odd n-star factors: admissibility, explicit constructions for v = m(n+1),
an independent verifier, and an exhaustive small-case search oracle.

The construction stages (seeds, blowup, aurd, filling) are importable
from their own modules.  The names below, and those modules, are
imported on first use (PEP 562), so that importing one layer, as each
`starurd` command does, does not import the others.
"""

from importlib import import_module

_EXPORTS = {
    "admissibility": (
        "ADMISSIBLE_UNRESOLVED",
        "CONSTRUCTIVE",
        "INADMISSIBLE",
        "AdmissiblePair",
        "CoverageVerdict",
        "admissible_pairs",
        "check_pair",
        "constructive_pairs",
    ),
    "assembler": ("BuildRequest", "PairNotConstructive", "construct", "construct_pair"),
    "model": (
        "ONE_FACTOR",
        "STAR_FACTOR",
        "ConstructionError",
        "Decomposition",
        "Edge",
        "FactorClass",
        "Params",
        "StarBlock",
        "VerificationReport",
        "Vertex",
    ),
    "search": ("BUDGET_EXCEEDED", "FOUND", "NOT_FOUND_EXHAUSTED", "SearchOutcome", "exhaustive_urd"),
    "verifier": ("verify",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the layers that were package attributes while every layer was imported here
_LAYERS = ("admissibility", "assembler", "aurd", "blowup", "filling", "model", "search",
           "seeds", "verifier")

__all__ = [*_HOME, *_LAYERS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
