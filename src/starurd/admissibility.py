"""Admissible (r, s) pairs and which of them the constructions reach.

For a decomposition of K_v into r one-factors and s n-star factors the
counting identity (n+1)r + 2ns = (n+1)(v-1) forces s = (n+1)x and
r = v-1-2nx for some integer x with 0 <= x <= floor((v-1)/(2n)); moreover
r > 0 needs v even and s > 0 needs (n+1) | v.  The x of an admissible
pair doubles as the number of star classes in which any fixed vertex is a
center, which the verifier re-checks per vertex.

The construction engine reaches every pair with v = m(n+1), m >= 3 and
r >= threshold = m+n-1 (odd m) resp. m+2n-1 (even m), as r = 2n*ell +
threshold: r - threshold is n(m-1-2x) resp. n(m-2-2x), a multiple of 2n
since m-1 resp. m-2 is even.  For m in {1, 2} it reaches only (v-1, 0),
the one-factorization of K_v, which has no ell.  Pairs outside that range
get the verdict ADMISSIBLE_UNRESOLVED, which deliberately does not claim
nonexistence; the search module exists to probe such cases.
"""

from __future__ import annotations

from collections import namedtuple

from .model import _require_odd_n

CONSTRUCTIVE = "CONSTRUCTIVE"
ADMISSIBLE_UNRESOLVED = "ADMISSIBLE_UNRESOLVED"
INADMISSIBLE = "INADMISSIBLE"


class AdmissiblePair(namedtuple("AdmissiblePair", "r s x")):
    """An (r, s) pair passing the necessary conditions, with its witness x."""

    __slots__ = ()


class CoverageVerdict(namedtuple("CoverageVerdict", "status reason ell", defaults=(None,))):
    __slots__ = ()


def _require_args(v: int, n: int) -> None:
    _require_odd_n(n)
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")


def construction_range(m: int, n: int) -> tuple[int, int]:
    """(t, threshold) of the constructions on K_{m(n+1)}: ell runs over
    0..t and realizes r = 2n*ell + threshold, s = (n+1)(t - ell)."""
    return (m - 1) // 2, (m + n - 1 if m % 2 == 1 else m + 2 * n - 1)


def admissible_pairs(v: int, n: int) -> list[AdmissiblePair]:
    """All (r, s) pairs passing the necessary conditions, in increasing x."""
    _require_args(v, n)
    xs = range((v - 1) // (2 * n) + 1)
    pairs = (AdmissiblePair(v - 1 - 2 * n * x, (n + 1) * x, x) for x in xs)
    return [p for p in pairs if inadmissibility_reason(v, n, p.r, p.s) is None]


def inadmissibility_reason(v: int, n: int, r: int, s: int) -> str | None:
    """Why (r, s) fails the necessary conditions, or None if it passes."""
    _require_args(v, n)
    if r < 0 or s < 0:
        return f"negative class count (r={r}, s={s})"
    if (n + 1) * r + 2 * n * s != (n + 1) * (v - 1):
        return (
            f"(n+1)r + 2ns = {(n + 1) * r + 2 * n * s} but "
            f"(n+1)(v-1) = {(n + 1) * (v - 1)}"
        )
    if s % (n + 1) != 0:
        return f"s={s} is not a multiple of n+1={n + 1}"
    if r > 0 and v % 2 == 1:
        return f"r={r} > 0 requires even v, got v={v}"
    if s > 0 and v % (n + 1) != 0:
        return f"s={s} > 0 requires (n+1) | v, got v={v}"
    return None


def check_pair(v: int, n: int, r: int, s: int) -> CoverageVerdict:
    """Classify (r, s): impossible, covered by the constructions, or open."""
    reason = inadmissibility_reason(v, n, r, s)
    if reason is not None:
        return CoverageVerdict(INADMISSIBLE, reason)
    if v % (n + 1) != 0:
        return CoverageVerdict(
            ADMISSIBLE_UNRESOLVED,
            f"v={v} is not a multiple of n+1={n + 1}; constructions need v = m(n+1)",
        )
    m = v // (n + 1)
    if m < 3:
        if s == 0:
            return CoverageVerdict(
                CONSTRUCTIVE, f"r = v-1 with m={m}: the one-factorization of K_{v}"
            )
        return CoverageVerdict(
            ADMISSIBLE_UNRESOLVED,
            f"m={m} < 3: orders n+1 and 2(n+1) are outside the constructions' reach",
        )
    _, threshold = construction_range(m, n)
    if r < threshold:
        return CoverageVerdict(
            ADMISSIBLE_UNRESOLVED,
            f"r={r} below the construction minimum {threshold} for m={m}",
        )
    ell = (r - threshold) // (2 * n)
    return CoverageVerdict(
        CONSTRUCTIVE, f"r = 2n*{ell} + {threshold} with m={m}", ell=ell
    )


def constructive_pairs(v: int, n: int) -> list[tuple[AdmissiblePair, int]]:
    """Every pair the ell-knob constructions realize on K_v, with its ell.

    One entry per ell in 0..t of `construction_range`, in increasing ell.
    Needs m >= 3: the one-factorization that check_pair reports for
    m in {1, 2} has no ell and is not listed.
    """
    _require_args(v, n)
    if v % (n + 1) != 0:
        raise ValueError(f"v={v} is not a multiple of n+1={n + 1}")
    m = v // (n + 1)
    if m < 3:
        raise ValueError(f"need m >= 3, got m={m}")
    t, threshold = construction_range(m, n)
    out = []
    for ell in range(t + 1):
        r = 2 * n * ell + threshold
        s = (n + 1) * (t - ell)
        out.append((AdmissiblePair(r, s, t - ell), ell))
    return out
