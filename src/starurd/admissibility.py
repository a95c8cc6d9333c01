"""Admissible (r, s) pairs and which of them the constructions reach.

For a decomposition of K_v into r one-factors and s n-star factors the
counting identity (n+1)r + 2ns = (n+1)(v-1) forces s = (n+1)x and
r = v-1-2nx for some integer x with 0 <= x <= floor((v-1)/(2n)); moreover
r > 0 needs v even and s > 0 needs (n+1) | v.  The x of an admissible
pair doubles as the number of star classes in which any fixed vertex is a
center, which the verifier re-checks per vertex.

The construction engine only reaches pairs with v = m(n+1), m >= 3 and
r >= m+n-1 (odd m) resp. r >= m+2n-1 (even m): exactly the pairs of the
form r = 2n*ell + threshold.  Pairs outside that range get the verdict
ADMISSIBLE_UNRESOLVED, which deliberately does not claim nonexistence;
the search module exists to probe such cases.
"""

from __future__ import annotations

from dataclasses import dataclass

CONSTRUCTIVE = "CONSTRUCTIVE"
ADMISSIBLE_UNRESOLVED = "ADMISSIBLE_UNRESOLVED"
INADMISSIBLE = "INADMISSIBLE"


@dataclass(frozen=True)
class AdmissiblePair:
    """An (r, s) pair passing the necessary conditions, with its witness x."""

    r: int
    s: int
    x: int


@dataclass(frozen=True)
class CoverageVerdict:
    status: str
    reason: str
    ell: int | None = None


def _require_args(v: int, n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")


def construction_range(m: int, n: int) -> tuple[int, int]:
    """(t, threshold) of the constructions on K_{m(n+1)}: ell runs over
    0..t and realizes r = 2n*ell + threshold, s = (n+1)(t - ell)."""
    return (m - 1) // 2, (m + n - 1 if m % 2 == 1 else m + 2 * n - 1)


def admissible_pairs(v: int, n: int) -> list[AdmissiblePair]:
    """All (r, s) pairs passing the necessary conditions, in increasing x."""
    _require_args(v, n)
    out = []
    for x in range(0, (v - 1) // (2 * n) + 1):
        r = v - 1 - 2 * n * x
        s = (n + 1) * x
        if r > 0 and v % 2 == 1:
            continue
        if s > 0 and v % (n + 1) != 0:
            continue
        out.append(AdmissiblePair(r, s, x))
    return out


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
    if (r - threshold) % (2 * n) != 0:
        return CoverageVerdict(
            ADMISSIBLE_UNRESOLVED,
            f"r={r} is not {threshold} plus a multiple of 2n",
        )
    ell = (r - threshold) // (2 * n)
    return CoverageVerdict(
        CONSTRUCTIVE, f"r = 2n*{ell} + {threshold} with m={m}", ell=ell
    )


def constructive_pairs(v: int, n: int) -> list[tuple[AdmissiblePair, int]]:
    """Every pair the construction engine realizes on K_v, with its ell.

    One entry per ell in 0..t of `construction_range`, in increasing ell.
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
