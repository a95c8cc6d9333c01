"""A fixed pure-Python job that tracks the host's current speed.

The benchmark runs it as a process before every CLI operation and scales
its end-to-end times by REFERENCE_S / (median wall of these runs).  It
shares no code with starurd, so no change to the package can move it; it
does the same kinds of work as the package (interpreter start-up, frozen
dataclasses hashed into sets, sorting, JSON, recursive bit operations),
so a host that runs the package slower runs it slower too.
"""

import json
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True, order=True)
class Point:
    base: int
    level: int


def work() -> int:
    points = [Point(i // 16, i % 16) for i in range(160)]
    pairs = {(a, b) for a, b in combinations(points, 2)}
    first = sorted(pairs)[:3000]
    text = json.dumps([[a.base, a.level, b.base, b.level] for a, b in first])

    def count(mask: int, depth: int) -> int:
        if depth == 0:
            return 1
        total, rest = 0, mask
        while rest:
            low = rest & -rest
            rest ^= low
            total += count(mask ^ low, depth - 1)
        return total

    return len(pairs) + len(json.loads(text)) + count((1 << 9) - 1, 5)


if __name__ == "__main__":
    for _ in range(2):
        work()
