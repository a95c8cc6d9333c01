"""Decomposition file formats: versioned JSON plus a human-readable listing.

JSON schema (version "1"):

    {
      "version": "1",
      "v": 12, "n": 3, "m": 3, "r": 5, "s": 4,
      "classes": [
        {"kind": "one_factor",
         "blocks": [[[0, 0], [1, 1]], ...]},
        {"kind": "star_factor",
         "blocks": [{"center": [0, 0], "leaves": [[1, 1], [1, 2], [1, 3]]}, ...]}
      ]
    }

Vertices are [base, level] pairs of nonnegative integers.  Malformed input
raises SchemaError; semantically wrong but well-formed certificates parse
fine and are left for the verifier to flag.
"""

from __future__ import annotations

import json

from .model import (
    KINDS,
    Decomposition,
    Edge,
    FactorClass,
    K2Block,
    Params,
    StarBlock,
    Vertex,
)

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    pass


def to_dict(d: Decomposition) -> dict:
    classes = []
    for fc in d.classes:
        blocks = []
        for b in fc.blocks:
            if isinstance(b, K2Block):
                blocks.append(
                    [
                        [b.edge.u.base, b.edge.u.level],
                        [b.edge.v.base, b.edge.v.level],
                    ]
                )
            else:
                blocks.append(
                    {
                        "center": [b.center.base, b.center.level],
                        "leaves": [[leaf.base, leaf.level] for leaf in b.leaves],
                    }
                )
        classes.append({"kind": fc.kind, "blocks": blocks})
    return {
        "version": SCHEMA_VERSION,
        "v": d.params.v,
        "n": d.params.n,
        "m": d.params.m,
        "r": d.r,
        "s": d.s,
        "classes": classes,
    }


def _int(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def _vertex(obj, what: str, interned: dict[tuple[int, int], Vertex]) -> Vertex:
    """The Vertex a [base, level] pair names.

    A well-formed pair of nonnegative ints is looked up in interned, so one
    certificate holds one Vertex per pair; anything else goes through the
    full validation and raises SchemaError where it fails.
    """
    if type(obj) is list and len(obj) == 2:
        base, level = obj
        if type(base) is int and type(level) is int and base >= 0 and level >= 0:
            vertex = interned.get((base, level))
            if vertex is None:
                vertex = interned[base, level] = Vertex(base, level)
            return vertex
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"{what} must be a [base, level] pair, got {obj!r}")
    base, level = (_int(x, what) for x in obj)
    if base < 0 or level < 0:
        raise SchemaError(f"{what} has negative coordinates: {obj!r}")
    return Vertex(base, level)


def _block(obj, what: str, interned: dict[tuple[int, int], Vertex]):
    try:
        if isinstance(obj, (list, tuple)):
            if len(obj) != 2:
                raise SchemaError(f"{what}: edge block needs two vertices")
            u, w = _vertex(obj[0], what, interned), _vertex(obj[1], what, interned)
            return K2Block(Edge(u, w))
        if isinstance(obj, dict):
            if set(obj) != {"center", "leaves"}:
                raise SchemaError(f"{what}: star block needs center and leaves")
            if not isinstance(obj["leaves"], list) or not obj["leaves"]:
                raise SchemaError(f"{what}: leaves must be a nonempty list")
            return StarBlock(
                _vertex(obj["center"], what, interned),
                tuple(_vertex(leaf, what, interned) for leaf in obj["leaves"]),
            )
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    raise SchemaError(f"{what}: unrecognized block shape {obj!r}")


def from_dict(obj) -> Decomposition:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    missing = {"version", "v", "n", "m", "r", "s", "classes"} - set(obj)
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    if obj["version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported version {obj['version']!r}")
    v, n, m = (_int(obj[k], k) for k in ("v", "n", "m"))
    r, s = _int(obj["r"], "r"), _int(obj["s"], "s")
    try:
        params = Params(v, n, m)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if not isinstance(obj["classes"], list):
        raise SchemaError("classes must be a list")
    classes = []
    interned: dict[tuple[int, int], Vertex] = {}
    for ci, cobj in enumerate(obj["classes"]):
        where = f"class {ci}"
        if not isinstance(cobj, dict) or set(cobj) != {"kind", "blocks"}:
            raise SchemaError(f"{where}: need exactly kind and blocks")
        if cobj["kind"] not in KINDS:
            raise SchemaError(f"{where}: unknown kind {cobj['kind']!r}")
        if not isinstance(cobj["blocks"], list):
            raise SchemaError(f"{where}: blocks must be a list")
        blocks = tuple(
            _block(bobj, f"{where} block {bi}", interned)
            for bi, bobj in enumerate(cobj["blocks"])
        )
        classes.append(FactorClass(cobj["kind"], blocks))
    return Decomposition(params, tuple(classes), r, s)


def dumps(d: Decomposition) -> str:
    return json.dumps(to_dict(d), indent=1)


def loads(text: str) -> Decomposition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: nested too deeply") from exc
    return from_dict(obj)


def to_text(d: Decomposition) -> str:
    """Human-readable listing, one class per paragraph.  Not machine-parsed."""
    out = [
        f"decomposition of K_{d.params.v} "
        f"(v={d.params.v} n={d.params.n} m={d.params.m} r={d.r} s={d.s})"
    ]
    for ci, fc in enumerate(d.classes, start=1):
        out.append("")
        out.append(f"class {ci}: {fc.kind}")
        for b in fc.blocks:
            if isinstance(b, K2Block):
                u, w = b.edge.endpoints()
                out.append(f"  ({u.base},{u.level})-({w.base},{w.level})")
            else:
                leaves = " ".join(f"({l.base},{l.level})" for l in b.leaves)
                out.append(f"  center ({b.center.base},{b.center.level}): {leaves}")
    out.append("")
    return "\n".join(out)
