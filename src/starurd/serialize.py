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

There is one reader, from_dict (loads on text).  It checks the object,
header first, and returns the Decomposition with each class as a
model.FlatClass of flat vertex ids, making no Vertex; every SchemaError
comes from it, in one order: a block's shape, then each vertex's shape,
the types and then the signs of its coordinates, then a loop edge,
duplicate leaves or a center that is also a leaf.  It puts each block in
the canonical order of Edge and StarBlock (endpoints, and a star's leaves
after its center, in (base, level) order), which the verifier's samples
rely on: NOT_DISJOINT names the first shared vertex in that order.
`starurd verify` audits what it returns as it stands.

The writers render from the same flat ids, each id as the (base, level)
pair it names (model.vertex_key).  dumps is the one writer of the schema.
It writes the text of json.dumps(to_dict(d), indent=1) without building
the dict: each vertex is rendered once per indent depth it appears at,
and the block, class and top-level texts are joined from those strings.
to_dict parses what dumps writes.
"""

from __future__ import annotations

import gc
import json

from .model import KINDS, Decomposition, FlatClass, Params, vertex_from_flat, vertex_key

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    pass


def to_dict(d: Decomposition) -> dict:
    """The dict form of d: the JSON object that dumps(d) writes."""
    return json.loads(dumps(d))


def _int(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def _vertex_id(obj, m: int, w: int):
    """The id of the vertex a [base, level] pair names (see FlatClass),
    or a SchemaError, on its shape, then each coordinate's type, then
    their signs, whose message follows the label of its block."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f" must be a [base, level] pair, got {obj!r}")
    base, level = obj
    if type(base) is not int:
        _int(base, "")
    if type(level) is not int:
        _int(level, "")
    if 0 <= base < m and 0 <= level < w:
        return base * w + level
    if base < 0 or level < 0:
        raise SchemaError(f" has negative coordinates: {obj!r}")
    return (base, level)


def _checked_block(obj, m: int, w: int) -> tuple[tuple, int]:
    """The ids of one block in canonical order and 1 if it is a star.  Or
    the SchemaError that names its first fault, with a message that
    follows the block's label: the block's shape, each vertex's own
    checks in turn, then a loop edge, duplicate leaves or a center that
    is also a leaf, with the messages of Edge and StarBlock.  Ids inside
    Z_m x Z_w sort in (base, level) order as they stand; a block with a
    pair among them sorts on vertex_key."""
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise SchemaError(": edge block needs two vertices")
        a, b = _vertex_id(obj[0], m, w), _vertex_id(obj[1], m, w)
        if a == b:
            raise SchemaError(f": loop edge at {vertex_from_flat(a, w)}")
        paired = type(a) is tuple or type(b) is tuple
        if (vertex_key(a, w) < vertex_key(b, w)) if paired else a < b:
            return (a, b), 0
        return (b, a), 0
    if isinstance(obj, dict):
        if set(obj) != {"center", "leaves"}:
            raise SchemaError(": star block needs center and leaves")
        if not isinstance(obj["leaves"], list) or not obj["leaves"]:
            raise SchemaError(": leaves must be a nonempty list")
        center = _vertex_id(obj["center"], m, w)
        leaves = [_vertex_id(leaf, m, w) for leaf in obj["leaves"]]
        distinct = set(leaves)
        if len(distinct) != len(leaves):
            raise SchemaError(f": duplicate leaves in star at {vertex_from_flat(center, w)}")
        if center in distinct:
            raise SchemaError(f": star center {vertex_from_flat(center, w)} repeated as leaf")
        paired = type(center) is tuple or tuple in map(type, leaves)
        leaves.sort(key=(lambda k: vertex_key(k, w)) if paired else None)
        return (center, *leaves), 1
    raise SchemaError(f": unrecognized block shape {obj!r}")


def _checked_class(blocks: list, where: str, m: int, w: int) -> tuple[list, list, bytearray]:
    """The ids, bounds and stars of a FlatClass, read block by block: or
    the SchemaError of its first faulty block, labelled with where the
    block is.  The label is made only for the error."""
    ids, bounds, stars = [], [0], bytearray()
    for bi, obj in enumerate(blocks):
        try:
            block, star = _checked_block(obj, m, w)
        except SchemaError as exc:
            raise SchemaError(f"{where} block {bi}{exc}") from None
        ids += block
        bounds.append(len(ids))
        stars.append(star)
    return ids, bounds, stars


def from_dict(obj) -> Decomposition:
    """Check a certificate's JSON object against the schema and return it
    as a Decomposition of FlatClass classes.

    Every SchemaError comes from here.  The header is checked in full
    before any class, so each block is read knowing m and n.
    """
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
    w = params.weight
    classes = []
    for ci, cobj in enumerate(obj["classes"]):
        where = f"class {ci}"
        if not isinstance(cobj, dict) or set(cobj) != {"kind", "blocks"}:
            raise SchemaError(f"{where}: need exactly kind and blocks")
        if cobj["kind"] not in KINDS:
            raise SchemaError(f"{where}: unknown kind {cobj['kind']!r}")
        if not isinstance(cobj["blocks"], list):
            raise SchemaError(f"{where}: blocks must be a list")
        ids, bounds, stars = _checked_class(cobj["blocks"], where, m, w)
        classes.append(FlatClass(cobj["kind"], tuple(ids), tuple(bounds), bytes(stars)))
    return Decomposition(params, tuple(classes), r, s)


def _join(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object of rendered items whose brackets sit at depth,
    laid out as json.dumps(..., indent=1) lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


class _Rendered(dict):
    """id -> render(base, level) of the vertex it names, made once."""

    def __init__(self, render, weight: int):
        super().__init__()
        self.render = render
        self.weight = weight

    def __missing__(self, k) -> str:
        text = self[k] = self.render(*vertex_key(k, self.weight))
        return text


def _pair_at(depth: int):
    """The renderer of a [base, level] pair whose brackets sit at depth."""
    return lambda base, level: _join("[]", [str(base), str(level)], depth)


def dumps(d: Decomposition) -> str:
    """The text of json.dumps(to_dict(d), indent=1)."""
    w = d.params.n + 1
    # endpoints and centers; leaves
    at5, at6 = _Rendered(_pair_at(5), w), _Rendered(_pair_at(6), w)
    classes = []
    for fc in d.flat:
        blocks = []
        for ids, star in zip(fc.blocks(), fc.stars):
            if star:
                leaves = [at6[k] for k in ids[1:]]
                blocks.append(_join("{}", [
                    f'"center": {at5[ids[0]]}', f'"leaves": {_join("[]", leaves, 5)}'
                ], 4))
            else:
                a, b = ids
                # _join("[]", [endpoint texts], 4), written out: the hot path
                blocks.append(f"[\n     {at5[a]},\n     {at5[b]}\n    ]")
        classes.append(_join("{}", [
            f'"kind": {json.dumps(fc.kind)}', f'"blocks": {_join("[]", blocks, 3)}'
        ], 2))
    header = {"version": SCHEMA_VERSION, "v": d.params.v, "n": d.params.n,
              "m": d.params.m, "r": d.r, "s": d.s}
    empty = _join("{}", [f'"{key}": {json.dumps(value)}' for key, value in header.items()]
                  + ['"classes": []'], 0)
    if not classes:
        return empty
    # Put the class texts into the "[]" that empty ends with, in one join, so
    # the file text is copied once and not once per nesting level.
    classes[0] = empty[:-3] + "\n  " + classes[0]
    classes[-1] += "\n ]\n}"
    return ",\n  ".join(classes)


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: nested too deeply") from exc


def loads(text: str) -> Decomposition:
    """from_dict of the JSON text, with the cyclic GC off while it runs:
    the parsed certificate and the classes read from it hold no cycles,
    and GC passes over their many lists would only walk them.  A GC the
    caller had enabled is enabled again, whatever loads raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_dict(_json(text))
    finally:
        if enabled:
            gc.enable()


def to_text(d: Decomposition) -> str:
    """Human-readable listing, one class per paragraph.  Not machine-parsed."""
    out = [
        f"decomposition of K_{d.params.v} "
        f"(v={d.params.v} n={d.params.n} m={d.params.m} r={d.r} s={d.s})"
    ]
    name = _Rendered("({},{})".format, d.params.n + 1)
    for ci, fc in enumerate(d.flat, start=1):
        out.append("")
        out.append(f"class {ci}: {fc.kind}")
        for ids, star in zip(fc.blocks(), fc.stars):
            if star:
                out.append(f"  center {name[ids[0]]}: {' '.join([name[k] for k in ids[1:]])}")
            else:
                a, b = ids
                out.append(f"  {name[a]}-{name[b]}")
    out.append("")
    return "\n".join(out)
