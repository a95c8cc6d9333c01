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

There is one reader, flat_from_dict.  It checks the object, header first,
and gives each class as a model.FlatClass of flat vertex ids, making no
Vertex; every SchemaError comes from it, in one order: a block's shape,
then each vertex's shape, the types and then the signs of its
coordinates, then a loop edge, duplicate leaves or a center that is also
a leaf.  It puts each block in the canonical order of Edge and StarBlock
(endpoints, and a star's leaves after its center, in (base, level)
order), which the verifier's samples rely on: NOT_DISJOINT names the
first shared vertex in that order.  `starurd verify` audits its output
as it stands (loads_flat); from_dict and loads build the Decomposition
from it, with one Vertex per vertex of the certificate.

dumps writes the text of json.dumps(to_dict(d), indent=1) without building
the dict: each vertex is rendered once per indent depth it appears at, and
the block, class and top-level texts are joined from those strings.
to_dict is the dict form of the same schema.
"""

from __future__ import annotations

import json

from .model import (
    KINDS,
    Decomposition,
    Edge,
    FactorClass,
    FlatClass,
    Params,
    StarBlock,
    Vertex,
    vertex_from_flat,
)

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    pass


def to_dict(d: Decomposition) -> dict:
    classes = []
    for fc in d.classes:
        blocks = []
        for b in fc.blocks:
            if isinstance(b, Edge):
                blocks.append([[b.u.base, b.u.level], [b.v.base, b.v.level]])
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


def _key(k, w: int) -> tuple[int, int]:
    """The (base, level) pair an id names: the Vertex order on ids."""
    return divmod(k, w) if type(k) is int else k


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


def _checked_block(obj, m: int, w: int) -> tuple[tuple, int, bool]:
    """The ids of one block in canonical order, 1 if it is a star, and
    whether it holds a vertex outside Z_m x Z_w.  Or the SchemaError that
    names its first fault, with a message that follows the block's label:
    the block's shape, each vertex's own checks in turn, then a loop edge,
    duplicate leaves or a center that is also a leaf, with the messages
    of Edge and StarBlock.  Ids inside Z_m x Z_w sort in (base, level)
    order as they stand; a block with a pair among them sorts on _key."""
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise SchemaError(": edge block needs two vertices")
        a, b = _vertex_id(obj[0], m, w), _vertex_id(obj[1], m, w)
        if a == b:
            raise SchemaError(f": loop edge at {vertex_from_flat(a, w)}")
        foreign = type(a) is tuple or type(b) is tuple
        if (_key(a, w) < _key(b, w)) if foreign else a < b:
            return (a, b), 0, foreign
        return (b, a), 0, foreign
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
        foreign = type(center) is tuple or tuple in map(type, leaves)
        leaves.sort(key=(lambda k: _key(k, w)) if foreign else None)
        return (center, *leaves), 1, foreign
    raise SchemaError(f": unrecognized block shape {obj!r}")


def _checked_class(blocks: list, where: str, m: int, w: int) -> tuple[list, list, bytearray, bool]:
    """The ids, bounds, stars and foreign of a FlatClass, read block by
    block: or the SchemaError of its first faulty block, labelled with
    where the block is.  The label is made only for the error."""
    ids, bounds, stars = [], [0], bytearray()
    foreign = False
    for bi, obj in enumerate(blocks):
        try:
            block, star, outside = _checked_block(obj, m, w)
        except SchemaError as exc:
            raise SchemaError(f"{where} block {bi}{exc}") from None
        foreign = foreign or outside
        ids += block
        bounds.append(len(ids))
        stars.append(star)
    return ids, bounds, stars, foreign


def flat_from_dict(obj) -> tuple[Params, int, int, list[FlatClass]]:
    """Check a certificate's JSON object against the schema and return its
    flat form: the header Params, the claimed r and s, and each class as a
    FlatClass.

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
        ids, bounds, stars, foreign = _checked_class(cobj["blocks"], where, m, w)
        classes.append(FlatClass(cobj["kind"], tuple(ids), tuple(bounds), bytes(stars), foreign))
    return params, r, s, classes


class _Vertices(dict):
    """id -> its Vertex, made once per certificate read."""

    def __init__(self, weight: int):
        super().__init__()
        self.weight = weight

    def __missing__(self, k) -> Vertex:
        vertex = self[k] = vertex_from_flat(k, self.weight)
        return vertex


def from_dict(obj) -> Decomposition:
    params, r, s, flat = flat_from_dict(obj)
    vertices = _Vertices(params.weight)
    classes = []
    for fc in flat:
        blocks = []
        for ids, star in zip(fc.blocks(), fc.stars):
            if star:
                blocks.append(StarBlock(vertices[ids[0]], tuple(vertices[k] for k in ids[1:])))
            else:
                blocks.append(Edge(vertices[ids[0]], vertices[ids[1]]))
        classes.append(FactorClass(fc.kind, tuple(blocks)))
    return Decomposition(params, tuple(classes), r, s)


def _join(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object of rendered items whose brackets sit at depth,
    laid out as json.dumps(..., indent=1) lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


class _Rendered(dict):
    """(base, level) -> the text of that vertex at one depth, made once."""

    def __init__(self, depth: int):
        super().__init__()
        self.depth = depth

    def __missing__(self, key: tuple[int, int]) -> str:
        text = self[key] = _join("[]", [str(key[0]), str(key[1])], self.depth)
        return text


def dumps(d: Decomposition) -> str:
    """The text of json.dumps(to_dict(d), indent=1)."""
    at5, at6 = _Rendered(5), _Rendered(6)  # endpoints and centers; leaves
    classes = []
    for fc in d.classes:
        blocks = []
        for b in fc.blocks:
            if isinstance(b, Edge):
                u, w = b.u, b.v
                # _join("[]", [endpoint texts], 4), written out: the hot path
                blocks.append(f"[\n     {at5[u.base, u.level]},\n     {at5[w.base, w.level]}\n    ]")
            else:
                c = b.center
                leaves = [at6[leaf.base, leaf.level] for leaf in b.leaves]
                blocks.append(_join("{}", [
                    f'"center": {at5[c.base, c.level]}', f'"leaves": {_join("[]", leaves, 5)}'
                ], 4))
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
    return from_dict(_json(text))


def loads_flat(text: str) -> tuple[Params, int, int, list[FlatClass]]:
    """flat_from_dict of a certificate's text: what `starurd verify` audits."""
    return flat_from_dict(_json(text))


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
            if isinstance(b, Edge):
                u, w = b.endpoints()
                out.append(f"  ({u.base},{u.level})-({w.base},{w.level})")
            else:
                leaves = " ".join(f"({l.base},{l.level})" for l in b.leaves)
                out.append(f"  center ({b.center.base},{b.center.level}): {leaves}")
    out.append("")
    return "\n".join(out)
