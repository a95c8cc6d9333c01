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

There is one reader of the schema: a header check and a class check,
which from_dict runs on a parsed object and loads on text.  They check
the header first and return the Decomposition with each class as a
model.FlatClass of flat vertex ids, making a Vertex only for a block the
class check hands off (below); every SchemaError comes from them, in one
order: a block's shape, then each vertex's shape, the types and then the
signs of its coordinates, then a loop edge, duplicate leaves or a center
that is also a leaf.  The class check
reads the two block shapes certificates are made of in its own loop,
with no call per block or vertex: an edge, a list of two [base, level]
lists of ints inside Z_m x Z_{n+1} that name two vertices, and a star, a
dict of such a center and a nonempty list of such leaves, all distinct.
It hands every other block, a faulty one or one with a vertex outside
the grid, to the block check, which reads it through the object view:
after the shape and coordinate checks it makes the Edge or StarBlock of
its Vertex objects, whose ValueError (a loop, duplicate leaves, a center
among its leaves) it raises as the block's SchemaError, and returns the
ids model.block_ids gives, the rule FlatClass.of flattens a block by.  So
a block reads the same either way, and only the block check names a
fault.  loads reads a text whose keys all come before classes one class
at a time, so the parsed form of the whole certificate, several times
the size of its classes, never exists.  That walk gives up on any other
text, and on any text with a fault, by raising, and loads then reads it
as from_dict(json.loads(text)): its Decomposition or error is that of
the whole-text parse, and a JSON error anywhere wins over a schema error.
The reader puts each block in the canonical order of Edge and StarBlock
(endpoints, and a star's leaves after its center, in (base, level)
order), which the verifier's samples rely on: NOT_DISJOINT names the
first shared vertex in that order.
`starurd verify` audits what it returns as it stands.

The writers render from the same flat ids, each id as the (base, level)
pair it names (model.vertex_key).  Each class is checked once, before it
is rendered: both writers, as the object view does, refuse a class with
a shape fault (model.FlatClass.shape_fault: a field that is no
sequence, an unknown kind, bounds that are not ints or run outside the
ids, flags other than one 0 or 1 per block, a block of the wrong size,
an id that names no vertex, a block that names one vertex twice) with
the ValueError of model.id_keys, which names the class and the fault.
So no block is written that the reader refuses as a loop, a repeated
leaf or a center among its leaves.  A class whose well-sized blocks are
flagged as the other kind's is written; the verifier reports it.
dumps is the one writer of the schema.
It writes the text of json.dumps(to_dict(d), indent=1) without building
the dict: each vertex is rendered once per indent depth it appears at,
and the block and class texts are joined from those strings.  to_dict
parses what dumps writes.  Each format, the schema and the listing of
to_text, has one renderer, which yields its text one class at a time:
dumps and to_text return the join of its pieces, or, given a stream,
write the pieces there as they come, so `starurd build` never holds
more than one class of the text.  The writers render ints and kinds
themselves, so only loads and to_dict import json, when they run:
`starurd build` and `starurd search` do not load it.  Both run with the
cyclic GC off.
"""

import gc

from .model import (KINDS, Decomposition, Edge, FlatClass, Params, StarBlock, Vertex,
                    block_ids, id_keys, vertex_key)

SCHEMA_VERSION = "1"
# the JSON text of each class kind, which the writer looks up by the kind
# that the shape rule has matched
_KIND_TEXTS = {kind: f'"{kind}"' for kind in KINDS}


class SchemaError(ValueError):
    pass


def _without_gc(read, *args):
    """read(*args) with the cyclic GC off: what the readers make holds no
    cycles, and GC passes over its many lists and tuples would only walk
    them.  A GC the caller had enabled is enabled again, whatever read
    raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return read(*args)
    finally:
        if enabled:
            gc.enable()


def to_dict(d: Decomposition) -> dict:
    """The dict form of d: the JSON object that dumps(d) writes, parsed
    with the cyclic GC off (_without_gc)."""
    import json

    return _without_gc(lambda: json.loads(dumps(d)))


def _int(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def _vertex(obj) -> Vertex:
    """The Vertex a [base, level] pair names, or a SchemaError, on its
    shape, then each coordinate's type, then their signs, whose message
    follows the label of its block."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f" must be a [base, level] pair, got {obj!r}")
    base, level = _int(obj[0], ""), _int(obj[1], "")
    if base < 0 or level < 0:
        raise SchemaError(f" has negative coordinates: {obj!r}")
    return Vertex(base, level)


def _checked_block(obj, m: int, w: int) -> tuple[list, bool]:
    """The ids of one block in canonical order (model.block_ids) and
    whether it is a star, read through the object view: the block's
    shape and each vertex's own checks in turn, then the Edge or
    StarBlock of its vertices.  Or the SchemaError that names the first
    fault, with a message that follows the block's label; a loop edge,
    duplicate leaves or a center that is also a leaf is the ValueError
    of Edge or StarBlock."""
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise SchemaError(": edge block needs two vertices")
        make, args = Edge, (_vertex(obj[0]), _vertex(obj[1]))
    elif isinstance(obj, dict):
        if set(obj) != {"center", "leaves"}:
            raise SchemaError(": star block needs center and leaves")
        if not isinstance(obj["leaves"], list) or not obj["leaves"]:
            raise SchemaError(": leaves must be a nonempty list")
        make, args = StarBlock, (_vertex(obj["center"]), tuple(map(_vertex, obj["leaves"])))
    else:
        raise SchemaError(f": unrecognized block shape {obj!r}")
    try:
        block = make(*args)
    except ValueError as exc:
        raise SchemaError(f": {exc}") from None
    return block_ids(block, m, w), make is StarBlock


def _checked_class(cobj, ci: int, m: int, w: int) -> FlatClass:
    """Class ci of a certificate as a FlatClass, read block by block: or
    the SchemaError of its shape, its kind, or its first faulty block,
    labelled with where the block is.

    The two block shapes a certificate is made of are read in the loop,
    with no call per block or vertex: an edge, a list of two [base, level]
    lists of ints inside Z_m x Z_w that are not one vertex, and a star,
    a dict of such a center and a nonempty list of such leaves, all
    distinct.  Any other block goes to _checked_block, which returns its
    ids or raises its fault, so a block reads the same either way.  The
    block label is made only for the error."""
    where = f"class {ci}"
    if not isinstance(cobj, dict) or set(cobj) != {"kind", "blocks"}:
        raise SchemaError(f"{where}: need exactly kind and blocks")
    if cobj["kind"] not in KINDS:
        raise SchemaError(f"{where}: unknown kind {cobj['kind']!r}")
    if not isinstance(cobj["blocks"], list):
        raise SchemaError(f"{where}: blocks must be a list")
    ids, bounds, stars = [], [0], bytearray()
    for obj in cobj["blocks"]:
        if type(obj) is list:
            try:  # a ValueError: a list of another length than 2, handed off
                u, x = obj
                if type(u) is list is type(x):
                    (a, i), (b, j) = u, x
                    if (type(a) is int and type(i) is int and type(b) is int and type(j) is int
                            and 0 <= a < m and 0 <= i < w and 0 <= b < m and 0 <= j < w):
                        a, b = a * w + i, b * w + j
                        if a != b:
                            ids += (a, b) if a < b else (b, a)
                            bounds.append(len(ids))
                            stars.append(0)
                            continue
            except ValueError:
                pass
        elif type(obj) is dict and len(obj) == 2:
            u, leaves = obj.get("center"), obj.get("leaves")
            if type(u) is list is type(leaves) and leaves:
                try:  # as above
                    a, i = u
                    star = []
                    for x in leaves:
                        if type(x) is not list:
                            break
                        b, j = x
                        if not (type(b) is int and type(j) is int and 0 <= b < m and 0 <= j < w):
                            break
                        star.append(b * w + j)
                    else:
                        if type(a) is int and type(i) is int and 0 <= a < m and 0 <= i < w:
                            a = a * w + i
                            if len({a, *star}) == len(star) + 1:
                                star.sort()
                                ids.append(a)
                                ids += star
                                bounds.append(len(ids))
                                stars.append(1)
                                continue
                except ValueError:
                    pass
        try:
            block, star = _checked_block(obj, m, w)
        except SchemaError as exc:
            raise SchemaError(f"{where} block {len(stars)}{exc}") from None
        ids += block
        bounds.append(len(ids))
        stars.append(star)
    return FlatClass(cobj["kind"], tuple(ids), tuple(bounds), bytes(stars))


def _checked_header(obj) -> tuple[Params, int, int]:
    """The Params, r and s of a certificate object, or the SchemaError of
    its top level, its keys, its version or the first faulty number.
    Only the presence of classes is checked here."""
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
        return Params(v, n, m), r, s
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def from_dict(obj) -> Decomposition:
    """Check a certificate's JSON object against the schema and return it
    as a Decomposition of FlatClass classes.

    Every SchemaError comes from here.  The header is checked in full
    before any class, so each block is read knowing m and n.
    """
    params, r, s = _checked_header(obj)
    if not isinstance(obj["classes"], list):
        raise SchemaError("classes must be a list")
    m, w = params.m, params.n + 1
    classes = tuple(_checked_class(cobj, ci, m, w) for ci, cobj in enumerate(obj["classes"]))
    return Decomposition(params, classes, r, s)


def _join(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object of rendered items whose brackets sit at depth,
    laid out as json.dumps(..., indent=1) lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


class _Rendered(dict):
    """id -> render(base, level) of the vertex it names (vertex_key), made
    once.  The writers look up only the ids of a class that has no shape
    fault (model.id_keys), so every id names a vertex."""

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


def _number(value) -> str:
    """A header value as json.dumps writes it: an exact int as its repr,
    without importing json, and any other value, which only a hand-built
    Decomposition holds, through json.dumps."""
    if type(value) is int:
        return int.__repr__(value)
    import json

    return json.dumps(value)


def _json_pieces(d: Decomposition):
    """The text of json.dumps(to_dict(d), indent=1), one class at a time:
    the header with the first class, each further class, then the close."""
    header = {"v": d.params.v, "n": d.params.n, "m": d.params.m, "r": d.r, "s": d.s}
    empty = _join("{}", [f'"version": "{SCHEMA_VERSION}"']
                  + [f'"{key}": {_number(value)}' for key, value in header.items()]
                  + ['"classes": []'], 0)
    if not d.flat:
        yield empty
        return
    w = d.params.n + 1
    # endpoints and centers; leaves
    at5, at6 = _Rendered(_pair_at(5), w), _Rendered(_pair_at(6), w)
    # each class text goes into the "[]" that empty ends with
    lead = empty[:-3] + "\n  "
    for ci, fc in enumerate(d.flat):
        keys, bounds = id_keys(ci, fc, w), fc.bounds
        blocks = []
        for a, b, star in zip(bounds, bounds[1:], fc.stars):
            if star:
                leaves = [at6[k] for k in keys[a + 1:b]]
                blocks.append(_join("{}", [
                    f'"center": {at5[keys[a]]}', f'"leaves": {_join("[]", leaves, 5)}'
                ], 4))
            else:
                # _join("[]", [endpoint texts], 4), written out: the hot path
                blocks.append(f"[\n     {at5[keys[a]]},\n     {at5[keys[a + 1]]}\n    ]")
        yield lead + _join("{}", [
            f'"kind": {_KIND_TEXTS[fc.kind]}', f'"blocks": {_join("[]", blocks, 3)}'
        ], 2)
        lead = ",\n  "
    yield "\n ]\n}"


def _text_pieces(d: Decomposition):
    """The human-readable listing, one class at a time: the title line,
    each class as a paragraph, then the final newline."""
    yield (f"decomposition of K_{d.params.v} "
           f"(v={d.params.v} n={d.params.n} m={d.params.m} r={d.r} s={d.s})")
    w = d.params.n + 1
    name = _Rendered("({},{})".format, w)
    for ci, fc in enumerate(d.flat):
        keys, bounds = id_keys(ci, fc, w), fc.bounds
        lines = [f"\n\nclass {ci + 1}: {fc.kind}"]
        for a, b, star in zip(bounds, bounds[1:], fc.stars):
            if star:
                lines.append(f"\n  center {name[keys[a]]}: "
                             f"{' '.join([name[k] for k in keys[a + 1:b]])}")
            else:
                lines.append(f"\n  {name[keys[a]]}-{name[keys[a + 1]]}")
        yield "".join(lines)
    yield "\n"


def _emit(pieces, stream) -> str:
    """The text of pieces, or, given a stream, the text written to it piece
    by piece and its last character."""
    if stream is None:
        return "".join(pieces)
    piece = ""
    for piece in pieces:
        stream.write(piece)
    return piece[-1:]


def dumps(d: Decomposition, stream=None) -> str:
    """The text of json.dumps(to_dict(d), indent=1), or the ValueError of
    the first class with a shape fault at weight n+1 (model.id_keys).
    Given a stream, the text is written to it one class at a time, never
    held whole, and its last character is returned."""
    return _emit(_json_pieces(d), stream)


def to_text(d: Decomposition, stream=None) -> str:
    """Human-readable listing, one class per paragraph.  Not machine-parsed.
    A class with a shape fault raises as in dumps, and given a stream the
    listing is written as dumps writes to one."""
    return _emit(_text_pieces(d), stream)


def _json(text: str):
    import json

    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: nested too deeply") from exc


def _read_in_order(text: str) -> Decomposition:
    """The Decomposition of a certificate text whose keys all come before
    classes, read one class at a time: only the class being read is ever
    a parsed object, not the whole certificate.  A repeated key keeps its
    last value, as in json.loads.  Any other text raises."""
    from json.decoder import WHITESPACE, JSONDecoder

    decode, skip = JSONDecoder().raw_decode, WHITESPACE.match
    at = skip(text, 0).end()

    def past(char: str) -> None:
        """Step over char, which must be next, and the whitespace after it."""
        nonlocal at
        if text[at:at + 1] != char:
            raise ValueError(f"expected {char!r} at {at}")
        at = skip(text, at + 1).end()

    def value():
        """The JSON value next in the text, stepping over it and the
        whitespace after it."""
        nonlocal at
        obj, at = decode(text, at)
        at = skip(text, at).end()
        return obj

    past("{")
    header = {}
    while True:
        key = value()
        if type(key) is not str:
            raise ValueError(f"expected a key at {at}")
        past(":")
        if key == "classes":
            break
        header[key] = value()
        past(",")
    header["classes"] = classes = []
    params, r, s = _checked_header(header)
    past("[")
    m, w = params.m, params.n + 1
    while text[at:at + 1] != "]":
        if classes:
            past(",")
        classes.append(_checked_class(value(), len(classes), m, w))
    past("]")
    past("}")
    if at != len(text):
        raise ValueError(f"extra data at {at}")
    return Decomposition(params, tuple(classes), r, s)


def _read(text: str) -> Decomposition:
    try:
        return _read_in_order(text)
    except (ValueError, RecursionError):
        pass
    # past the handler, so the walk's error and the classes it read are
    # freed before the whole text is parsed
    return from_dict(_json(text))


def loads(text: str) -> Decomposition:
    """The Decomposition of a certificate text, read with the cyclic GC
    off (_without_gc).

    A text whose keys all come before classes is read one class at a
    time.  Any other text, and any text the walk finds at fault, is read
    as from_dict(json.loads(text)), so its Decomposition or SchemaError is
    that of the whole-text parse."""
    return _without_gc(_read, text)
