import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verifier import block_vertices
from starurd.assembler import BuildRequest, construct
from starurd.model import Decomposition, Vertex
from starurd.serialize import SchemaError, dumps, from_dict, loads, to_dict, to_text


@pytest.mark.parametrize("request_args", [
    (12, 3, 0), (12, 3, 1), (16, 3, 0), (24, 5, 0), (48, 7, 1), (56, 7, 3),
])
def test_json_round_trip(request_args):
    # the object view flattens back to the stored classes, and both read
    # back from the file
    d = construct(BuildRequest(*request_args))
    assert Decomposition(d.params, d.classes, d.r, d.s) == d == loads(dumps(d))


def test_dict_shape():
    d = construct(BuildRequest(12, 3, 0))
    obj = to_dict(d)
    assert obj["version"] == "1"
    assert (obj["v"], obj["n"], obj["m"], obj["r"], obj["s"]) == (12, 3, 3, 5, 4)
    assert len(obj["classes"]) == 9
    one = obj["classes"][0]
    assert one["kind"] == "one_factor"
    assert all(
        isinstance(b, list) and len(b) == 2 and len(b[0]) == 2 for b in one["blocks"]
    )
    star = obj["classes"][-1]
    assert star["kind"] == "star_factor"
    assert all(set(b) == {"center", "leaves"} for b in star["blocks"])


@pytest.mark.parametrize("text,error", [
    (dumps(construct(BuildRequest(12, 3, 0))), None),
    ("{", SchemaError),
    ('{"version": "1"}', SchemaError),
], ids=["valid", "not-json", "schema-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_loads_reads_with_the_gc_off_and_restores_its_state(monkeypatch, text, error, enabled):
    import starurd.serialize as serialize

    real, during = serialize.from_dict, []

    def from_dict(obj):
        during.append(gc.isenabled())
        return real(obj)

    monkeypatch.setattr(serialize, "from_dict", from_dict)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            loads(text)
        else:
            with pytest.raises(error):
                loads(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(during)


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        loads("{not json")


@pytest.mark.parametrize("text", ["[" * 200000, '{"a": ' * 200000], ids=["list", "object"])
def test_nesting_past_the_recursion_limit_rejected(text):
    with pytest.raises(SchemaError, match="nested too deeply"):
        loads(text)


TOO_LONG = '{"version": "1", "v": 1' + "0" * 5000 + ', "n": 3, "m": 3, "r": 5, "s": 4, "classes": []}'


def test_integer_literal_too_long_rejected():
    # json.loads refuses an int literal past the digit limit with a plain
    # ValueError; where there is no limit, the claimed v fits no grid
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with pytest.raises(SchemaError, match="not valid JSON" if 0 < limit < 5001 else None):
        loads(TOO_LONG)


def test_missing_keys_rejected():
    with pytest.raises(SchemaError):
        from_dict({"version": "1", "v": 12})


def test_wrong_version_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = to_dict(d)
    obj["version"] = "2"
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_inconsistent_order_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = to_dict(d)
    obj["m"] = 4
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_negative_coordinates_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = json.loads(dumps(d))
    obj["classes"][0]["blocks"][0][0][0] = -1
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_duplicate_star_leaves_rejected_at_parse():
    d = construct(BuildRequest(12, 3, 0))
    obj = json.loads(dumps(d))
    star = obj["classes"][-1]["blocks"][0]
    star["leaves"][1] = star["leaves"][0]
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_unknown_kind_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = json.loads(dumps(d))
    obj["classes"][0]["kind"] = "triangle_factor"
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_bad_block_shape_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = json.loads(dumps(d))
    obj["classes"][0]["blocks"][0] = [[0, 0]]
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_semantic_damage_still_parses():
    # a deleted block is the verifier's business, not the parser's
    d = construct(BuildRequest(12, 3, 0))
    obj = json.loads(dumps(d))
    del obj["classes"][0]["blocks"][0]
    parsed = from_dict(obj)
    assert len(parsed.classes[0].blocks) == 5


def test_text_format_lists_every_class():
    d = construct(BuildRequest(12, 3, 0))
    text = to_text(d)
    assert "class 9: star_factor" in text
    assert text.count("class ") == 9
    assert "center" in text


BAD_VERTICES = [True, 1.5, "0", None, [0], [0, 0, 0], {"base": 0, "level": 0}]
BAD_COORDINATES = [[True, 0], [0, False], [1.5, 0], [0, 2.0], ["0", 0], [None, 0], [0, -1]]


@pytest.mark.parametrize("bad", BAD_VERTICES + BAD_COORDINATES, ids=repr)
@pytest.mark.parametrize("where", ["endpoint", "center", "leaf"])
def test_malformed_vertex_rejected(bad, where):
    obj = to_dict(construct(BuildRequest(12, 3, 0)))
    if where == "endpoint":
        obj["classes"][0]["blocks"][0][1] = bad
    elif where == "center":
        obj["classes"][-1]["blocks"][0]["center"] = bad
    else:
        obj["classes"][-1]["blocks"][0]["leaves"][2] = bad
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_malformed_vertex_rejected_after_the_same_pair_parsed_well():
    # [1, 0] is read first, so a lookup by value would accept [true, 0]
    obj = to_dict(construct(BuildRequest(12, 3, 0)))
    obj["classes"].insert(0, {"kind": "one_factor", "blocks": [[[1, 0], [1, 1]]]})
    obj["classes"][1]["blocks"][0] = [[True, 0], [2, 3]]
    with pytest.raises(SchemaError):
        from_dict(obj)


def test_reader_shares_one_vertex_per_pair():
    d = construct(BuildRequest(12, 3, 0))
    text = dumps(d)
    parsed = loads(text)
    assert parsed == d
    by_pair = {}
    for fc in parsed.classes:
        for block in fc.blocks:
            for u in block_vertices(block):
                by_pair.setdefault((u.base, u.level), []).append(u)
    assert len(by_pair) == 12
    for (base, level), vertices in by_pair.items():
        fresh = Vertex(base, level)
        assert all(u is vertices[0] for u in vertices)
        assert vertices[0] == fresh and hash(vertices[0]) == hash(fresh)
        assert not vertices[0] < fresh and not fresh < vertices[0]
    # each read has its own vertices: nothing is kept between reads
    again = loads(text).classes[0].blocks[0].u
    assert again == parsed.classes[0].blocks[0].u
    assert again is not parsed.classes[0].blocks[0].u


# Writer differential: dumps renders the indent=1 text itself, so it is
# checked against json.dumps of the dict form on certificates that no
# construction makes (the golden digests pin the construction outputs).
COORDINATES = st.one_of(st.integers(0, 6), st.integers(0, 2**80))
VERTICES = st.lists(COORDINATES, min_size=2, max_size=2)


@st.composite
def certificates(draw):
    n = draw(st.sampled_from([3, 5, 7, 2**61 - 1]))
    m = draw(st.integers(1, 10**12))
    edge = st.lists(VERTICES, min_size=2, max_size=2, unique_by=tuple)
    star = st.lists(VERTICES, min_size=2, max_size=min(n, 6) + 1, unique_by=tuple).map(
        lambda vs: {"center": vs[0], "leaves": vs[1:]}
    )
    block = st.one_of(edge, star)  # both shapes in one class: mixed kinds
    klass = st.fixed_dictionaries(
        {"kind": st.sampled_from(["one_factor", "star_factor"]),
         "blocks": st.lists(block, max_size=5)}
    )
    return {
        "version": "1", "v": m * (n + 1), "n": n, "m": m,
        "r": draw(st.integers(-5, 2**70)), "s": draw(st.integers(-5, 2**70)),
        "classes": draw(st.lists(klass, max_size=4)),
    }


@settings(max_examples=150, deadline=None)
@given(certificates())
def test_dumps_is_json_dumps_of_the_dict(cert):
    d = loads(json.dumps(cert))
    assert dumps(d) == json.dumps(to_dict(d), indent=1)


@pytest.mark.parametrize("classes", [[], [{"kind": "one_factor", "blocks": []}]],
                         ids=["no-classes", "no-blocks"])
def test_dumps_renders_empty_lists_as_json_does(classes):
    d = loads(json.dumps(
        {"version": "1", "v": 12, "n": 3, "m": 3, "r": 0, "s": 0, "classes": classes}
    ))
    text = dumps(d)
    assert text == json.dumps(to_dict(d), indent=1)
    assert ": []" in text


def test_dumps_of_a_search_witness_is_json_dumps_of_the_dict():
    from starurd.search import FOUND, exhaustive_urd

    outcome = exhaustive_urd(8, 3, 1, 4)
    assert outcome.status == FOUND
    assert dumps(outcome.witness) == json.dumps(to_dict(outcome.witness), indent=1)


HEADER = {"version": "1", "v": 4, "n": 3, "m": 1, "r": 3, "s": 0}


def one_class(kind, *blocks):
    return dict(HEADER, classes=[{"kind": kind, "blocks": list(blocks)}])


# Each malformed object with the one message the reader gives for it;
# test_cli checks that `starurd verify` prints the same.
SCHEMA_ERRORS = [
    pytest.param(one_class("one_factor", [[0, 0]]),
                 "class 0 block 0: edge block needs two vertices", id="one-vertex-edge"),
    pytest.param(one_class("one_factor", [[0, "x"], [0, 1]]),
                 "class 0 block 0 must be an integer, got 'x'", id="non-int-coordinate"),
    pytest.param(one_class("one_factor", [[0, -1], [0, 1]]),
                 "class 0 block 0 has negative coordinates: [0, -1]", id="negative-coordinate"),
    pytest.param(one_class("one_factor", [[0, 1], [0, 1]]),
                 "class 0 block 0: loop edge at Vertex(base=0, level=1)", id="loop-edge"),
    pytest.param(one_class("star_factor", {"center": [0, 0]}),
                 "class 0 block 0: star block needs center and leaves", id="star-without-leaves"),
    pytest.param(one_class("star_factor", {"center": [0, 0], "leaves": []}),
                 "class 0 block 0: leaves must be a nonempty list", id="empty-leaves"),
    pytest.param(one_class("star_factor", {"center": [0, 0], "leaves": [0, 1]}),
                 "class 0 block 0 must be a [base, level] pair, got 0", id="leaves-not-pairs"),
    pytest.param(one_class("star_factor", {"center": [0, 0], "leaves": "0,1"}),
                 "class 0 block 0: leaves must be a nonempty list", id="leaves-not-list"),
    pytest.param(one_class("star_factor", {"center": [0, 0], "leaves": [[0, 1], [0, 1]]}),
                 "class 0 block 0: duplicate leaves in star at Vertex(base=0, level=0)",
                 id="duplicate-leaves"),
    pytest.param(one_class("one_factor", 5),
                 "class 0 block 0: unrecognized block shape 5", id="unrecognized-block"),
    pytest.param([HEADER], "top level must be an object", id="top-level-list"),
    pytest.param(dict(HEADER, classes={}), "classes must be a list", id="classes-not-list"),
    pytest.param(dict(HEADER, classes=[{"kind": "one_factor"}]),
                 "class 0: need exactly kind and blocks", id="class-without-blocks"),
    pytest.param(dict(HEADER, classes=[{"kind": "one_factor", "blocks": {}}]),
                 "class 0: blocks must be a list", id="blocks-not-list"),
    # vertices outside Z_m x Z_{n+1} have no flat id, but the block checks
    # name them as Edge and StarBlock do
    pytest.param(one_class("one_factor", [[9, 9], [9, 9]]),
                 "class 0 block 0: loop edge at Vertex(base=9, level=9)",
                 id="out-of-range-loop-edge"),
    pytest.param(one_class("star_factor", {"center": [0, 0], "leaves": [[9, 9], [9, 9]]}),
                 "class 0 block 0: duplicate leaves in star at Vertex(base=0, level=0)",
                 id="out-of-range-duplicate-leaves"),
    pytest.param(one_class("star_factor", {"center": [9, 9], "leaves": [[0, 1], [9, 9]]}),
                 "class 0 block 0: star center Vertex(base=9, level=9) repeated as leaf",
                 id="out-of-range-center-as-leaf"),
]


@pytest.mark.parametrize("obj,message", SCHEMA_ERRORS)
def test_schema_error_names_its_location_once(obj, message):
    with pytest.raises(SchemaError) as info:
        from_dict(obj)
    assert str(info.value) == message
