import gc
import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_verifier import block_vertices
from starurd.assembler import BuildRequest, construct
from starurd.model import (
    MISSING_EDGE,
    NOT_SPANNING,
    ONE_FACTOR,
    STAR_FACTOR,
    WRONG_KIND,
    Decomposition,
    Edge,
    FactorClass,
    FlatClass,
    Params,
    StarBlock,
    Vertex,
)
from starurd.serialize import SchemaError, dumps, from_dict, loads, to_dict, to_text
from starurd.verifier import verify


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

    # the header check runs in the class-by-class walk and in from_dict
    real, during = serialize._checked_header, []

    def checked_header(obj):
        during.append(gc.isenabled())
        return real(obj)

    monkeypatch.setattr(serialize, "_checked_header", checked_header)
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
    assert during or text == "{"  # only a text that is not JSON skips the header


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_to_dict_parses_with_the_gc_off_and_restores_its_state(monkeypatch, enabled):
    import starurd.serialize as serialize

    real, during = serialize.dumps, []

    def checked_dumps(d):
        during.append(gc.isenabled())
        return real(d)

    monkeypatch.setattr(serialize, "dumps", checked_dumps)
    d = construct(BuildRequest(12, 3, 0))
    # class 0 as a loop: the shape fault dumps refuses with a ValueError
    faulty = Decomposition(d.params, (FlatClass(ONE_FACTOR, (1, 1), (0, 2), b"\0"),), 1, 0)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert to_dict(d) == json.loads(real(d))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError) as info:
            to_dict(faulty)
        assert str(info.value) == "class 0: block 0 names (0, 1) twice"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


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


def assert_rejected(obj, message):
    """Both readers, from_dict of obj and loads of its compact text, raise
    SchemaError(message)."""
    for read in (from_dict, lambda obj: loads(json.dumps(obj))):
        with pytest.raises(SchemaError) as info:
            read(obj)
        assert str(info.value) == message


def test_missing_keys_rejected():
    assert_rejected({"version": "1", "v": 12}, "missing keys: ['classes', 'm', 'n', 'r', 's']")


def test_wrong_version_rejected():
    d = construct(BuildRequest(12, 3, 0))
    obj = to_dict(d)
    obj["version"] = "2"
    assert_rejected(obj, "unsupported version '2'")


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
    assert_rejected(obj, "class 0: unknown kind 'triangle_factor'")


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


def object_dict(d):
    """The schema's dict of d, built from its Vertex, Edge and StarBlock
    objects: what the writer must say, not what it renders."""
    def pair(u):
        return [u.base, u.level]

    classes = [
        {"kind": fc.kind, "blocks": [
            {"center": pair(b.center), "leaves": [pair(u) for u in b.leaves]}
            if isinstance(b, StarBlock) else [pair(b.u), pair(b.v)]
            for b in fc.blocks
        ]}
        for fc in d.classes
    ]
    return {"version": "1", "v": d.params.v, "n": d.params.n, "m": d.params.m,
            "r": d.r, "s": d.s, "classes": classes}


@settings(max_examples=150, deadline=None)
@given(certificates())
def test_dumps_is_json_dumps_of_the_dict(cert):
    d = loads(json.dumps(cert))
    obj = to_dict(d)
    assert obj == object_dict(d)
    assert dumps(d) == json.dumps(obj, indent=1)


@pytest.mark.parametrize("classes", [[], [{"kind": "one_factor", "blocks": []}]],
                         ids=["no-classes", "no-blocks"])
def test_dumps_renders_empty_lists_as_json_does(classes):
    d = loads(json.dumps(
        {"version": "1", "v": 12, "n": 3, "m": 3, "r": 0, "s": 0, "classes": classes}
    ))
    text = dumps(d)
    assert text == json.dumps(to_dict(d), indent=1)
    assert ": []" in text


class Count(int):
    pass


@pytest.mark.parametrize("claim", [True, 2.5, "5", None, Count(5), 2**70], ids=repr)
def test_dumps_writes_a_hand_built_claim_as_json_does(claim):
    # the exact ints the package makes are written without json; any
    # other claim goes through json.dumps, so the text is the same
    d = construct(BuildRequest(12, 3, 0))
    hand = Decomposition(d.params, d.flat, claim, claim)
    assert dumps(hand) == json.dumps(object_dict(hand), indent=1)


def test_dumps_of_a_search_witness_is_json_dumps_of_the_dict():
    from starurd.search import FOUND, exhaustive_urd

    outcome = exhaustive_urd(8, 3, 1, 4)
    assert outcome.status == FOUND
    assert dumps(outcome.witness) == json.dumps(to_dict(outcome.witness), indent=1)


@pytest.mark.parametrize("x", ["x", 1.0, None, (1, 2, 3), [1], True], ids=repr)
def test_writers_refuse_an_id_that_names_no_vertex(x):
    # K_4 with class 0 written as (0, x, 2, 3), or class 1 as (0, 2, x, 3),
    # after class 0 has held the int 1: x names no vertex, so no
    # [base, level] pair can be written for it, though 1.0 and True equal
    # 1.  The object view refuses it with the writers' error, and the
    # verifier reports it as the shape fault of its class
    built = construct(BuildRequest(4, 3, 0))
    for ci, ids in ((0, (0, x, 2, 3)), (1, (0, 2, x, 3))):
        flat = list(built.flat)
        flat[ci] = flat[ci]._replace(ids=ids)
        d = Decomposition(built.params, tuple(flat), built.r, built.s)
        fault = f"class {ci}: id {x!r} names no vertex"
        for read in (dumps, to_text, lambda d: d.classes):
            with pytest.raises(ValueError) as info:
                read(d)
            assert type(info.value) is ValueError
            assert str(info.value) == fault
        assert (WRONG_KIND, fault) in verify(d).violations


# Class 1 of K_4 as a block of the wrong size for its flag (an object that
# is no block, flattened to an empty star block; an edge of 3 ids; a star
# of no leaf), as blocks whose bounds run past the ids at either end, as
# bounds that are not ints (2.0 and False equal ints, but name no position
# in the ids), or as an edge and a star of one leaf: blocks of the right
# sizes in a class of the wrong kind
BLOCK_SIZES = {
    "no-block": (FactorClass(ONE_FACTOR, ("junk",)), "block 0 holds 0 ids"),
    "edge-of-3": (FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 3, 4), b"\0\0"), "block 0 holds 3 ids"),
    "leafless-star": (FlatClass(STAR_FACTOR, (0, 1, 2, 3), (0, 1, 4), b"\1\1"),
                      "block 0 holds 1 ids"),
    "bounds-past-the-last-id": (FlatClass(ONE_FACTOR, (0, 1, 2), (0, 2, 4), b"\0\0"),
                                "blocks span ids[0:4] of 3 ids"),
    "bounds-before-the-first-id": (FlatClass(ONE_FACTOR, (0, 2, 1, 3), (-2, 0, 2), b"\0\0"),
                                   "blocks span ids[-2:2] of 4 ids"),
    "float-bound": (FlatClass(ONE_FACTOR, (0, 2, 1, 3), (0, 2.0, 4), b"\0\0"),
                    "bound 1 is 2.0, not an int"),
    "float-bound-off-the-ids": (FlatClass(ONE_FACTOR, (0, 2, 1, 9), (0, 2.0, 4), b"\0\0"),
                                "bound 1 is 2.0, not an int"),
    "bool-bound": (FlatClass(ONE_FACTOR, (0, 2, 1, 3), (False, 2, 4), b"\0\0"),
                   "bound 0 is False, not an int"),
    "mixed": (FlatClass(ONE_FACTOR, (0, 2, 1, 3), (0, 2, 4), b"\0\1"), None),
}


@pytest.mark.parametrize("case", sorted(BLOCK_SIZES))
def test_readers_check_the_size_of_each_block(case):
    # both writers and the object view refuse a block of the wrong size
    # with one ValueError, and write or show a class of the wrong kind;
    # the verifier reports the class either way
    fc, message = BLOCK_SIZES[case]
    built = construct(BuildRequest(4, 3, 0))
    d = Decomposition(built.params, (built.flat[0], fc, built.flat[2]), built.r, built.s)
    report = verify(d)
    assert WRONG_KIND in report.codes()
    if message is None:
        assert json.loads(dumps(d))["classes"][1]["blocks"][1] == {
            "center": [0, 1], "leaves": [[0, 3]]}
        assert "\n  center (0,1): (0,3)\n" in to_text(d)
        assert d.classes[1].blocks[1] == StarBlock(Vertex(0, 1), (Vertex(0, 3),))
        assert verify(loads(dumps(d))) == report
        return
    for read in (dumps, to_text, lambda d: d.classes):
        with pytest.raises(ValueError) as info:
            read(d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"class 1: {message}"


def test_verify_reads_blocks_that_run_past_the_ids_by_their_slices():
    # the readers refuse these bounds, and the verifier reports the same
    # shape fault and reads no block of the class: no slice of the ids
    # stands for a block whose bounds run outside them
    built = construct(BuildRequest(4, 3, 0))
    reports = {}
    for case in ("bounds-past-the-last-id", "bounds-before-the-first-id"):
        fc = BLOCK_SIZES[case][0]
        d = Decomposition(built.params, (built.flat[0], fc, built.flat[2]), built.r, built.s)
        reports[case] = verify(d).violations
    missing = f"2 target edges uncovered, e.g. {Edge(Vertex(0, 0), Vertex(0, 2))}"
    assert reports == {
        "bounds-past-the-last-id": (
            (WRONG_KIND, "class 1: blocks span ids[0:4] of 3 ids"),
            (NOT_SPANNING, "class 1: 4 vertices uncovered"),
            (MISSING_EDGE, missing),
        ),
        "bounds-before-the-first-id": (
            (WRONG_KIND, "class 1: blocks span ids[-2:2] of 4 ids"),
            (NOT_SPANNING, "class 1: 4 vertices uncovered"),
            (MISSING_EDGE, missing),
        ),
    }


# Class 0 of the one-factorization of K_4 as no reader makes it: a kind
# that is none of the two; ids, bounds or flags that are no sequence; ids
# that are ints in and outside 0..3, int pairs or no vertex at all; bounds
# that are not ints, negative or past the ids; flags of 0, 1 and 2, too few
# or too many.  Real kinds and well-formed fields are drawn most, so that
# some classes have no shape fault
HOSTILE_IDS = st.one_of(
    st.integers(0, 3), st.integers(-2, 9), st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
    st.sampled_from([1.0, True, "x", None, (1, 2, 3), [1]]),
)
SHAPE_FAULT = re.compile(r"class 0: (bound \d+ is |blocks span |\d+ flags for "
                         r"|block \d+ is flagged |block \d+ holds |id .* names no vertex"
                         r"|block \d+ names .* twice$"
                         r"|(ids|bounds|stars) is .*, not a sequence$"
                         r"|kind .* is not one_factor or star_factor$)")


@st.composite
def hostile_classes(draw):
    ids = draw(st.lists(HOSTILE_IDS, max_size=9))
    sizes = st.lists(st.sampled_from([2, 2, 3]), max_size=3)
    bounds = draw(st.one_of(
        sizes.map(lambda ks: [sum(ks[:i]) for i in range(len(ks) + 1)]),
        st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([2.0, 0.5, False])), max_size=4),
    ))
    blocks = len(bounds[1:])
    flags = draw(st.one_of(
        st.lists(st.sampled_from([0, 0, 1]), min_size=blocks, max_size=blocks),
        st.lists(st.sampled_from([0, 1, 2]), min_size=blocks, max_size=blocks),
        st.lists(st.sampled_from([0, 1]), max_size=4),
    ))
    kind = draw(st.sampled_from([ONE_FACTOR] * 3 + [STAR_FACTOR] * 2 + ["foo", None]))
    fields = [draw(st.sampled_from([field] * 9 + [None, 2, {0, 2}]))
              for field in (tuple(ids), tuple(bounds), bytes(flags))]
    return FlatClass(kind, *fields)


@settings(max_examples=300, deadline=None)
@example(FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 2, 4), b"\x00\x00\x00"))
@example(FlatClass("foo", (0, 1, 2, 3), (0, 2, 4), b"\x00\x00"))
@example(FlatClass(ONE_FACTOR, None, (0, 2, 4), b"\x00\x00"))
@example(FlatClass(ONE_FACTOR, (0, 1, 2, 3), None, b"\x00\x00"))
@example(FlatClass(ONE_FACTOR, (0, 1, 2, 3), (0, 2, 4), None))
@example(FlatClass(ONE_FACTOR, (0, 1, 2, 2), (0, 2, 4), b"\x00\x00"))
@example(FlatClass(STAR_FACTOR, (0, 1, 2, 2), (0, 4), b"\x01"))
@example(FlatClass(STAR_FACTOR, (0, 1, 2, 0), (0, 4), b"\x01"))
@example(FlatClass(ONE_FACTOR, (5, (1, 1), 2, 3), (0, 2, 4), b"\x00\x00"))
@example(FlatClass(ONE_FACTOR, (-1, 1, 2, 3), (0, 2, 4), b"\x00\x00"))
@example(FlatClass(STAR_FACTOR, (0, 1, 2, (0, -1)), (0, 4), b"\x01"))
@given(hostile_classes())
def test_the_verifier_the_writers_and_the_view_agree_on_the_shape_of_a_class(fc):
    # verify reports a shape fault exactly when both writers and the object
    # view raise it, with the same text, and never raises; a class with no
    # shape fault has a view, and is written as a text that the reader
    # takes back as the flat classes of that view: the writers write no
    # block that the reader refuses.  A loop, a repeated leaf, a center
    # among its leaves, one vertex spelled as 5 and as (1, 1) in one block
    # and an id with a negative coordinate are shape faults
    built = construct(BuildRequest(4, 3, 0))
    d = Decomposition(built.params, (fc,) + built.flat[1:], built.r, built.s)
    report = verify(d)
    faults = [detail for code, detail in report.violations if SHAPE_FAULT.match(detail)]
    fault = fc.shape_fault(4)
    if fault is None:
        assert faults == []
        assert to_text(d).startswith("decomposition of K_4")
        assert loads(dumps(d)).flat == tuple(FlatClass.of(c, 1, 4) for c in d.classes)
        return
    assert faults == [f"class 0: {fault}"]
    assert (WRONG_KIND, f"class 0: {fault}") in report.violations
    for read in (dumps, to_text, lambda d: d.classes):
        with pytest.raises(ValueError) as info:
            read(d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"class 0: {fault}"


def _witness():
    from starurd.search import exhaustive_urd

    return exhaustive_urd(8, 3, 1, 4).witness


# a certificate of K_4 (m=1, n=3) holding [m, 0] and [0, n+1], outside Z_1 x Z_4
FOREIGN = {"version": "1", "v": 4, "n": 3, "m": 1, "r": 1, "s": 1, "classes": [
    {"kind": "one_factor", "blocks": [[[0, 4], [0, 0]], [[1, 0], [0, 1]], [[0, 3], [0, 2]]]},
    {"kind": "star_factor", "blocks": [{"center": [1, 0], "leaves": [[0, 4], [0, 2], [0, 0]]}]},
]}


@pytest.mark.parametrize("make", [
    lambda: construct(BuildRequest(12, 3, 0)),
    lambda: construct(BuildRequest(24, 5, 1)),
    lambda: construct(BuildRequest(56, 7, 3)),
    _witness,
    lambda: loads(json.dumps(FOREIGN)),
], ids=["12-3-0", "24-5-1", "56-7-3", "witness", "foreign"])
def test_dict_holds_the_classes_of_the_object_view(make):
    d = make()
    obj = to_dict(d)
    assert obj == object_dict(d)
    assert dumps(d) == json.dumps(obj, indent=1)


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


# Blocks that the class loop does not read itself and hands to
# _checked_block: each faulty block of SCHEMA_ERRORS and a few more, with
# the message that follows its label
HANDOFF = [
    pytest.param(p.values[0]["classes"][0]["blocks"][0], p.values[1][len("class 0 block 0"):],
                 id=p.id)
    for p in SCHEMA_ERRORS if p.values[1].startswith("class 0 block 0")
] + [
    pytest.param([[0, 2], [0, True]], " must be an integer, got True", id="bool-coordinate"),
    pytest.param([[0, 2], [0, 1.0]], " must be an integer, got 1.0", id="float-coordinate"),
    pytest.param({"center": [0, 0], "leaves": [[0, 2], [0, True]]},
                 " must be an integer, got True", id="bool-leaf-coordinate"),
    pytest.param({"center": [0, 0], "leaves": [[1.0, 1], [0, 2]]},
                 " must be an integer, got 1.0", id="float-leaf-coordinate"),
    pytest.param({"center": [0, 1], "leaves": [[0, 2], [0, 1]]},
                 ": star center Vertex(base=0, level=1) repeated as leaf", id="center-as-leaf"),
    pytest.param({"center": [0, False], "leaves": [[0, 1]]},
                 " must be an integer, got False", id="bool-center-coordinate"),
    pytest.param([[0, 1], [0, 1, 2]], " must be a [base, level] pair, got [0, 1, 2]",
                 id="three-coordinates"),
    pytest.param([[0, 0], [0, 1], [0, 2]], ": edge block needs two vertices",
                 id="three-vertex-edge"),
    pytest.param({"center": [0, 0], "leaves": [[0, 1]], "note": 1},
                 ": star block needs center and leaves", id="star-with-extra-key"),
]
# Blocks that read without a fault, with how many of their vertices lie
# outside Z_3 x Z_4: those _checked_block reads, as their (base, level)
# pairs; the class loop reads the others, whose vertices it must order
READ_BLOCKS = [
    pytest.param([[0, 0], [0, 4]], 1, id="level-past-n"),
    pytest.param([[3, 1], [0, 1]], 1, id="base-past-m"),
    pytest.param([[0, 2], [2**70, 0]], 1, id="huge-base"),
    pytest.param({"center": [0, 4], "leaves": [[0, 1], [2, 3]]}, 1, id="center-outside"),
    pytest.param({"center": [0, 1], "leaves": [[3, 0], [0, 0]]}, 1, id="leaf-base-past-m"),
    pytest.param({"center": [0, 1], "leaves": [[0, 2], [0, 4]]}, 1, id="leaf-level-past-n"),
    pytest.param([[2, 3], [0, 1]], 0, id="endpoints-in-reverse"),
    pytest.param({"center": [1, 1], "leaves": [[2, 3], [0, 0], [1, 0]]}, 0, id="leaves-unsorted"),
]
BUILT = dumps(construct(BuildRequest(12, 3, 0)))  # m = 3, n = 3: classes of 6 edges, 3 stars
PLACES = [(kind, where, layout) for kind in (ONE_FACTOR, STAR_FACTOR)
          for where in ("first", "middle", "last") for layout in ("dumps", "compact")]


def placed(block, kind, where, layout):
    """The text of BUILT with block in place of the first, a middle or the
    last block of its second class of the kind, and where it is."""
    obj = json.loads(BUILT)
    ci = [i for i, c in enumerate(obj["classes"]) if c["kind"] == kind][1]
    blocks = obj["classes"][ci]["blocks"]
    bi = {"first": 0, "middle": len(blocks) // 2, "last": len(blocks) - 1}[where]
    blocks[bi] = block
    if layout == "dumps":
        return json.dumps(obj, indent=1), ci, bi
    return json.dumps(obj, separators=(",", ":")), ci, bi


@pytest.mark.parametrize("place", PLACES, ids="-".join)
@pytest.mark.parametrize("block,fault", HANDOFF)
def test_a_handed_off_block_is_named_wherever_it_sits(block, fault, place):
    text, ci, bi = placed(block, *place)
    for read in (loads, lambda text: from_dict(json.loads(text))):
        with pytest.raises(SchemaError) as info:
            read(text)
        assert str(info.value) == f"class {ci} block {bi}{fault}"


@pytest.mark.parametrize("place", PLACES, ids="-".join)
@pytest.mark.parametrize("block,outside", READ_BLOCKS)
def test_a_block_is_read_as_the_object_view_reads_it_wherever_it_sits(block, outside, place):
    text, ci, bi = placed(block, *place)
    d = loads(text)
    assert d == from_dict(json.loads(text)) == object_view_read(json.loads(text))
    assert sum(type(k) is tuple for k in d.flat[ci].ids) == outside


def object_view_read(obj):
    """The Decomposition of a certificate object with a valid header, read
    through the object view: each block as an Edge or a StarBlock of
    Vertex pairs of nonnegative ints, each class as FlatClass.of of its
    FactorClass.  None where the view refuses a block."""
    def vertex(x):
        if type(x) is not list or len(x) != 2 or not all(type(c) is int and c >= 0 for c in x):
            raise ValueError(f"no vertex: {x!r}")
        return Vertex(*x)

    params = Params(obj["v"], obj["n"], obj["m"])
    classes = []
    try:
        for c in obj["classes"]:
            blocks = []
            for b in c["blocks"]:
                if type(b) is list and len(b) == 2:
                    blocks.append(Edge(*map(vertex, b)))
                elif (type(b) is dict and set(b) == {"center", "leaves"}
                        and type(b["leaves"]) is list):
                    blocks.append(StarBlock(vertex(b["center"]), tuple(map(vertex, b["leaves"]))))
                else:
                    raise ValueError(f"no block: {b!r}")
            classes.append(FlatClass.of(FactorClass(c["kind"], blocks), params.m, params.n + 1))
    except ValueError:
        return None
    return Decomposition(params, tuple(classes), obj["r"], obj["s"])


# vertex-like values around the grid Z_3 x Z_4 of BUILT: pairs drawn from
# few values, so that loops and repeated leaves come up, pairs inside and
# outside the grid, and faulty ones
VERTEX_LIKE = st.one_of(
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
    st.sampled_from([[0, True], [False, 0], [0, 1.0], [0, -1], [-1, 0], [0], [0, 1, 2], [],
                     0, "01", None, {"base": 0, "level": 0}]),
)
BLOCK_LIKE = st.one_of(
    st.lists(VERTEX_LIKE, min_size=1, max_size=3),
    st.fixed_dictionaries({"center": VERTEX_LIKE, "leaves": st.lists(VERTEX_LIKE, max_size=4)},
                          optional={"note": st.just(1)}),
    st.sampled_from([5, None, "ab", {}, {"center": [0, 0]}, {"center": [0, 0], "leaves": "01"}]),
)


@st.composite
def damaged_texts(draw):
    obj = json.loads(BUILT)
    blocks = draw(st.sampled_from(obj["classes"]))["blocks"]
    blocks[draw(st.integers(0, len(blocks) - 1))] = draw(BLOCK_LIKE)
    if draw(st.booleans()):
        return json.dumps(obj, indent=1)
    return json.dumps(obj, separators=(",", ":"))


@settings(max_examples=400, deadline=None)
@given(damaged_texts())
def test_loads_reads_each_block_as_the_object_view_does(text):
    want = object_view_read(json.loads(text))
    for read in (loads, lambda text: from_dict(json.loads(text))):
        if want is None:
            with pytest.raises(SchemaError):
                read(text)
        else:
            assert read(text) == want


# Reader differential: loads walks a header-first text one class at a time
# and hands every other text to from_dict(json.loads(text)), so on any text
# it must give that reader's Decomposition or its SchemaError.
SOURCES = [construct(BuildRequest(12, 3, 0)), construct(BuildRequest(24, 5, 1)), _witness()]
WHITESPACE = ["", "", " ", "\n", "\t", "\r\n  "]


def spaced(value, rnd):
    """value as JSON text with random JSON whitespace around every token."""
    def gap():
        return rnd.choice(WHITESPACE)

    if isinstance(value, dict):
        items = [f"{gap()}{json.dumps(k)}{gap()}:{gap()}{spaced(x, rnd)}{gap()}"
                 for k, x in value.items()]
    elif isinstance(value, list):
        items = [gap() + spaced(x, rnd) + gap() for x in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + (",".join(items) or gap()) + brackets[1]


@st.composite
def certificate_texts(draw):
    obj = to_dict(draw(st.sampled_from(SOURCES)))
    # each change to the text below is drawn a third of the time or less,
    # so that many texts still take the walk
    if draw(st.integers(0, 2)) == 0:  # the keys in any order
        obj = {key: obj[key] for key in draw(st.permutations(list(obj)))}
    if draw(st.integers(0, 2)) == 0:  # an extra key at the top level, or in a class
        where = draw(st.sampled_from(["top", "class"]))
        target = obj if where == "top" else draw(st.sampled_from(obj["classes"]))
        target["note"] = draw(st.one_of(st.integers(), st.lists(st.integers(), max_size=3)))
        if where == "top":
            key = draw(st.sampled_from(list(obj)))
            obj[key] = obj.pop(key)
    repeat = draw(st.sampled_from(list(obj))) if draw(st.integers(0, 2)) == 0 else None
    if repeat is not None:  # written as "repeat" and renamed in the text
        obj["repeat"] = draw(st.sampled_from([obj[repeat], 1, "1", []]))
        moved = [key for key in obj if key != "repeat"]
        at = draw(st.integers(0, len(moved)))
        obj = {key: obj[key] for key in moved[:at] + ["repeat"] + moved[at:]}
    layout = draw(st.sampled_from(["dumps", "compact", "spaced"]))
    if layout == "dumps":
        text = json.dumps(obj, indent=1)
    elif layout == "compact":
        text = json.dumps(obj, separators=(",", ":"))
    else:
        rnd = draw(st.randoms(use_true_random=False))
        text = rnd.choice(WHITESPACE) + spaced(obj, rnd) + rnd.choice(WHITESPACE)
    if repeat is not None:
        text = text.replace('"repeat"', json.dumps(repeat), 1)
    damage = draw(st.sampled_from(["none"] * 4 + ["truncate", "replace", "delete", "insert"]))
    if damage != "none":
        i = draw(st.integers(0, len(text)))  # len(text): at the end
        c = draw(st.sampled_from(list('{}[],:"-0179 xe\\')))
        text = {"truncate": text[:i], "replace": text[:i] + c + text[i + 1:],
                "delete": text[:i] + text[i + 1:], "insert": text[:i] + c + text[i:]}[damage]
    return text


def whole(text):
    """The Decomposition or SchemaError message of the whole-text reader."""
    from starurd.serialize import _json

    try:
        return from_dict(_json(text))
    except SchemaError as exc:
        return str(exc)


def assert_reads_as_whole(text):
    want = whole(text)
    if isinstance(want, str):
        with pytest.raises(SchemaError) as info:
            loads(text)
        assert str(info.value) == want
    else:
        assert loads(text) == want == from_dict(json.loads(text))


@settings(max_examples=300, deadline=None)
@given(certificate_texts())
def test_loads_reads_as_from_dict_of_the_parsed_text(text):
    assert_reads_as_whole(text)


@pytest.mark.parametrize("layout", ["dumps", "compact"])
@pytest.mark.parametrize("make", [lambda: construct(BuildRequest(24, 5, 1)), _witness],
                         ids=["24-5-1", "witness"])
def test_header_first_text_is_read_without_parsing_it_whole(monkeypatch, make, layout):
    # the whole-text reader is only the fallback: a header-first text,
    # as dumps or a compact writer lays it out, never reaches it
    import starurd.serialize as serialize

    d = make()
    text = dumps(d) if layout == "dumps" else json.dumps(to_dict(d), separators=(",", ":"))

    def whole_text(text):
        raise AssertionError("the whole text was parsed")

    monkeypatch.setattr(serialize, "_json", whole_text)
    assert loads(text) == d


EMPTY = json.dumps(dict(HEADER, classes=[]))


@pytest.mark.parametrize("text", [
    json.dumps({"classes": [], **HEADER}),
    json.dumps({**HEADER, "classes": [], "note": 1}),
    json.dumps(HEADER)[:-1] + ', "v": 8, "classes": []}',
    json.dumps(HEADER)[:-1] + ', "v": 8, "v": 4, "classes": []}',
    EMPTY[:-1] + ', "classes": []}',
    EMPTY + " \n",
    EMPTY + " x",
    EMPTY + "{}",
    EMPTY[:-1] + ",}",
    EMPTY[:-2] + ",]}",
    EMPTY[:-2] + "{},]}",
    EMPTY[:-1],
], ids=["classes-first", "key-after-classes", "repeated-key-last-bad", "repeated-key-last-good",
        "repeated-classes", "trailing-whitespace", "trailing-data", "two-objects",
        "trailing-comma", "comma-in-empty-classes", "trailing-comma-in-classes", "unclosed"])
def test_texts_around_the_walk_read_as_from_dict_of_the_parsed_text(text):
    assert_reads_as_whole(text)


@pytest.mark.parametrize("layout", ["dumps", "compact"])
def test_loads_peaks_under_a_quarter_of_the_parse_tree(layout):
    import tracemalloc

    d = construct(BuildRequest(144, 7, 0))  # 10296 edges
    text = dumps(d) if layout == "dumps" else json.dumps(to_dict(d), separators=(",", ":"))
    peaks = []
    for read in (loads, json.loads):
        tracemalloc.start()
        try:
            read(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 4
