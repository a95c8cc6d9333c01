import json

import pytest

from starurd.assembler import BuildRequest, construct
from starurd.model import Vertex, block_vertices
from starurd.serialize import SchemaError, dumps, from_dict, loads, to_dict, to_text


@pytest.mark.parametrize("request_args", [(12, 3, 0), (12, 3, 1), (16, 3, 0), (24, 5, 0)])
def test_json_round_trip(request_args):
    d = construct(BuildRequest(*request_args))
    assert loads(dumps(d)) == d


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


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        loads("{not json")


@pytest.mark.parametrize("text", ["[" * 200000, '{"a": ' * 200000], ids=["list", "object"])
def test_nesting_past_the_recursion_limit_rejected(text):
    with pytest.raises(SchemaError, match="nested too deeply"):
        loads(text)


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
    again = loads(text).classes[0].blocks[0].edge.u
    assert again == parsed.classes[0].blocks[0].edge.u
    assert again is not parsed.classes[0].blocks[0].edge.u
