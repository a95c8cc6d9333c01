import pytest

# test-only Vertex-object helpers; other tests rely on them, so they are
# checked here too
from reference_verifier import all_vertices, block_vertices, edges_of_block
from starurd.model import (
    Edge,
    FactorClass,
    Params,
    StarBlock,
    Vertex,
    vertex_from_flat,
)


def test_edge_canonical_order():
    a, b = Vertex(1, 2), Vertex(0, 3)
    e = Edge(a, b)
    assert e.u == b and e.v == a
    assert Edge(a, b) == Edge(b, a)


def test_edge_loop_rejected():
    with pytest.raises(ValueError):
        Edge(Vertex(0, 0), Vertex(0, 0))


def test_vertex_flat_roundtrip():
    for base in range(5):
        for level in range(4):
            u = Vertex(base, level)
            assert vertex_from_flat(base * 4 + level, 4) == u


def test_edges_of_k2_block():
    # a K_2 block is the edge itself
    b = Edge(Vertex(0, 0), Vertex(1, 1))
    assert edges_of_block(b) == {b}


def test_edges_of_star_block():
    # 3-star centered at (0,0) with leaves on the next base
    star = StarBlock(Vertex(0, 0), (Vertex(1, 1), Vertex(1, 2), Vertex(1, 3)))
    assert edges_of_block(star) == {
        Edge(Vertex(0, 0), Vertex(1, 1)),
        Edge(Vertex(0, 0), Vertex(1, 2)),
        Edge(Vertex(0, 0), Vertex(1, 3)),
    }


def test_star_duplicate_leaves_rejected():
    with pytest.raises(ValueError):
        StarBlock(Vertex(0, 0), (Vertex(1, 1), Vertex(1, 1), Vertex(1, 2)))


def test_star_center_among_leaves_rejected():
    with pytest.raises(ValueError):
        StarBlock(Vertex(0, 0), (Vertex(0, 0), Vertex(1, 1), Vertex(1, 2)))


def test_star_leaves_stored_sorted():
    star = StarBlock(Vertex(0, 0), (Vertex(1, 3), Vertex(1, 1), Vertex(1, 2)))
    assert star.leaves == (Vertex(1, 1), Vertex(1, 2), Vertex(1, 3))


def test_block_vertices():
    star = StarBlock(Vertex(0, 0), (Vertex(1, 1), Vertex(1, 2), Vertex(1, 3)))
    assert set(block_vertices(star)) == {
        Vertex(0, 0),
        Vertex(1, 1),
        Vertex(1, 2),
        Vertex(1, 3),
    }
    k2 = Edge(Vertex(0, 0), Vertex(1, 1))
    assert set(block_vertices(k2)) == {Vertex(0, 0), Vertex(1, 1)}


def test_params_validation():
    p = Params.for_order(12, 3)
    assert (p.v, p.n, p.m) == (12, 3, 3)
    with pytest.raises(ValueError):
        Params.for_order(13, 3)
    with pytest.raises(ValueError):
        Params.for_order(12, 4)
    with pytest.raises(ValueError):
        Params.for_order(12, 1)
    with pytest.raises(ValueError):
        Params(12, 3, 4)


@pytest.mark.parametrize("make,message", [
    (lambda: Params(0, 3, 0), "m must be positive, got 0"),
    (lambda: StarBlock(Vertex(0, 0), ()), "star needs at least one leaf"),
], ids=["params-m0", "star-no-leaves"])
def test_constructor_rejections_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_all_vertices_order():
    p = Params.for_order(8, 3)
    vs = all_vertices(p)
    assert len(vs) == 8
    assert vs == sorted(vs)
    assert vs[0] == Vertex(0, 0) and vs[-1] == Vertex(1, 3)


def test_factor_class_kind_checked():
    with pytest.raises(ValueError):
        FactorClass("matching", ())


@pytest.mark.parametrize("n", [1, 2, 4, -3])
def test_every_caller_keeps_its_odd_n_message(n, capsys):
    # one model helper checks "n odd and >= 3" for five callers; each keeps
    # its exception type and message, and the CLI's its exit and usage line
    from starurd import admissibility, cli, filling

    want = f"n must be odd and >= 3, got {n}"
    for call in (
        lambda: admissibility.admissible_pairs(12, n),
        lambda: Params(3 * (n + 1), n, 3),
        lambda: Params.for_order(12, n),
        lambda: filling.fill_odd(3, n),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want
    assert cli.main(["check", "--v", "12", "--n", str(n)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --{want}\n"
