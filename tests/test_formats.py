from random import Random

import pytest

from conftest import mi, sq
from vertexsplit.complexes import MAX_VERTICES, from_facets
from vertexsplit.corpus import (random_complex, random_graph,
                                random_splittable_ideal)
from vertexsplit.formats import (ParseError, default_names, format_complex,
                                 format_decomposition_tree, format_graph,
                                 format_ideal, format_monomial,
                                 format_quotient_order,
                                 format_scm_certificate, format_split_tree,
                                 parse_complex, parse_graph, parse_ideal,
                                 parse_monomial)
from vertexsplit.decomposition import vertex_decomposable
from vertexsplit.graphs import is_scm_bipartite, path_graph
from vertexsplit.splitting import quotient_order_from_split, vertex_split


def test_monomial_formatting():
    assert format_monomial((2, 0, 1), ("x1", "x2", "x3")) == "x1^2*x3"
    assert format_monomial((0, 0), ("a", "b")) == "1"
    assert format_monomial((1, 1), ("a", "b")) == "a*b"


def test_monomial_parsing():
    names = {"x1": 0, "x2": 1, "x3": 2}
    assert parse_monomial("x1^2*x3", names, 3) == (2, 0, 1)
    assert parse_monomial("x2", names, 3) == (0, 1, 0)
    assert parse_monomial("1", names, 3) == (0, 0, 0)
    with pytest.raises(ParseError):
        parse_monomial("y", names, 3)
    with pytest.raises(ParseError):
        parse_monomial("x1^", names, 3)


def test_parse_ideal_bare_format():
    ideal, names = parse_ideal("x1*x2\nx2*x3\n")
    assert ideal == sq("xy", "yz")
    assert names == ("x1", "x2", "x3")


def test_parse_ideal_structured():
    text = "kind: ideal\nvars: x y z\n# a comment\nx*y\ny*z\n"
    ideal, names = parse_ideal(text)
    assert ideal == sq("xy", "yz") and names == ("x", "y", "z")


def test_parse_ideal_zero_and_unit():
    ideal, _ = parse_ideal("kind: ideal\nvars: a b\n")
    assert ideal.is_zero
    ideal, _ = parse_ideal("kind: ideal\nvars: a b\n1\n")
    assert ideal.is_unit


def test_parse_ideal_rejects_unknown_vars():
    with pytest.raises(ParseError):
        parse_ideal("a*b\n")
    with pytest.raises(ParseError):
        parse_ideal("kind: complex\nx1\n")


def test_parse_complex_forms():
    delta, names = parse_complex("kind: complex\nvertices: x y z\nx,z\ny\n")
    assert delta == from_facets([{0, 2}, {1}], 3)
    assert names == ("x", "y", "z")
    delta, names = parse_complex("a,b\nb,c\n")
    assert names == ("a", "b", "c")
    delta, _ = parse_complex("kind: complex\nvertices: u v\n-\n")
    assert delta.facets == {0}


def test_parse_graph_forms():
    G, names = parse_graph("n 4\n0 1\n1 2\n2 3\n")
    assert G == path_graph(4)
    G, names = parse_graph("kind: graph\nvertices: a b c\na b\nb c\n")
    assert G == path_graph(3) and names == ("a", "b", "c")
    with pytest.raises(ParseError):
        parse_graph("0 1\n")


def test_parsers_refuse_more_vertices_than_the_limit():
    names = [f"v{i}" for i in range(MAX_VERTICES + 1)]
    over = [
        (parse_ideal, f"x{MAX_VERTICES + 1}\n"),
        (parse_ideal, f"vars: {' '.join(names)}\nv0\n"),
        (parse_graph, f"n {MAX_VERTICES + 1}\n"),
        (parse_graph, f"vertices: {' '.join(names)}\nv0 v1\n"),
        (parse_complex, ",".join(names) + "\n"),
        (parse_complex, f"vertices: {' '.join(names)}\nv0\n"),
    ]
    for parse, text in over:
        with pytest.raises(ParseError, match="exceed the limit"):
            parse(text)
    # the limit itself is allowed
    assert parse_ideal(f"x{MAX_VERTICES}\n")[0].num_vars == MAX_VERTICES
    assert parse_graph(f"n {MAX_VERTICES}\n")[0].n == MAX_VERTICES
    assert parse_complex(",".join(names[1:]) + "\n")[0].ground_size == \
        MAX_VERTICES


def test_round_trips_random():
    rng = Random(55)
    for _ in range(40):
        ideal, _ = random_splittable_ideal(5, rng, max_gens=8)
        back, _ = parse_ideal(format_ideal(ideal))
        assert back == ideal
        delta = random_complex(5, 5, rng)
        assert parse_complex(format_complex(delta))[0] == delta
        G = random_graph(6, 0.4, rng)
        assert parse_graph(format_graph(G))[0] == G


def test_split_tree_serialization():
    I = mi(3, (0, 1, 0), (1, 0, 1))
    tree = vertex_split(I)
    assert format_split_tree(tree, "xyz") == "(y: 1 | x*z)"
    assert format_split_tree(vertex_split(mi(2, (0, 0))), "ab") == "1"
    assert format_split_tree(vertex_split(mi(2)), "ab") == "0"


def test_decomposition_tree_serialization():
    delta = from_facets([{0, 2}, {1}], 3)
    tree = vertex_decomposable(delta)
    assert format_decomposition_tree(tree, ("x", "y", "z")) == "(y: x,z | -)"


def test_scm_certificate_serialization():
    G = path_graph(4)
    ok, cert = is_scm_bipartite(G)
    text = format_scm_certificate(cert, G, default_names(4))
    assert text.startswith("(x1,x2:") and "edgeless" in text


def test_quotient_order_serialization():
    I = sq("ac", "ad", "bd")
    order = quotient_order_from_split(vertex_split(I), 4)
    text = format_quotient_order(order, "abcd")
    assert text == "a*c {} < a*d {c} < b*d {a}"
