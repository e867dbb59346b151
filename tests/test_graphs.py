from functools import reduce
from itertools import combinations
from random import Random

import pytest

from conftest import mi, sq
from vertexsplit.complexes import (SimplicialComplex, alexander_dual_complex,
                                   complex_of_ideal, from_facets)
from vertexsplit.corpus import all_graphs, random_graph
from vertexsplit import clear_caches, graphs, monomials
from vertexsplit.cli import main
from vertexsplit.decomposition import is_shedding, vertex_decomposable
from vertexsplit.formats import format_graph
from vertexsplit.graphs import (Graph, ScmLeaf, ScmNode, chordal_split,
                                clique_complex, complement,
                                cover_betti_recursive,
                                cover_ideal, cycle_graph, delete_vertices,
                                domination_shedding, dual_complex_equivalence,
                                edge_ideal, froberg_equivalence, graph,
                                independence_complex, is_bipartite,
                                is_chordal, is_scm_bipartite, path_graph,
                                simplicial_vertex)
from vertexsplit.homology import betti_table, is_cohen_macaulay
from vertexsplit.monomials import (alexander_dual_ideal, intersect,
                                   unit_ideal, variable_ideal)
from vertexsplit.splitting import (quotient_order_from_split,
                                   validate_split_tree,
                                   verify_linear_quotient_order)

P3 = path_graph(3)
P4 = path_graph(4)
C4 = cycle_graph(4)
TWO_K2 = graph(4, [(0, 1), (2, 3)])
K3 = graph(3, combinations(range(3), 2))
K4 = graph(4, combinations(range(4), 2))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError, match="n >= 0"):
        Graph(-1, frozenset())


def test_edge_ideal_examples():
    assert edge_ideal(P3) == sq("xy", "yz")
    assert edge_ideal(graph(3, [])).is_zero
    assert edge_ideal(C4) == sq("ab", "bc", "cd", "da")


def test_cover_ideal_examples():
    assert cover_ideal(P3) == mi(3, (0, 1, 0), (1, 0, 1))
    assert cover_ideal(P4) == sq("bc", "bd", "ac")
    assert cover_ideal(path_graph(2)) == sq("x", "y")
    assert cover_ideal(graph(3, [])).is_unit


def test_cover_ideal_is_dual_edge_ideal_exhaustively():
    # both library sides take minimal transversals, so the reference is
    # the definition: one intersection per edge prime (x_u, x_v)
    for n in range(1, 6):
        for G in all_graphs(n):
            primes = reduce(intersect, (variable_ideal(n, e)
                                        for e in G.sorted_edges()),
                            unit_ideal(n))
            assert cover_ideal(G) == primes
            assert alexander_dual_ideal(edge_ideal(G)) == primes


def test_complement_and_complexes():
    assert complement(P3).edges == {(0, 2)}
    assert independence_complex(P3) == from_facets([{0, 2}, {1}], 3)
    assert clique_complex(K3).facets == {0b111}
    # independence complex facets are the maximal independent sets
    for G in (P4, C4, TWO_K2):
        delta = independence_complex(G)
        for f in delta.facets:
            members = [v for v in range(G.n) if f >> v & 1]
            assert all((u, v) not in G.edges
                       for u, v in combinations(members, 2))


def test_is_chordal_examples():
    ok, order = is_chordal(P4)
    assert ok and order is not None
    assert is_chordal(C4) == (False, None)
    assert is_chordal(K4)[0]
    assert is_chordal(graph(1, []))[0]


def test_peo_certificate_is_a_perfect_elimination_order():
    rng = Random(3)
    found = 0
    for _ in range(200):
        G = random_graph(6, rng.uniform(0.2, 0.8), rng)
        ok, order = is_chordal(G)
        if not ok:
            continue
        found += 1
        pos = {v: i for i, v in enumerate(order)}
        for i, v in enumerate(order):
            later = sorted(u for e in G.edges if v in e for u in e
                           if pos[u] > i)
            assert all(e in G.edges for e in combinations(later, 2))
    assert found > 20


def test_chordal_iff_no_induced_long_cycle():
    # brute-force cross-check of the MCS recognizer on all 5-vertex graphs
    def has_induced_cycle(G):
        for size in (4, 5):
            for verts in combinations(range(G.n), size):
                sub = [e for e in combinations(verts, 2) if e in G.edges]
                if len(sub) != size:
                    continue
                degrees = {}
                for u, v in sub:
                    degrees[u] = degrees.get(u, 0) + 1
                    degrees[v] = degrees.get(v, 0) + 1
                if all(d == 2 for d in degrees.values()) and len(degrees) == size:
                    # connected 2-regular on `size` vertices = induced cycle
                    seen = {verts[0]}
                    frontier = [verts[0]]
                    adj = {u: set() for u in verts}
                    for u, v in sub:
                        adj[u].add(v)
                        adj[v].add(u)
                    while frontier:
                        w = frontier.pop()
                        for u in adj[w]:
                            if u not in seen:
                                seen.add(u)
                                frontier.append(u)
                    if len(seen) == size:
                        return True
        return False

    for G in all_graphs(5):
        assert is_chordal(G)[0] == (not has_induced_cycle(G))


def test_simplicial_vertex_examples():
    assert simplicial_vertex(P4) == 0
    assert simplicial_vertex(C4) is None
    assert simplicial_vertex(K3) == 0
    assert simplicial_vertex(graph(2, [])) == 0


def test_domination_shedding_examples():
    assert domination_shedding(P3) == [1]
    assert domination_shedding(C4) == []
    star = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert domination_shedding(star) == [0]


def test_domination_shedding_cross_check():
    for n in range(2, 6):
        for G in all_graphs(n):
            delta = independence_complex(G)
            for y in domination_shedding(G):
                assert is_shedding(delta, y)


def test_mask_routines_match_set_definitions_exhaustively():
    # references built from G.edges alone, on every graph with at most 5
    # vertices and, for delete_vertices, every drop set
    for n in range(6):
        for G in all_graphs(n):
            nbrs = [{u for e in G.edges if v in e for u in e if u != v}
                    for v in range(n)]
            assert G.near == tuple(sum(1 << u for u in s) for s in nbrs)
            assert simplicial_vertex(G) == next(
                (v for v in range(n) if all(
                    e in G.edges for e in combinations(sorted(nbrs[v]), 2))),
                None)
            closed = [s | {v} for v, s in enumerate(nbrs)]
            assert domination_shedding(G) == [
                y for y in range(n)
                if any(x != y and closed[x] <= closed[y] for x in range(n))]
            assert is_bipartite(G) == any(
                all((side >> u ^ side >> v) & 1 for u, v in G.edges)
                for side in range(1 << n))
            for drop in range(1 << n):
                keep = [v for v in range(n) if not drop >> v & 1]
                assert delete_vertices(G, drop) == graph(
                    len(keep), [(keep.index(u), keep.index(v))
                                for u, v in G.edges
                                if u in keep and v in keep])
            assert independence_complex(G) == complex_of_ideal(edge_ideal(G))
            assert G.complement_chordal == is_chordal(complement(G))[0]
            if G.edges:
                # the dual of Ind(G) has the edge complements as facets
                dual = alexander_dual_complex(independence_complex(G))
                assert dual == SimplicialComplex(n, frozenset(
                    ((1 << n) - 1) ^ (1 << u | 1 << v) for u, v in G.edges))
                report = dual_complex_equivalence(G)
                assert report.dual_vertex_decomposable == (
                    vertex_decomposable(dual) is not None)
                assert report.dual_cohen_macaulay == is_cohen_macaulay(dual)


def test_is_bipartite():
    assert is_bipartite(P4)
    assert is_bipartite(C4)
    assert not is_bipartite(K3)
    assert is_bipartite(graph(3, []))


def test_scm_bipartite_examples():
    ok, cert = is_scm_bipartite(P4)
    assert ok and isinstance(cert, ScmNode)
    assert cert.x == 0 and cert.y == 1
    assert is_scm_bipartite(C4) == (False, None)
    assert is_scm_bipartite(graph(3, [])) == (True, ScmLeaf())
    with pytest.raises(ValueError):
        is_scm_bipartite(K3)


def test_scm_certificate_replays():
    ok, cert = is_scm_bipartite(P4)
    assert ok
    # replay: x has degree one, y is its neighbor, branches recurse
    def replay(G, c):
        if isinstance(c, ScmLeaf):
            assert not G.edges
            return
        assert [e for e in G.edges if c.x in e] == [tuple(sorted((c.x, c.y)))]
        replay(delete_vertices(G, G.near[c.x] | 1 << c.x), c.without_x)
        replay(delete_vertices(G, G.near[c.y] | 1 << c.y), c.without_y)
    replay(P4, cert)


def test_cover_betti_recursive_examples():
    # 4-path at the degree-two vertex next to the end
    assert cover_betti_recursive(P4, 1).entries == {(0, 2): 3, (1, 3): 2}
    assert cover_betti_recursive(P3, 1).entries == \
        {(0, 1): 1, (0, 2): 1, (1, 3): 1}
    edge = path_graph(2)
    assert cover_betti_recursive(edge, 0).entries == {(0, 1): 2, (1, 2): 1}
    assert cover_betti_recursive(edge, 1).entries == {(0, 1): 2, (1, 2): 1}


def test_cover_betti_recursive_requires_shedding():
    with pytest.raises(ValueError):
        cover_betti_recursive(C4, 0)


def test_the_cover_recursion_builds_the_independence_complex_once(
        monkeypatch):
    # the public entry checks that v sheds; the recursion below it takes
    # vertices that shed by choice and checks none of them again
    built = []
    build = graphs.independence_complex

    def spy(G):
        built.append(G)
        return build(G)
    monkeypatch.setattr(graphs, "independence_complex", spy)
    clear_caches()
    P12 = path_graph(12)
    assert cover_betti_recursive(P12, 1) == betti_table(cover_ideal(P12))
    assert built == [P12]


def test_cover_betti_recursion_matches_oracle_when_shedding_exists():
    rng = Random(9)
    checked = 0
    for _ in range(120):
        G = random_graph(5, rng.uniform(0.2, 0.8), rng)
        if not G.edges:
            continue
        delta = independence_complex(G)
        shedding = [v for v in range(G.n) if is_shedding(delta, v)]
        if not shedding:
            continue
        checked += 1
        oracle = betti_table(cover_ideal(G))
        assert cover_betti_recursive(G, shedding[0]) == oracle
    assert checked > 40


def test_chordal_split_examples():
    tree = chordal_split(P4)
    target = edge_ideal(complement(P4))
    assert target == sq("ac", "ad", "bd")
    assert validate_split_tree(tree, target)
    assert tree.var == 0
    # complement of the 3-path has the single edge xz
    assert chordal_split(P3).monomial == (1, 0, 1)
    assert chordal_split(K4).monomial is None
    with pytest.raises(ValueError):
        chordal_split(C4)


def test_chordal_split_random_chordal_graphs():
    rng = Random(15)
    checked = 0
    for _ in range(300):
        G = random_graph(6, rng.uniform(0.3, 0.9), rng)
        if not is_chordal(G)[0]:
            continue
        checked += 1
        tree = chordal_split(G)
        target = edge_ideal(complement(G))
        assert validate_split_tree(tree, target)
        order = quotient_order_from_split(tree, G.n)
        assert verify_linear_quotient_order(order, G.n)
    assert checked > 100


def test_froberg_equivalence_examples():
    r = froberg_equivalence(C4)
    assert (r.complement_chordal, r.edge_ideal_linear_resolution,
            r.edge_ideal_vertex_splittable) == (True, True, True)
    assert r.all_agree
    r = froberg_equivalence(TWO_K2)
    assert (r.complement_chordal, r.edge_ideal_linear_resolution,
            r.edge_ideal_vertex_splittable) == (False, False, False)
    assert r.all_agree
    r = froberg_equivalence(K3)
    assert r.all_agree and r.complement_chordal
    with pytest.raises(ValueError):
        froberg_equivalence(graph(3, []))


def test_dual_complex_equivalence_examples():
    assert dual_complex_equivalence(P3).all_agree
    assert dual_complex_equivalence(P3).complement_chordal
    r = dual_complex_equivalence(TWO_K2)
    assert r.all_agree and not r.complement_chordal
    r = dual_complex_equivalence(cycle_graph(5))
    assert r.all_agree and not r.complement_chordal
    with pytest.raises(ValueError):
        dual_complex_equivalence(graph(2, []))


def test_the_complement_is_searched_once_per_graph(monkeypatch, tmp_path,
                                                    capsys):
    searched = []
    search = graphs._elimination_order

    def spy(near):
        searched.append(near)
        return search(near)
    monkeypatch.setattr(graphs, "_elimination_order", spy)
    # both reports read one chordality test of the complement
    G = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert froberg_equivalence(G).all_agree
    assert dual_complex_equivalence(G).all_agree
    assert searched == [complement(G).near]
    # classify --graph searches G and its complement, once each
    searched.clear()
    p = tmp_path / "g.g"
    p.write_text(format_graph(G))
    assert main(["classify", "--graph", str(p)]) == 0
    assert "complement chordal: yes" in capsys.readouterr().out
    assert sorted(searched) == sorted([G.near, complement(G).near])


@pytest.mark.parametrize("G", [cycle_graph(7), complement(path_graph(7))])
def test_graph_ideals_reach_the_oracle_as_masks(monkeypatch, G):
    # the edge ideal and the dual's facet ideal are square-free ideals that
    # keep their support masks; `monomials.mono_from_mask` is the one writer
    # of their exponent tuples
    written = []
    write = monomials.mono_from_mask

    def spy(mask, n):
        written.append(mask)
        return write(mask, n)
    monkeypatch.setattr(monomials, "mono_from_mask", spy)
    clear_caches()
    edge = froberg_equivalence(G)
    dual = dual_complex_equivalence(G)
    assert edge.all_agree and dual.all_agree
    assert edge.complement_chordal == (G != cycle_graph(7))
    assert written == []
    # the tuples are still written on demand, once per generator
    assert edge_ideal(G).gens == {tuple(int(v in e) for v in range(7))
                                  for e in G.edges}
    assert len(written) == len(G.edges)


def test_equivalences_agree_on_all_small_graphs():
    for n in range(2, 5):
        for G in all_graphs(n):
            if not G.edges:
                continue
            assert froberg_equivalence(G).all_agree
            assert dual_complex_equivalence(G).all_agree
