from functools import reduce
from itertools import combinations
from math import isqrt
from operator import or_
from random import Random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mi, sq, tor_betti
from vertexsplit import cache_info, clear_caches, homology, kernel
from vertexsplit.betti import (BettiTable, format_flat, format_grid,
                               make_table, pd, quotient_table, reg)
from vertexsplit.complexes import (complex_of_ideal, from_facet_masks,
                                   from_facets, restrict_masks, simplex,
                                   stanley_reisner_ideal)
from vertexsplit.corpus import all_squarefree_ideals, random_complex
from vertexsplit.graphs import (cover_ideal, cycle_graph, edge_ideal, graph,
                                independence_complex, path_graph)
from vertexsplit.homology import (FieldChoice, QQ, betti_table,
                                  has_linear_resolution, hochster_betti,
                                  is_cohen_macaulay, koszul_betti,
                                  parse_field, reduced_homology_dims)
from vertexsplit.monomials import (MonomialIdeal, compress, minimal_transversals,
                                   minimalize, mono_from_mask, squarefree_ideal,
                                   support_masks, unit_ideal, variable_ideal)

GF2 = FieldChoice.prime(2)
GF5 = FieldChoice.prime(5)

# the six-vertex real projective plane; homology has two-torsion, so its
# Betti numbers differ between characteristic zero and two
RP2 = from_facets(
    [{0, 1, 3}, {0, 1, 5}, {0, 2, 3}, {0, 2, 4}, {0, 4, 5}, {1, 2, 4},
     {1, 2, 5}, {1, 3, 4}, {2, 3, 5}, {3, 4, 5}], 6)


def test_field_parsing():
    assert parse_field("q") == QQ
    assert parse_field("p=7").char == 7
    assert parse_field(5).char == 5
    assert parse_field(None) == QQ
    with pytest.raises(ValueError):
        FieldChoice(6)


def test_reduced_homology_examples():
    two_points = from_facets([{0}, {1}], 2)
    assert reduced_homology_dims(two_points) == {-1: 0, 0: 1}
    hollow = from_facets([{0, 1}, {1, 2}, {0, 2}], 3)
    assert reduced_homology_dims(hollow) == {-1: 0, 0: 0, 1: 1}
    assert reduced_homology_dims(simplex(3)) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_dims(from_facets([[]], 3)) == {-1: 1}


def test_projective_plane_depends_on_characteristic():
    assert reduced_homology_dims(RP2, QQ) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_dims(RP2, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology_dims(RP2, GF5) == reduced_homology_dims(RP2, QQ)


def test_hochster_examples():
    assert hochster_betti(mi(2, (1, 1))).entries == {(0, 2): 1}
    assert hochster_betti(sq("xy", "yz")).entries == {(0, 2): 2, (1, 3): 1}
    assert hochster_betti(sq("x", "y")).entries == {(0, 1): 2, (1, 2): 1}
    with pytest.raises(ValueError):
        hochster_betti(mi(3))
    with pytest.raises(ValueError, match="unit ideal"):
        hochster_betti(unit_ideal(3))
    with pytest.raises(ValueError, match="2\\^31 vertex subsets"):
        hochster_betti(variable_ideal(31, range(31)))
    # the limit counts the variables of the generators: x0*x1, x1*x2 in 35
    # variables visits 2^3 subsets
    I = mi(35, (1, 1) + (0,) * 33, (0, 1, 1) + (0,) * 32)
    assert hochster_betti(I).entries == {(0, 2): 2, (1, 3): 1}


def test_hochster_rejects_an_ideal_with_a_square():
    # x^2*y, y*z: every support has two vertices, the shape of an edge
    # ideal, so only the square test keeps it off the graph route
    for I in (mi(1, (2,)), mi(3, (2, 1, 0), (0, 1, 1))):
        with pytest.raises(ValueError, match="square-free"):
            hochster_betti(I)


def test_koszul_examples():
    assert koszul_betti(mi(2, (2, 0), (1, 1))).entries == {(0, 2): 2, (1, 3): 1}
    assert koszul_betti(mi(3, (1, 1, 1))).entries == {(0, 3): 1}
    I = sq("xy", "yz")
    assert koszul_betti(I) == hochster_betti(I)
    assert koszul_betti(unit_ideal(3)).entries == {(0, 0): 1}
    with pytest.raises(ValueError):
        koszul_betti(mi(2))


def test_oracles_agree_with_independent_tor_oracle():
    cases = [sq("xy", "yz"), sq("xw", "yz"), sq("xy", "yz", "zx"),
             sq("xyz"), sq("x", "yz"), mi(2, (2, 0), (1, 1)),
             mi(3, (2, 1, 0), (0, 1, 2), (1, 1, 1)),
             mi(2, (3, 0), (2, 1), (0, 2))]
    for I in cases:
        assert koszul_betti(I).entries == tor_betti(I)


def test_hochster_equals_koszul_exhaustive_small():
    for n in range(1, 5):
        for I in all_squarefree_ideals(n):
            assert hochster_betti(I) == koszul_betti(I)


def test_hochster_equals_koszul_sampled():
    rng = Random(23)
    for n in (5, 6):
        for _ in range(150):
            delta = random_complex(n, 6, rng)
            I = MonomialIdeal(n, frozenset(
                mono_from_mask(m, n) for m in delta.facets))
            assert hochster_betti(I) == koszul_betti(I)


def reference_hochster(delta, p):
    """The Hochster sum over all 2^n vertex subsets W, by cardinality: the
    restriction's facets by a brute-force maximality filter, and a
    restriction skipped only when a vertex lies in all of its facets."""
    n = delta.ground_size
    entries = {}
    for j in range(n + 1):
        for combo in combinations(range(n), j):
            w = sum(1 << v for v in combo)
            faces = {f & w for f in delta.facets}
            facets = [f for f in faces
                      if not any(f != g and f & g == f for g in faces)]
            common = ~0
            for f in facets:
                common &= f
            if common:
                continue
            dims = kernel.homology_dims(sorted(facets), p)
            for t, d in enumerate(dims):
                i = j - t - 1
                if d and i >= 0:
                    entries[i, j] = entries.get((i, j), 0) + d
    return make_table(entries, "ideal")


@st.composite
def hochster_inputs(draw):
    """Complexes on at most 7 vertices other than the full simplex: random
    facets (ghost vertices where they miss a vertex), the {emptyset}
    complex, and cones over either."""
    n = draw(st.integers(1, 7))
    if draw(st.integers(0, 9)):
        masks = draw(st.lists(st.integers(0, (1 << n) - 2),
                              min_size=1, max_size=8))
    else:
        masks = [0]
    if n < 7 and draw(st.booleans()):
        masks, n = [m | 1 << n for m in masks], n + 1
    return from_facet_masks(masks, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hochster_inputs(), st.sampled_from([0, 2]))
def test_hochster_matches_the_full_subset_loop(delta, p):
    expected = reference_hochster(delta, p)
    I = stanley_reisner_ideal(delta)
    assert hochster_betti(I, FieldChoice(p)) == expected


@st.composite
def relabelled_ideals(draw):
    """A square-free ideal on at most 8 variables and a relabeling of it."""
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1,
                          max_size=8))
    perm = draw(st.permutations(range(n)))
    I = minimalize((mono_from_mask(m, n) for m in masks), n)
    J = MonomialIdeal(n, frozenset(tuple(g[perm.index(v)] for v in range(n))
                                   for g in I.gens))
    return I, J


@settings(max_examples=200, deadline=None, derandomize=True)
@given(relabelled_ideals(), st.sampled_from([0, 2]))
def test_tables_do_not_depend_on_the_labels(ideals, p):
    I, J = ideals
    field = FieldChoice(p)
    clear_caches()
    table = hochster_betti(I, field)
    clear_caches()
    assert hochster_betti(J, field) == table
    # the memo keys each relabeling by its own labels
    assert betti_table(I, field) == table
    shared = betti_table(J, field)
    clear_caches()
    assert shared == hochster_betti(J, field)


def reference_edge_hochster(I, p):
    """The facet route spelled out for a square-free ideal: the
    Stanley-Reisner facets restricted to each W that is a union of
    generator supports, with the kernel's homology."""
    facets = complex_of_ideal(I).facets
    supports = support_masks(I)
    entries = {}
    for w in range(1, 1 << I.num_vars):
        if w != reduce(or_, (g for g in supports if g & w == g), 0):
            continue
        j = w.bit_count()
        dims = kernel.homology_dims(restrict_masks(facets, w), p)
        for t, d in enumerate(dims):
            i = j - t - 1
            if d and i >= 0:
                entries[i, j] = entries.get((i, j), 0) + d
    return make_table(entries, "ideal")


@st.composite
def small_graphs(draw):
    """A graph on at most 10 vertices with at least one edge; vertices on
    no edge are ghost variables of its edge ideal."""
    n = draw(st.integers(2, 10))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    return graph(n, edges or [(0, 1)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(), st.sampled_from([0, 2]))
def test_edge_ideals_fold_to_the_facet_route_table(G, p):
    I = edge_ideal(G)
    field = FieldChoice(p)
    table = hochster_betti(I, field)
    assert table == reference_edge_hochster(I, p)
    # the Koszul route is independent, but slow past eight variables
    if G.n <= 8:
        assert table == koszul_betti(I, field)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The facet lists passed to `kernel.homology_dims` during a test."""
    calls = []
    homology_dims = kernel.homology_dims

    def spy(facets, p):
        calls.append(list(facets))
        return homology_dims(calls[-1], p)
    monkeypatch.setattr(kernel, "homology_dims", spy)
    return calls


def edge_masks(G):
    return [1 << u | 1 << v for u, v in G.edges]


def recursion_homology(G, p=0):
    """Nonzero reduced homology of Ind(G) from the subset recursion, for a
    graph with every vertex on an edge."""
    edges = edge_masks(G)
    table, shapes = homology._independence_table(
        edges, homology._neighbours(edges), p)
    return {t - 1: d for t, d in enumerate(shapes[table[-1]]) if d}


def nonzero_homology(G):
    dims = reduced_homology_dims(independence_complex(G))
    return {k: d for k, d in dims.items() if d}


def test_cycles_need_no_kernel_call(kernel_calls):
    # Ind(C5) is a circle and Ind(C6) a wedge of two
    for n, want in ((5, {1: 1}), (6, {1: 2})):
        G = cycle_graph(n)
        assert recursion_homology(G) == want
        assert kernel_calls == []
        assert nonzero_homology(G) == want
        kernel_calls.clear()


def test_paths_need_no_kernel_call(kernel_calls):
    # Ind(P_n) is a point for n = 3k + 1, else a (k - 1)-sphere for
    # n = 3k - 1 or 3k (Kozlov)
    for n in range(2, 10):
        G = path_graph(n)
        want = {} if n % 3 == 1 else {(n + 1) // 3 - 1: 1}
        assert recursion_homology(G) == want
        assert kernel_calls == []
        assert nonzero_homology(G) == want
        kernel_calls.clear()


def test_a_pendant_vertex_needs_no_kernel_call(kernel_calls):
    # 0 hangs from 1; 1 also meets 2, 3 and 4, which lie on the 5-cycle
    # 2-3-5-6-4 with a chord 3-4 and a tail 6-7.  Ind(G) is the
    # suspension of Ind(G - N[1]), and G - N[1] is the path 5-6-7, whose
    # Ind is two points: a circle
    G = graph(8, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 5), (5, 6),
                  (6, 4), (4, 2), (3, 4), (6, 7)])
    assert recursion_homology(G) == {1: 1}
    assert kernel_calls == []
    assert nonzero_homology(G) == {1: 1}


def test_cycle_tables_need_no_kernel_call_and_hit_the_table_memo(
        kernel_calls):
    I = edge_ideal(cycle_graph(7))
    clear_caches()
    first = betti_table(I)
    assert kernel_calls == []
    before = cache_info()["tables"]
    assert betti_table(I) == first
    after = cache_info()["tables"]
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def test_an_ideal_built_from_tuples_or_masks_is_one_table_entry():
    # both copies key the memo by their support masks
    masks = [0b0011, 0b0110, 0b1100, 0b1001]
    built = squarefree_ideal(masks, 4)
    written = minimalize((mono_from_mask(m, 4) for m in masks), 4)
    clear_caches()
    assert betti_table(written) == betti_table(built)
    info = cache_info()["tables"]
    assert (info.hits, info.misses) == (1, 1)


# 5-regular on eight vertices; Ind(G) has H_0 = 1 and H_1 = 2, and at
# W = V every vertex's link and deletion share a nonzero degree
REGULAR8 = graph(8, [(int(e[0]), int(e[1])) for e in (
    "06 13 05 47 56 14 34 04 25 57 16 26 15 37 17 02 23 03 67 24").split()])


@pytest.mark.parametrize("p", [0, 2, 3])
def test_the_kernel_fallback_runs_only_where_every_vertex_collides(
        kernel_calls, p):
    edges = edge_masks(REGULAR8)
    table, shapes = homology._independence_table(
        edges, homology._neighbours(edges), p)
    full = len(table) - 1
    assert shapes[table[full]] == (0, 1, 2)
    for u, row in enumerate(REGULAR8.near):
        link = shapes[table[full & ~(row | 1 << u)]]
        deletion = shapes[table[full ^ 1 << u]]
        assert any(a and b for a, b in zip(link, deletion))
    kernel_calls.clear()
    field = FieldChoice(p)
    I = edge_ideal(REGULAR8)
    table = hochster_betti(I, field)
    assert len(kernel_calls) == 1
    assert reduce(or_, kernel_calls[0]) == full
    assert table == koszul_betti(I, field)


@st.composite
def covered_graphs(draw):
    """The edge masks of a graph on at most 9 vertices, every vertex on
    an edge."""
    n = draw(st.integers(2, 9))
    density = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [1 << u | 1 << v for u, v in combinations(range(n), 2)
             if rng.random() < density] or [0b11]
    return compress(edges, reduce(or_, edges))


def independent_facets(edges, w):
    """Maximal independent subsets of w, by brute force."""
    independent = [s for s in range(w + 1) if s & w == s
                   and not any(e & s == e for e in edges)]
    return [s for s in independent
            if not any(s != t and s & t == s for t in independent)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(covered_graphs(), st.sampled_from([0, 2, 3]))
def test_the_recursion_is_exact_at_every_vertex_set(edges, p):
    table, shapes = homology._independence_table(
        edges, homology._neighbours(edges), p)
    for w, s in enumerate(table):
        dims = kernel.homology_dims(independent_facets(edges, w), p)
        assert shapes[s] + (0,) * (len(dims) - len(shapes[s])) == dims


def facet_route_table(I, p):
    """The table of a square-free ideal by the facet route alone."""
    supports = support_masks(I)
    entries = {}
    for j, dims, c in homology._facet_restrictions(
            complex_of_ideal(I).facets, supports, reduce(or_, supports), p):
        for t, d in enumerate(dims):
            if d and j - t - 1 >= 0:
                entries[j - t - 1, j] = entries.get((j - t - 1, j), 0) + c * d
    return make_table(entries, "ideal")


@pytest.fixture
def routes(monkeypatch):
    """The names of the Hochster routes, other than the edge route, that
    a test takes."""
    taken = []
    for name in ("_cover_strands", "_facet_restrictions"):
        def spy(*args, name=name, route=getattr(homology, name)):
            taken.append(name)
            return route(*args)
        monkeypatch.setattr(homology, name, spy)
    return taken


@pytest.mark.parametrize("p", [0, 2, 3])
def test_cover_tables_equal_the_facet_and_koszul_routes(kernel_calls, p):
    field = FieldChoice(p)
    for G in (path_graph(5), cycle_graph(5), cycle_graph(7),
              graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)]),
              graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
              # isolated vertices 1, 3 and 5 between covered ones
              graph(7, [(0, 2), (2, 4), (4, 6), (2, 6)])):
        I = cover_ideal(G)
        assert hochster_betti(I, field) == facet_route_table(I, p) \
            == koszul_betti(I, field)
    # the cover route reads the independence table of REGULAR8, whose
    # kernel fallback fires once, at W = V
    I = cover_ideal(REGULAR8)
    kernel_calls.clear()
    table = hochster_betti(I, field)
    assert len(kernel_calls) == 1
    assert reduce(or_, kernel_calls[0]) == (1 << 8) - 1
    assert table == facet_route_table(I, p) == koszul_betti(I, field)
    assert table.entries == {(0, 6): 8, (1, 7): 8, (1, 8): 1, (2, 8): 2}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(covered_graphs(), st.sampled_from([0, 2, 3]))
def test_the_cover_route_equals_the_facet_and_koszul_routes(edges, p):
    n = reduce(or_, edges).bit_length()
    I = squarefree_ideal(minimal_transversals(edges), n)
    field = FieldChoice(p)
    assert hochster_betti(I, field) == facet_route_table(I, p) \
        == koszul_betti(I, field)


def test_only_cover_ideals_take_the_cover_route(routes):
    # (z, xy) has the minimal primes xz and yz, so it is J(G) for those
    # two edges
    assert hochster_betti(sq("z", "xy")).entries == \
        {(0, 1): 1, (0, 2): 1, (1, 3): 1}
    assert routes == ["_cover_strands"]
    # (xyz) has the primes x, y and z; the next ideal has the prime xyz
    # and the next the prime z; the last, x1x3x5 and x3x6 in 7 variables,
    # has the prime x3 and a support that skips variables
    for I in (sq("xyz"), sq("xyz", "wx", "wy", "wz"), sq("xyz", "zw"),
              squarefree_ideal([0b101010, 0b1001000], 7)):
        routes.clear()
        assert hochster_betti(I) == koszul_betti(I)
        assert routes == ["_facet_restrictions"]
    # an edge ideal takes the edge route before the test is made
    routes.clear()
    hochster_betti(sq("xy", "yz"))
    assert routes == []


def test_the_twelve_cycle_table_is_the_hochster_table():
    I = edge_ideal(cycle_graph(12))
    clear_caches()
    assert betti_table(I) == hochster_betti(I)


def test_rational_and_mod_p_tables_agree_at_small_scale():
    # no torsion below seven vertices away from characteristic <= 3
    rng = Random(29)
    for _ in range(120):
        delta = random_complex(6, 6, rng)
        I = MonomialIdeal(6, frozenset(
            mono_from_mask(m, 6) for m in delta.facets))
        assert koszul_betti(I, QQ) == koszul_betti(I, GF5)


def test_euler_characteristic_consistency():
    rng = Random(31)
    for _ in range(80):
        delta = random_complex(5, 5, rng)
        dims = reduced_homology_dims(delta)
        faces = set()
        stack = list(delta.facets)
        while stack:
            f = stack.pop()
            if f in faces:
                continue
            faces.add(f)
            g = f
            while g:
                bit = g & -g
                stack.append(f & ~bit)
                g &= g - 1
        chain_sum = sum((-1) ** f.bit_count() for f in faces)
        homology_sum = sum((-1) ** (k + 1) * d for k, d in dims.items())
        assert chain_sum == homology_sum


def test_reg_pd_and_quotient_examples():
    T = make_table({(0, 2): 2, (1, 3): 1})
    assert reg(T) == 2 and pd(T) == 1
    free = make_table({(0, 0): 1})
    assert reg(free) == 0 and pd(free) == 0
    Q = quotient_table(T)
    assert Q.entries == {(0, 0): 1, (1, 2): 2, (2, 3): 1}
    assert reg(Q) == 1 and pd(Q) == 2
    assert quotient_table(make_table({})).entries == {(0, 0): 1}
    assert quotient_table(make_table({(0, 1): 2, (1, 2): 1})).entries == \
        {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    empty = make_table({})
    assert reg(empty) is None and pd(empty) is None


def test_has_linear_resolution_examples():
    assert has_linear_resolution(edge_ideal(cycle_graph(4)))
    assert not has_linear_resolution(sq("ab", "cd"))
    assert not has_linear_resolution(mi(3, (0, 1, 0), (1, 0, 1)))
    with pytest.raises(ValueError):
        has_linear_resolution(mi(2))


def test_edge_linearity_stops_early_and_agrees_with_the_full_table():
    # every edge set of K6; a labelled graph on fewer vertices has the edge
    # masks of one of them, and neither verdict reads the number of
    # variables.  Each edge set is new to the verdict memo, so every call
    # runs the early-exit recursion.
    clear_caches()
    pairs = [1 << u | 1 << v for u, v in combinations(range(6), 2)]
    wrong = []
    for chosen in range(1, 1 << len(pairs)):
        I = squarefree_ideal(
            [e for k, e in enumerate(pairs) if chosen >> k & 1], 6)
        linear = all(j == i + 2 for i, j in hochster_betti(I).entries)
        if has_linear_resolution(I) != linear:
            wrong.append(I)
    assert wrong == []
    assert cache_info()["linear"].misses == (1 << len(pairs)) - 1


def test_a_nonlinear_edge_ideal_at_the_size_limit_stops_at_its_witness():
    # an induced 2K2 on vertices 0-3, whose independence complex is a
    # 4-cycle with homology in degree 1, and a path through the rest: the
    # 2K2 is the 15th vertex set visited, so the full table's 2^24 entries
    # are never built
    edges = [(0, 1), (2, 3)] + [(v, v + 1) for v in range(3, 23)]
    I = edge_ideal(graph(24, edges))
    clear_caches()
    tracemalloc.start()
    try:
        assert not has_linear_resolution(I)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one more vertex is refused before any subset is visited
    with pytest.raises(ValueError, match="the limit is 24 vertices"):
        has_linear_resolution(edge_ideal(graph(25, edges + [(23, 24)])))


def test_is_cohen_macaulay_examples():
    # the independence complex of the 3-path is shifted-dual to one edge
    from vertexsplit.complexes import alexander_dual_complex
    from vertexsplit.graphs import independence_complex, path_graph
    dual = alexander_dual_complex(independence_complex(path_graph(3)))
    assert is_cohen_macaulay(dual)
    dual_2k2 = alexander_dual_complex(
        independence_complex(sq_graph_2k2()))
    assert not is_cohen_macaulay(dual_2k2)
    assert is_cohen_macaulay(simplex(3))


def sq_graph_2k2():
    from vertexsplit.graphs import graph
    return graph(4, [(0, 1), (2, 3)])


def test_betti_table_dispatch_and_zero():
    assert betti_table(mi(3)).is_empty
    assert betti_table(unit_ideal(3)).entries == {(0, 0): 1}
    I = sq("xy", "yz")
    assert betti_table(I) == koszul_betti(I)


def test_betti_table_formats():
    T = make_table({(0, 2): 2, (1, 3): 1})
    assert format_flat(T) == "0 2 2\n1 3 1"
    grid = format_grid(T)
    assert "2" in grid and "i\\j-i" in grid
    assert format_grid(make_table({})) == "(empty Betti table)"


def test_betti_table_validation():
    with pytest.raises(ValueError):
        BettiTable({(0, 1): -2})
    with pytest.raises(ValueError):
        BettiTable({}, subject="module")
    assert make_table({(0, 1): 0}).is_empty


def test_a_table_miss_does_not_validate_the_field_again(monkeypatch):
    # the primality test of 2^31 - 1 runs up to isqrt(p) = 46,340 trial
    # divisions; the memo is keyed by the field, so no miss rebuilds it
    field = FieldChoice.prime(2**31 - 1)
    calls = []

    def spy(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(homology, "isqrt", spy)
    clear_caches()
    ideals = [sq("xy", "yz"), sq("xy", "zw"), mi(3, (2, 0, 0), (0, 1, 1)),
              edge_ideal(cycle_graph(5)), cover_ideal(cycle_graph(5))]
    tables = [betti_table(I, field) for I in ideals]
    assert cache_info()["tables"].misses >= len(ideals)
    assert calls == []
    assert all(not t.is_empty for t in tables)
