from random import Random

import pytest

from vertexsplit.complexes import (bight, dual_facet_ideal, empty_complex,
                                   from_facets, simplex)
from vertexsplit.corpus import all_complexes, random_complex
from vertexsplit.decomposition import (DecompositionNode, SimplexLeaf,
                                       check_pd_equals_bight, is_shedding,
                                       oracle_pd_reg, pd_reg_recursive,
                                       validate_decomposition_tree,
                                       vertex_decomposable)
from vertexsplit.graphs import cycle_graph, independence_complex, path_graph
from vertexsplit.splitting import vertex_split

XZ_Y = from_facets([{0, 2}, {1}], 3)
TWO_EDGES = from_facets([{0, 1}, {2, 3}], 4)


def test_is_shedding_examples():
    assert is_shedding(XZ_Y, 1)
    assert not is_shedding(from_facets([{0, 1}], 2), 0)
    assert not is_shedding(TWO_EDGES, 0)
    with pytest.raises(ValueError):
        is_shedding(XZ_Y, 3)


def test_shedding_matches_deletion_facet_condition():
    # the remark form (no link facet is a deletion facet) agrees with the
    # definition (every deletion facet is an original facet)
    from vertexsplit.complexes import deletion
    for n in range(1, 5):
        for delta in all_complexes(n):
            for x in range(n):
                if not delta.is_vertex(x):
                    continue
                if n == 1:
                    continue
                del_complex = deletion(delta, x)
                original = {_drop(f, x) for f in delta.facets if not f >> x & 1}
                direct = del_complex.facets <= original
                assert is_shedding(delta, x) == direct


def _drop(mask, x):
    low = mask & ((1 << x) - 1)
    return low | (mask >> (x + 1)) << x


def test_vertex_decomposable_examples():
    tree = vertex_decomposable(XZ_Y)
    assert isinstance(tree, DecompositionNode) and tree.vertex == 1
    assert validate_decomposition_tree(tree, XZ_Y)
    assert vertex_decomposable(TWO_EDGES) is None
    assert vertex_decomposable(simplex(4)) == SimplexLeaf(0b1111, 4)
    assert vertex_decomposable(empty_complex(2)) == SimplexLeaf(0, 2)


def test_certificate_replay_rejects_wrong_complex():
    tree = vertex_decomposable(XZ_Y)
    assert not validate_decomposition_tree(tree, simplex(3))


def test_certificate_replay_rejects_out_of_range_vertex():
    leaf = SimplexLeaf(0b101, 3)
    for v in (-1, 3):
        assert not XZ_Y.is_vertex(v)
        assert not validate_decomposition_tree(
            DecompositionNode(v, leaf, leaf), XZ_Y)


def test_pd_reg_examples():
    assert pd_reg_recursive(XZ_Y) == (2, 1)
    assert oracle_pd_reg(XZ_Y) == (2, 1)
    assert pd_reg_recursive(simplex(3)) == (0, 0)
    with pytest.raises(ValueError):
        pd_reg_recursive(from_facets([{0, 2}, {1, 3}], 4))  # C4 complex


def test_pd_reg_with_ghost_vertices():
    ghost = from_facets([{0}], 3)  # two ghost vertices contribute variables
    assert pd_reg_recursive(ghost) == (2, 0)
    assert oracle_pd_reg(ghost) == (2, 0)
    assert pd_reg_recursive(empty_complex(4)) == (4, 0)


def test_check_pd_equals_bight_examples():
    assert check_pd_equals_bight(XZ_Y)
    assert bight(XZ_Y) == 2
    assert check_pd_equals_bight(simplex(3))
    delta = independence_complex(path_graph(4))
    assert check_pd_equals_bight(delta)
    with pytest.raises(ValueError):
        check_pd_equals_bight(from_facets([{0, 2}, {1, 3}], 4))


def test_duality_with_splittability_small_exhaustive():
    for n in range(5):
        for delta in all_complexes(n):
            decomposable = vertex_decomposable(delta) is not None
            splittable = vertex_split(dual_facet_ideal(delta)) is not None
            assert decomposable == splittable


def test_duality_with_splittability_sampled():
    rng = Random(41)
    for n in (5, 6):
        for _ in range(150):
            delta = random_complex(n, 7, rng)
            decomposable = vertex_decomposable(delta) is not None
            splittable = vertex_split(dual_facet_ideal(delta)) is not None
            assert decomposable == splittable


def test_recursion_matches_oracle_on_decomposable_corpus():
    rng = Random(43)
    checked = 0
    for _ in range(200):
        delta = random_complex(5, 6, rng)
        if vertex_decomposable(delta) is None:
            continue
        checked += 1
        assert pd_reg_recursive(delta) == oracle_pd_reg(delta)
        assert check_pd_equals_bight(delta)
    assert checked > 50


def test_independence_complex_of_cycle_not_decomposable():
    assert vertex_decomposable(independence_complex(cycle_graph(4))) is None
