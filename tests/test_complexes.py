from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mi, sq
from vertexsplit.complexes import (alexander_dual_complex, bight,
                                   complex_of_ideal, deletion,
                                   dual_facet_ideal, empty_complex,
                                   from_facet_masks, from_facets,
                                   induced_subcomplex, is_pure,
                                   is_simplex, link, minimal_nonfaces,
                                   simplex, stanley_reisner_ideal)
from vertexsplit.corpus import all_complexes, random_complex, random_graph
from vertexsplit.decomposition import is_shedding
from vertexsplit.monomials import (_max_antichain, compress, intersect,
                                   is_subideal, multiply, unit_ideal,
                                   variable, variable_ideal)

XZ_Y = from_facets([{0, 2}, {1}], 3)  # facets {x,z} and {y}


def test_from_facets_reduces_to_antichain():
    delta = from_facets([{0, 2}, {1}, {0}], 3)
    assert delta.facets == {0b101, 0b010}
    assert from_facets([[]], 2) == empty_complex(2)
    assert from_facets([{0, 1, 2}], 3) == simplex(3)
    with pytest.raises(ValueError):
        from_facets([], 3)
    with pytest.raises(ValueError):
        from_facets([{5}], 3)


# few distinct values, so lists repeat masks and often hold 0
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 63), max_size=12))
def test_max_antichain_keeps_exactly_the_maximal_masks(masks):
    maximal = {m for m in masks
               if not any(m != big and m & big == m for big in masks)}
    assert _max_antichain(masks) == maximal
    assert _max_antichain(iter(masks)) == maximal


def test_is_simplex():
    assert is_simplex(simplex(3))
    assert is_simplex(empty_complex(2))
    assert not is_simplex(from_facets([{0}, {1}], 2))


def test_deletion_link_examples():
    # <{x,z},{y}> at y: del = <{x,z}>, link = {∅}
    assert deletion(XZ_Y, 1).facets == {0b11}
    assert link(XZ_Y, 1) == empty_complex(2)
    # simplex <{x,y}> at x: both are <{y}>
    seg = from_facets([{0, 1}], 2)
    assert deletion(seg, 0).facets == {0b1}
    assert link(seg, 0).facets == {0b1}
    # <{a,b},{c,d}> at a: del = <{b},{c,d}>, link = <{b}>
    two = from_facets([{0, 1}, {2, 3}], 4)
    assert deletion(two, 0).facets == {0b001, 0b110}
    assert link(two, 0).facets == {0b001}


def test_link_requires_a_vertex():
    with pytest.raises(ValueError):
        link(XZ_Y, 3)
    ghost = from_facets([{0}], 2)
    with pytest.raises(ValueError):
        link(ghost, 1)
    # deletion of a ghost vertex restricts the ground set
    assert deletion(ghost, 1).facets == {0b1}


def test_stanley_reisner_examples():
    assert stanley_reisner_ideal(XZ_Y) == sq("xy", "yz")
    assert stanley_reisner_ideal(simplex(4)).is_zero
    assert stanley_reisner_ideal(empty_complex(2)) == mi(2, (1, 0), (0, 1))


def test_complex_of_ideal_examples():
    assert complex_of_ideal(sq("xy", "yz")) == XZ_Y
    assert complex_of_ideal(mi(3)) == simplex(3)
    assert complex_of_ideal(mi(2, (1, 0), (0, 1))) == empty_complex(2)
    with pytest.raises(ValueError):
        complex_of_ideal(unit_ideal(2))
    with pytest.raises(ValueError):
        complex_of_ideal(mi(1, (2,)))


def test_alexander_dual_examples():
    # <{x},{y}> on two vertices: only non-face is {x,y}, complement empty
    assert alexander_dual_complex(from_facets([{0}, {1}], 2)) == empty_complex(2)
    # <{x,z},{y}>: non-faces {x,y},{y,z}; dual facets {z},{x}
    assert alexander_dual_complex(XZ_Y).facets == {0b100, 0b001}
    with pytest.raises(ValueError):
        alexander_dual_complex(simplex(3))


def test_alexander_dual_is_an_involution():
    for n in range(1, 5):
        for delta in all_complexes(n):
            if (1 << n) - 1 in delta.facets:
                continue
            dual = alexander_dual_complex(delta)
            if (1 << n) - 1 in dual.facets:
                continue
            assert alexander_dual_complex(dual) == delta


def test_dual_facet_ideal_examples():
    assert dual_facet_ideal(XZ_Y) == mi(3, (0, 1, 0), (1, 0, 1))
    assert dual_facet_ideal(from_facets([{0}, {1}], 2)) == mi(2, (1, 0), (0, 1))
    assert dual_facet_ideal(simplex(3)).is_unit


def test_dual_consistency():
    # facet-complement ideal = Stanley-Reisner ideal of the dual complex
    for n in range(1, 5):
        for delta in all_complexes(n):
            if (1 << n) - 1 in delta.facets:
                continue
            assert dual_facet_ideal(delta) == stanley_reisner_ideal(
                alexander_dual_complex(delta))


def test_bight_examples():
    assert bight(XZ_Y) == 2
    assert bight(simplex(4)) == 0
    assert bight(empty_complex(5)) == 5


def test_induced_subcomplex_examples():
    assert induced_subcomplex(XZ_Y, 0b011).facets == {0b01, 0b10}
    assert induced_subcomplex(XZ_Y, 0) == empty_complex(0)
    assert induced_subcomplex(XZ_Y, 0b111) == XZ_Y


def relabeled(mask, vertices):
    """The mask on the listed vertices, the i-th of them renamed i."""
    return sum(1 << i for i, v in enumerate(vertices) if mask >> v & 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                         max_size=8),
    st.integers(0, (1 << n) - 1))))
def test_compress_and_induced_subcomplex_relabel_the_support(drawn):
    n, masks, w = drawn
    vertices = [v for v in range(n) if w >> v & 1]
    inside = [m & w for m in masks]
    assert compress(inside, w) == [relabeled(m, vertices) for m in inside]
    delta = from_facet_masks(masks, n)
    faces_in_w = [f & w for f in delta.facets]
    expected = from_facet_masks(
        [relabeled(f, vertices) for f in faces_in_w], len(vertices))
    assert induced_subcomplex(delta, w) == expected


def test_is_pure():
    assert is_pure(from_facets([{0, 1}, {2, 3}], 4))
    assert not is_pure(XZ_Y)
    assert is_pure(simplex(3))


def test_minimal_nonfaces_are_minimal_nonfaces():
    rng = Random(5)
    for _ in range(50):
        delta = random_complex(5, 5, rng)
        nonfaces = minimal_nonfaces(delta)
        assert nonfaces == sorted(nonfaces, key=lambda m: (m.bit_count(), m))
        for mask in nonfaces:
            assert not delta.has_face(mask)
            sub = mask
            while sub:
                bit = sub & -sub
                assert delta.has_face(mask & ~bit)
                sub &= sub - 1


def test_stanley_reisner_round_trip_exhaustive_small():
    for n in range(1, 6):
        for delta in all_complexes(n):
            assert complex_of_ideal(stanley_reisner_ideal(delta)) == delta


def test_stanley_reisner_round_trip_sampled_n6():
    rng = Random(17)
    for _ in range(2000):
        delta = random_complex(6, 7, rng)
        assert complex_of_ideal(stanley_reisner_ideal(delta)) == delta


def test_stanley_reisner_equals_prime_intersection():
    # I_Delta is the intersection of the facet-complement primes
    for n in range(1, 5):
        for delta in all_complexes(n):
            expected = unit_ideal(n)
            for f in delta.sorted_facets():
                comp = [v for v in range(n) if not f >> v & 1]
                expected = intersect(expected, variable_ideal(n, comp))
            assert stanley_reisner_ideal(delta) == expected


def test_shedding_vertex_splits_the_dual_ideal():
    # at a shedding vertex x: dual(delta) = x*dual(del) + dual(link),
    # with the second part inside the first
    for n in range(2, 5):
        for delta in all_complexes(n):
            for x in range(n):
                if not delta.is_vertex(x) or not is_shedding(delta, x):
                    continue
                dual = dual_facet_ideal(delta)
                del_part = dual_facet_ideal(deletion(delta, x))
                link_part = dual_facet_ideal(link(delta, x))
                lifted_del = multiply(_lift(del_part, x, n), variable(n, x))
                lifted_link = _lift(link_part, x, n)
                assert lifted_del.gens | lifted_link.gens == dual.gens
                assert is_subideal(lifted_link, _lift(del_part, x, n))


def _lift(I, x, n):
    """Reinsert a deleted coordinate x into an ideal on n-1 variables."""
    from vertexsplit.monomials import MonomialIdeal
    lifted = frozenset(g[:x] + (0,) + g[x:] for g in I.gens)
    return MonomialIdeal(n, lifted)


@pytest.mark.parametrize("make", [
    lambda rng: random_complex(-3, 4, rng),
    lambda rng: random_complex(0, 4, rng),
    lambda rng: random_complex(5, 0, rng),
    lambda rng: random_graph(5, 1.5, rng),
    lambda rng: random_graph(5, -0.1, rng),
])
def test_random_generators_reject_impossible_sizes(make):
    # refused before sampling: the generator state is untouched
    rng = Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError):
        make(rng)
    assert rng.getstate() == state
