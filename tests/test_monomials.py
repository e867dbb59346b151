from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ideals_equal_by_membership, member, mi, sq
from vertexsplit.homology import betti_table
from vertexsplit.monomials import (MonomialIdeal, _max_antichain,
                                   alexander_dual_ideal, colon, divides,
                                   intersect, is_squarefree, is_subideal,
                                   minimal_transversals, minimalize,
                                   mono_from_mask, multiply, squarefree_ideal,
                                   support_masks, unit_ideal, variable,
                                   x_partition)
from vertexsplit.splitting import vertex_split


def test_minimalize_absorbs_multiples():
    # {xy, xyz, z} -> {xy, z}
    I = mi(3, (1, 1, 0), (1, 1, 1), (0, 0, 1))
    assert I.gens == {(1, 1, 0), (0, 0, 1)}


def test_minimalize_empty_is_zero_ideal():
    I = minimalize([], 3)
    assert I.is_zero and not I.gens


def test_minimalize_unit_absorbs_everything():
    I = mi(2, (0, 0), (1, 0))
    assert I.gens == {(0, 0)} and I.is_unit


def test_minimalize_rejects_wrong_arity():
    with pytest.raises(ValueError):
        minimalize([(1, 0)], 3)


def test_minimalize_rejects_huge_exponents():
    with pytest.raises(ValueError):
        minimalize([(1 << 40, 0)], 2)


def test_divides_examples():
    assert divides((1, 1, 0), (1, 1, 1))
    assert not divides((2, 0), (1, 1))
    assert divides((0, 0, 0), (5, 1, 2))
    with pytest.raises(ValueError):
        divides((1, 0), (1, 0, 0))


def test_colon_examples():
    # (xy, yz) : y = (x, z)
    assert colon(sq("xy", "yz"), (0, 1, 0)).gens == {(1, 0, 0), (0, 0, 1)}
    # (xy) : yz = (x)
    assert colon(mi(3, (1, 1, 0)), (0, 1, 1)).gens == {(1, 0, 0)}
    # (x) : x = (1)
    assert colon(mi(1, (1,)), (1,)).is_unit
    # (I : 1) = I
    I = sq("xy", "yz")
    assert colon(I, (0, 0, 0)) == I


def test_intersect_lcm_example():
    # (y) cap (xz) = (xyz)
    assert intersect(mi(3, (0, 1, 0)), mi(3, (1, 0, 1))).gens == {(1, 1, 1)}


def test_intersect_derived_example():
    # (x, y) cap (y, z) = (y, xz), pinned by membership enumeration
    got = intersect(mi(3, (1, 0, 0), (0, 1, 0)), mi(3, (0, 1, 0), (0, 0, 1)))
    expected = mi(3, (0, 1, 0), (1, 0, 1))
    assert ideals_equal_by_membership(got, expected, 4)
    assert got == expected


def test_intersect_with_unit_is_identity():
    I = sq("xy", "yz")
    assert intersect(I, unit_ideal(3)) == I


def test_intersect_ring_mismatch():
    with pytest.raises(ValueError):
        intersect(unit_ideal(2), unit_ideal(3))


def test_is_subideal_examples():
    assert is_subideal(mi(3, (1, 0, 1)), unit_ideal(3))
    # (bd) inside (c, d)
    assert is_subideal(mi(4, (0, 1, 0, 1)), mi(4, (0, 0, 1, 0), (0, 0, 0, 1)))
    assert not is_subideal(mi(4, (0, 1, 1, 0)), mi(4, (1, 0, 0, 0)))
    assert is_subideal(mi(2), mi(2))
    assert not is_subideal(unit_ideal(2), mi(2))


def test_x_partition_examples():
    J, K = x_partition(mi(3, (0, 1, 0), (1, 0, 1)), 1)
    assert J.gens == {(0, 1, 0)} and K.gens == {(1, 0, 1)}
    J, K = x_partition(sq("xy", "yz"), 1)
    assert J.gens == {(1, 1, 0), (0, 1, 1)} and K.is_zero
    J, K = x_partition(sq("ac", "ad", "bd"), 0)
    assert len(J.gens) == 2 and K.gens == {(0, 1, 0, 1)}


def test_x_partition_errors():
    with pytest.raises(ValueError):
        x_partition(mi(2), 0)
    with pytest.raises(ValueError):
        x_partition(unit_ideal(2), 5)


def test_is_squarefree():
    assert is_squarefree(sq("xy", "yz"))
    assert not is_squarefree(mi(1, (2,)))
    assert not is_squarefree(mi(3, (1, 1, 0), (0, 2, 1)))
    assert is_squarefree(mi(4))
    assert is_squarefree(mi(0)) and is_squarefree(unit_ideal(0))
    assert is_squarefree(unit_ideal(3))


@st.composite
def mask_antichains(draw):
    """n <= 8 and an antichain of masks on n vertices; {0} when every mask
    drawn is empty, and none when none is drawn."""
    n = draw(st.integers(0, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    return n, _max_antichain(masks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mask_antichains())
@example((0, frozenset()))
@example((0, frozenset({0})))
@example((3, frozenset()))
@example((3, frozenset({0})))
@example((7, frozenset({0b11, 0b110, 0b1100, 0b11000, 0b110000, 0b1100000})))
def test_support_masks_read_back_what_squarefree_ideal_writes(drawn):
    # I keeps its masks and writes its tuples only when asked; J is the
    # same ideal built from its tuples, which derives its masks on reading
    n, masks = drawn
    I = squarefree_ideal(masks, n)
    J = minimalize((mono_from_mask(m, n) for m in masks), n)
    assert I.masks == J.masks == masks
    assert betti_table(I) == betti_table(J)
    assert vertex_split(I) == vertex_split(J)
    assert I.is_zero == J.is_zero == (not masks)
    assert I.is_unit == J.is_unit == (masks == {0})
    assert is_squarefree(I) and is_squarefree(J)
    assert support_masks(I) == support_masks(J) == masks
    assert I == J and J == I and hash(I) == hash(J)
    assert repr(I) == repr(J) and I.gens == J.gens


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=6)))
def test_a_square_is_refused_at_the_mask_boundary(gens):
    n = len(gens[0])
    I = minimalize(gens, n)
    squarefree = all(e <= 1 for g in I.gens for e in g)
    assert is_squarefree(I) == squarefree
    if squarefree:
        assert sorted(support_masks(I)) == sorted(
            sum(e << i for i, e in enumerate(g)) for g in I.gens)
        return
    for reader in (support_masks, alexander_dual_ideal):
        with pytest.raises(ValueError, match="square-free"):
            reader(I)


def test_alexander_dual_examples():
    # dual of (xy, yz) = (y) cap ... = (y, xz)
    assert alexander_dual_ideal(sq("xy", "yz")) == mi(3, (0, 1, 0), (1, 0, 1))
    assert alexander_dual_ideal(mi(2)).is_unit
    assert alexander_dual_ideal(unit_ideal(2)).is_zero
    with pytest.raises(ValueError):
        alexander_dual_ideal(mi(1, (2,)))


def _transversals_by_scan(family, n):
    hitting = [t for t in range(1 << n) if all(t & e for e in family)]
    return frozenset(t for t in hitting
                     if not any(s != t and s & t == s for s in hitting))


def test_minimal_transversals_match_the_definition():
    cases = [(3, []), (3, [0]), (3, [0b101, 0, 0b011]),
             (3, [0b011, 0b011, 0b001]), (4, [0b0001, 0b0011, 0b0111])]
    rng = Random(23)
    for _ in range(400):
        n = rng.randint(1, 7)
        family = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        # nested masks and repeats
        family += [m | rng.randrange(1 << n) for m in family[:2]]
        family += family[:1]
        rng.shuffle(family)
        cases.append((n, family))
    assert minimal_transversals([]) == {0}
    assert minimal_transversals([0b101, 0, 0b011]) == frozenset()
    for n, family in cases:
        assert minimal_transversals(family) == _transversals_by_scan(family, n)


exponents = st.tuples(*[st.integers(0, 2)] * 3)
gen_sets = st.lists(exponents, min_size=0, max_size=4)


@given(gen_sets)
def test_minimalize_idempotent_and_order_independent(gens):
    I = minimalize(gens, 3)
    assert minimalize(I.gens, 3) == I
    assert minimalize(reversed(gens), 3) == I
    # the generated ideal is unchanged
    raw = MonomialIdeal(3, frozenset(map(tuple, gens)))
    for m in [(0, 0, 0), (1, 1, 1), (2, 0, 1), (0, 2, 2)]:
        assert member(I, m) == any(divides(g, m) for g in raw.gens)


@given(gen_sets, exponents)
def test_colon_matches_membership(gens, m):
    I = minimalize(gens, 3)
    C = colon(I, m)
    # g in (I : m) iff g*m in I, spot-checked on low degrees
    for probe in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                  (1, 1, 1), (2, 1, 0)]:
        bumped = tuple(a + b for a, b in zip(probe, m))
        assert member(C, probe) == member(I, bumped)


@settings(max_examples=60)
@given(gen_sets, gen_sets, gen_sets)
def test_intersect_commutative_associative(g1, g2, g3):
    A, B, C = (minimalize(g, 3) for g in (g1, g2, g3))
    assert intersect(A, B) == intersect(B, A)
    left = intersect(intersect(A, B), C)
    right = intersect(A, intersect(B, C))
    assert ideals_equal_by_membership(left, right, 5)
    assert left == right


@given(gen_sets)
def test_x_partition_reunion(gens):
    I = minimalize(gens, 3)
    if I.is_zero:
        return
    for x in range(3):
        J, K = x_partition(I, x)
        assert J.gens | K.gens == I.gens
        assert not J.gens & K.gens
        assert minimalize(J.gens | K.gens, 3) == I


def test_multiply_preserves_antichain():
    I = sq("xy", "yz")
    xI = multiply(I, variable(3, 0))
    assert xI.gens == {(2, 1, 0), (1, 1, 1)}
