import hashlib
from collections import Counter
from random import Random

import pytest

from conftest import mi, sq, tor_betti
from vertexsplit import clear_caches, splitting, verify
from vertexsplit.corpus import all_squarefree_ideals, random_splittable_ideal
from vertexsplit.homology import betti_table, koszul_betti
from vertexsplit.monomials import (MAX_EXPONENT, MonomialIdeal, divides,
                                   intersect, is_squarefree, is_subideal,
                                   minimalize, mono_div, mono_from_mask,
                                   multiply, unit_ideal, variable, x_partition)
from vertexsplit.splitting import (InvalidSplitTree, LinearQuotientOrder,
                                   SplitLeaf, SplitNode, betti_from_sets,
                                   betti_recursive, find_linear_quotients,
                                   node_parts,
                                   quotient_order_from_split, split_nodes,
                                   validate_split_tree,
                                   verify_betti_splitting,
                                   verify_linear_quotient_order, vertex_split)

Y_XZ = mi(3, (0, 1, 0), (1, 0, 1))  # (y, xz)


def test_vertex_split_y_xz():
    tree = vertex_split(Y_XZ)
    assert tree == SplitNode(1, SplitLeaf((0, 0, 0)), SplitLeaf((1, 0, 1)))
    assert validate_split_tree(tree, Y_XZ)


def test_vertex_split_path_edge_ideal():
    I = sq("xy", "yz")
    tree = vertex_split(I)
    assert tree is not None and validate_split_tree(tree, I)


def test_vertex_split_two_disjoint_edges_fails():
    assert vertex_split(sq("xw", "yz")) is None


def test_vertex_split_degenerate_cases():
    assert vertex_split(mi(2)) == SplitLeaf(None)
    assert vertex_split(unit_ideal(2)) == SplitLeaf((0, 0))
    assert vertex_split(mi(2, (1, 2))) == SplitLeaf((1, 2))


def test_vertex_split_skips_high_exponents():
    # x2 blocks x as a split variable but y still works
    I = mi(2, (2, 0), (1, 1))
    tree = vertex_split(I)
    assert isinstance(tree, SplitNode) and tree.var == 1
    assert validate_split_tree(tree, I)


def reference_split(I, memo):
    """The exponent-tuple search spelled out: variables in ascending order,
    each qualifying when it occurs and never squared, the first certificate
    wins; memo maps (n, generators) to a found certificate or None."""
    n, gens = I.num_vars, I.gens
    if (n, gens) in memo:
        return memo[n, gens]
    if len(gens) <= 1:
        return SplitLeaf(next(iter(gens), None))
    found = None
    for x in range(n):
        if max(g[x] for g in gens) != 1:
            continue
        part_j, part_k = x_partition(I, x)
        factor = MonomialIdeal(n, frozenset(
            mono_div(g, variable(n, x)) for g in part_j.gens))
        if not is_subideal(part_k, factor):
            continue
        left = reference_split(factor, memo)
        right = None if left is None else reference_split(part_k, memo)
        if right is not None:
            found = SplitNode(x, left, right)
            break
    memo[n, gens] = found
    return found


def test_vertex_split_returns_the_exponent_tuple_certificate():
    # one search on stacked masks takes every ideal: square-free ones,
    # ideals with a square, and ideals whose exponent sets have gaps, which
    # it ranks first
    rng = Random(31)
    ideals = [mi(n) for n in range(4)]
    ideals += [unit_ideal(n) for n in range(4)]
    for n in range(1, 6):
        ideals += all_squarefree_ideals(n)
    for _ in range(300):
        n = rng.randint(6, 8)
        # masks over all n variables leave some unused: ghost variables
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 9))]
        ideals.append(minimalize((mono_from_mask(m, n) for m in masks), n))
    for _ in range(300):
        n = rng.randint(2, 5)
        ideals.append(minimalize(
            (tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(n))
             for _ in range(rng.randint(1, 6))), n))
        ideals.append(random_splittable_ideal(n, rng, max_gens=8)[0])
    for _ in range(300):
        n = rng.randint(1, 5)
        values = [rng.choice(((0, 2), (0, 3, 7), (0, 1, MAX_EXPONENT)))
                  for _ in range(n)]
        ideals.append(minimalize(
            (tuple(map(rng.choice, values)) for _ in range(rng.randint(1, 6))),
            n))
    # a rank that left out 1 would make x^2 an x and split (x^2y, x^2z) at x
    gapped = mi(3, (2, 1, 0), (2, 0, 1))
    assert vertex_split(gapped) == SplitNode(
        1, SplitLeaf((2, 0, 0)), SplitLeaf((2, 0, 1)))
    ideals += [gapped, mi(3, (3, 1, 0), (7, 0, 1)),
               mi(3, (MAX_EXPONENT, 1, 0), (1, 0, 1))]
    clear_caches()
    memo = {}
    outcomes = Counter()
    for I in ideals:
        tree = vertex_split(I)
        want = reference_split(I, memo)
        assert tree == want and repr(tree) == repr(want), I
        if tree is not None:
            assert validate_split_tree(tree, I)
        outcomes[isinstance(tree, SplitNode), tree is None] += 1
    # leaves, inner nodes and failures all occur
    assert len(outcomes) == 3


def test_validate_rejects_corrupted_trees():
    tree = vertex_split(Y_XZ)
    assert not validate_split_tree(tree, sq("xy", "yz"))
    bad = SplitNode(0, SplitLeaf((1, 0, 0)), SplitLeaf(None))
    assert not validate_split_tree(bad, mi(3, (2, 0, 0)))
    # summand not inside the factor
    bad2 = SplitNode(1, SplitLeaf((0, 0, 1)), SplitLeaf((1, 0, 0)))
    assert not validate_split_tree(bad2, mi(3, (0, 1, 1), (1, 0, 0)))


def test_quotient_order_rejects_a_tree_that_is_not_a_certificate():
    # the summand (x) is not inside the factor (z), so no order exists
    bad = SplitNode(1, SplitLeaf((0, 0, 1)), SplitLeaf((1, 0, 0)))
    with pytest.raises(InvalidSplitTree, match="not contained"):
        quotient_order_from_split(bad, 3)
    with pytest.raises(InvalidSplitTree, match="not contained"):
        split_nodes(bad, 3)


def test_quotient_order_y_xz():
    order = quotient_order_from_split(vertex_split(Y_XZ), 3)
    assert order.generators == ((0, 1, 0), (1, 0, 1))
    assert order.sets == (frozenset(), frozenset({1}))
    assert verify_linear_quotient_order(order, 3)


def test_quotient_order_complement_path():
    # (ac, ad, bd): order ac < ad < bd with set(ad)={c}, set(bd)={a}
    I = sq("ac", "ad", "bd")
    order = quotient_order_from_split(vertex_split(I), 4)
    assert order.generators == ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))
    assert order.sets == (frozenset(), frozenset({2}), frozenset({0}))
    assert verify_linear_quotient_order(order, 4)


def test_quotient_order_leaf():
    order = quotient_order_from_split(SplitLeaf((1, 1, 0)), 3)
    assert order.generators == ((1, 1, 0),) and order.sets == (frozenset(),)
    assert verify_linear_quotient_order(order, 3)


def test_find_linear_quotients_examples():
    order = find_linear_quotients(sq("xy", "yz"))
    assert order is not None and verify_linear_quotient_order(order, 3)
    assert order.sets[0] == frozenset()
    assert order.sets[1] in (frozenset({0}), frozenset({2}))
    assert find_linear_quotients(sq("xw", "yz")) is None
    trivial = find_linear_quotients(mi(2, (1, 1)))
    assert len(trivial) == 1 and trivial.sets == (frozenset(),)


def test_find_linear_quotients_cap():
    big = minimalize([tuple(2 if k == i else 0 for k in range(25))
                      for i in range(25)], 25)
    with pytest.raises(ValueError):
        find_linear_quotients(big, cap=20)


def test_find_linear_quotients_agrees_with_split_on_corpus():
    rng = Random(7)
    for _ in range(60):
        ideal, _ = random_splittable_ideal(4, rng, max_gens=6)
        order = find_linear_quotients(ideal)
        assert order is not None
        assert verify_linear_quotient_order(order, ideal.num_vars)


# sha256 of the repr of every order found below, one per line
LINEAR_QUOTIENTS_DIGEST = (
    "133468157025c672853df983b3b744fbcd1f29dd8952952330c83c3913db5c2c")


def test_find_linear_quotients_orders_are_pinned():
    ideals = [I for n in range(1, 5) for I in all_squarefree_ideals(n)]
    rng = Random(43)
    mixed = []
    while len(mixed) < 300:
        n = rng.randint(2, 5)
        I = minimalize((tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n))
                        for _ in range(rng.randint(2, 7))), n)
        if not is_squarefree(I):
            mixed.append(I)
    assert any(vertex_split(I) is None for I in mixed)
    assert any(vertex_split(I) is not None for I in mixed)
    lines = []
    found = 0
    for I in ideals + mixed:
        order = find_linear_quotients(I)
        if order is not None:
            found += 1
            assert verify_linear_quotient_order(order, I.num_vars), I
        lines.append(repr(order))
    assert 0 < found < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LINEAR_QUOTIENTS_DIGEST


@pytest.mark.parametrize("n, max_gens", [(-1, 12), (4, 0), (4, -2)])
def test_random_splittable_ideal_rejects_impossible_sizes(n, max_gens):
    # refused before sampling: the generator state is untouched
    rng = Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_splittable_ideal(n, rng, max_gens=max_gens)
    assert rng.getstate() == state


def test_betti_from_sets_examples():
    order = quotient_order_from_split(vertex_split(sq("xy", "yz")), 3)
    assert betti_from_sets(order).entries == {(0, 2): 2, (1, 3): 1}
    order = quotient_order_from_split(vertex_split(Y_XZ), 3)
    assert betti_from_sets(order).entries == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
    order = quotient_order_from_split(vertex_split(sq("x", "y")), 2)
    assert betti_from_sets(order).entries == {(0, 1): 2, (1, 2): 1}


def test_betti_recursive_examples():
    assert betti_recursive(vertex_split(Y_XZ)).entries == \
        {(0, 1): 1, (0, 2): 1, (1, 3): 1}
    # dual of the 4-path edge ideal: (bc, bd, ac)
    I = sq("bc", "bd", "ac")
    tree = vertex_split(I)
    assert tree is not None
    table = betti_recursive(tree)
    assert table.entries == {(0, 2): 3, (1, 3): 2}
    assert table == koszul_betti(I)
    assert betti_recursive(SplitLeaf((1, 1, 1))).entries == {(0, 3): 1}
    assert betti_recursive(SplitLeaf(None)).is_empty


def test_verify_betti_splitting_examples():
    assert verify_betti_splitting(Y_XZ, mi(3, (0, 1, 0)), mi(3, (1, 0, 1)))
    # J cap K = (xyz) feeds the top homological entry
    meet = intersect(mi(3, (0, 1, 0)), mi(3, (1, 0, 1)))
    assert betti_table(meet).entries == {(0, 3): 1}
    assert verify_betti_splitting(sq("xw", "yz"), sq_part("xw"), sq_part("yz"))
    with pytest.raises(ValueError):
        verify_betti_splitting(Y_XZ, Y_XZ, mi(3, (1, 0, 1)))


def sq_part(word):
    # parts of (xw, yz) in the joint ring with letters sorted: w x y z
    index = {"w": 0, "x": 1, "y": 2, "z": 3}
    exps = [0, 0, 0, 0]
    for ch in word:
        exps[index[ch]] = 1
    return mi(4, tuple(exps))


def test_three_route_agreement_and_node_identities():
    rng = Random(13)
    for _ in range(150):
        ideal, tree = random_splittable_ideal(5, rng, max_gens=8)
        oracle = koszul_betti(ideal)
        assert betti_recursive(tree) == oracle
        order = quotient_order_from_split(tree, ideal.num_vars)
        assert betti_from_sets(order) == oracle
        for node, node_ideal in split_nodes(tree, ideal.num_vars):
            part_j, part_k = node_parts(node, ideal.num_vars)
            assert verify_betti_splitting(node_ideal, part_j, part_k)
            xvar = variable(ideal.num_vars, node.var)
            assert intersect(part_j, part_k) == multiply(part_k, xvar)


def test_the_splitting_suite_fetches_four_tables_and_one_meet_per_node(
        monkeypatch):
    # the tables of I, J, K and J cap K feed both the splitting identity
    # and the reg/pd consequences, and J cap K is computed once
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, spy)

    for module in (verify, splitting):
        counted(module, "betti_table")
        counted(module, "intersect")
    result = verify.suite_betti_splitting(max_n=5, seed=3, count=60)
    assert result.passed
    nodes = int(result.notes[0].split()[0])
    assert nodes > 60
    assert calls == {"betti_table": 4 * nodes, "intersect": nodes}


def test_recursive_matches_independent_tor_oracle():
    for gens in (("y", "xz"), ("xy", "yz"), ("bc", "bd", "ac")):
        I = sq(*gens)
        tree = vertex_split(I)
        assert betti_recursive(tree).entries == tor_betti(I)


def test_linear_quotient_order_validation_catches_lies():
    bad = LinearQuotientOrder(((1, 1, 0), (0, 1, 1)),
                              (frozenset(), frozenset({1})))
    assert not verify_linear_quotient_order(bad, 3)
    good = LinearQuotientOrder(((1, 1, 0), (0, 1, 1)),
                               (frozenset(), frozenset({0})))
    assert verify_linear_quotient_order(good, 3)
    with pytest.raises(ValueError):
        LinearQuotientOrder(((1, 1),), ())


def reference_rebuild(tree, n):
    """Generators encoded by a tree, with every split condition spelled
    out: each node rebuilds its subtree, rejects colliding generator
    multisets and scans all pairs of generators for divisibility."""
    if isinstance(tree, SplitLeaf):
        if tree.monomial is None:
            return frozenset()
        if len(tree.monomial) != n:
            raise InvalidSplitTree("leaf monomial has the wrong arity")
        return frozenset({tree.monomial})
    x = tree.var
    if not 0 <= x < n:
        raise InvalidSplitTree(f"split variable {x} out of range")
    left = reference_rebuild(tree.left, n)
    right = reference_rebuild(tree.right, n)
    if any(g[x] for g in left) or any(g[x] for g in right):
        raise InvalidSplitTree("split parts must avoid the split variable")
    if not is_subideal(MonomialIdeal(n, right), MonomialIdeal(n, left)):
        raise InvalidSplitTree("summand ideal not contained in factor ideal")
    xvar = variable(n, x)
    gens = frozenset(tuple(e + v for e, v in zip(g, xvar)) for g in left) | right
    if len(gens) != len(left) + len(right):
        raise InvalidSplitTree("generator multisets collide")
    for g in gens:
        for h in gens:
            if g != h and divides(g, h):
                raise InvalidSplitTree("rebuilt generators are not minimal")
    return gens


def reference_nodes(tree, n):
    """(node, ideal at the node) for every inner node, root first."""
    if isinstance(tree, SplitLeaf):
        return []
    return ([(tree, MonomialIdeal(n, reference_rebuild(tree, n)))]
            + reference_nodes(tree.left, n) + reference_nodes(tree.right, n))


def _paths(tree, leaves):
    """Paths (tuples of 'left'/'right') to the inner nodes, or the leaves."""
    if isinstance(tree, SplitLeaf):
        return [()] if leaves else []
    here = [] if leaves else [()]
    return here + [(side,) + p for side in ("left", "right")
                   for p in _paths(getattr(tree, side), leaves)]


def _replace(tree, path, change):
    if not path:
        return change(tree)
    side = path[0]
    sub = _replace(getattr(tree, side), path[1:], change)
    if side == "left":
        return SplitNode(tree.var, sub, tree.right)
    return SplitNode(tree.var, tree.left, sub)


def _corruptions(tree, n, rng):
    """Variants of a certificate, each changed at one random place: children
    swapped, split variable shifted, a leaf replaced, I2 made equal to I1."""
    variants = []
    inner = _paths(tree, leaves=False)
    if inner:
        changes = (
            lambda t: SplitNode(t.var, t.right, t.left),
            lambda t: SplitNode(t.var + rng.choice((-1, 1)), t.left, t.right),
            lambda t: SplitNode(t.var, t.left, t.left),
        )
        for change in changes:
            variants.append(_replace(tree, rng.choice(inner), change))
    arity = n + 1 if rng.random() < 0.1 else n
    leaf = SplitLeaf(None if rng.random() < 0.2 else
                     tuple(rng.choice((0, 0, 1, 2)) for _ in range(arity)))
    variants.append(_replace(tree, rng.choice(_paths(tree, leaves=True)),
                             lambda t: leaf))
    return variants


def test_replay_matches_the_spelled_out_reference():
    rng = Random(29)
    outcomes = Counter()
    for _ in range(400):
        n = rng.randint(2, 6)
        ideal, tree = random_splittable_ideal(n, rng, max_gens=10)
        for variant in [tree] + _corruptions(tree, n, rng):
            try:
                want = reference_rebuild(variant, n)
            except InvalidSplitTree as exc:
                outcomes[str(exc).split()[-1]] += 1
                assert not validate_split_tree(variant, ideal)
                with pytest.raises(InvalidSplitTree) as caught:
                    split_nodes(variant, n)
                assert str(caught.value) == str(exc)
                with pytest.raises(InvalidSplitTree):
                    quotient_order_from_split(variant, n)
                if isinstance(variant, SplitNode):
                    with pytest.raises(InvalidSplitTree) as caught:
                        node_parts(variant, n)
                    assert str(caught.value) == str(exc)
                continue
            outcomes["accepted"] += 1
            assert validate_split_tree(variant, MonomialIdeal(n, want))
            assert validate_split_tree(variant, ideal) == (want == ideal.gens)
            assert split_nodes(variant, n) == reference_nodes(variant, n)
            order = quotient_order_from_split(variant, n)
            assert frozenset(order.generators) == want
            assert len(order.generators) == len(want)
            for node, node_ideal in reference_nodes(variant, n):
                # the node ideal split on x; both parts of a zero node are zero
                parts = ((mi(n), mi(n)) if node_ideal.is_zero
                         else x_partition(node_ideal, node.var))
                assert node_parts(node, n) == parts
    # every rejection the corruptions can provoke was seen; the collision
    # branch of the reference never fires
    assert set(outcomes) == {"accepted", "arity", "range", "variable",
                             "ideal", "minimal"}
