"""Vertex splittable ideals: recognition with certificate, the induced
linear-quotient order, and the two fast Betti-number routes it unlocks.

A split certificate is a binary tree.  A node (x, left, right) asserts
I = x*I1 + I2 with I2 contained in I1 and neither part involving x; leaves
are principal ideals (possibly the unit ideal) or the zero ideal.  By
convention the zero ideal is splittable: ideals like (xy, yz) split at y
into y*(x, z) + 0, so the convention is forced by the edge-ideal corollas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Union

from .betti import BettiTable, add_shifted, make_table
from .homology import FieldChoice, QQ, betti_table
from .kernel import MEMO_SIZE
from .monomials import (Monomial, MonomialIdeal, colon, degree, divides,
                        intersect, is_subideal, minimalize, mono_gcd,
                        mono_div, mono_mul, multiply, variable,
                        variable_ideal, x_partition)


@dataclass(frozen=True)
class SplitLeaf:
    """Principal ideal (monomial, possibly the unit) or, for None, zero."""
    monomial: Optional[Monomial]


@dataclass(frozen=True)
class SplitNode:
    var: int
    left: "SplitTree"   # certificate for the factor ideal I1
    right: "SplitTree"  # certificate for the summand ideal I2


SplitTree = Union[SplitLeaf, SplitNode]


def clear_caches() -> None:
    _split.cache_clear()


def vertex_split(I: MonomialIdeal) -> Optional[SplitTree]:
    """Split certificate for I, or None if I is not vertex splittable.

    Candidate variables are tried in ascending index; a variable qualifies
    only if it occurs in some generator and never with exponent above one
    (the parts must live in the ring without that variable).  The first
    certificate found is returned; certificates are not canonical.
    """
    return _split(I.num_vars, I.gens)


@lru_cache(maxsize=MEMO_SIZE)
def _split(n: int, gens: frozenset[Monomial]) -> Optional[SplitTree]:
    """`vertex_split` of the ideal with these minimal generators."""
    if not gens:
        return SplitLeaf(None)
    if len(gens) == 1:
        return SplitLeaf(next(iter(gens)))
    I = MonomialIdeal(n, gens)
    for x in range(n):
        if max(g[x] for g in gens) != 1:
            continue
        part_j, part_k = x_partition(I, x)
        xvar = variable(n, x)
        factor = frozenset(mono_div(g, xvar) for g in part_j.gens)
        if not is_subideal(part_k, MonomialIdeal(n, factor)):
            continue
        left = _split(n, factor)
        if left is None:
            continue
        right = _split(n, part_k.gens)
        if right is None:
            continue
        return SplitNode(x, left, right)
    return None


class InvalidSplitTree(ValueError):
    pass


def _rebuild(tree: SplitTree, n: int, nodes: Optional[list] = None
             ) -> tuple[tuple[Monomial, ...], tuple[frozenset[int], ...]]:
    """Replay a certificate bottom-up, checking the split conditions once at
    each node.  Returns the generators in quotient order and their variable
    sets; when nodes is a list, appends (node, ideal at the node) for every
    inner node, root first."""
    if isinstance(tree, SplitLeaf):
        if tree.monomial is None:
            return (), ()
        if len(tree.monomial) != n:
            raise InvalidSplitTree("leaf monomial has the wrong arity")
        return (tree.monomial,), (frozenset(),)
    x = tree.var
    if not 0 <= x < n:
        raise InvalidSplitTree(f"split variable {x} out of range")
    if nodes is not None:
        slot = len(nodes)
        nodes.append(None)
    left, left_sets = _rebuild(tree.left, n, nodes)
    right, right_sets = _rebuild(tree.right, n, nodes)
    gens = _node_gens(x, left, right, n)
    if nodes is not None:
        nodes[slot] = (tree, MonomialIdeal(n, frozenset(gens)))
    return gens, left_sets + tuple(s | {x} for s in right_sets)


def _node_gens(x: int, left: tuple[Monomial, ...], right: tuple[Monomial, ...],
               n: int) -> tuple[Monomial, ...]:
    """Generators of x*I1 + I2, in quotient order, from the replayed
    generators of I1 and I2; raises InvalidSplitTree unless the split
    conditions hold at this node."""
    if any(g[x] for g in left) or any(g[x] for g in right):
        raise InvalidSplitTree("split parts must avoid the split variable")
    factor, summand = frozenset(left), frozenset(right)
    if not is_subideal(MonomialIdeal(n, summand), MonomialIdeal(n, factor)):
        raise InvalidSplitTree("summand ideal not contained in factor ideal")
    # Both parts are antichains avoiding x, and I2 lies in I1.  So x*l never
    # divides a generator r of I2, and r | x*l forces r | l; as some l' of
    # I1 divides r, l' | l gives l' = l = r.  Hence x*I1 + I2 is minimal
    # exactly when the parts share no generator.
    if factor & summand:
        raise InvalidSplitTree("rebuilt generators are not minimal")
    xvar = variable(n, x)
    return tuple(mono_mul(g, xvar) for g in left) + right


def validate_split_tree(tree: SplitTree, I: MonomialIdeal) -> bool:
    """Replay a certificate and check it reproduces the generators of I."""
    try:
        return frozenset(_rebuild(tree, I.num_vars)[0]) == I.gens
    except InvalidSplitTree:
        return False


def split_nodes(tree: SplitTree,
                n: int) -> list[tuple[SplitNode, MonomialIdeal]]:
    """(node, ideal at the node) for every inner node of the tree, from one
    validated replay.  The order is root first: each node comes before the
    nodes of its left subtree, and those before the nodes of its right
    subtree.  Raises InvalidSplitTree if the tree is not a certificate."""
    nodes: list[tuple[SplitNode, MonomialIdeal]] = []
    _rebuild(tree, n, nodes)
    return nodes


@dataclass(frozen=True)
class LinearQuotientOrder:
    """Generator order f_1 < ... < f_m with the variable set of each colon
    ideal (f_1, ..., f_{t-1}) : (f_t)."""

    generators: tuple[Monomial, ...]
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.generators) != len(self.sets):
            raise ValueError("one variable set per generator required")

    def __len__(self) -> int:
        return len(self.generators)


def quotient_order_from_split(tree: SplitTree, n: int) -> LinearQuotientOrder:
    """Linear-quotient order induced by a split certificate.

    The factor part goes first: x*f_1 < ... < x*f_r < g_1 < ... < g_s,
    where set(x*f_t) is inherited from I1 and set(g_k) picks up x.  The
    certificate is validated on the way; a tree that is not one raises
    InvalidSplitTree.
    """
    return LinearQuotientOrder(*_rebuild(tree, n))


def verify_linear_quotient_order(order: LinearQuotientOrder, n: int) -> bool:
    """Check each prefix colon ideal is generated exactly by the stated
    variables."""
    for t in range(len(order)):
        prefix = minimalize(order.generators[:t], n)
        expected = variable_ideal(n, sorted(order.sets[t]))
        if colon(prefix, order.generators[t]) != expected:
            return False
    return True


def find_linear_quotients(I: MonomialIdeal,
                          cap: int = 20) -> Optional[LinearQuotientOrder]:
    """Search for a linear-quotient order of the generators of I.

    Depth-first search over admissible prefixes with memoized dead ends;
    a prefix extends by f whenever the colon ideal of the prefix by f is
    generated by variables.  Raises ValueError above the generator cap
    rather than risking an incomplete search.
    """
    gens = I.sorted_gens()
    m = len(gens)
    if m > cap:
        raise ValueError(f"too large: {m} generators exceed the cap of {cap}")
    if m == 0:
        return LinearQuotientOrder((), ())

    quot = [[mono_div(g, mono_gcd(g, f)) for g in gens] for f in gens]
    deg1 = [[h for h in range(m) if degree(quot[t][h]) == 1] for t in range(m)]
    cover = [[0] * m for _ in range(m)]
    for t in range(m):
        for h in deg1[t]:
            bits = 0
            for s in range(m):
                if divides(quot[t][h], quot[t][s]):
                    bits |= 1 << s
            cover[t][h] = bits

    full = (1 << m) - 1
    dead: set[int] = set()

    def admits(prefix: int, t: int) -> bool:
        covered = 0
        for h in deg1[t]:
            if prefix >> h & 1:
                covered |= cover[t][h]
        return prefix & ~covered == 0

    def dfs(prefix: int) -> Optional[list[int]]:
        if prefix == full:
            return []
        if prefix in dead:
            return None
        for t in range(m):
            if not prefix >> t & 1 and admits(prefix, t):
                rest = dfs(prefix | 1 << t)
                if rest is not None:
                    return [t] + rest
        dead.add(prefix)
        return None

    found = dfs(0)
    if found is None:
        return None
    ordered = tuple(gens[t] for t in found)
    sets = []
    for t in range(m):
        quotient = colon(minimalize(ordered[:t], I.num_vars), ordered[t])
        sets.append(frozenset(g.index(1) for g in quotient.gens))
    return LinearQuotientOrder(ordered, tuple(sets))


def betti_from_sets(order: LinearQuotientOrder) -> BettiTable:
    """Betti table from a linear-quotient order: in each homological degree
    i, every generator f contributes C(|set(f)|, i) in internal degree
    deg(f) + i."""
    entries: dict[tuple[int, int], int] = {}
    for g, s in zip(order.generators, order.sets):
        d = degree(g)
        for i in range(len(s) + 1):
            key = (i, d + i)
            entries[key] = entries.get(key, 0) + comb(len(s), i)
    return make_table(entries, "ideal")


def betti_recursive(tree: SplitTree) -> BettiTable:
    """Betti table by the split recursion
    beta_{i,j}(I) = beta_{i,j-1}(I1) + beta_{i,j}(I2) + beta_{i-1,j-1}(I2)."""
    if isinstance(tree, SplitLeaf):
        if tree.monomial is None:
            return make_table({}, "ideal")
        return make_table({(0, degree(tree.monomial)): 1}, "ideal")
    left = betti_recursive(tree.left)
    right = betti_recursive(tree.right)
    entries: dict[tuple[int, int], int] = {}
    add_shifted(entries, left, dj=1)
    add_shifted(entries, right)
    add_shifted(entries, right, di=1, dj=1)
    return make_table(entries, "ideal")


def verify_betti_splitting(I: MonomialIdeal, J: MonomialIdeal,
                           K: MonomialIdeal, field: FieldChoice = QQ) -> bool:
    """Numerically check beta(I) = beta(J) + beta(K) + shifted beta(J cap K)
    with all four tables from the homological oracle."""
    if J.num_vars != I.num_vars or K.num_vars != I.num_vars:
        raise ValueError("ideals live in different rings")
    if J.gens & K.gens or (J.gens | K.gens) != I.gens:
        raise ValueError("generators of J and K must partition those of I")
    t_i = betti_table(I, field)
    t_j = betti_table(J, field)
    t_k = betti_table(K, field)
    t_jk = betti_table(intersect(J, K), field)
    keys = set(t_i.entries) | set(t_j.entries) | set(t_k.entries)
    keys |= {(i + 1, j) for (i, j) in t_jk.entries}
    return all(
        t_i.rank(i, j) == t_j.rank(i, j) + t_k.rank(i, j) + t_jk.rank(i - 1, j)
        for (i, j) in keys)


def node_parts(node: SplitNode, n: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The pair (x*I1, I2) encoded at a split node."""
    left = MonomialIdeal(n, frozenset(_rebuild(node.left, n)[0]))
    right = MonomialIdeal(n, frozenset(_rebuild(node.right, n)[0]))
    return multiply(left, variable(n, node.var)), right
