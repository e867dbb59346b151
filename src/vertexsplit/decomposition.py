"""Vertex decomposability: shedding vertices, certificates, and the
recursive formulas for projective dimension and regularity of the
Stanley-Reisner quotient.

A decomposition certificate mirrors the split certificates on the ideal
side: a node records a shedding vertex together with certificates for the
deletion and the link (both living on the ground set minus that vertex,
reindexed); leaves are simplexes.  A leaf remembers its ground size since
ghost vertices contribute variables to the Stanley-Reisner ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .betti import pd as table_pd, quotient_table, reg as table_reg
from .complexes import (SimplicialComplex, bight, deletion, is_simplex, link,
                        stanley_reisner_ideal)
from .homology import FieldChoice, QQ, betti_table
from .kernel import MEMO_SIZE


@dataclass(frozen=True)
class SimplexLeaf:
    facet: int
    ground_size: int


@dataclass(frozen=True)
class DecompositionNode:
    vertex: int
    deletion: "DecompositionTree"
    link: "DecompositionTree"


DecompositionTree = Union[SimplexLeaf, DecompositionNode]


def clear_caches() -> None:
    _decompose.cache_clear()


def is_shedding(delta: SimplicialComplex, x: int) -> bool:
    """True iff no facet of the link of x is a facet of the deletion of x.

    The link facets are exactly F minus x over the facets F containing x;
    such a face stops being maximal in the deletion precisely when it is
    properly contained in a facet avoiding x.
    """
    if not delta.is_vertex(x):
        raise ValueError(f"{x} is not a vertex of the complex")
    return _sheds(delta.facets, 1 << x)


def _sheds(facets: frozenset[int], bit: int) -> bool:
    """`is_shedding` at the vertex with this bit, unchecked."""
    others = [f for f in facets if not f & bit]
    for f in facets:
        if not f & bit:
            continue
        reduced = f & ~bit
        if not any(reduced != g and reduced & g == reduced for g in others):
            return False
    return True


def vertex_decomposable(delta: SimplicialComplex) -> Optional[DecompositionTree]:
    """Decomposition certificate, or None if delta is not vertex decomposable.

    Simplexes (including the empty-face complex) are the base case; other
    complexes need a shedding vertex whose deletion and link both recurse.
    Vertices are tried in ascending order and the first certificate wins.
    """
    return _decompose(delta)


@lru_cache(maxsize=MEMO_SIZE)
def _decompose(delta: SimplicialComplex) -> Optional[DecompositionTree]:
    """`vertex_decomposable`, memoized under the frozen complex itself."""
    if is_simplex(delta):
        return SimplexLeaf(next(iter(delta.facets)), delta.ground_size)
    vertices = delta.vertex_mask
    for x in range(delta.ground_size):
        if not vertices >> x & 1 or not _sheds(delta.facets, 1 << x):
            continue
        del_tree = vertex_decomposable(deletion(delta, x))
        if del_tree is None:
            continue
        link_tree = vertex_decomposable(link(delta, x))
        if link_tree is None:
            continue
        return DecompositionNode(x, del_tree, link_tree)
    return None


def validate_decomposition_tree(tree: DecompositionTree,
                                delta: SimplicialComplex) -> bool:
    """Replay a certificate: shedding at every node, simplexes at leaves."""
    if isinstance(tree, SimplexLeaf):
        return (is_simplex(delta) and tree.ground_size == delta.ground_size
                and tree.facet in delta.facets)
    x = tree.vertex
    if not delta.is_vertex(x) or not _sheds(delta.facets, 1 << x):
        return False
    return (validate_decomposition_tree(tree.deletion, deletion(delta, x))
            and validate_decomposition_tree(tree.link, link(delta, x)))


def _pd_reg(tree: DecompositionTree) -> tuple[int, int]:
    if isinstance(tree, SimplexLeaf):
        # the quotient by the ghost-variable ideal: pd counts the ghosts
        return tree.ground_size - tree.facet.bit_count(), 0
    pd_del, reg_del = _pd_reg(tree.deletion)
    pd_link, reg_link = _pd_reg(tree.link)
    return max(pd_del + 1, pd_link), max(reg_del, reg_link + 1)


def pd_reg_recursive(delta: SimplicialComplex) -> tuple[int, int]:
    """(projective dimension, regularity) of the Stanley-Reisner quotient,
    by the shedding recursion pd = max(pd(del)+1, pd(link)) and
    reg = max(reg(del), reg(link)+1); requires vertex decomposability."""
    tree = vertex_decomposable(delta)
    if tree is None:
        raise ValueError("complex is not vertex decomposable")
    return _pd_reg(tree)


def oracle_pd_reg(delta: SimplicialComplex,
                  field: FieldChoice = QQ) -> tuple[int, int]:
    """(pd, reg) of the Stanley-Reisner quotient from the homological oracle."""
    table = quotient_table(betti_table(stanley_reisner_ideal(delta), field))
    return table_pd(table), table_reg(table)


def check_pd_equals_bight(delta: SimplicialComplex,
                          field: FieldChoice = QQ) -> bool:
    """Compare the oracle projective dimension of the quotient with the
    maximum facet-complement size; requires vertex decomposability."""
    if vertex_decomposable(delta) is None:
        raise ValueError("complex is not vertex decomposable")
    pd_value, _ = oracle_pd_reg(delta, field)
    return pd_value == bight(delta)
