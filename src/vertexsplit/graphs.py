"""Finite simple graphs and their monomial ideals: edge and cover ideals,
independence and clique complexes, chordality, domination shedding, the
recursive sequentially Cohen-Macaulay test for bipartite graphs, the
cover-ideal Betti recursion, and the equivalences tying linear resolutions
of edge ideals to chordal complements.  Every routine reads one adjacency,
`Graph.near`, the neighbour mask of each vertex derived from the edges.
The chordality of the complement, which the command line and both
equivalence reports read, is derived once per graph, as
`Graph.complement_chordal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Union

from .betti import BettiTable, add_shifted, make_table
from .complexes import SimplicialComplex, complex_of_supports
from .decomposition import is_shedding, vertex_decomposable
from .homology import (FieldChoice, QQ, betti_table, has_linear_resolution,
                       is_cohen_macaulay)
from .monomials import (MonomialIdeal, minimal_transversals, mono_from_mask,
                        squarefree_ideal, unit_monomial, variable)
from .splitting import SplitLeaf, SplitNode, SplitTree, vertex_split


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0 .. n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"a graph needs n >= 0 vertices, got {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for {self.n} vertices")

    @cached_property
    def near(self) -> tuple[int, ...]:
        """The neighbour mask of each vertex, derived once from the edges."""
        near = [0] * self.n
        for u, v in self.edges:
            near[u] |= 1 << v
            near[v] |= 1 << u
        return tuple(near)

    @cached_property
    def complement_chordal(self) -> bool:
        """Chordality of the complement, derived once."""
        return is_chordal(complement(self))[0]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.sorted_edges()})"


def graph(n: int, edges) -> Graph:
    normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n, normalized)


def path_graph(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complement(G: Graph) -> Graph:
    missing = [e for e in combinations(range(G.n), 2) if e not in G.edges]
    return Graph(G.n, frozenset(missing))


def delete_vertices(G: Graph, drop: int) -> Graph:
    """Induced subgraph outside the drop mask, relabeled in order."""
    keep = [v for v in range(G.n) if not drop >> v & 1]
    place = {v: i for i, v in enumerate(keep)}
    edges = frozenset((place[u], place[v]) for u, v in G.edges
                      if not (drop >> u | drop >> v) & 1)
    return Graph(len(keep), edges)


def edge_ideal(G: Graph) -> MonomialIdeal:
    """Square-free ideal with one degree-two generator per edge."""
    return squarefree_ideal((1 << u | 1 << v for u, v in G.edges), G.n)


def cover_ideal(G: Graph) -> MonomialIdeal:
    """Intersection of the edge primes (x_u, x_v), generated by the minimal
    vertex covers, the minimal transversals of the edges.  An edgeless
    graph gives the unit ideal (empty intersection)."""
    return squarefree_ideal(
        minimal_transversals(1 << u | 1 << v for u, v in G.edges), G.n)


def independence_complex(G: Graph) -> SimplicialComplex:
    """Faces are the independent vertex sets of G."""
    return complex_of_supports([1 << u | 1 << v for u, v in G.edges], G.n)


def clique_complex(G: Graph) -> SimplicialComplex:
    return independence_complex(complement(G))


def _is_clique(near: tuple[int, ...], mask: int) -> bool:
    """True iff the vertices of mask are pairwise adjacent."""
    return all(mask & ~near[v] == 1 << v
               for v in range(len(near)) if mask >> v & 1)


def _elimination_order(near: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Maximum cardinality search, ties broken at the lowest index: the
    reversed visit order if it is a perfect elimination order, checked as
    each vertex is visited (its earlier-visited neighbours form a clique),
    else None."""
    numbered = 0
    visit: list[int] = []
    for _ in near:
        z = min((v for v in range(len(near)) if not numbered >> v & 1),
                key=lambda v: (-(near[v] & numbered).bit_count(), v))
        if not _is_clique(near, near[z] & numbered):
            return None
        numbered |= 1 << z
        visit.append(z)
    return tuple(visit[::-1])


def is_chordal(G: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality by maximum cardinality search.

    Returns (True, perfect elimination order) or (False, None).  The MCS
    visit order reversed is a perfect elimination order exactly when the
    graph is chordal (Tarjan-Yannakakis, 1984).
    """
    order = _elimination_order(G.near)
    return order is not None, order


def simplicial_vertex(G: Graph) -> Optional[int]:
    """Lowest-index vertex whose neighborhood is a clique, if any."""
    return next((v for v, m in enumerate(G.near) if _is_clique(G.near, m)),
                None)


def domination_shedding(G: Graph) -> list[int]:
    """All y dominating some other vertex: N[x] is contained in N[y].

    Every such y is a shedding vertex of the independence complex.
    """
    closed = [m | 1 << v for v, m in enumerate(G.near)]
    return [y for y in range(G.n)
            if any(x != y and not closed[x] & ~closed[y] for x in range(G.n))]


def is_bipartite(G: Graph) -> bool:
    """Breadth-first search by levels: G is bipartite iff no edge joins two
    vertices of one level."""
    unseen = (1 << G.n) - 1
    while unseen:
        level = unseen & -unseen
        while level:
            unseen &= ~level
            reach = 0
            for v in range(G.n):
                if level >> v & 1:
                    reach |= G.near[v]
            if reach & level:
                return False
            level = reach & unseen
    return True


@dataclass(frozen=True)
class ScmLeaf:
    """Edgeless graph: sequentially Cohen-Macaulay by convention."""


@dataclass(frozen=True)
class ScmNode:
    """Witness pair: x of degree one adjacent to y, with both reductions
    recursively sequentially Cohen-Macaulay."""

    x: int
    y: int
    without_x: "ScmCertificate"  # certificate for G minus N[x]
    without_y: "ScmCertificate"  # certificate for G minus N[y]


ScmCertificate = Union[ScmLeaf, ScmNode]


def is_scm_bipartite(G: Graph) -> tuple[bool, Optional[ScmCertificate]]:
    """Recursive sequential Cohen-Macaulayness test for bipartite graphs.

    Searches degree-one vertices in ascending order; each candidate x has a
    unique neighbor y and both G minus N[x] and G minus N[y] must recurse.
    Raises on non-bipartite input.
    """
    if not is_bipartite(G):
        raise ValueError("the recursive test only applies to bipartite graphs")
    return _scm_recurse(G)


def _scm_recurse(G: Graph) -> tuple[bool, Optional[ScmCertificate]]:
    if not G.edges:
        return True, ScmLeaf()
    for x, nx in enumerate(G.near):
        if nx.bit_count() != 1:
            continue
        y = nx.bit_length() - 1
        ok_x, cert_x = _scm_recurse(delete_vertices(G, nx | 1 << x))
        if not ok_x:
            continue
        ok_y, cert_y = _scm_recurse(delete_vertices(G, G.near[y] | 1 << y))
        if not ok_y:
            continue
        return True, ScmNode(x, y, cert_x, cert_y)
    return False, None


def shedding_vertices(G: Graph) -> list[int]:
    """Vertices shedding for the independence complex, ascending."""
    delta = independence_complex(G)
    return [v for v in range(G.n) if is_shedding(delta, v)]


def cover_betti_recursive(G: Graph, v: int,
                          field: FieldChoice = QQ) -> BettiTable:
    """Cover-ideal Betti table by the shedding recursion at v.

    With G' = G minus v, G'' = G minus N[v] and t = deg(v):
    beta_{i,j} = beta_{i,j-1}(G') + beta_{i,j-t}(G'') + beta_{i-1,j-t-1}(G'').
    v must shed for the independence complex.  Subgraphs recurse while a
    shedding vertex exists (dominating vertices preferred) and fall back to
    the homological oracle otherwise.
    """
    delta = independence_complex(G)
    if not delta.is_vertex(v) or not is_shedding(delta, v):
        raise ValueError(f"{v} is not a shedding vertex of the independence complex")
    return _cover_recursion(G, v, field)


def _cover_recursion(G: Graph, v: int, field: FieldChoice) -> BettiTable:
    """`cover_betti_recursive` at a v already known to shed."""
    t = G.near[v].bit_count()
    del_table = _cover_table(delete_vertices(G, 1 << v), field)
    link_table = _cover_table(delete_vertices(G, G.near[v] | 1 << v), field)
    entries: dict[tuple[int, int], int] = {}
    add_shifted(entries, del_table, dj=1)
    add_shifted(entries, link_table, dj=t)
    add_shifted(entries, link_table, di=1, dj=t + 1)
    return make_table(entries, "ideal")


def _cover_table(G: Graph, field: FieldChoice) -> BettiTable:
    if not G.edges:
        return make_table({(0, 0): 1}, "ideal")
    preferred = domination_shedding(G) or shedding_vertices(G)
    if preferred:
        return _cover_recursion(G, preferred[0], field)
    return betti_table(cover_ideal(G), field)


def chordal_split(G: Graph) -> SplitTree:
    """Split certificate for the edge ideal of the complement of a chordal
    graph, following the simplicial-vertex recursion: pick a simplicial x,
    split off x times the variables outside N[x], and recurse on G minus x.
    """
    chordal, _ = is_chordal(G)
    if not chordal:
        raise ValueError("graph is not chordal")
    return _chordal_split_recurse(G, (1 << G.n) - 1)


def _variable_tree(indices: tuple[int, ...], n: int) -> SplitTree:
    """Split certificate for an ideal generated by variables."""
    if not indices:
        return SplitLeaf(None)
    if len(indices) == 1:
        return SplitLeaf(variable(n, indices[0]))
    return SplitNode(indices[0], SplitLeaf(unit_monomial(n)),
                     _variable_tree(indices[1:], n))


def _chordal_split_recurse(G: Graph, active: int) -> SplitTree:
    near = G.near
    verts = [v for v in range(G.n) if active >> v & 1]
    comp_edges = [(u, v) for u, v in combinations(verts, 2)
                  if not near[u] >> v & 1]
    if not comp_edges:
        return SplitLeaf(None)
    if len(comp_edges) == 1:
        u, v = comp_edges[0]
        return SplitLeaf(mono_from_mask(1 << u | 1 << v, G.n))
    x = next((v for v in verts if _is_clique(near, near[v] & active)), None)
    if x is None:  # unreachable for chordal graphs
        raise ValueError("no simplicial vertex in the active subgraph")
    outside = tuple(v for v in verts if not (near[x] | 1 << x) >> v & 1)
    return SplitNode(x, _variable_tree(outside, G.n),
                     _chordal_split_recurse(G, active ^ 1 << x))


@dataclass(frozen=True)
class FrobergReport:
    """Three independent reads of edge-ideal linearity."""

    complement_chordal: bool
    edge_ideal_linear_resolution: bool
    edge_ideal_vertex_splittable: bool
    field: str

    @property
    def all_agree(self) -> bool:
        return (self.complement_chordal == self.edge_ideal_linear_resolution
                == self.edge_ideal_vertex_splittable)


def froberg_equivalence(G: Graph, field: FieldChoice = QQ) -> FrobergReport:
    """Evaluate independently: chordality of the complement, linear
    resolution of the edge ideal (oracle) and vertex splittability."""
    if not G.edges:
        raise ValueError("the equivalence needs at least one edge")
    ideal = edge_ideal(G)
    return FrobergReport(
        complement_chordal=G.complement_chordal,
        edge_ideal_linear_resolution=has_linear_resolution(ideal, field),
        edge_ideal_vertex_splittable=vertex_split(ideal) is not None,
        field=field.label)


@dataclass(frozen=True)
class DualComplexReport:
    """Three independent reads on the dual of the independence complex."""

    complement_chordal: bool
    dual_vertex_decomposable: bool
    dual_cohen_macaulay: bool
    field: str

    @property
    def all_agree(self) -> bool:
        return (self.complement_chordal == self.dual_vertex_decomposable
                == self.dual_cohen_macaulay)


def dual_complex_equivalence(G: Graph, field: FieldChoice = QQ) -> DualComplexReport:
    """Evaluate independently: chordality of the complement, vertex
    decomposability and Cohen-Macaulayness of the Alexander dual of the
    independence complex.  The minimal non-faces of Ind(G) are the edges,
    so the dual's facets are the edge complements."""
    if not G.edges:
        raise ValueError("the equivalence needs at least one edge")
    dual = SimplicialComplex(G.n, frozenset(
        ((1 << G.n) - 1) ^ (1 << u | 1 << v) for u, v in G.edges))
    return DualComplexReport(
        complement_chordal=G.complement_chordal,
        dual_vertex_decomposable=vertex_decomposable(dual) is not None,
        dual_cohen_macaulay=is_cohen_macaulay(dual, field),
        field=field.label)
