"""Finite simple graphs and their monomial ideals: edge and cover ideals,
independence and clique complexes, chordality, domination shedding, the
recursive sequentially Cohen-Macaulay test for bipartite graphs, the
cover-ideal Betti recursion, and the equivalences tying linear resolutions
of edge ideals to chordal complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .betti import BettiTable, add_shifted, make_table
from .complexes import (SimplicialComplex, alexander_dual_complex,
                        complex_of_ideal)
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

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> set[int]:
        return {u for e in self.edges if v in e for u in e if u != v}

    def closed_neighborhood(self, v: int) -> set[int]:
        return self.neighbors(v) | {v}

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

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


def complete_graph(n: int) -> Graph:
    return graph(n, combinations(range(n), 2))


def complement(G: Graph) -> Graph:
    missing = [e for e in combinations(range(G.n), 2) if e not in G.edges]
    return Graph(G.n, frozenset(missing))


def delete_vertices(G: Graph, drop) -> Graph:
    """Induced subgraph on the remaining vertices, relabeled in order."""
    drop = set(drop)
    keep = [v for v in range(G.n) if v not in drop]
    place = {v: i for i, v in enumerate(keep)}
    edges = frozenset((place[u], place[v]) for u, v in G.edges
                      if u not in drop and v not in drop)
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
    return complex_of_ideal(edge_ideal(G))


def clique_complex(G: Graph) -> SimplicialComplex:
    return independence_complex(complement(G))


def is_chordal(G: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality by maximum cardinality search.

    Returns (True, perfect elimination order) or (False, None).  The MCS
    visit order reversed is a perfect elimination order exactly when the
    graph is chordal; the order is verified directly (the later neighbors
    of each vertex must form a clique).  Ties break at the lowest index.
    """
    adj = G.adjacency()
    weight = [0] * G.n
    unnumbered = set(range(G.n))
    visit: list[int] = []
    while unnumbered:
        z = min(unnumbered, key=lambda v: (-weight[v], v))
        unnumbered.remove(z)
        visit.append(z)
        for y in adj[z]:
            if y in unnumbered:
                weight[y] += 1
    peo = visit[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [u for u in adj[v] if pos[u] > i]
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                return False, None
    return True, tuple(peo)


def simplicial_vertex(G: Graph) -> Optional[int]:
    """Lowest-index vertex whose neighborhood is a clique, if any."""
    adj = G.adjacency()
    for v in range(G.n):
        if all(b in adj[a] for a, b in combinations(sorted(adj[v]), 2)):
            return v
    return None


def domination_shedding(G: Graph) -> list[int]:
    """All y dominating some other vertex: N[x] is contained in N[y].

    Every such y is a shedding vertex of the independence complex.
    """
    closed = [G.closed_neighborhood(v) for v in range(G.n)]
    return [y for y in range(G.n)
            if any(x != y and closed[x] <= closed[y] for x in range(G.n))]


def is_bipartite(G: Graph) -> bool:
    adj = G.adjacency()
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
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
    for x in range(G.n):
        if G.degree(x) != 1:
            continue
        y = next(iter(G.neighbors(x)))
        ok_x, cert_x = _scm_recurse(delete_vertices(G, G.closed_neighborhood(x)))
        if not ok_x:
            continue
        ok_y, cert_y = _scm_recurse(delete_vertices(G, G.closed_neighborhood(y)))
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
    t = G.degree(v)
    del_table = _cover_table(delete_vertices(G, {v}), field)
    link_table = _cover_table(delete_vertices(G, G.closed_neighborhood(v)), field)
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
        return cover_betti_recursive(G, preferred[0], field)
    return betti_table(cover_ideal(G), field)


def chordal_split(G: Graph) -> SplitTree:
    """Split certificate for the edge ideal of the complement of a chordal
    graph, following the simplicial-vertex recursion: pick a simplicial x,
    split off x times the variables outside N[x], and recurse on G minus x.
    """
    chordal, _ = is_chordal(G)
    if not chordal:
        raise ValueError("graph is not chordal")
    return _chordal_split_recurse(G, tuple(range(G.n)))


def _variable_tree(indices: tuple[int, ...], n: int) -> SplitTree:
    """Split certificate for an ideal generated by variables."""
    if not indices:
        return SplitLeaf(None)
    if len(indices) == 1:
        return SplitLeaf(variable(n, indices[0]))
    return SplitNode(indices[0], SplitLeaf(unit_monomial(n)),
                     _variable_tree(indices[1:], n))


def _chordal_split_recurse(G: Graph, active: tuple[int, ...]) -> SplitTree:
    active_set = set(active)
    comp_edges = [(u, v) for u, v in combinations(active, 2)
                  if not G.has_edge(u, v)]
    if not comp_edges:
        return SplitLeaf(None)
    if len(comp_edges) == 1:
        u, v = comp_edges[0]
        return SplitLeaf(mono_from_mask(1 << u | 1 << v, G.n))
    adj = G.adjacency()
    x = None
    for v in active:
        nb = sorted(adj[v] & active_set)
        if all(b in adj[a] for a, b in combinations(nb, 2)):
            x = v
            break
    if x is None:  # unreachable for chordal graphs
        raise ValueError("no simplicial vertex in the active subgraph")
    outside = tuple(sorted(active_set - adj[x] - {x}))
    rest = tuple(v for v in active if v != x)
    return SplitNode(x, _variable_tree(outside, G.n),
                     _chordal_split_recurse(G, rest))


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
        complement_chordal=is_chordal(complement(G))[0],
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
    independence complex."""
    if not G.edges:
        raise ValueError("the equivalence needs at least one edge")
    dual = alexander_dual_complex(independence_complex(G))
    return DualComplexReport(
        complement_chordal=is_chordal(complement(G))[0],
        dual_vertex_decomposable=vertex_decomposable(dual) is not None,
        dual_cohen_macaulay=is_cohen_macaulay(dual, field),
        field=field.label)
