"""The independent homological oracle.

Reduced simplicial homology over an exact field feeds two routes to graded
Betti numbers: the subset-restriction formula for square-free ideals
(through the Stanley-Reisner complex) and the upper-Koszul route for
arbitrary monomial ideals.  Everything downstream (linear resolutions,
Cohen-Macaulayness, regularity, projective dimension) reads off these
tables.  All ranks are exact: fraction-free integer elimination over the
rationals, modular elimination over prime fields.

Edge ideals take a graph route through the subset-restriction formula:
their Stanley-Reisner complex is the independence complex Ind(G), and its
restriction to W is Ind(G[W]).  Each G[W] is shrunk by the fold lemma
(Engstrom, "Independence complexes of claw-free graphs", 2008) with bit
operations on adjacency masks, before any facet exists.  A core's facets
are built once per call and core shape; its homology lives only in the
kernel's memo, which shares it across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernel
from .betti import BettiTable, make_table
from .complexes import (SimplicialComplex, complex_of_ideal, dual_facet_ideal,
                        restrict_masks)
from .monomials import (MonomialIdeal, canonical_supports, compress, degree,
                        is_squarefree, minimal_transversals, squarefree_ideal,
                        support_masks)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldChoice:
    """The coefficient field: the rationals (char 0) or a prime field."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"{self.char} is not prime")

    @classmethod
    def rationals(cls) -> "FieldChoice":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldChoice":
        return cls(p)

    @property
    def label(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = FieldChoice.rationals()


def parse_field(spec) -> FieldChoice:
    """Accept 'q', 'p=7', a prime integer, or a FieldChoice."""
    if spec is None:
        return QQ
    if isinstance(spec, FieldChoice):
        return spec
    if isinstance(spec, int):
        return QQ if spec == 0 else FieldChoice.prime(spec)
    text = str(spec).strip().lower()
    if text in ("q", "qq", "0", "rationals"):
        return QQ
    if text.startswith("p="):
        return FieldChoice.prime(int(text[2:]))
    return FieldChoice.prime(int(text))


def reduced_homology_dims(delta: SimplicialComplex,
                          field: FieldChoice = QQ) -> dict[int, int]:
    """Dimensions of the reduced homology of delta, indexed -1 .. dim."""
    dims = kernel.homology_dims(delta.sorted_facets(), field.char)
    return {t - 1: dims[t] for t in range(len(dims))}


MAX_HOCHSTER_VERTICES = 30


def check_hochster_size(n: int) -> None:
    if n > MAX_HOCHSTER_VERTICES:
        raise ValueError(f"the Hochster formula visits 2^{n} vertex subsets; "
                         f"the limit is {MAX_HOCHSTER_VERTICES} vertices")


def hochster_betti(I: MonomialIdeal, field: FieldChoice = QQ) -> BettiTable:
    """Betti table of a nonzero square-free ideal by Hochster's formula.

    The supports of I are the minimal non-faces of its Stanley-Reisner complex.
    beta_{i,j} sums, over the cardinality-j vertex subsets W, the reduced
    homology of the restriction to W in degree j - i - 2.  Only the W in the
    lcm lattice, the unions of supports, are restricted: at any other W some
    vertex lies in no support inside W, so the restriction is a cone on it
    (Gasharov-Peeva-Welker).  W runs over the subsets of the union of all
    supports, and the lattice is tested per W, not stored; the size limit
    counts the vertices of that union, not the variables of the ring.

    An edge ideal, every generator of degree two, takes the graph route:
    the restriction to W is the independence complex Ind(G[W]), and W is in
    the lattice iff every vertex of W has a neighbour in W.  G[W] is folded
    first (`_fold`); a core of one vertex is a point, and any other core
    has the facets of its independence complex built once per call and
    core shape (`_graph_restriction`), then passed to the kernel.  Every
    other ideal restricts the facets of its Stanley-Reisner complex.  An
    ideal with a square raises ValueError (`support_masks`).
    """
    if I.is_zero:
        raise ValueError("the zero ideal has an empty resolution; no table")
    supports = support_masks(I)
    union = 0
    for g in supports:
        union |= g
    # refuse before building the complex, which can itself be huge
    check_hochster_size(union.bit_count())
    if all(s.bit_count() == 2 for s in supports):
        restriction = _graph_restriction(supports, field.char)
    else:
        restriction = _facet_restriction(complex_of_ideal(I).facets,
                                         supports, field.char)
    entries: dict[tuple[int, int], int] = {}
    w = 0
    # the non-empty submasks of the union, in increasing order
    while w := (w - union) & union:
        j = w.bit_count()
        for t, d in enumerate(restriction(w)):
            i = j - t - 1
            if d and i >= 0:
                entries[i, j] = entries.get((i, j), 0) + d
    return make_table(entries, "ideal")


def _facet_restriction(facets, supports: list[int], p: int):
    """Reduced homology dims of the restriction of the complex with these
    facets to W, or () when W is not a union of supports."""
    def dims(w: int) -> tuple[int, ...]:
        union = 0
        for g in supports:
            if g & w == g:
                union |= g
        if union != w:
            return ()
        return kernel.homology_dims(restrict_masks(facets, w), p)
    return dims


def _adjacency(edges) -> dict[int, int]:
    """Neighbour mask of each vertex of the edge masks, keyed by its bit."""
    adj: dict[int, int] = {}
    for e in edges:
        u = e & -e
        v = e ^ u
        adj[u] = adj.get(u, 0) | v
        adj[v] = adj.get(v, 0) | u
    return adj


def _fold(adj: dict[int, int], w: int) -> int:
    """Vertex mask of a fold core of the induced graph G[W], for W inside
    the union of the edges.

    The fold lemma (Engstrom, "Independence complexes of claw-free graphs",
    2008): if N(u) is inside N(v) for u != v, then Ind(G) and Ind(G - v)
    are homotopy equivalent.  Such a v is never adjacent to u, so deleting
    it leaves N(u) alone, and every such v of one u, all vertices adjacent
    to every neighbour of u, goes at once.  Sweeps repeat until one deletes
    nothing.  A vertex with no neighbour folds away all the others: a core
    of one vertex is a point.
    """
    core = w
    changed = True
    while changed:
        changed = False
        rest = core
        while rest:
            u = rest & -rest
            rest ^= u
            common = core
            nbrs = adj[u] & core
            while nbrs:
                x = nbrs & -nbrs
                nbrs ^= x
                common &= adj[x]
            common ^= u
            if common:
                core ^= common
                rest &= core
                changed = True
    return core


def _graph_restriction(edges: list[int], p: int):
    """Reduced homology dims of Ind(G[W]) for the graph with these edge
    masks, or () when W is not a union of edges or G[W] folds to a point.

    Many W fold to the same core, and many cores have one shape, so each
    call keeps its cores' dims in two dicts: by vertex mask, which saves
    compressing the core again, and by support-compressed adjacency rows,
    which saves building its facets again.  The facets of Ind(G[core]),
    the maximal independent sets, are the complements in the core of the
    minimal vertex covers of its edges; Berge's method meets the edges
    in order of their lower, then higher vertex, which keeps it fast."""
    edges = sorted(edges, key=lambda e: (e & -e, e))
    adj = _adjacency(edges)
    seen: dict[int, tuple[int, ...]] = {}
    shapes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def dims(w: int) -> tuple[int, ...]:
        rest = w
        while rest:
            v = rest & -rest
            if not adj[v] & w:
                return ()
            rest ^= v
        core = _fold(adj, w)
        if not core & (core - 1):
            return ()
        if core not in seen:
            shape = _compressed(adj, core)
            if shape not in shapes:
                covers = minimal_transversals(e for e in edges
                                              if e & core == e)
                shapes[shape] = kernel.homology_dims(
                    [core & ~t for t in covers], p)
            seen[core] = shapes[shape]
        return seen[core]
    return dims


def _compressed(adj: dict[int, int], core: int) -> tuple[int, ...]:
    """Neighbour masks of G[core] with its k-th lowest vertex as vertex k."""
    rows = []
    rest = core
    while rest:
        v = rest & -rest
        rows.append(adj[v] & core)
        rest ^= v
    return tuple(compress(rows, core))


def koszul_betti(I: MonomialIdeal, field: FieldChoice = QQ) -> BettiTable:
    """Betti table of a nonzero monomial ideal via its upper Koszul complexes."""
    if I.is_zero:
        raise ValueError("the zero ideal has an empty resolution; no table")
    entries = kernel.koszul_table(I.sorted_gens(), field.char)
    return make_table(entries, "ideal")


def clear_caches() -> None:
    """Empty the oracle's memos: the Betti tables and the kernel's homology."""
    _table.cache_clear()
    kernel.clear_caches()


def betti_table(I: MonomialIdeal, field: FieldChoice = QQ) -> BettiTable:
    """Canonical oracle table of an ideal (LRU-memoized, `kernel.MEMO_SIZE`).

    Square-free ideals other than the unit ideal go through the
    subset-restriction formula, all others through the upper Koszul route;
    the two agree on the overlap and tests enforce that.  The zero ideal
    has the empty table.  A square-free table is keyed by the canonical
    form of the generator supports up to relabeling (`canonical_supports`),
    unless that form is over its search budget; every relabeling then
    shares one table, and a hit on the class of an ideal not yet seen with
    its own labels counts as one miss plus one hit in `cache_info`.
    """
    if I.is_zero:
        return make_table({}, "ideal")
    return _table(I.num_vars, tuple(I.sorted_gens()), field.char)


@lru_cache(maxsize=kernel.MEMO_SIZE)
def _table(n: int, gens: tuple, p: int) -> BettiTable:
    """`betti_table` of the nonzero ideal with these sorted generators, or
    of the square-free ideal with this canonical tuple of support masks.

    Graded Betti numbers do not change when the variables are permuted, so
    a square-free ideal other than the unit ideal is looked up again under
    the canonical form of its generator supports, when there is one: all
    its relabelings share one Hochster table.  The form is computed once
    per labelled miss; a key of masks is already canonical.
    """
    if isinstance(gens[0], int):
        return hochster_betti(squarefree_ideal(gens, n), FieldChoice(p))
    I = MonomialIdeal(n, frozenset(gens))
    if not is_squarefree(I) or I.is_unit:
        return koszul_betti(I, FieldChoice(p))
    canonical = canonical_supports(support_masks(I))
    if canonical is None:
        return hochster_betti(I, FieldChoice(p))
    return _table(n, canonical, p)


def has_linear_resolution(I: MonomialIdeal, field: FieldChoice = QQ) -> bool:
    """True iff I is generated in one degree d and beta_{i,j} = 0 off j = i+d."""
    if I.is_zero:
        raise ValueError("linear resolution is undefined for the zero ideal")
    degrees = {degree(g) for g in I.gens}
    if len(degrees) > 1:
        return False
    d = degrees.pop()
    table = betti_table(I, field)
    return all(j == i + d for (i, j) in table.entries)


def is_cohen_macaulay(delta: SimplicialComplex,
                      field: FieldChoice = QQ) -> bool:
    """Cohen-Macaulayness via linearity of the facet-complement ideal."""
    full = (1 << delta.ground_size) - 1
    if full in delta.facets:
        return True
    return has_linear_resolution(dual_facet_ideal(delta), field)
