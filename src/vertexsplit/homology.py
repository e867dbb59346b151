"""The independent homological oracle.

Reduced simplicial homology over an exact field feeds two routes to graded
Betti numbers: the subset-restriction formula for square-free ideals
(through the Stanley-Reisner complex) and the upper-Koszul route for
arbitrary monomial ideals.  Everything downstream (linear resolutions,
Cohen-Macaulayness, regularity, projective dimension) reads off these
tables.  All ranks are exact: sparse elimination on unit pivots over
the rationals and over prime fields (`kernel`).

Edge ideals take a graph route through the subset-restriction formula:
their Stanley-Reisner complex is the independence complex Ind(G), and its
restriction to W is Ind(G[W]).  The link of a vertex v in Ind(G[W]) is
Ind(G[W - N[v]]), again an induced subcomplex, so the link-deletion
splitting (Adamaszek, "Splittings of independence complexes and the
powers of cycles", 2012) gives the homology of each W from two smaller W
by its Mayer-Vietoris sequence, with no matrix, whenever the two share no
nonzero degree (`_independence_table`).  Only a W at which every vertex
collides builds facets and calls the kernel.  Whether an edge ideal has a
linear resolution is answered by the same recursion, stopped at the first
W with homology off the linear strand (`_edge_linear`).

Cover ideals read the same table through Hochster's formula in its
Alexander-dual form (Eagon-Reiner; Miller-Sturmfels, ch. 1): the dual of
the Stanley-Reisner complex of J(G) is Ind(G), and the link of an
independent set U in Ind(G) is Ind(G[V - N[U]]), so beta_{i,j}(J(G)) sums
the homology of one table entry per independent U (`_cover_strands`).
A square-free ideal is a cover ideal exactly when its minimal primes, the
minimal transversals of its supports, all have two vertices; they are
then the edges of G.

Every route yields graded strands (j, dims, count): count equal pieces of
internal degree j, each adding dims[i] to beta_{i,j}.  One summation
(`_sum_strands`) turns the strands of any route into its table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import isqrt

from . import kernel
from .betti import BettiTable, make_table
from .complexes import SimplicialComplex, dual_facet_ideal, restrict_masks
from .monomials import (MonomialIdeal, compress, degree, minimal_transversals,
                        squarefree_ideal, support_masks)


# The largest characteristic accepted, a prime: it keeps the primality
# test below to at most 46,340 trial divisions.
MAX_CHARACTERISTIC = 2**31 - 1


@dataclass(frozen=True)
class FieldChoice:
    """The coefficient field: the rationals (char 0) or a prime field."""

    char: int = 0

    def __post_init__(self):
        p = self.char
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"field characteristic {p} is out of range; the "
                             f"limit is {MAX_CHARACTERISTIC}")
        if p and (p < 2 or not all(p % d for d in range(2, isqrt(p) + 1))):
            raise ValueError(f"{p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldChoice":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldChoice":
        if p < 2:  # char 0 is the rationals, which are no prime field
            raise ValueError(f"{p} is not prime")
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
    from .formats import _bounded_int  # a top-level import would be circular
    digits = text[2:] if text.startswith("p=") else text
    return FieldChoice.prime(_bounded_int(digits, MAX_CHARACTERISTIC, "field"))


def reduced_homology_dims(delta: SimplicialComplex,
                          field: FieldChoice = QQ) -> dict[int, int]:
    """Dimensions of the reduced homology of delta, indexed -1 .. dim."""
    dims = kernel.homology_dims(delta.sorted_facets(), field.char)
    return {t - 1: dims[t] for t in range(len(dims))}


MAX_HOCHSTER_VERTICES = 24


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
    the restriction to W is the independence complex Ind(G[W]), a cone
    unless every vertex of W has a neighbour in W, and one recursion over
    the subsets of the union fills in the homology of every W
    (`_independence_table`); its table holds one entry per subset, which
    bounds the limit.  Every other ideal takes its minimal primes, the
    minimal transversals of the supports.  When each prime has two
    vertices, I is the cover ideal J(G) of the graph with those primes as
    edges, and the cover route reads beta_{i,j} off the independence
    table of G by the dual form of the formula (`_cover_strands`), with no
    lattice W.  Any other ideal restricts to each lattice W the facets of
    its Stanley-Reisner complex, the complements of the primes in the
    union.  The unit ideal, which has no Stanley-Reisner complex, and an
    ideal with a square (`support_masks`) raise ValueError.
    """
    if I.is_zero:
        raise ValueError("the zero ideal has an empty resolution; no table")
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    # refuse before taking the minimal primes, which can themselves be many
    supports, union = _renumbered(support_masks(I))
    if all(s.bit_count() == 2 for s in supports):
        table, shapes = _independence_table(supports, _neighbours(supports),
                                            field.char)
        # entry 0, zero homology as on every cone, adds nothing: skip it
        counts = Counter(zip(map(int.bit_count, itertools.compress(
            range(len(table)), table)), filter(None, table)))
        restrictions = ((j, shapes[s], c) for (j, s), c in counts.items())
    else:
        primes = minimal_transversals(supports)
        if all(q.bit_count() == 2 for q in primes):
            return _sum_strands(_cover_strands(primes, field.char))
        # the facets of the Stanley-Reisner complex, within the union
        restrictions = _facet_restrictions([union ^ q for q in primes],
                                           supports, union, field.char)
    # dims[t] of a W of size j, homology in degree t - 1, goes to
    # beta_{j-t-1,j}: reversing the first j entries indexes it by i, and
    # the empty W (j = 0) adds nothing
    return _sum_strands((j, (dims + (0,) * j)[:j][::-1], c)
                        for j, dims, c in restrictions)


def _renumbered(supports) -> tuple[list[int], int]:
    """The supports with the k vertices of their union renumbered 0..k-1,
    once, so each W keeps its size, and that union, 2^k - 1.  Refuses a
    union over the size limit first."""
    union = 0
    for g in supports:
        union |= g
    k = union.bit_count()
    check_hochster_size(k)
    return compress(supports, union), (1 << k) - 1


def _sum_strands(strands) -> BettiTable:
    """The graded Betti table of strands (j, dims, count), each adding
    count * dims[i] to beta_{i,j}; every oracle route ends here."""
    entries: dict[tuple[int, int], int] = {}
    for j, dims, c in strands:
        for i, d in enumerate(dims):
            if d:
                entries[i, j] = entries.get((i, j), 0) + c * d
    return make_table(entries, "ideal")


def _facet_restrictions(facets, supports: list[int], union: int, p: int):
    """(|W|, reduced homology dims of the restriction to W, 1) for each W
    in the lcm lattice, the non-empty unions of supports, in increasing
    order of W among the submasks of the union of all supports."""
    w = 0
    while w := (w - union) & union:
        lattice = 0
        for g in supports:
            if g & w == g:
                lattice |= g
        if lattice == w:
            yield (w.bit_count(),
                   kernel.homology_dims(restrict_masks(facets, w), p), 1)


def _cover_strands(edges: list[int], p: int):
    """The strands of the cover ideal J(G) of the graph with these edge
    masks, by Hochster's formula in its Alexander-dual form.

    On the vertex set V of G, the Stanley-Reisner complex of J(G) has
    Alexander dual Ind(G), and beta_{i,j}(J(G)) sums, over the independent
    U with |V - U| = j, the reduced homology of the link of U in Ind(G) in
    degree i - 1; a U that is not independent is no face and adds nothing.
    That link is Ind(G[V - N[U]]), whose dims `_independence_table` holds
    at index t = i, so each (j, dims) pair counted is a strand as it
    stands.  The independent U are walked depth-first, each reached once
    by adding its vertices in increasing order.  The edges lie on vertices
    0..k-1, each on some edge.
    """
    near = _neighbours(edges)
    table, shapes = _independence_table(edges, near, p)
    full = len(table) - 1
    k = full.bit_count()
    counts: Counter = Counter()
    # (|U|, N[U], the vertices above U's last that N[U] misses)
    stack = [(0, 0, full)]
    while stack:
        size, closed, rest = stack.pop()
        counts[k - size, table[full & ~closed]] += 1
        while rest:
            v = rest & -rest
            rest ^= v
            stack.append((size + 1, closed | v | near[v], rest & ~near[v]))
    return [(j, shapes[s], c) for (j, s), c in counts.items()]


def _neighbours(edges: list[int]) -> dict[int, int]:
    """The neighbourhood mask of each vertex bit on one of these edges."""
    near: dict[int, int] = {}
    for e in edges:
        u = e & -e
        near[u] = near.get(u, 0) | e ^ u
        near[e ^ u] = near.get(e ^ u, 0) | u
    return near


class _OffStrand(Exception):
    """Raised by `_independence_table` at the first W whose homology is
    nonzero at an index its caller ruled out."""


def _independence_table(edges: list[int], near: dict[int, int], p: int,
                        off: int = 0):
    """Reduced homology of Ind(G[W]) for every vertex set W of the graph
    with these edge masks, on vertices 0..k-1, each on some edge, and
    with the neighbour masks `_neighbours(edges)`.

    Returns (table, shapes): the dims h[W] of W are shapes[table[W]],
    indexed t = degree + 1, with trailing zeros dropped, so () is zero
    homology.  Each distinct tuple is stored once, and the table holds one
    small int per subset.  W runs upwards from h[0] = (1,), the empty
    complex:
    - a vertex of W with no neighbour in W makes Ind(G[W]) a cone, so h[W]
      is zero;
    - else, for a vertex v of W, Ind(G[W]) is the union of D = Ind(G[W-v])
      and the cone v*L on the link L = Ind(G[W - N[v]]), and D meets v*L
      in L.  The Mayer-Vietoris sequence of augmented chains, exact for
      the empty complex too, runs
      H_k(L) -> H_k(D) -> H_k(Ind(G[W])) -> H_{k-1}(L) -> H_{k-1}(D).
      When no degree has both H_k(L) and H_k(D) nonzero, the maps out of
      H(L) are zero, the sequence splits, and over every field
      h[W]_t = h[W-v]_t + h[W-N[v]]_{t-1}.  The lowest such v is used.
    - only when every v collides are the facets of Ind(G[W]), the
      complements in W of the minimal vertex covers of its edges, built
      and passed to the kernel.

    The first non-empty W with h[W]_t nonzero at a bit t of `off` raises
    `_OffStrand`.  The test sits where a shape is first stored: every h[W]
    is zero, a copy of a smaller W's, or a shape already stored, so the
    first such W is caught there, and with `off` = 0 no subset pays for
    it.
    """
    shapes: list[tuple[int, ...]] = [(), (1,)]
    ids = {(): 0, (1,): 1}
    # bit t is set when the dims at t are nonzero
    support = [0, 1]
    joined: dict[tuple[int, int], int] = {}

    def intern(dims) -> int:
        dims = tuple(dims)
        while dims and not dims[-1]:
            dims = dims[:-1]
        s = ids.get(dims)
        if s is None:
            bits = sum(1 << t for t, d in enumerate(dims) if d)
            if bits & off:
                raise _OffStrand
            s = ids[dims] = len(shapes)
            shapes.append(dims)
            support.append(bits)
        return s

    # grown by one entry per W, so an early stop holds only what it visited
    table = [1]
    append = table.append
    for w in range(1, 1 << len(near)):
        rest = w
        while rest:
            v = rest & -rest
            rest ^= v
            nv = near[v]
            if not nv & w:
                append(0)  # a cone
                break
            a = table[w & ~(nv | v)]
            b = table[w ^ v]
            if not a:
                # a zero link adds nothing to the deletion
                append(b)
                break
            if not support[a] & support[b]:
                s = joined.get((a, b))
                if s is None:
                    s = joined[a, b] = intern(map(sum, zip_longest(
                        (0,) + shapes[a], shapes[b], fillvalue=0)))
                append(s)
                break
        else:
            covers = minimal_transversals(e for e in edges if e & w == e)
            append(intern(kernel.homology_dims([w & ~t for t in covers], p)))
    return table, shapes


def koszul_betti(I: MonomialIdeal, field: FieldChoice = QQ) -> BettiTable:
    """Betti table of a nonzero monomial ideal via its upper Koszul complexes."""
    if I.is_zero:
        raise ValueError("the zero ideal has an empty resolution; no table")
    return _sum_strands(kernel.koszul_table(I.sorted_gens(), field.char))


def clear_caches() -> None:
    """Empty the oracle's memos: the Betti tables, the edge-ideal linearity
    verdicts and the kernel's homology."""
    _table.cache_clear()
    _edge_linear.cache_clear()
    kernel.clear_caches()


def betti_table(I: MonomialIdeal, field: FieldChoice = QQ) -> BettiTable:
    """Canonical oracle table of an ideal (LRU-memoized, `kernel.MEMO_SIZE`).

    Square-free ideals other than the unit ideal go through the
    subset-restriction formula, all others through the upper Koszul route;
    the two agree on the overlap and tests enforce that.  The zero ideal
    has the empty table.  Tables are memoized under the labelled
    generators, so a relabeling of an ideal already seen is a miss.  A
    square-free ideal is keyed by its frozenset of support masks
    (`I.masks`), an ideal with a square by its sorted exponent tuples, so
    the same ideal is one entry however it was built.
    """
    if I.is_zero:
        return make_table({}, "ideal")
    masks = I.masks
    key = tuple(I.sorted_gens()) if masks is None else masks
    return _table(I.num_vars, key, field)


@lru_cache(maxsize=kernel.MEMO_SIZE)
def _table(n: int, key: frozenset | tuple, field: FieldChoice) -> BettiTable:
    """`betti_table` of the nonzero square-free ideal with these support
    masks (a frozenset), or of the ideal with a square with these sorted
    generators (a tuple).  The key holds the field as given, so a miss
    validates no characteristic again."""
    if isinstance(key, tuple):
        return koszul_betti(MonomialIdeal(n, frozenset(key)), field)
    I = squarefree_ideal(key, n)
    return koszul_betti(I, field) if I.is_unit else hochster_betti(I, field)


def has_linear_resolution(I: MonomialIdeal, field: FieldChoice = QQ) -> bool:
    """True iff I is generated in one degree d and beta_{i,j} = 0 off j = i+d.

    An edge ideal, square-free with every generator of degree two, takes
    the verdict of `_edge_linear`; every other ideal reads its table."""
    if I.is_zero:
        raise ValueError("linear resolution is undefined for the zero ideal")
    masks = I.masks
    degrees = ({degree(g) for g in I.gens} if masks is None
               else set(map(int.bit_count, masks)))
    if len(degrees) > 1:
        return False
    d = degrees.pop()
    if masks is not None and d == 2:
        return _edge_linear(masks, field)
    table = betti_table(I, field)
    return all(j == i + d for (i, j) in table.entries)


@lru_cache(maxsize=kernel.MEMO_SIZE)
def _edge_linear(masks: frozenset, field: FieldChoice) -> bool:
    """Whether the edge ideal with these edge masks has a linear resolution.

    By Hochster's formula a W of size j with homology at index t adds to
    beta_{j-t-1,j}, and every term is non-negative, so the resolution is
    linear (j = i + 2) iff no non-empty W has homology at any t other than
    1: one such W proves "no" (the restriction lemma of Eisenbud, Green,
    Hulek and Popescu, "Restricting linear syzygies", 2005).  The
    independence recursion stops at the first; a "yes" visits every W.
    The verdict is memoized apart from the tables (LRU, `kernel.MEMO_SIZE`),
    because `_table` cannot be asked without computing, and a graph's edge
    ideal and the dual facet ideal of its dual independence complex are
    the same ideal."""
    edges, _ = _renumbered(masks)
    try:
        _independence_table(edges, _neighbours(edges), field.char, ~0b10)
    except _OffStrand:
        return False
    return True


def is_cohen_macaulay(delta: SimplicialComplex,
                      field: FieldChoice = QQ) -> bool:
    """Cohen-Macaulayness via linearity of the facet-complement ideal."""
    full = (1 << delta.ground_size) - 1
    if full in delta.facets:
        return True
    return has_linear_resolution(dual_facet_ideal(delta), field)
