"""The kernel: exact matrix ranks, reduced simplicial homology and the
graded strands of a monomial ideal from its upper Koszul complexes.

`vertexsplit.kernel` re-exports the entry points defined here.  Every
rank comes from one sparse, fraction-free elimination, exact over QQ and
over every GF(p) (`sparse_rank`); `rank_int` and `rank_mod` pass it
list-of-lists matrices, over QQ and GF(p).

Before any matrix is built, `homology_dims` shrinks a complex to its
strong-collapse core (Barmak-Minian, "Strong homotopy types, nerves and
collapses", 2012).  A vertex v is dominated when some other vertex w lies
in every facet that contains v.  Then the link of v is a cone with apex
w, the complex with v deleted is a strong deformation retract of the
whole, and reduced homology over any field is unchanged.  Dominated
vertices are deleted one at a time until none is left, because two
vertices can dominate each other.  A core that is a single non-empty
facet is a point and has zero reduced homology.  Any other core's
boundary matrices are built sparse from its face masks and ranked, and
its result is padded with zeros to the length the input would have had.
The reduction runs only on a cache miss.  The LRU memo of `MEMO_SIZE`
entries, the bound of all five package memos, keys by the sorted tuple
of support-compressed facet masks (`monomials.compress`); a core that
lost a vertex gets its own key.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .monomials import _max_antichain, compress

MEMO_SIZE = 1 << 16


def clear_caches() -> None:
    _dims_of_key.cache_clear()


def rank_int(rows) -> int:
    """Rank over the rationals of an integer matrix given as a list of rows."""
    return sparse_rank([{j: int(x) for j, x in enumerate(row) if x}
                        for row in rows], 0)[0]


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix given as a list of rows."""
    return sparse_rank([{j: int(x) for j, x in enumerate(row) if x}
                        for row in rows], p)[0]


def _canonical_key(facets, p: int) -> tuple:
    """Cache key: the sorted tuple of the distinct facet masks with the
    support compressed, so its k-th lowest vertex becomes vertex k."""
    support = 0
    for f in facets:
        support |= f
    return tuple(sorted(set(compress(facets, support)))), p


def strong_collapse_core(facets) -> list[int]:
    """Sorted facets of a strong-collapse core of the complex the masks
    generate.

    Deletes one dominated vertex at a time until no vertex is dominated.
    The core has the homotopy type of the input, so the same reduced
    homology; it is never empty, and it is a single facet exactly when
    the input strong-collapses to a point (a cone, for instance).
    """
    return _collapse(_max_antichain(facets))


def _collapse(facets) -> list[int]:
    """`strong_collapse_core` of masks that already form an antichain.

    On other masks every deleted vertex is still dominated, so the result
    has the same homotopy type, but some dominated vertices may remain.
    """
    core = list(facets)
    changed = True
    while changed:
        changed = False
        support = 0
        for f in core:
            support |= f
        while support:
            v = support & -support
            support ^= v
            common = ~0
            for f in core:
                if f & v:
                    common &= f
            if common != v:
                # facets that miss v stay maximal, and facets through v
                # stay incomparable without it: a shrunken facet can only
                # fall inside a facet that missed v
                kept = [f for f in core if not f & v]
                shrunk = [f ^ v for f in core if f & v]
                core = kept + [g for g in shrunk
                               if not any(g & h == g for h in kept)]
                changed = True
    return sorted(core)


def sparse_rank(rows, p: int) -> tuple[int, set]:
    """Rank over QQ (p=0) or GF(p) of the integer matrix whose rows are
    `{column: entry}` dicts, and the set of pivot columns found.

    Each row is reduced at its lowest column (its lead) by the pivot rows
    found so far, and becomes a pivot row itself when its lead is a column
    with no pivot yet (Dumas, Heckenbach, Saunders and Welker, "Computing
    simplicial homology based on efficient Smith normal form algorithms",
    2003).  Over GF(p) the entries are reduced mod p first and a new pivot
    row is scaled to lead 1.  Over QQ a new pivot row is divided by the gcd
    of its entries and negated if its lead is negative, so its lead d can
    be any positive integer.  A row with entry c at the lead of a pivot
    becomes d*row - c*pivot; over GF(p), d is 1.  Every step is an
    invertible row operation over the field, so the rank is exact, and no
    fraction appears.

    Pivot rows have distinct leads and no entry left of their lead, so
    they are independent, and every other row reduces to zero.  The
    columns returned are the leads of the pivot rows.
    """
    pivots = {}
    for row in rows:
        row = {k: v % p for k, v in row.items() if v % p} if p else dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            c = row[lead]
            d = pivot[lead]
            if d != 1:
                for k in row:
                    row[k] *= d
            _subtract(row, c, pivot, p)
        if not row:
            continue
        c = row[lead]
        if p:
            inverse = pow(c, p - 2, p)
            pivots[lead] = {k: v * inverse % p for k, v in row.items()}
        else:
            g = 1 if c == 1 or c == -1 else gcd(*row.values())
            if c < 0:
                g = -g
            pivots[lead] = row if g == 1 else {k: v // g
                                                for k, v in row.items()}
    return len(pivots), set(pivots)


def _subtract(row: dict, c: int, pivot: dict, p: int) -> None:
    """row -= c * pivot in place (mod p when p > 0), dropping zeros.

    c and every entry of the pivot are nonzero, so a column missing from
    the row never cancels."""
    get = row.get
    for k, v in pivot.items():
        x = get(k, 0) - c * v
        if p:
            x %= p
        if x:
            row[k] = x
        else:
            del row[k]


def _homology_from_masks(facets: list[int], p: int) -> tuple[int, ...]:
    """Reduced homology dimensions; entry t is dim of degree t-1 homology.

    The boundary row of a face f is `{f ^ v: ±1}` over its vertices v,
    with alternating signs, so its columns are face masks one level down
    and no index map or dense matrix is built.  Levels are ranked from the
    top down.  A face that is a pivot column of the level above is left
    out of its own level's rows ("clearing": Chen and Kerber, "Persistent
    homology computation with a twist", 2011).  Its pivot row R is a
    combination of boundaries over the field, so the boundary of R is
    zero; R has a nonzero entry at that face, which is invertible in the
    field, and entries only at higher faces of the same level, so the
    face's boundary is a combination of theirs.  Taken from the highest
    cleared face down, each cleared row lies in the span of the rows kept,
    so the rank is unchanged; those rows would only have reduced to zero.
    """
    top = max(f.bit_count() for f in facets)
    by_size = [[] for _ in range(top + 1)]
    for f in facets:
        by_size[f.bit_count()].append(f)
    level = set(by_size[top])
    sizes = [0] * (top + 1)
    ranks = [0] * (top + 2)
    cleared = set()
    for t in range(top, 0, -1):
        sizes[t] = len(level)
        below = set(by_size[t - 1])
        rows = []
        for f in sorted(level):
            row = {}
            sign = 1
            g = f
            while g:
                bit = g & -g
                row[f ^ bit] = sign
                sign = -sign
                g ^= bit
            below.update(row)
            if f not in cleared:
                rows.append(row)
        ranks[t], cleared = sparse_rank(rows, p)
        level = below
    sizes[0] = len(level)
    return tuple(sizes[t] - ranks[t] - ranks[t + 1] for t in range(top + 1))


def homology_dims(facets, p: int) -> tuple[int, ...]:
    """Reduced homology over QQ (p=0) or GF(p) of the complex generated by
    the given facet bitmasks.  Entry t is the dimension in degree t-1.

    Any masks are accepted.  The library passes facet antichains, which
    are not reduced again; on other masks the strong collapse may stop
    early, which costs time but not exactness."""
    facets = list(facets)
    if not facets:
        raise ValueError("the void complex has no homology")
    return _dims_of_key(*_canonical_key(facets, p))


@lru_cache(maxsize=MEMO_SIZE)
def _dims_of_key(facets: tuple[int, ...], p: int) -> tuple[int, ...]:
    """`homology_dims` of the facet masks of a canonical key."""
    top = max(f.bit_count() for f in facets)
    core = _collapse(facets)
    if len(core) == 1 and core[0]:
        return (0,) * (top + 1)
    if core == list(facets):
        return _homology_from_masks(core, p)
    # a vertex went, so the core's key differs from this one
    dims = _dims_of_key(*_canonical_key(core, p))
    return dims + (0,) * (top + 1 - len(dims))


def koszul_table(exponents, p: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The graded strands (j, dims, 1) of the ideal with the given minimal
    generators, one per multidegree b of the lcm lattice whose upper Koszul
    complex is not a cone: j is the degree of b, and dims[i], the reduced
    homology of that complex in degree i - 1, is beta_{i,b}.

    The upper Koszul complex at b has as faces the square-free t with
    x^b / x^t in the ideal; it is the union of the simplexes on
    {i : b_i > g_i} over the generators g dividing x^b.  The lattice is
    built by joining each generator into the joins found so far, and each
    strand's facets come from one antichain pass.  The generators must be
    minimal: then at b = g only g divides x^g, its complex is {empty set},
    and its strand (deg g, (1,), 1) is written with no homology call, so
    the generators are left out of the lattice walk.
    """
    gens = [tuple(map(int, g)) for g in exponents]
    lattice: set[tuple[int, ...]] = set()
    for g in gens:
        lattice |= {tuple(map(max, b, g)) for b in lattice}
        lattice.add(g)
    strands = [(sum(g), (1,), 1) for g in gens]
    lattice.difference_update(gens)
    for b in lattice:
        masks = []
        for g in gens:
            mask = 0
            bit = 1
            for ge, be in zip(g, b):
                if ge > be:
                    break
                if be > ge:
                    mask |= bit
                bit <<= 1
            else:
                masks.append(mask)
        facets = _max_antichain(masks)
        common = ~0
        for mk in facets:
            common &= mk
        if common:
            continue  # the complex is a cone, hence acyclic
        strands.append((sum(b), homology_dims(facets, p), 1))
    return strands
