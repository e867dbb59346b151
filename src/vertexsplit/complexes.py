"""Simplicial complexes, deletion/link, Stanley-Reisner correspondence,
Alexander duality, purity and big height.

A complex on ground set {0, ..., n-1} is stored by its facets (maximal
faces) as vertex bitmasks.  The complex whose only face is the empty set is
allowed and counts as a simplex; the void complex with no faces at all is
not representable, and operations that would produce it raise ValueError.
Ground sets are fixed per object; deletion and link return complexes on the
smaller ground set with vertices above the removed one shifted down.
A complex may have ghost vertices: ground-set elements lying in no face.

The Stanley-Reisner complex, the minimal non-faces and both Alexander duals
come from ``monomials.minimal_transversals`` (F is a face iff its complement
meets every generator support), so none builds a table of all 2^n subsets.
`complex_of_supports` takes non-face masks, so independence complexes come
from edge masks; `complex_of_ideal` checks its ideal and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .monomials import (MonomialIdeal, _max_antichain, compress,
                        minimal_transversals, squarefree_ideal, support_masks)

# The one input-size bound: parsers refuse a file that declares or implies
# more vertices or variables before allocating for them, and no complex has
# a larger ground set.  Test and benchmark inputs have at most 40 vertices.
MAX_VERTICES = 63


def _mask_of(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        v = int(v)
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for ground set of size {n}")
        mask |= 1 << v
    return mask


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facet bitmasks."""

    ground_size: int
    facets: frozenset[int]

    def __post_init__(self):
        if not self.facets:
            raise ValueError("the void complex is not representable")
        if self.ground_size > MAX_VERTICES:
            raise ValueError(f"ground sets are limited to {MAX_VERTICES} vertices")

    @property
    def vertex_mask(self) -> int:
        """Mask of the actual vertices (ground-set elements in some face)."""
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    def sorted_facets(self) -> list[int]:
        return sorted(self.facets)

    def facet_sets(self) -> list[frozenset[int]]:
        return [mask_to_set(f) for f in self.sorted_facets()]

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def is_vertex(self, v: int) -> bool:
        """True iff v is a vertex: in 0..ground_size-1 and in some facet."""
        return 0 <= v < self.ground_size and bool(self.vertex_mask >> v & 1)

    def __repr__(self) -> str:
        facets = ", ".join("{" + ",".join(map(str, sorted(s))) + "}"
                           for s in self.facet_sets())
        return f"SimplicialComplex({self.ground_size}, <{facets}>)"


def from_facets(subsets: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Complex generated by the given faces, reduced to the facet antichain."""
    masks = [_mask_of(s, n) for s in subsets]
    if not masks:
        raise ValueError("a complex needs at least one face; got none")
    return SimplicialComplex(n, _max_antichain(masks))


def from_facet_masks(masks: Iterable[int], n: int) -> SimplicialComplex:
    return SimplicialComplex(n, _max_antichain(masks))


def simplex(n: int) -> SimplicialComplex:
    """The full simplex on {0, ..., n-1}."""
    return SimplicialComplex(n, frozenset({(1 << n) - 1}))


def empty_complex(n: int) -> SimplicialComplex:
    """The complex whose only face is the empty set."""
    return SimplicialComplex(n, frozenset({0}))


def is_simplex(delta: SimplicialComplex) -> bool:
    return len(delta.facets) == 1


def _drop_vertex(mask: int, x: int) -> int:
    """Reindex a mask on ground set n to ground set n-1 by removing slot x."""
    low = mask & ((1 << x) - 1)
    high = mask >> (x + 1)
    return low | high << x


def deletion(delta: SimplicialComplex, x: int) -> SimplicialComplex:
    """Faces of delta avoiding x, as a complex on the ground set minus x."""
    if not 0 <= x < delta.ground_size:
        raise ValueError(f"vertex {x} out of range")
    bit = 1 << x
    kept = [_drop_vertex(f & ~bit, x) for f in delta.facets]
    return SimplicialComplex(delta.ground_size - 1, _max_antichain(kept))


def link(delta: SimplicialComplex, x: int) -> SimplicialComplex:
    """Link of x: faces adjoinable to x, with x removed; x must be a vertex."""
    if not 0 <= x < delta.ground_size:
        raise ValueError(f"vertex {x} out of range")
    bit = 1 << x
    kept = [_drop_vertex(f & ~bit, x) for f in delta.facets if f & bit]
    if not kept:
        raise ValueError(f"link undefined: {x} is not a vertex of the complex")
    return SimplicialComplex(delta.ground_size - 1, _max_antichain(kept))


def restrict_masks(facets: Iterable[int], w_mask: int) -> frozenset[int]:
    """Facet masks of the restriction to W, still in ambient coordinates."""
    return _max_antichain(f & w_mask for f in facets)


def induced_subcomplex(delta: SimplicialComplex, w_mask: int) -> SimplicialComplex:
    """Faces of delta contained in W, relabeled as a complex on W."""
    if w_mask >> delta.ground_size:
        raise ValueError("restriction set is not contained in the ground set")
    return SimplicialComplex(w_mask.bit_count(), frozenset(
        compress(restrict_masks(delta.facets, w_mask), w_mask)))


def is_pure(delta: SimplicialComplex) -> bool:
    sizes = {f.bit_count() for f in delta.facets}
    return len(sizes) == 1


def bight(delta: SimplicialComplex) -> int:
    """Maximum facet-complement size, relative to the declared ground set."""
    return max(delta.ground_size - f.bit_count() for f in delta.facets)


def minimal_nonfaces(delta: SimplicialComplex) -> list[int]:
    """Masks of the minimal non-faces, in increasing (cardinality, mask) order."""
    full = (1 << delta.ground_size) - 1
    return sorted(minimal_transversals(full & ~f for f in delta.facets),
                  key=lambda m: (m.bit_count(), m))


def stanley_reisner_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """The square-free ideal generated by the minimal non-faces."""
    return squarefree_ideal(minimal_nonfaces(delta), delta.ground_size)


def complex_of_ideal(I: MonomialIdeal) -> SimplicialComplex:
    """Inverse Stanley-Reisner correspondence for a square-free ideal.

    Faces are the subsets supporting no generator; the zero ideal gives the
    full simplex.  The unit ideal corresponds to no complex and is rejected.
    """
    supports = support_masks(I)
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    return complex_of_supports(supports, I.num_vars)


def complex_of_supports(supports: Iterable[int], n: int) -> SimplicialComplex:
    """Complex on {0, ..., n-1} whose faces contain none of these masks."""
    full = (1 << n) - 1
    return SimplicialComplex(n, frozenset(
        full & ~t for t in minimal_transversals(supports)))


def alexander_dual_complex(delta: SimplicialComplex) -> SimplicialComplex:
    """Complex of complements of non-faces; undefined for the full simplex."""
    n = delta.ground_size
    full = (1 << n) - 1
    if full in delta.facets:
        raise ValueError("the Alexander dual of the full simplex is void")
    # complements of the minimal non-faces, an antichain, are an antichain
    return SimplicialComplex(
        n, frozenset(full & ~m for m in minimal_nonfaces(delta)))


def dual_facet_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the facet complements x^(F^c)."""
    n = delta.ground_size
    full = (1 << n) - 1
    # complements of a facet antichain are again an antichain
    return squarefree_ideal((full & ~f for f in delta.facets), n)
