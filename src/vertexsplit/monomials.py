"""Monomials and monomial ideals with exact ideal arithmetic, and the
boundary between square-free ideals and vertex masks.

A monomial is a tuple of non-negative integer exponents of fixed length n
(the number of variables); the unit monomial is the all-zero tuple.  A
monomial ideal is stored by its unique minimal generating set, which is an
antichain under divisibility.  The zero ideal has no generators and the unit
ideal is generated by the unit monomial.

Complexes and graphs are vertex bitmasks instead, and a square-free
generator is its support mask (bit i set when x_i divides it).  This module
owns that format: `squarefree_ideal` builds the ideal of an antichain of
masks, `support_masks` reads the masks of a square-free ideal, and no other
module converts between the two (`splitting` searches stacked masks of
exponent ranks, a format of its own).  Every square-free ideal holds its
support masks as `MonomialIdeal.masks`, derived once from the generators
on first read; an ideal with a square holds None there.  An ideal that
`squarefree_ideal` built starts from its masks and writes its exponent
tuples only when `gens` is first read, so the ideals of graphs and
complexes reach the oracle and the split search as masks.  Equality, hash
and repr are those of the generators, however the ideal was built.  The
mask routines `compress`, `_max_antichain` and `minimal_transversals` live
here too, so the kernel imports no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import lshift
from typing import Iterable

Monomial = tuple[int, ...]

# exponents above this are rejected; the algorithms here only ever meet
# small exponents
MAX_EXPONENT = 2**20


def unit_monomial(n: int) -> Monomial:
    return (0,) * n


def degree(m: Monomial) -> int:
    return sum(m)


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b, i.e. every exponent of a is at most b's."""
    if len(a) != len(b):
        raise ValueError(f"exponent length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a/b; requires b | a."""
    if not divides(b, a):
        raise ValueError("inexact monomial division")
    return tuple(x - y for x, y in zip(a, b))


def variable(n: int, i: int) -> Monomial:
    """The monomial x_i in n variables."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for {n} variables")
    return tuple(1 if k == i else 0 for k in range(n))


def mono_from_mask(mask: int, n: int) -> Monomial:
    """Square-free monomial with support given by a bitmask."""
    return tuple(mask >> i & 1 for i in range(n))


def compress(masks: Iterable[int], support: int) -> list[int]:
    """The masks, each inside support, with the k-th lowest vertex of
    support renumbered as vertex k."""
    place = {}
    while support:
        low = support & -support
        place[low] = 1 << len(place)
        support ^= low
    out = []
    for m in masks:
        mask = 0
        while m:
            low = m & -m
            mask |= place[low]
            m ^= low
        out.append(mask)
    return out


def _max_antichain(masks: Iterable[int]) -> frozenset[int]:
    """Keep only the masks that are maximal under inclusion."""
    maximal: list[int] = []
    # larger masks first; masks of equal size never contain one another
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for big in maximal:
            if m & big == m:
                break
        else:
            maximal.append(m)
    return frozenset(maximal)


def minimal_transversals(masks: Iterable[int]) -> frozenset[int]:
    """Minimal masks meeting every mask of the family (Berge's method): the
    empty family gives {0} and a family containing 0 gives none."""
    transversals = [0]
    for e in masks:
        kept, grown = [], set()
        for t in transversals:
            if t & e:
                kept.append(t)
                continue
            rest = e
            while rest:
                bit = rest & -rest
                rest ^= bit
                grown.add(t | bit)
        # extensions never nest, so only a kept transversal can lie inside one
        transversals = kept + [u for u in grown
                               if not any(k & u == k for k in kept)]
    return frozenset(transversals)


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal, canonically stored by its minimal generators.

    Build instances through :func:`minimalize`, :func:`squarefree_ideal`
    (or the convenience constructors below) so the antichain invariant
    holds.  Equality and hashing are those of (num_vars, gens), however
    the ideal was built.
    """

    num_vars: int
    gens: frozenset[Monomial]

    @cached_property
    def masks(self) -> frozenset[int] | None:
        """The support masks of the generators, or None when an exponent
        exceeds one; derived once."""
        n, gens = self.num_vars, self.gens
        if n and gens and max(map(max, gens)) > 1:
            return None
        return frozenset(sum(map(lshift, g, range(n))) for g in gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (self.num_vars, self.gens) == (other.num_vars, other.gens)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return unit_monomial(self.num_vars) in self.gens

    def sorted_gens(self) -> list[Monomial]:
        return sorted(self.gens)

    def __contains__(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.gens)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.sorted_gens())
        return f"MonomialIdeal({self.num_vars}, [{gens}])"


class _MaskIdeal(MonomialIdeal):
    """A square-free ideal built from the antichain of its support masks:
    it keeps them and writes its exponent tuples once, when `gens` is first
    read.  Ideals built from tuples keep `gens` a plain attribute and
    derive `masks` from it."""

    def __init__(self, num_vars: int, masks: frozenset[int]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "masks", masks)

    @cached_property
    def gens(self) -> frozenset[Monomial]:
        return frozenset(mono_from_mask(m, self.num_vars) for m in self.masks)

    @property
    def is_zero(self) -> bool:
        return not self.masks

    @property
    def is_unit(self) -> bool:
        return 0 in self.masks


def minimalize(gens: Iterable[Monomial], n: int) -> MonomialIdeal:
    """Ideal generated by gens, reduced to the divisibility antichain."""
    pool = set()
    for g in gens:
        g = tuple(g)
        if len(g) != n:
            raise ValueError(f"expected {n} exponents, got {len(g)}")
        if any(e < 0 or e > MAX_EXPONENT for e in g):
            raise ValueError(f"exponent out of range in {g}")
        pool.add(g)
    minimal = []
    for g in sorted(pool, key=lambda m: (degree(m), m)):
        if not any(divides(h, g) for h in minimal):
            minimal.append(g)
    return MonomialIdeal(n, frozenset(minimal))


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, frozenset({unit_monomial(n)}))


def variable_ideal(n: int, indices: Iterable[int]) -> MonomialIdeal:
    """Ideal generated by the listed variables."""
    return minimalize((variable(n, i) for i in indices), n)


def _check_same_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.num_vars != b.num_vars:
        raise ValueError(f"ideals live in different rings: "
                         f"{a.num_vars} vs {b.num_vars} variables")


def colon(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal (I : m)."""
    if len(m) != I.num_vars:
        raise ValueError("monomial length does not match the ideal's ring")
    return minimalize((mono_div(g, mono_gcd(g, m)) for g in I.gens), I.num_vars)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The intersection ideal, generated by pairwise lcms."""
    _check_same_ring(I, J)
    return minimalize(
        (mono_lcm(g, h) for g in I.gens for h in J.gens), I.num_vars)


def is_subideal(A: MonomialIdeal, B: MonomialIdeal) -> bool:
    """True iff A is contained in B (every generator of A lies in B)."""
    _check_same_ring(A, B)
    return all(any(divides(h, g) for h in B.gens) for g in A.gens)


def x_partition(I: MonomialIdeal, x: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Split the generators of I into (divisible by x_x, the rest)."""
    if I.is_zero:
        raise ValueError("cannot partition the zero ideal")
    if not 0 <= x < I.num_vars:
        raise ValueError(f"variable index {x} out of range")
    div = frozenset(g for g in I.gens if g[x] > 0)
    rest = I.gens - div
    return MonomialIdeal(I.num_vars, div), MonomialIdeal(I.num_vars, rest)


def is_squarefree(I: MonomialIdeal) -> bool:
    """True iff no exponent of a generator exceeds one."""
    return I.masks is not None


def support_masks(I: MonomialIdeal) -> frozenset[int]:
    """The support masks of the generators of a square-free ideal; a
    generator with a square raises ValueError."""
    masks = I.masks
    if masks is None:
        raise ValueError("the ideal has a square, so it is not square-free")
    return masks


def squarefree_ideal(masks: Iterable[int], n: int) -> MonomialIdeal:
    """The square-free ideal in n variables whose generators have these
    support masks, which must form an antichain under inclusion.  It keeps
    the masks and writes the exponent tuples only when `gens` is read."""
    return _MaskIdeal(n, frozenset(masks))


def multiply(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The ideal m*I.

    Multiplication by a fixed monomial preserves the divisibility
    antichain, so no re-minimalization is needed.
    """
    if len(m) != I.num_vars:
        raise ValueError("monomial length does not match the ideal's ring")
    return MonomialIdeal(I.num_vars, frozenset(mono_mul(m, g) for g in I.gens))


def alexander_dual_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Alexander dual of a square-free ideal: the intersection of the
    variable primes of its generator supports."""
    return squarefree_ideal(minimal_transversals(support_masks(I)), I.num_vars)
