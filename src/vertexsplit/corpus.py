"""Corpus builders: exhaustive enumeration of small complexes, ideals and
graphs, and seeded random generators.  Random splittable ideals are built
by sampling certificate trees, so their labels are true by construction;
every node is checked as it is sampled, by the same per-node check that
replays a certificate.
"""

from __future__ import annotations

from itertools import combinations
from random import Random
from typing import Iterator

from .complexes import SimplicialComplex, empty_complex, from_facet_masks
from .graphs import Graph
from .monomials import (Monomial, MonomialIdeal, minimalize, mono_lcm,
                        mono_mul, squarefree_ideal)
from .splitting import (InvalidSplitTree, SplitLeaf, SplitNode, SplitTree,
                        _node_gens)

_MAX_TRIES = 200  # samples drawn before random_splittable_ideal gives up

def _antichain_families(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty antichains of nonempty subsets of {0..n-1}, as mask tuples."""
    masks = list(range(1, 1 << n))

    def extend(start: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for idx in range(start, len(masks)):
            m = masks[idx]
            if any(m & c == m or m & c == c for c in chosen):
                continue
            fresh = chosen + (m,)
            yield fresh
            yield from extend(idx + 1, fresh)

    yield from extend(0, ())


def all_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every simplicial complex on ground set {0..n-1} (the empty-face
    complex first, then all facet antichains of nonempty faces)."""
    yield empty_complex(n)
    for facets in _antichain_families(n):
        yield SimplicialComplex(n, frozenset(facets))


def all_squarefree_ideals(n: int) -> Iterator[MonomialIdeal]:
    """Every nonzero, non-unit square-free monomial ideal in n variables."""
    for supports in _antichain_families(n):
        yield squarefree_ideal(supports, n)


def all_graphs(n: int) -> Iterator[Graph]:
    slots = list(combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        edges = frozenset(e for k, e in enumerate(slots) if bits >> k & 1)
        yield Graph(n, edges)


def random_graph(n: int, p: float, rng: Random) -> Graph:
    if not 0 <= p <= 1:
        raise ValueError(f"the edge probability {p} is not between 0 and 1")
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def random_complex(n: int, max_facets: int, rng: Random) -> SimplicialComplex:
    if n < 1 or max_facets < 1:
        raise ValueError(f"no complex on {n} vertices has between 1 and "
                         f"{max_facets} nonempty generating faces")
    count = rng.randint(1, max_facets)
    masks = [rng.randint(1, (1 << n) - 1) for _ in range(count)]
    return from_facet_masks(masks, n)


def _random_monomial(variables: tuple[int, ...], n: int, rng: Random,
                     allow_unit: bool = True) -> Monomial:
    exps = [0] * n
    for v in variables:
        if rng.random() < 0.45:
            exps[v] = 2 if rng.random() < 0.15 else 1
    if not allow_unit and not any(exps):
        if variables:
            exps[rng.choice(variables)] = 1
    return tuple(exps)


def _sample_contained(variables: tuple[int, ...], target: MonomialIdeal,
                      rng: Random, depth: int
                      ) -> tuple[SplitTree, tuple[Monomial, ...]]:
    """Certificate for a random splittable ideal contained in target,
    with its replayed generators."""
    if target.is_zero or rng.random() < 0.12:
        return SplitLeaf(None), ()
    if depth <= 0 or not variables or rng.random() < 0.33:
        if not variables:
            return SplitLeaf(None), ()
        # a unit multiplier would duplicate a generator of the enclosing
        # factor ideal, so insist on a proper multiple
        base = rng.choice(sorted(target.gens))
        extra = _random_monomial(variables, target.num_vars, rng,
                                 allow_unit=False)
        leaf = mono_mul(base, extra)
        return SplitLeaf(leaf), (leaf,)
    n = target.num_vars
    y = rng.choice(variables)
    rest = tuple(v for v in variables if v != y)
    # anything inside (target : y) and free of y can be multiplied by y and
    # stay inside target.  Only the y-free parts of (target : y) and of
    # left ∩ target are sampled from, and a y-free monomial has only y-free
    # divisors, so each part minimalizes just its y-free candidates
    quotient = minimalize((g[:y] + (0,) + g[y + 1:] for g in target.gens
                           if g[y] <= 1), n)
    left, left_gens = _sample_contained(rest, quotient, rng, depth - 1)
    if not left_gens:
        return SplitLeaf(None), ()
    meet = minimalize((mono_lcm(g, h) for g in left_gens for h in target.gens
                       if not h[y]), n)
    right, right_gens = _sample_contained(rest, meet, rng, depth - 1)
    return SplitNode(y, left, right), _node_gens(y, left_gens, right_gens)


def _sample_split(variables: tuple[int, ...], n: int, rng: Random,
                  depth: int) -> tuple[SplitTree, tuple[Monomial, ...]]:
    """Certificate for a random nonzero splittable ideal, with its
    replayed generators."""
    if depth <= 0 or not variables or rng.random() < 0.1:
        leaf = _random_monomial(variables, n, rng)
        return SplitLeaf(leaf), (leaf,)
    x = rng.choice(variables)
    rest = tuple(v for v in variables if v != x)
    left, left_gens = _sample_split(rest, n, rng, depth - 1)
    left_ideal = MonomialIdeal(n, frozenset(left_gens))
    right, right_gens = _sample_contained(rest, left_ideal, rng, depth - 1)
    return SplitNode(x, left, right), _node_gens(x, left_gens, right_gens)


def random_splittable_ideal(n: int, rng: Random, max_gens: int = 12
                            ) -> tuple[MonomialIdeal, SplitTree]:
    """A random vertex splittable ideal with its certificate.

    Certificate trees are sampled directly; samples whose rebuilt
    generators fail minimality (or exceed max_gens) are rejected and
    redrawn, so the returned pair always validates.
    """
    if n < 0 or max_gens < 1:
        raise ValueError(f"no ideal in {n} variables has between 1 and "
                         f"{max_gens} generators")
    variables = tuple(range(n))
    for _ in range(_MAX_TRIES):
        try:
            tree, gens = _sample_split(variables, n, rng, depth=n)
        except InvalidSplitTree:
            continue
        if gens and len(gens) <= max_gens:
            return MonomialIdeal(n, frozenset(gens)), tree
    raise RuntimeError("random splittable sampling failed to converge")
