"""Vertex splittable monomial ideals and vertex decomposable simplicial
complexes, with exact graded Betti numbers.

The package recognizes both structures with replayable certificates,
computes Betti tables three ways (a homological oracle, the split
recursion and the linear-quotient set formula) and exposes theorem-check
suites that compare them on enumerated and sampled corpora.  The exact
ranks and homology behind the oracle live in `vertexsplit.kernel`.
"""

from . import _kernel_py, decomposition, graphs, homology, kernel, splitting
from .betti import BettiTable, format_flat, format_grid, pd, quotient_table, reg
from .complexes import (SimplicialComplex, alexander_dual_complex, bight,
                        complex_of_ideal, deletion, dual_facet_ideal,
                        empty_complex, from_facets, induced_subcomplex,
                        is_pure, is_simplex, link, simplex,
                        stanley_reisner_ideal)
from .decomposition import (DecompositionNode, SimplexLeaf, check_pd_equals_bight,
                            is_shedding, pd_reg_recursive, vertex_decomposable)
from .graphs import (Graph, chordal_split, complement, cover_betti_recursive,
                     cover_ideal, cycle_graph, dual_complex_equivalence,
                     edge_ideal, froberg_equivalence, graph,
                     independence_complex, clique_complex, is_chordal,
                     is_scm_bipartite, path_graph, simplicial_vertex)
from .homology import (FieldChoice, QQ, betti_table, has_linear_resolution,
                       hochster_betti, is_cohen_macaulay, koszul_betti,
                       parse_field, reduced_homology_dims)
from .monomials import (Monomial, MonomialIdeal, colon, divides, intersect,
                        is_squarefree, is_subideal, minimalize, x_partition)
from .splitting import (LinearQuotientOrder, SplitLeaf, SplitNode,
                        betti_from_sets, betti_recursive,
                        find_linear_quotients, quotient_order_from_split,
                        validate_split_tree, verify_betti_splitting,
                        vertex_split)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the LRU memo tables (homology, Betti tables, edge-ideal
    linearity verdicts, split and decomposition certificates); see
    `cache_info`."""
    splitting.clear_caches()
    decomposition.clear_caches()
    homology.clear_caches()


def cache_info() -> dict:
    """The `functools` `CacheInfo` (hits, misses, bound, size) of each memo
    table: `homology`, `tables`, `linear`, `split` and `decomposition`.

    `homology` is keyed by support-compressed facet masks; edge ideals
    reach it only at the rare vertex sets where the Hochster recursion
    falls back to the kernel.  `tables` are keyed by the labelled
    generators and the field, so each relabeling of an ideal is a miss of
    its own.  `linear` holds the `has_linear_resolution` verdicts of edge
    ideals, keyed by their edge masks and the field."""
    return {"homology": _kernel_py._dims_of_key.cache_info(),
            "tables": homology._table.cache_info(),
            "linear": homology._edge_linear.cache_info(),
            "split": splitting._split.cache_info(),
            "decomposition": decomposition._decompose.cache_info()}
