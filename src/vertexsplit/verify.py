"""Theorem-checking suites.

Each suite enumerates or samples a corpus and checks one of the library's
structural identities against the homological oracle, returning a
deterministic report (no timings, sorted iteration) so reruns with equal
seeds are byte-identical.  The CLI `verify` command and the acceptance
tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from random import Random

from . import corpus
from .betti import pd as table_pd, quotient_table, reg as table_reg
from .complexes import bight, dual_facet_ideal, from_facets, mask_to_set
from .decomposition import (check_pd_equals_bight, oracle_pd_reg,
                            pd_reg_recursive, vertex_decomposable)
from .graphs import (Graph, ScmNode, chordal_split, complement,
                     cover_betti_recursive, cover_ideal,
                     dual_complex_equivalence, edge_ideal, froberg_equivalence,
                     graph, is_bipartite, is_chordal, is_scm_bipartite,
                     path_graph, simplicial_vertex)
from .homology import (FieldChoice, QQ, betti_table, has_linear_resolution,
                       koszul_betti)
from .monomials import (MonomialIdeal, alexander_dual_ideal, degree,
                        intersect, multiply, squarefree_ideal, unit_ideal,
                        variable, variable_ideal, x_partition)
from .splitting import (betti_from_sets, betti_recursive,
                        betti_splitting_identity, quotient_order_from_split,
                        split_nodes, validate_split_tree,
                        verify_linear_quotient_order, vertex_split)

_MAX_REPORTED = 5


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < _MAX_REPORTED:
            self.failures.append(message)
        elif len(self.failures) == _MAX_REPORTED:
            self.failures.append("... more failures suppressed")

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} checked)"]
        lines += [f"  note: {note}" for note in self.notes]
        lines += [f"  counterexample: {msg}" for msg in self.failures]
        return "\n".join(lines)


def suite_duality(max_n=5, seed=0, count=300, field=QQ) -> SuiteResult:
    """Vertex decomposable iff the facet-complement ideal is splittable:
    exhaustive up to max_n, seeded samples on the next two sizes."""
    result = SuiteResult("duality")

    def check(delta):
        decomposable = vertex_decomposable(delta) is not None
        splittable = vertex_split(dual_facet_ideal(delta)) is not None
        result.checked += 1
        if decomposable != splittable:
            result.fail(f"{delta!r}: decomposable={decomposable} "
                        f"splittable={splittable}")

    for n in range(max_n + 1):
        for delta in corpus.all_complexes(n):
            check(delta)
    rng = Random(seed)
    for n in (max_n + 1, max_n + 2):
        if n > 7:
            continue
        for _ in range(count):
            check(corpus.random_complex(n, max_facets=8, rng=rng))
    return result


def _splittable_corpus(result: SuiteResult, count: int, max_vars: int,
                       max_gens: int, seed: int):
    """Deduplicated stream of (ideal, certificate) pairs, from at most
    count * 50 draws; fewer than count pairs is a failure of the result."""
    if max_vars < 2:
        raise ValueError(f"--max-n must be at least 2 to sample splittable "
                         f"ideals, got {max_vars}")
    rng = Random(seed)
    seen = set()
    produced = 0
    attempts = 0
    while produced < count and attempts < count * 50:
        attempts += 1
        n = rng.randint(2, max_vars)
        ideal, tree = corpus.random_splittable_ideal(n, rng, max_gens=max_gens)
        key = (ideal.num_vars, ideal.gens)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield ideal, tree
    if produced < count:
        result.fail(f"only {produced} distinct splittable ideals found")


def suite_betti_agreement(max_n=7, seed=0, count=10000, field=QQ) -> SuiteResult:
    """Recursive, set-formula and oracle Betti tables agree exactly on a
    random splittable corpus."""
    result = SuiteResult("betti-agreement")
    for ideal, tree in _splittable_corpus(result, count, max_n, 12, seed):
        oracle = koszul_betti(ideal, field)
        recursive = betti_recursive(tree)
        sets_route = betti_from_sets(quotient_order_from_split(tree, ideal.num_vars))
        result.checked += 1
        if not (oracle == recursive == sets_route):
            result.fail(f"{ideal!r}: oracle={oracle.entries} "
                        f"recursive={recursive.entries} sets={sets_route.entries}")
    return result


def suite_betti_splitting(max_n=7, seed=0, count=10000, field=QQ) -> SuiteResult:
    """At every certificate node, x*I1 + I2 is a Betti splitting: the
    oracle tables satisfy the splitting identity, x*I1 meets I2 in x*I2,
    and the regularity/projective-dimension consequences hold."""
    result = SuiteResult("betti-splitting")
    nodes_checked = 0
    for ideal, tree in _splittable_corpus(result, count, max_n, 12, seed):
        result.checked += 1
        for node, node_ideal in split_nodes(tree, ideal.num_vars):
            # I2 avoids x, so the generators with x are exactly x*I1
            part_j, part_k = x_partition(node_ideal, node.var)
            nodes_checked += 1
            meet = intersect(part_j, part_k)
            tables = [betti_table(x, field)
                      for x in (node_ideal, part_j, part_k, meet)]
            if not betti_splitting_identity(*tables):
                result.fail(f"splitting identity fails at {node_ideal!r}")
                continue
            shifted = multiply(part_k, variable(ideal.num_vars, node.var))
            if meet != shifted:
                result.fail(f"x*I1 and I2 meet off x*I2 at {node_ideal!r}")
            if not _reg_pd_consequences(*tables):
                result.fail(f"reg/pd splitting consequence fails at {node_ideal!r}")
    result.notes.append(f"{nodes_checked} certificate nodes verified")
    return result


def _max_defined(values) -> int | None:
    defined = [v for v in values if v is not None]
    return max(defined) if defined else None


def _reg_pd_consequences(t_i, t_j, t_k, t_m) -> bool:
    """reg and pd of I from those of J, K and J cap K, on their tables."""
    reg_m = table_reg(t_m)
    pd_m = table_pd(t_m)
    want_reg = _max_defined([table_reg(t_j), table_reg(t_k),
                             None if reg_m is None else reg_m - 1])
    want_pd = _max_defined([table_pd(t_j), table_pd(t_k),
                            None if pd_m is None else pd_m + 1])
    return table_reg(t_i) == want_reg and table_pd(t_i) == want_pd


def _decomposable_corpus(max_n, seed, count):
    for n in range(max_n + 1):
        for delta in corpus.all_complexes(n):
            yield delta
    rng = Random(seed)
    for _ in range(count):
        yield corpus.random_complex(max_n + 1, max_facets=8, rng=rng)


def suite_pd_bight(max_n=5, seed=0, count=300, field=QQ) -> SuiteResult:
    """For vertex decomposable complexes the quotient's oracle projective
    dimension equals the maximum facet-complement size."""
    result = SuiteResult("pd-bight")
    non_vd_gap = 0
    for delta in _decomposable_corpus(max_n, seed, count):
        if vertex_decomposable(delta) is None:
            pd_value, _ = oracle_pd_reg(delta, field)
            if pd_value != bight(delta):
                non_vd_gap += 1
            continue
        result.checked += 1
        if not check_pd_equals_bight(delta, field):
            result.fail(f"{delta!r}: oracle pd != bight {bight(delta)}")
    note = f"{non_vd_gap} non-decomposable complexes where pd != bight"
    result.notes.append(
        f"{note} (the check is not vacuous)" if non_vd_gap else note)
    return result


def suite_reg_pd(max_n=5, seed=0, count=300, field=QQ) -> SuiteResult:
    """The shedding recursions for pd and reg match the oracle."""
    result = SuiteResult("reg-pd")
    for delta in _decomposable_corpus(max_n, seed, count):
        if vertex_decomposable(delta) is None:
            continue
        result.checked += 1
        recursive = pd_reg_recursive(delta)
        oracle = oracle_pd_reg(delta, field)
        if recursive != oracle:
            result.fail(f"{delta!r}: recursion {recursive} oracle {oracle}")
    return result


def suite_terai(max_n=5, seed=0, count=300, field=QQ) -> SuiteResult:
    """pd of the Alexander dual equals reg of the quotient, for square-free
    nonzero non-unit ideals."""
    result = SuiteResult("terai")

    def check(ideal):
        result.checked += 1
        dual = alexander_dual_ideal(ideal)
        lhs = table_pd(betti_table(dual, field))
        rhs = table_reg(quotient_table(betti_table(ideal, field)))
        if lhs != rhs:
            result.fail(f"{ideal!r}: pd(dual)={lhs} reg(quotient)={rhs}")

    for n in range(1, max_n + 1):
        for ideal in corpus.all_squarefree_ideals(n):
            check(ideal)
    rng = Random(seed)
    sample_n = min(max_n + 1, 7)
    for _ in range(count):
        delta = corpus.random_complex(sample_n, max_facets=8, rng=rng)
        check(squarefree_ideal(delta.facets, sample_n))
    return result


def suite_froberg(max_n=6, seed=0, count=None, field=QQ) -> SuiteResult:
    """Edge-ideal linearity equivalences: complement chordal, oracle linear
    resolution, vertex splittable; and the dual-complex trio."""
    result = SuiteResult("froberg")
    for n in range(2, max_n + 1):
        for G in corpus.all_graphs(n):
            if not G.edges:
                continue
            result.checked += 1
            edge_report = froberg_equivalence(G, field)
            if not edge_report.all_agree:
                result.fail(f"{G!r}: {edge_report}")
            dual_report = dual_complex_equivalence(G, field)
            if not dual_report.all_agree:
                result.fail(f"{G!r}: {dual_report}")
    return result


def suite_chordal_split(max_n=7, seed=0, count=5000, field=QQ) -> SuiteResult:
    """Complement edge ideals of chordal graphs split, the certificates
    validate, and the induced quotient orders verify."""
    if max_n < 2:
        raise ValueError(f"--max-n must be at least 2 to sample chordal "
                         f"graphs, got {max_n}")
    result = SuiteResult("chordal-split")
    rng = Random(seed)
    attempts = 0
    while result.checked < count and attempts < count * 50:
        attempts += 1
        n = rng.randint(2, max_n)
        G = corpus.random_graph(n, rng.uniform(0.2, 0.9), rng)
        if not is_chordal(G)[0]:
            continue
        result.checked += 1
        tree = chordal_split(G)
        target = edge_ideal(complement(G))
        if not validate_split_tree(tree, target):
            result.fail(f"{G!r}: certificate does not rebuild I(G^c)")
            continue
        order = quotient_order_from_split(tree, G.n)
        if not verify_linear_quotient_order(order, G.n):
            result.fail(f"{G!r}: induced order is not a linear-quotient order")
    if result.checked < count:
        result.fail(f"only {result.checked} chordal samples found")
    return result


def suite_linear_quotients(max_n=6, seed=0, count=400, field=QQ) -> SuiteResult:
    """Split certificates induce verified linear-quotient orders; in the
    equigenerated case the oracle confirms a linear resolution."""
    result = SuiteResult("linear-quotients")
    for ideal, tree in _splittable_corpus(result, count, max_n, 10, seed):
        result.checked += 1
        order = quotient_order_from_split(tree, ideal.num_vars)
        if not verify_linear_quotient_order(order, ideal.num_vars):
            result.fail(f"{ideal!r}: induced order fails colon verification")
            continue
        degrees = {degree(g) for g in ideal.gens}
        if len(degrees) == 1 and not has_linear_resolution(ideal, field):
            result.fail(f"{ideal!r}: equigenerated splittable ideal "
                        "without linear resolution")
    return result


def _edge_prime_intersection(G: Graph) -> MonomialIdeal:
    """The cover ideal by its definition, one intersection per edge prime
    (x_u, x_v).  `cover_ideal` and `alexander_dual_ideal` both take
    minimal transversals, so this is the side of the duality check that
    shares no code with them."""
    result = unit_ideal(G.n)
    for u, v in G.sorted_edges():
        result = intersect(result, variable_ideal(G.n, (u, v)))
    return result


def suite_cover_recursion(max_n=5, seed=0, count=None, field=QQ) -> SuiteResult:
    """Cover-ideal identities: duality with the edge ideal, the recursion
    for sequentially Cohen-Macaulay bipartite witnesses, and the chordal
    simplicial-vertex recursion, all against the oracle."""
    result = SuiteResult("cover-recursion")
    for n in range(1, max_n + 1):
        for G in corpus.all_graphs(n):
            result.checked += 1
            cover = cover_ideal(G)
            primes = _edge_prime_intersection(G)
            if cover != primes or alexander_dual_ideal(edge_ideal(G)) != primes:
                result.fail(f"{G!r}: cover ideal or dual edge ideal is not "
                            "the intersection of the edge primes")
                continue
            if not G.edges:
                continue
            oracle = betti_table(cover, field)
            scm, cert = (is_scm_bipartite(G) if is_bipartite(G)
                         else (False, None))
            if scm and isinstance(cert, ScmNode):
                try:
                    table = cover_betti_recursive(G, cert.y, field)
                except ValueError as exc:
                    result.fail(f"{G!r}: SCM witness y={cert.y}: {exc}")
                    continue
                if table != oracle:
                    result.fail(f"{G!r}: SCM recursion at y={cert.y} "
                                "disagrees with the oracle")
            if is_chordal(G)[0]:
                x = simplicial_vertex(G)
                for y in sorted(mask_to_set(G.near[x])):
                    try:
                        table = cover_betti_recursive(G, y, field)
                    except ValueError as exc:
                        result.fail(f"{G!r}: simplicial-neighbor y={y}: {exc}")
                        continue
                    if table != oracle:
                        result.fail(f"{G!r}: chordal recursion at y={y} "
                                    "disagrees with the oracle")
    return result


def suite_spot(max_n=None, seed=0, count=None, field=QQ) -> SuiteResult:
    """Hand-checkable concrete values, all read from the oracle."""
    result = SuiteResult("spot")

    def expect(label, got, want):
        result.checked += 1
        if got != want:
            result.fail(f"{label}: got {got!r}, want {want!r}")

    p3 = path_graph(3)
    t_p3 = betti_table(edge_ideal(p3), field)
    expect("edge ideal of the 3-path", t_p3.entries, {(0, 2): 2, (1, 3): 1})
    expect("koszul route agrees", koszul_betti(edge_ideal(p3), field).entries,
           {(0, 2): 2, (1, 3): 1})

    cover_p3 = cover_ideal(p3)
    t_cover = betti_table(cover_p3, field)
    expect("cover ideal of the 3-path", t_cover.entries,
           {(0, 1): 1, (0, 2): 1, (1, 3): 1})
    expect("pd of the dual", table_pd(t_cover), 1)
    expect("reg of the quotient", table_reg(quotient_table(t_p3)), 1)

    p4 = path_graph(4)
    expect("cover ideal of the 4-path",
           betti_table(cover_ideal(p4), field).entries,
           {(0, 2): 3, (1, 3): 2})

    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ideal_c4 = edge_ideal(c4)
    expect("4-cycle edge ideal has linear resolution",
           has_linear_resolution(ideal_c4, field), True)
    t_c4 = betti_table(ideal_c4, field)
    expect("beta_{1,3} of the 4-cycle", t_c4.rank(1, 3), 4)
    expect("beta_{2,4} of the 4-cycle", t_c4.rank(2, 4), 1)

    two_edges = from_facets([{0, 1}, {2, 3}], 4)
    expect("two disjoint edges are not vertex decomposable",
           vertex_decomposable(two_edges), None)
    return result


SUITES = {
    "duality": suite_duality,
    "betti-agreement": suite_betti_agreement,
    "betti-splitting": suite_betti_splitting,
    "pd-bight": suite_pd_bight,
    "reg-pd": suite_reg_pd,
    "terai": suite_terai,
    "froberg": suite_froberg,
    "chordal-split": suite_chordal_split,
    "linear-quotients": suite_linear_quotients,
    "cover-recursion": suite_cover_recursion,
    "spot": suite_spot,
}


def run_suite(name: str, max_n=None, seed=0, count=None,
              field: FieldChoice = QQ) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    # an option left unset (None) keeps the suite's own default
    given = {key: value for key, value in (("max_n", max_n), ("count", count))
             if value is not None}
    return SUITES[name](seed=seed, field=field, **given)
