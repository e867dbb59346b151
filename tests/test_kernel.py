import ast
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import vertexsplit
from conftest import fraction_rank, mi, sq
from vertexsplit import homology, kernel
from vertexsplit import _kernel_py
from vertexsplit.monomials import is_squarefree


def test_kernel_reexports_the_python_implementation():
    # perfbench's tracer wraps the `_kernel_py` functions wherever they
    # are held, so the public names must be those very objects
    for name in ("rank_int", "rank_mod", "homology_dims", "koszul_table",
                 "clear_caches"):
        assert getattr(kernel, name) is getattr(_kernel_py, name), name
    assert kernel.active_backend() == "python"


def test_the_kernel_imports_no_package_module_but_monomials():
    # the kernel is the lowest layer: the mask helpers it needs live in
    # `monomials`, not in the complexes built on top of it
    tree = ast.parse(Path(_kernel_py.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import y` and `from . import x` both name x
            modules.update(f"vertexsplit.{name}" for name in (
                [node.module] if node.module else
                [alias.name for alias in node.names]))
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    package = {m for m in modules if m.split(".")[0] == "vertexsplit"}
    assert package == {"vertexsplit.monomials"}


def test_rank_against_reference():
    rng = Random(77)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        assert kernel.rank_int(rows) == fraction_rank(rows)


def test_rank_mod_small_primes():
    assert kernel.rank_mod([[2, 0], [0, 2]], 2) == 0
    assert kernel.rank_mod([[1, 1], [1, 1]], 3) == 1
    assert kernel.rank_mod([[1, 2], [3, 4]], 5) == 2


def test_rank_int_handles_empty_and_degenerate():
    assert kernel.rank_int([]) == 0
    assert kernel.rank_int([[0, 0], [0, 0]]) == 0
    assert kernel.rank_int([[1]]) == 1


def test_rank_int_is_exact_beyond_64_bits():
    # Bareiss products of 2^40 entries exceed 64 bits
    big = 1 << 40
    rows = [[big, 0], [0, big]]
    assert kernel.rank_int(rows) == 2


def test_homology_rejects_void_complex():
    with pytest.raises(ValueError):
        kernel.homology_dims([], 0)


def test_kernel_caches_clear():
    vertexsplit.clear_caches()
    # an ideal with a minimal prime of size other than two is neither an
    # edge ideal nor a cover ideal, so it takes the facet route, which
    # fills the homology memo: here a hollow triangle xyz and a point w
    # (prime xyz), then xyz and zw (prime z)
    I = sq("xyz", "wx", "wy", "wz")
    other = sq("xyz", "zw")
    vertexsplit.vertex_split(I)
    vertexsplit.betti_table(I)
    vertexsplit.vertex_decomposable(vertexsplit.complex_of_ideal(I))
    # an edge ideal's linearity verdict has a memo of its own
    path = sq("xy", "yz")
    assert vertexsplit.has_linear_resolution(path)
    info = vertexsplit.cache_info()
    assert sorted(info) == ["decomposition", "homology", "linear", "split",
                            "tables"]
    assert all(c.currsize and c.maxsize == kernel.MEMO_SIZE
               for c in info.values())
    # the kernel's reset empties the homology memo only
    kernel.clear_caches()
    sizes = {name: c.currsize for name, c in vertexsplit.cache_info().items()}
    assert sizes["homology"] == 0
    assert all(sizes[name]
               for name in ("tables", "linear", "split", "decomposition"))
    # the oracle's reset empties its memos and the kernel's
    vertexsplit.betti_table(other)
    homology.clear_caches()
    sizes = {name: c.currsize for name, c in vertexsplit.cache_info().items()}
    assert sizes["homology"] == sizes["tables"] == sizes["linear"] == 0
    assert sizes["split"] and sizes["decomposition"]
    # the package-level reset empties all five
    vertexsplit.betti_table(other)
    vertexsplit.has_linear_resolution(path)
    info = vertexsplit.cache_info()
    assert all(info[name].currsize for name in ("tables", "homology", "linear"))
    vertexsplit.clear_caches()
    assert all(c.currsize == 0 for c in vertexsplit.cache_info().values())
    # an ideal with a square is searched in the same memo, so a second
    # search of it is a hit
    square = mi(3, (2, 0, 0), (1, 1, 0), (0, 1, 1))
    vertexsplit.vertex_split(square)
    vertexsplit.vertex_split(square)
    assert vertexsplit.cache_info()["split"].hits == 1


def test_a_collapsing_miss_counts_as_a_miss():
    # a cone collapses to a point, so no rank is computed; the cache still
    # records a miss, then a hit
    cone = [0b00111, 0b01101, 0b11001]
    vertexsplit.clear_caches()
    _kernel_py.homology_dims(cone, 0)
    info = vertexsplit.cache_info()["homology"]
    assert (info.hits, info.misses) == (0, 1)
    _kernel_py.homology_dims(cone, 0)
    info = vertexsplit.cache_info()["homology"]
    assert (info.hits, info.misses) == (1, 1)


# the six-vertex real projective plane: no vertex is dominated, and its
# homology has two-torsion
RP2_MASKS = [sum(1 << v for v in f) for f in (
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5), (1, 2, 4),
    (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5))]

facet_sets = st.lists(st.integers(0, (1 << 8) - 1), min_size=1, max_size=8)


def dominated_vertices(facets):
    support = 0
    for f in facets:
        support |= f
    out = []
    for v in range(support.bit_length()):
        bit = 1 << v
        if support & bit:
            common = ~0
            for f in facets:
                if f & bit:
                    common &= f
            if common != bit:
                out.append(v)
    return out


@settings(max_examples=300, deadline=None)
@given(facet_sets, st.sampled_from([0, 2, 3]))
def test_reduced_homology_equals_unreduced(facets, p):
    _kernel_py.clear_caches()
    assert (_kernel_py.homology_dims(facets, p)
            == _kernel_py._homology_from_masks(facets, p))


def reference_key(facets, p):
    """The homology cache key spelled out: the k-th lowest vertex of the
    support becomes vertex k, and the distinct remapped facets form a
    tuple in increasing order."""
    support = sorted({v for f in facets for v in range(f.bit_length())
                      if f >> v & 1})
    rank = {v: k for k, v in enumerate(support)}
    remapped = {sum(1 << rank[v] for v in range(f.bit_length()) if f >> v & 1)
                for f in facets}
    return tuple(sorted(remapped)), p


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=8),
       st.sampled_from([0, 2]))
def test_canonical_key_compresses_the_support(facets, p):
    assert _kernel_py._canonical_key(facets, p) == reference_key(facets, p)


@settings(max_examples=300, deadline=None)
@given(facet_sets)
def test_core_has_no_dominated_vertex(facets):
    core = _kernel_py.strong_collapse_core(facets)
    assert core
    assert not any(f != g and f & g == f for f in core for g in core)
    assert dominated_vertices(core) == []


def test_cone_gives_zeros_of_input_length():
    cone = [0b00111, 0b01101, 0b11001]
    assert _kernel_py.strong_collapse_core(cone) in ([1], [2], [4], [8], [16])
    assert _kernel_py.homology_dims(cone, 0) == (0, 0, 0, 0)


def test_mutually_dominating_vertices_leave_a_point():
    # each end of an edge dominates the other; deleting both would leave
    # the void complex
    assert len(_kernel_py.strong_collapse_core([0b11])) == 1
    assert _kernel_py.homology_dims([0b11], 0) == (0, 0, 0)


def test_irrelevant_complex_keeps_degree_minus_one():
    assert _kernel_py.strong_collapse_core([0]) == [0]
    assert _kernel_py.homology_dims([0], 0) == (1,)


def test_projective_plane_is_its_own_core():
    assert _kernel_py.strong_collapse_core(RP2_MASKS) == sorted(RP2_MASKS)
    _kernel_py.clear_caches()
    assert _kernel_py.homology_dims(RP2_MASKS, 2) == (0, 0, 1, 1)
    assert _kernel_py.homology_dims(RP2_MASKS, 0) == (0, 0, 0, 0)


def test_projective_plane_over_qq_reaches_the_dense_remainder(monkeypatch):
    # over the integers RP2's top boundary has a row that reduces to a lead
    # of 2, which only the dense remainder can rank; mod 2 it vanishes
    calls = []
    dense = _kernel_py.rank_int

    def counted(rows):
        calls.append(rows)
        return dense(rows)

    monkeypatch.setattr(_kernel_py, "rank_int", counted)
    _kernel_py.clear_caches()
    assert _kernel_py.homology_dims(RP2_MASKS, 0) == (0, 0, 0, 0)
    assert len(calls) >= 1
    assert _kernel_py.homology_dims(RP2_MASKS, 2) == (0, 0, 1, 1)


def reference_homology(facets, p):
    """Reduced homology spelled out: every face of the facets, levels in
    increasing mask order, dense boundary matrices with the sign (-1)^k
    for dropping the k-th lowest vertex, ranked by plain fraction
    elimination over QQ and by `rank_mod` over GF(p)."""
    faces = {g for f in facets for g in range(f + 1) if g & f == g}
    top = max(f.bit_count() for f in facets)
    levels = [sorted(g for g in faces if g.bit_count() == t)
              for t in range(top + 1)]

    def rank(t):
        if t == 0 or t > top:
            return 0
        col = {g: j for j, g in enumerate(levels[t - 1])}
        rows = []
        for f in levels[t]:
            row = [0] * len(col)
            vertices = [v for v in range(f.bit_length()) if f >> v & 1]
            for k, v in enumerate(vertices):
                row[col[f & ~(1 << v)]] = (-1) ** k
            rows.append(row)
        return fraction_rank(rows) if p == 0 else kernel.rank_mod(rows, p)

    return tuple(len(levels[t]) - rank(t) - rank(t + 1)
                 for t in range(top + 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(facet_sets, st.sampled_from([0, 2, 3]))
def test_homology_matches_dense_reference_ranks(facets, p):
    expected = reference_homology(facets, p)
    _kernel_py.clear_caches()
    assert _kernel_py.homology_dims(facets, p) == expected
    # the collapse shrinks most inputs first; rank the whole input too
    assert _kernel_py._homology_from_masks(facets, p) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=1, max_size=8)))
def test_sparse_rank_matches_dense_ranks(rows):
    # entries other than 0 and ±1 leave rows with non-unit leads over QQ,
    # so the dense remainder is exercised too
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert _kernel_py.sparse_rank(sparse, 0)[0] == fraction_rank(rows)
    for p in (2, 3):
        assert _kernel_py.sparse_rank(sparse, p)[0] == kernel.rank_mod(rows, p)


def test_homology_beyond_64_vertices():
    # cache keys have no word size: a 65-vertex simplex is acyclic, and two
    # disjoint facets that together span 65 vertices are two components
    kernel.clear_caches()
    assert kernel.homology_dims([(1 << 65) - 1], 0) == (0,) * 66
    low = (1 << 30) - 1
    dims = kernel.homology_dims([low, ((1 << 65) - 1) ^ low], 0)
    assert dims == (0, 1) + (0,) * 34


def test_core_result_is_padded_to_input_length():
    # a hollow triangle with a solid 4-simplex hanging off one vertex
    # collapses to the hollow triangle: the tuple keeps the input's length
    facets = [0b0000011, 0b0000110, 0b0000101, 0b1111000 | 0b0000001]
    _kernel_py.clear_caches()
    assert _kernel_py.homology_dims(facets, 0) == (0, 0, 1, 0, 0, 0)
    info = vertexsplit.cache_info()["homology"]
    assert (info.hits, info.misses) == (0, 2)
    # the core, the bare hollow triangle, was cached under its own key
    assert _kernel_py.homology_dims([0b011, 0b110, 0b101], 0) == (0, 0, 1)
    info = vertexsplit.cache_info()["homology"]
    assert (info.hits, info.misses) == (1, 2)


def reference_koszul_table(gens, p):
    """The upper-Koszul table spelled out: the lcm lattice by repeated
    joins until nothing new appears, each strand's masks from a divisibility
    test and a per-coordinate scan, and facets by an all-pairs filter."""
    lattice = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for b in frontier:
            for g in gens:
                join = tuple(x if x >= y else y for x, y in zip(b, g))
                if join not in lattice:
                    lattice.add(join)
                    fresh.append(join)
        frontier = fresh
    table = {}
    for b in sorted(lattice):
        masks = set()
        for g in gens:
            if all(ge <= be for ge, be in zip(g, b)):
                mask = 0
                for i, (ge, be) in enumerate(zip(g, b)):
                    if be > ge:
                        mask |= 1 << i
                masks.add(mask)
        facets = [mk for mk in masks
                  if not any(mk != other and mk & other == mk
                             for other in masks)]
        common = ~0
        for mk in facets:
            common &= mk
        if common:
            continue
        dims = _kernel_py.homology_dims(facets, p)
        for t, d in enumerate(dims):
            if d:
                table[t, sum(b)] = table.get((t, sum(b)), 0) + d
    return table


@st.composite
def non_squarefree_ideals(draw):
    n = draw(st.integers(1, 5))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                         min_size=1, max_size=6))
    I = mi(n, *exps)
    # an exponent of 2 or 3 somewhere, so the ideal is not square-free
    assume(not is_squarefree(I))
    return I


@settings(max_examples=300, deadline=None, derandomize=True)
@given(non_squarefree_ideals(), st.sampled_from([0, 2]))
def test_koszul_table_matches_the_spelled_out_reference(I, p):
    gens = I.sorted_gens()
    summed = homology._sum_strands(kernel.koszul_table(gens, p))
    assert summed.entries == reference_koszul_table(gens, p)


def test_koszul_generator_strands_take_no_kernel_call(monkeypatch):
    # at a minimal generator g only g divides x^g, so its upper Koszul
    # complex is {empty set} and its strand needs no homology
    calls = []
    homology_dims = _kernel_py.homology_dims

    def counted(facets, p):
        calls.append(facets)
        return homology_dims(facets, p)

    monkeypatch.setattr(_kernel_py, "homology_dims", counted)
    assert kernel.koszul_table([(2, 1, 0)], 0) == [(3, (1,), 1)]
    assert calls == []
    # x^2 and y: their lcm x^2 y is the one lattice element left to walk
    strands = kernel.koszul_table([(0, 1, 0), (2, 0, 0)], 0)
    assert len(calls) == 1
    assert homology._sum_strands(strands).entries == \
        {(0, 1): 1, (0, 2): 1, (1, 3): 1}


def test_bench_kernel_runs_from_a_checkout(tmp_path):
    # no PYTHONPATH and a foreign working directory: the script finds the
    # checkout's src on its own
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), "--count", "1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3
