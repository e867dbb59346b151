from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fraction_rank
from vertexsplit import kernel
from vertexsplit import _kernel_py


def test_backend_inventory():
    names = kernel.available_backends()
    assert "python" in names
    assert kernel.active_backend() in names


def test_set_backend_roundtrip():
    previous = kernel.active_backend()
    for name in kernel.available_backends():
        kernel.set_backend(name)
        assert kernel.active_backend() == name
    kernel.set_backend(previous)
    with pytest.raises(ValueError):
        kernel.set_backend("fortran")


def test_rank_against_reference(backend):
    rng = Random(77)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        assert kernel.rank_int(rows) == fraction_rank(rows)


def test_rank_mod_small_primes(backend):
    assert kernel.rank_mod([[2, 0], [0, 2]], 2) == 0
    assert kernel.rank_mod([[1, 1], [1, 1]], 3) == 1
    assert kernel.rank_mod([[1, 2], [3, 4]], 5) == 2


def test_rank_int_handles_empty_and_degenerate(backend):
    assert kernel.rank_int([]) == 0
    assert kernel.rank_int([[0, 0], [0, 0]]) == 0
    assert kernel.rank_int([[1]]) == 1


def test_compiled_overflow_falls_back_to_python():
    # entries beyond the 64-bit guard must still give the exact answer
    big = 1 << 40
    rows = [[big, 0], [0, big]]
    assert kernel.rank_int(rows) == 2
    if "c" in kernel.available_backends():
        from vertexsplit import _kernel_c
        with pytest.raises(OverflowError):
            _kernel_c.rank_int(rows)


def test_homology_backends_agree_with_each_other():
    if "c" not in kernel.available_backends():
        pytest.skip("compiled backend not built")
    from vertexsplit import _kernel_c
    rng = Random(99)
    for _ in range(300):
        nvert = rng.randint(1, 7)
        facets = sorted({rng.randint(0, (1 << nvert) - 1)
                         for _ in range(rng.randint(1, 6))})
        for p in (0, 2, 5):
            assert (_kernel_py.homology_dims(facets, p)
                    == _kernel_c.homology_dims(facets, p))


def test_koszul_backends_agree_with_each_other():
    if "c" not in kernel.available_backends():
        pytest.skip("compiled backend not built")
    from vertexsplit import _kernel_c
    rng = Random(101)
    for _ in range(200):
        nv = rng.randint(1, 5)
        pool = {tuple(rng.randint(0, 2) for _ in range(nv))
                for _ in range(rng.randint(1, 5))}
        gens = [g for g in pool
                if not any(h != g and all(a <= b for a, b in zip(h, g))
                           for h in pool)]
        for p in (0, 3):
            assert (_kernel_py.koszul_table(gens, p)
                    == _kernel_c.koszul_table(gens, p))


def test_homology_rejects_void_complex(backend):
    with pytest.raises(ValueError):
        kernel.homology_dims([], 0)


def test_kernel_caches_clear():
    _kernel_py.homology_dims([0b11, 0b101], 0)
    assert _kernel_py._hom_cache
    kernel.clear_caches()
    assert not _kernel_py._hom_cache


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


def test_core_result_is_padded_to_input_length():
    # a hollow triangle with a solid 4-simplex hanging off one vertex
    # collapses to the hollow triangle: the tuple keeps the input's length
    facets = [0b0000011, 0b0000110, 0b0000101, 0b1111000 | 0b0000001]
    _kernel_py.clear_caches()
    assert _kernel_py.homology_dims(facets, 0) == (0, 0, 1, 0, 0, 0)
    assert _kernel_py.homology_dims([0b011, 0b110, 0b101], 0) == (0, 0, 1)
