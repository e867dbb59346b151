# cython: boundscheck=False, wraparound=False, cdivision=True
# distutils: language = c++
"""Compiled kernel: exact matrix ranks, reduced simplicial homology and
upper-Koszul Betti tables.

Twin of `_kernel_py` with the hot loops in C++; it reduces each complex to
its strong-collapse core with the same helper, so both backends send the
same complexes to their rank code.  Integer elimination works
in 64-bit arithmetic behind a magnitude guard; if an intermediate value
could overflow, OverflowError is raised and the dispatcher in `kernel`
reruns the call on the arbitrary-precision Python backend.
"""

from libcpp.vector cimport vector
from libcpp.set cimport set as cpp_set
from libcpp.unordered_set cimport unordered_set

from vertexsplit._kernel_py import strong_collapse_core

ctypedef long long i64
ctypedef unsigned long long u64

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil

BACKEND_NAME = "c"

_hom_cache = {}
_CACHE_LIMIT = 1 << 21

cdef i64 _GUARD = <i64>1 << 30


def clear_caches():
    _hom_cache.clear()


cdef int _rank_int_c(vector[i64]& a, int m, int n) except -1:
    """Full-pivot Bareiss elimination; raises OverflowError past the guard."""
    cdef int r = 0, i, j, pi, pj
    cdef i64 prev = 1, piv, lead, v
    while r < m and r < n:
        pi = -1
        pj = -1
        for i in range(r, m):
            for j in range(r, n):
                if a[i * n + j] != 0:
                    pi = i
                    pj = j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        if pi != r:
            for j in range(n):
                v = a[pi * n + j]
                a[pi * n + j] = a[r * n + j]
                a[r * n + j] = v
        if pj != r:
            for i in range(m):
                v = a[i * n + pj]
                a[i * n + pj] = a[i * n + r]
                a[i * n + r] = v
        piv = a[r * n + r]
        for i in range(r + 1, m):
            lead = a[i * n + r]
            for j in range(r + 1, n):
                # exact division by the previous pivot (Sylvester identity)
                v = (a[i * n + j] * piv - lead * a[r * n + j]) / prev
                if v > _GUARD or v < -_GUARD:
                    raise OverflowError("elimination exceeded the 64-bit guard")
                a[i * n + j] = v
            a[i * n + r] = 0
        prev = piv
        r += 1
    return r


cdef inline i64 _pow_mod(i64 base, i64 exp, i64 p) nogil:
    cdef i64 acc = 1
    base %= p
    while exp > 0:
        if exp & 1:
            acc = acc * base % p
        base = base * base % p
        exp >>= 1
    return acc


cdef int _rank_mod_c(vector[i64]& a, int m, int n, i64 p) except -1:
    cdef int r = 0, i, j, c, pivot
    cdef i64 inv, factor, v
    for i in range(m * n):
        a[i] = a[i] % p
        if a[i] < 0:
            a[i] += p
    for c in range(n):
        if r == m:
            break
        pivot = -1
        for i in range(r, m):
            if a[i * n + c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            for j in range(c, n):
                v = a[pivot * n + j]
                a[pivot * n + j] = a[r * n + j]
                a[r * n + j] = v
        inv = _pow_mod(a[r * n + c], p - 2, p)
        for i in range(r + 1, m):
            if a[i * n + c] != 0:
                factor = a[i * n + c] * inv % p
                for j in range(c, n):
                    v = (a[i * n + j] - factor * a[r * n + j] % p) % p
                    if v < 0:
                        v += p
                    a[i * n + j] = v
        r += 1
    return r


cdef int _load_matrix(object rows, vector[i64]& a, int* n_out) except -1:
    cdef int m = len(rows)
    cdef int n = 0
    cdef int i, j
    cdef i64 v
    if m:
        n = len(rows[0])
    a.resize(m * n)
    for i in range(m):
        row = rows[i]
        if len(row) != n:
            raise ValueError("matrix rows have unequal lengths")
        for j in range(n):
            v = row[j]
            if v > _GUARD or v < -_GUARD:
                raise OverflowError("matrix entry exceeds the 64-bit guard")
            a[i * n + j] = v
    n_out[0] = n
    return m


def rank_int(rows):
    """Rank over the rationals via fraction-free elimination."""
    cdef vector[i64] a
    cdef int n = 0
    cdef int m = _load_matrix(rows, a, &n)
    return _rank_int_c(a, m, n)


def rank_mod(rows, p):
    """Rank over GF(p)."""
    cdef vector[i64] a
    cdef int n = 0
    cdef i64 pp = p
    if pp < 2 or pp > (<i64>1 << 31):
        raise ValueError("prime modulus out of the supported range")
    cdef int m = _load_matrix(rows, a, &n)
    return _rank_mod_c(a, m, n, pp)


cdef inline int _index_of(vector[u64]& arr, u64 x) nogil:
    cdef int lo = 0, hi = <int>arr.size() - 1, mid
    while lo < hi:
        mid = (lo + hi) >> 1
        if arr[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


cdef void _sort_u64(vector[u64]& arr) noexcept nogil:
    # insertion sort; face levels are small
    cdef int i, j
    cdef u64 key
    for i in range(1, <int>arr.size()):
        key = arr[i]
        j = i - 1
        while j >= 0 and arr[j] > key:
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = key


cdef tuple _homology_raw(vector[u64]& facets, i64 p):
    """Reduced homology dims of the complex generated by facet masks."""
    cdef unordered_set[u64] seen
    cdef vector[u64] stack
    cdef u64 f, g, bit
    cdef int top = 0, t, i, nrows, ncols, sign, pc
    cdef size_t k
    for k in range(facets.size()):
        stack.push_back(facets[k])
        t = __builtin_popcountll(facets[k])
        if t > top:
            top = t
    while stack.size() > 0:
        f = stack.back()
        stack.pop_back()
        if seen.count(f):
            continue
        seen.insert(f)
        g = f
        while g:
            bit = g & (0 - g)
            stack.push_back(f & ~bit)
            g &= g - 1
    cdef vector[vector[u64]] levels = vector[vector[u64]](top + 1)
    for f in seen:
        levels[__builtin_popcountll(f)].push_back(f)
    for t in range(top + 1):
        _sort_u64(levels[t])
    cdef vector[int] ranks = vector[int](top + 2, 0)
    cdef vector[i64] mat
    for t in range(1, top + 1):
        nrows = <int>levels[t].size()
        ncols = <int>levels[t - 1].size()
        mat.assign(nrows * ncols, 0)
        for i in range(nrows):
            f = levels[t][i]
            g = f
            sign = 1
            while g:
                bit = g & (0 - g)
                mat[i * ncols + _index_of(levels[t - 1], f & ~bit)] = sign
                sign = -sign
                g &= g - 1
        if p == 0:
            ranks[t] = _rank_int_c(mat, nrows, ncols)
        else:
            ranks[t] = _rank_mod_c(mat, nrows, ncols, p)
    dims = []
    for t in range(top + 1):
        dims.append(<int>levels[t].size() - ranks[t] - ranks[t + 1])
    return tuple(dims)


cdef tuple _cache_key(vector[u64]& facets, i64 p, vector[u64]& packed):
    """Key of the support-compressed facet masks; fills `packed` with them,
    sorted."""
    cdef u64 support = 0, f, mask
    cdef size_t k
    cdef int v, slot
    cdef int place[64]
    for k in range(facets.size()):
        support |= facets[k]
    slot = 0
    for v in range(64):
        if support >> v & 1:
            place[v] = slot
            slot += 1
        else:
            place[v] = -1
    for k in range(facets.size()):
        f = facets[k]
        mask = 0
        v = 0
        while f:
            if f & 1:
                mask |= <u64>1 << place[v]
            f >>= 1
            v += 1
        packed.push_back(mask)
    _sort_u64(packed)
    key_items = []
    for k in range(packed.size()):
        if k == 0 or packed[k] != packed[k - 1]:
            key_items.append(packed[k])
    return (tuple(key_items), p)


cdef tuple _homology_cached(vector[u64]& facets, i64 p):
    """Cache layer; a miss reduces the complex to its strong-collapse core
    with the shared `_kernel_py` helper before any matrix is built."""
    cdef vector[u64] packed, core, core_packed
    cdef size_t k
    cdef int top = 0, t
    key = _cache_key(facets, p, packed)
    dims = _hom_cache.get(key)
    if dims is None:
        if len(_hom_cache) > _CACHE_LIMIT:
            _hom_cache.clear()
        masks = []
        for k in range(packed.size()):
            masks.append(packed[k])
            t = __builtin_popcountll(packed[k])
            if t > top:
                top = t
        core_masks = strong_collapse_core(masks)
        if len(core_masks) == 1 and core_masks[0]:
            dims = (0,) * (top + 1)
        else:
            for mask in core_masks:
                core.push_back(<u64>mask)
            core_key = _cache_key(core, p, core_packed)
            core_dims = _hom_cache.get(core_key)
            if core_dims is None:
                core_dims = _homology_raw(core_packed, p)
                _hom_cache[core_key] = core_dims
            dims = core_dims + (0,) * (top + 1 - len(core_dims))
        _hom_cache[key] = dims
    return dims


def homology_dims(facets, p):
    """Reduced homology over QQ (p=0) or GF(p) of the complex generated by
    the given facet bitmasks.  Entry t is the dimension in degree t-1."""
    cdef vector[u64] fv
    cdef i64 pp = p
    if len(facets) == 0:
        raise ValueError("the void complex has no homology")
    for f in facets:
        fv.push_back(<u64>f)
    return _homology_cached(fv, pp)


def koszul_table(exponents, p):
    """Graded Betti numbers of the ideal with the given minimal generators.

    Enumerates the lcm lattice of the generators; the strand at each
    multidegree b is the reduced homology of the union of simplexes on
    {i : b_i > g_i} over the generators g dividing x^b.
    """
    cdef i64 pp = p
    cdef int m = len(exponents)
    cdef int n = 0, i, j, t
    cdef i64 v, total
    cdef vector[vector[i64]] gens
    cdef vector[i64] gen
    cdef cpp_set[vector[i64]] lattice
    cdef vector[vector[i64]] frontier, fresh
    cdef vector[i64] b, join
    cdef vector[u64] masks, facets
    cdef u64 mask, common
    cdef bint ok, dominated
    cdef size_t k, k2
    if m == 0:
        return {}
    n = len(exponents[0])
    for i in range(m):
        row = exponents[i]
        if len(row) != n:
            raise ValueError("generators have unequal exponent lengths")
        gen.clear()
        for j in range(n):
            v = row[j]
            if v < 0 or v > _GUARD:
                raise OverflowError("exponent exceeds the 64-bit guard")
            gen.push_back(v)
        gens.push_back(gen)

    for i in range(m):
        if lattice.insert(gens[i]).second:
            frontier.push_back(gens[i])
    while frontier.size() > 0:
        fresh.clear()
        for k in range(frontier.size()):
            b = frontier[k]
            for i in range(m):
                join.clear()
                for j in range(n):
                    v = gens[i][j]
                    if b[j] > v:
                        v = b[j]
                    join.push_back(v)
                if lattice.insert(join).second:
                    fresh.push_back(join)
        frontier = fresh

    table = {}
    for b in lattice:
        masks.clear()
        for i in range(m):
            ok = True
            mask = 0
            for j in range(n):
                v = gens[i][j]
                if v > b[j]:
                    ok = False
                    break
                if b[j] > v:
                    mask |= <u64>1 << j
            if ok:
                masks.push_back(mask)
        _sort_u64(masks)
        facets.clear()
        for k in range(masks.size()):
            if k > 0 and masks[k] == masks[k - 1]:
                continue
            dominated = False
            for k2 in range(masks.size()):
                if masks[k2] != masks[k] and (masks[k] & masks[k2]) == masks[k]:
                    dominated = True
                    break
            if not dominated:
                facets.push_back(masks[k])
        common = ~(<u64>0)
        for k in range(facets.size()):
            common &= facets[k]
        if common != 0:
            continue  # cone, hence acyclic
        dims = _homology_cached(facets, pp)
        total = 0
        for j in range(n):
            total += b[j]
        for t in range(len(dims)):
            d = dims[t]
            if d:
                key = (t, total)
                table[key] = table.get(key, 0) + d
    return table
