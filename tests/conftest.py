"""Shared helpers: compact ideal/complex builders and independent
brute-force oracles (Fraction-based rank, monomial membership enumeration,
and a Tor-via-Koszul-complex Betti oracle) used to pin expected values
without trusting the library's own computational paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from vertexsplit.monomials import MonomialIdeal, minimalize


def letters_of(gens: tuple[str, ...]) -> str:
    return "".join(sorted({ch for g in gens for ch in g}))


def sq(*gens: str) -> MonomialIdeal:
    """Square-free ideal from letter strings; variables are the sorted
    letters used, so sq("xy", "yz") lives in k[x, y, z]."""
    alphabet = letters_of(gens)
    index = {ch: i for i, ch in enumerate(alphabet)}
    n = len(alphabet)
    exps = []
    for g in gens:
        e = [0] * n
        for ch in g:
            e[index[ch]] += 1
        exps.append(tuple(e))
    return minimalize(exps, n)


def mi(n: int, *exps) -> MonomialIdeal:
    return minimalize([tuple(e) for e in exps], n)


def fraction_rank(rows) -> int:
    """Reference rank over the rationals, by plain fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, m):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                for j in range(c, n):
                    a[i][j] -= f * a[r][j]
        r += 1
    return r


def bounded_monomials(n: int, max_degree: int):
    """All exponent tuples in n variables of total degree <= max_degree."""
    for exps in product(range(max_degree + 1), repeat=n):
        if sum(exps) <= max_degree:
            yield exps


def member(I: MonomialIdeal, m) -> bool:
    return any(all(g[k] <= m[k] for k in range(I.num_vars)) for g in I.gens)


def ideals_equal_by_membership(A: MonomialIdeal, B: MonomialIdeal,
                               max_degree: int) -> bool:
    """Compare two ideals by brute-force membership up to a degree bound."""
    assert A.num_vars == B.num_vars
    return all(member(A, m) == member(B, m)
               for m in bounded_monomials(A.num_vars, max_degree))


def tor_betti(I: MonomialIdeal) -> dict[tuple[int, int], int]:
    """Independent Betti oracle: homology of the quotient tensored with the
    exterior Koszul complex on the variables, graded piece by graded piece.

    Returns the table of the ideal (the quotient's table shifted down);
    not valid for the zero or unit ideal.  Exponential in everything;
    intended for up to ~4 variables.
    """
    n = I.num_vars
    if not I.gens:
        return {}
    top_degree = sum(max(g[k] for g in I.gens) for k in range(n)) + 1
    subsets = {i: list(combinations(range(n), i)) for i in range(n + 2)}

    def basis(i: int, j: int):
        out = []
        for s in subsets[i]:
            for m in bounded_monomials(n, j - i):
                if sum(m) == j - i and not member(I, m):
                    out.append((m, s))
        return out

    def differential(i: int, j: int, rows, cols):
        row_index = {b: k for k, b in enumerate(rows)}
        matrix = [[0] * len(cols) for _ in range(len(rows))]
        for c, (m, s) in enumerate(cols):
            for t, v in enumerate(s):
                bumped = tuple(e + 1 if k == v else e for k, e in enumerate(m))
                if member(I, bumped):
                    continue
                target = (bumped, tuple(u for u in s if u != v))
                matrix[row_index[target]][c] = (-1) ** t
        return matrix

    quotient: dict[tuple[int, int], int] = {}
    for j in range(top_degree + 1):
        cached = {i: basis(i, j) for i in range(n + 2)}
        for i in range(n + 1):
            dim_i = len(cached[i])
            if dim_i == 0:
                continue
            rank_in = fraction_rank(differential(i, j, cached[i - 1], cached[i])) if i else 0
            rank_out = fraction_rank(differential(i + 1, j, cached[i], cached[i + 1]))
            h = dim_i - rank_in - rank_out
            if h:
                quotient[(i, j)] = h
    return {(i - 1, j): r for (i, j), r in quotient.items() if i >= 1}

