"""Lawrence-Krammer representation over Z[q^{+-1}, t^{+-1}].

This faithful representation is the independent oracle for the Garside
word problem: two words are equal in B_n exactly when their images agree.
An entry is a dict {(q exponent, t exponent): nonzero coefficient}; a
generator is a sparse column table, and a word's image is built one
letter at a time by combining the columns of the running image.

Basis vectors x_{r,s} are indexed by pairs 1 <= r < s <= n and a
generator acts by

    sigma_i x_{r,s} = x_{r,s}                                  i < r-1 or i > s
                      x_{r-1,s} + (1-q) x_{r,s}                i = r-1
                      t q (q-1) x_{i,i+1} + q x_{i+1,s}        i = r < s-1
                      t q^2 x_{i,i+1}                          i = r = s-1
                      x_{r,s} + t q^{i-r} (q-1)^2 x_{i,i+1}    r < i < s-1
                      x_{r,s-1} + t q^{s-r} (q-1) x_{i,i+1}    r < i = s-1
                      (1-q) x_{r,s} + q x_{r,s+1}              i = s.

Every generator matrix satisfies (M - 1)(M + q)(M - t q^2) = 0, so its
inverse is the Laurent-coefficient polynomial
-(M^2 + (q - 1 - t q^2) M - (q + t q^3 - t q^2)) / (t q^3).
"""

from __future__ import annotations

import functools

from .words import BraidWord, embed_cyl

Term = tuple[tuple[int, int], int]
Poly = tuple[Term, ...]
Entry = dict[tuple[int, int], int]
Column = list[Entry]
Table = tuple[tuple[tuple[int, Poly], ...], ...]

ONE: Poly = (((0, 0), 1),)
# The coefficients of M^2, M and 1 in the inverse above, expanded.
_INVERSE = (
    (((-3, -1), -1),),
    (((-3, -1), 1), ((-2, -1), -1), ((-1, 0), 1)),
    (((-2, -1), 1), ((-1, 0), -1), ((0, 0), 1)),
)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]


def _sigma_column(i: int, r: int, s: int) -> dict[tuple[int, int], Entry]:
    """sigma_i x_{r,s} as {basis pair: coefficient}, by the table above."""
    if i < r - 1 or i > s:
        return {(r, s): {(0, 0): 1}}
    if i == r - 1:
        return {(r - 1, s): {(0, 0): 1}, (r, s): {(0, 0): 1, (1, 0): -1}}
    if i == r:
        if s > i + 1:
            return {(i, i + 1): {(2, 1): 1, (1, 1): -1}, (i + 1, s): {(1, 0): 1}}
        return {(i, i + 1): {(2, 1): 1}}
    if i < s - 1:
        k = i - r
        return {(r, s): {(0, 0): 1}, (i, i + 1): {(k + 2, 1): 1, (k + 1, 1): -2, (k, 1): 1}}
    if i == s - 1:
        return {(r, s - 1): {(0, 0): 1}, (i, i + 1): {(s - r + 1, 1): 1, (s - r, 1): -1}}
    return {(r, s): {(0, 0): 1, (1, 0): -1}, (r, s + 1): {(1, 0): 1}}


def _identity(m: int) -> list[Column]:
    return [[{(0, 0): 1} if r == c else {} for r in range(m)] for c in range(m)]


def _act(cols: list[Column], table: Table) -> list[Column]:
    """Columns of M G from the columns of M and the sparse column table of G."""
    out = []
    for c, col in enumerate(table):
        if col == ((c, ONE),):
            out.append(cols[c])
            continue
        acc: Column = [{} for _ in cols[0]]
        for k, poly in col:
            for entry, into in zip(cols[k], acc):
                for (qa, ta), ca in entry.items():
                    for (qb, tb), cb in poly:
                        e = (qa + qb, ta + tb)
                        into[e] = into.get(e, 0) + ca * cb
        out.append([{e: x for e, x in d.items() if x} for d in acc])
    return out


@functools.cache
def lk_generator(n: int, i: int, exponent: int) -> Table:
    """Sparse columns of sigma_i^{+-1} in the basis x_{r,s}.

    Column c lists (row, coefficient) for its nonzero entries, rows ascending
    and each coefficient a sorted tuple of ((q exponent, t exponent), int).
    """
    pairs = _pairs(n)
    if exponent == 1:
        index = {p: k for k, p in enumerate(pairs)}
        return tuple(
            tuple(sorted((index[p], tuple(sorted(e.items()))) for p, e in _sigma_column(i, r, s).items()))
            for r, s in pairs
        )
    # sigma^-1 from the cubic minimal polynomial; t q^3 is a unit.
    m = len(pairs)
    eye = _identity(m)
    table = lk_generator(n, i, 1)
    sigma = _act(eye, table)
    square = _act(sigma, table)
    combine = tuple(tuple((j * m + c, p) for j, p in enumerate(_INVERSE)) for c in range(m))
    inverse = _act(square + sigma + eye, combine)
    return tuple(tuple((r, tuple(sorted(e.items()))) for r, e in enumerate(col) if e) for col in inverse)


def lk_matrix(w: BraidWord) -> tuple[tuple[Poly, ...], ...]:
    """Multiplicative image of a word under the Lawrence-Krammer representation.

    Rows of entries, each entry its sorted nonzero ((q exponent, t exponent),
    coefficient) terms; two words of one group on one strand count are equal
    exactly when these are ==.  A cylinder word is embedded by embed_cyl first.
    """
    if w.cyl:
        w = embed_cyl(w)
    m = w.n * (w.n - 1) // 2
    cols = _identity(m)
    for i, e in w.letters:
        cols = _act(cols, lk_generator(w.n, i, e))
    return tuple(tuple(tuple(sorted(col[r].items())) for col in cols) for r in range(m))
