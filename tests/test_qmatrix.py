from fractions import Fraction

import pytest

from helpers import flip_matrix, seeded_rng
from orbibraid.errors import DimensionError, SingularMatrixError
from orbibraid.reflect import ONE, ZERO, LaurentScalar, QMatrix
from orbibraid.reflect.qmatrix import leg_swap
from test_laurent import random_scalar


def random_matrix(rng, n):
    return QMatrix.from_rows([[random_scalar(rng) for _ in range(n)] for _ in range(n)])


def sparse_matrix(rng, n, cols=None):
    """An n x n (or n x cols) matrix whose entries are zero, 1, +-q^k, polynomial or rational,
    a fifth each: every path of the scalar product."""

    def entry():
        kind = rng.randrange(5)
        if kind == 0:
            return ZERO
        if kind == 1:
            return ONE
        if kind == 2:
            return LaurentScalar.make(rng.randint(-3, 3), [rng.choice((1, -1))])
        if kind == 3:
            return LaurentScalar.make(rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        return random_scalar(rng)

    return QMatrix.from_rows([[entry() for _ in range(n if cols is None else cols)] for _ in range(n)])


def test_placed_equals_kron_with_identities():
    rng = seeded_rng(41)
    for _ in range(40):
        a = sparse_matrix(rng, rng.randint(1, 4))
        for left in (1, 2, 3):
            for right in (1, 2, 3):
                want = QMatrix.identity(left).kron(a).kron(QMatrix.identity(right))
                assert a.placed(left, right) == want, (left, right)
    with pytest.raises(DimensionError):
        QMatrix.from_rows([[ONE, ZERO]]).placed(1, 1)


def test_leg_swaps_equal_products_with_flip_matrices():
    rng = seeded_rng(42)
    for d in (1, 2, 3):
        flip = flip_matrix(d, d)
        for left in (1, 2, 3):
            p = QMatrix.identity(left).kron(flip)
            swap = leg_swap(left, d)
            for _ in range(3):
                a = sparse_matrix(rng, left * d * d)
                assert a.permuted(swap, swap) == p * a * p
                assert a.permuted(swap) == p * a
        r = sparse_matrix(rng, d * d)
        assert r.permuted(leg_swap(1, d)) == flip * r  # Rhat, as RepData.braiding builds it
    # The swaps of the cylinder checks: legs 2 and 3 of V (x) V (x) V, and V_1 V_2 over M.
    r12 = sparse_matrix(rng, 4).placed(1, 2)
    flip23 = QMatrix.identity(2).kron(flip_matrix(2, 2))
    assert r12.permuted(leg_swap(2, 2), leg_swap(2, 2)) == flip23 * r12 * flip23


def test_is_identity_scans_like_a_comparison_with_the_identity():
    rng = seeded_rng(43)
    q = LaurentScalar.make(1, (1,))
    cases = [QMatrix.identity(n) for n in (1, 2, 5)]
    for n in (1, 2, 4):
        for i in range(n):
            for j in range(n):
                for x in (ZERO, q, -ONE, ONE):
                    rows = [list(r) for r in QMatrix.identity(n).entries]
                    rows[i][j] = x
                    cases.append(QMatrix.from_rows(rows))
        cases.append(sparse_matrix(rng, n))
    cases += [QMatrix.from_rows([[ONE, ZERO]]), QMatrix.from_rows([[ONE], [ZERO]])]
    for m in cases:
        assert m.is_identity == (m.rows == m.cols and m == QMatrix.identity(m.rows))
    assert sum(m.is_identity for m in cases) > 3


def test_flip_is_an_involution():
    for d in (2, 3):
        p = flip_matrix(d, d)
        assert (p * p).is_identity


def test_kron_shapes_and_mixed_flip():
    a = QMatrix.identity(2)
    b = QMatrix.identity(3)
    assert a.kron(b).rows == 6
    p = flip_matrix(2, 3)
    q = flip_matrix(3, 2)
    assert (q * p).is_identity


def test_inverse_and_det():
    rng = seeded_rng(15)
    found = 0
    while found < 10:
        m = random_matrix(rng, 3)
        if m.det().is_zero:
            continue
        found += 1
        assert (m * m.inverse()).is_identity
        assert (m.inverse() * m).is_identity
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 2)
    assert (a * b).det() == a.det() * b.det()


def test_singular_and_shape_errors():
    singular = QMatrix.from_strings([["1", "1"], ["1", "1"]])
    assert singular.det() == ZERO
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    with pytest.raises(DimensionError):
        QMatrix.identity(2) * QMatrix.identity(3)
    with pytest.raises(DimensionError):
        QMatrix.from_rows([[ONE], [ONE]]).det()


def test_a_ragged_or_misshapen_grid_is_refused():
    # A grid from a file reaches QMatrix through from_rows and from_strings, which check it;
    # products, placements, permutations and inverses build their terms to shape.
    for build in (
        lambda: QMatrix.from_rows([[ONE, ZERO], [ONE]]),
        lambda: QMatrix.from_rows([[ONE], [ONE, ZERO]]),
        lambda: QMatrix.from_strings([["1", "0"], ["1"]]),
        lambda: QMatrix(3, 1, (((0, ONE),), ((0, ONE),))),
    ):
        with pytest.raises(DimensionError, match="entry grid does not match the declared shape"):
            build()
    for build in (
        lambda: QMatrix.from_rows([]),
        lambda: QMatrix.from_rows([[], [ONE]]),
        lambda: QMatrix.from_strings([]),
        lambda: QMatrix.from_strings([[]]),
        lambda: QMatrix.identity(0),
    ):
        with pytest.raises(DimensionError, match="matrix dimensions must be positive"):
            build()
    with pytest.raises(DimensionError, match="matrix dimensions must be positive"):
        QMatrix.identity(2).permuted(())


def test_specialize_zero_matrix():
    z = QMatrix.from_strings([["0", "0"], ["0", "0"]])
    assert z.specialize(5) == ((0, 0), (0, 0))


# ---------------------------------------------------------------------------
# The sparse product against an independent oracle: specialisation at rational q0.

SPECIAL_Q = (Fraction(3, 2), Fraction(-5, 7), Fraction(11, 3))


def constructed(rng, rows, cols):
    """A rows x cols matrix from a constructor picked at random among those that give that shape."""

    def placed():
        left, right = rng.choice([(x, y) for x in (1, 2, 4) for y in (1, 2, 4) if rows % (x * y) == 0])
        n = rows // (left * right)
        return sparse_matrix(rng, n).placed(left, right)

    def picks(count):
        return [rng.randrange(3) for _ in range(count)]

    makers = [
        lambda: sparse_matrix(rng, rows, cols),
        lambda: sparse_matrix(rng, 3).permuted(picks(rows), picks(cols)),
        lambda: sparse_matrix(rng, 3, cols).permuted(picks(rows)),
    ]
    if rows == cols:
        makers += [lambda: QMatrix.identity(rows), lambda: invertible(rng, rows).inverse(), placed]
    if rows % 2 == 0 and cols % 2 == 0:
        makers.append(lambda: sparse_matrix(rng, 2, 2).kron(sparse_matrix(rng, rows // 2, cols // 2)))
    return rng.choice(makers)()


def invertible(rng, n):
    while True:
        m = sparse_matrix(rng, n)
        if not m.det().is_zero:
            return m


def specialized(m: QMatrix, q0: Fraction):
    """The entries of m at q0, or None where a denominator vanishes there."""
    try:
        return m.specialize(q0)
    except ZeroDivisionError:
        return None


def fraction_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def test_sparse_product_equals_the_product_of_specialisations():
    rng = seeded_rng(45)
    checked = 0
    for _ in range(150):
        n, k, m = rng.choice(((4, 4, 4), (2, 4, 3), (4, 2, 4), (3, 4, 2), (1, 4, 1), (4, 1, 4)))
        a, b, c = constructed(rng, n, k), constructed(rng, k, m), constructed(rng, m, rng.choice((1, 2, 4)))
        ab = a * b
        assert (ab.rows, ab.cols) == (n, m)
        for q0 in SPECIAL_Q:
            sa, sb, sc = specialized(a, q0), specialized(b, q0), specialized(c, q0)
            if sa is None or sb is None or sc is None:
                continue
            # ab * c walks the nonzero rows of a product, as eval_braid does.
            assert ab.specialize(q0) == fraction_product(sa, sb)
            assert (ab * c).specialize(q0) == fraction_product(fraction_product(sa, sb), sc)
            checked += 1
    assert checked > 300


def test_every_constructor_builds_the_canonical_terms():
    # Equal matrices hold equal terms: a matrix rebuilt from its dense rows holds the same
    # ones, in ascending column order, and no term holds a zero, not even a sum that cancels.
    rng = seeded_rng(46)
    for _ in range(60):
        n = rng.choice((1, 2, 4))
        a, b = constructed(rng, n, rng.choice((n, 2 * n))), invertible(rng, n)
        for m in (a, a * constructed(rng, a.cols, n), b * b.inverse()):
            fresh = QMatrix.from_rows(m.entries)
            assert m.terms == fresh.terms and m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
            assert {m: 1}[fresh] == 1
            for terms in m.terms:
                assert [j for j, _ in terms] == sorted({j for j, _ in terms})
                assert all(not x.is_zero for _, x in terms)
