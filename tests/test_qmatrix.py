import pytest

from helpers import seeded_rng
from orbibraid.errors import DimensionError, SingularMatrixError
from orbibraid.reflect import ONE, ZERO, LaurentScalar, QMatrix
from orbibraid.reflect.checks import rhat
from orbibraid.reflect.qmatrix import leg_swap
from test_laurent import random_scalar


def random_matrix(rng, n):
    return QMatrix.from_rows([[random_scalar(rng) for _ in range(n)] for _ in range(n)])


def sparse_matrix(rng, n):
    """An n x n matrix whose entries are zero, polynomial or rational, a third each."""

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return ZERO
        if kind == 1:
            return LaurentScalar.make(rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        return random_scalar(rng)

    return QMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])


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
        flip = QMatrix.flip(d, d)
        for left in (1, 2, 3):
            p = QMatrix.identity(left).kron(flip)
            swap = leg_swap(left, d)
            for _ in range(3):
                a = sparse_matrix(rng, left * d * d)
                assert a.permuted(swap, swap) == p * a * p
                assert a.permuted(swap) == p * a
        r = sparse_matrix(rng, d * d)
        assert rhat(r, d) == flip * r
    # The swaps of the cylinder checks: legs 2 and 3 of V (x) V (x) V, and V_1 V_2 over M.
    r12 = sparse_matrix(rng, 4).placed(1, 2)
    flip23 = QMatrix.identity(2).kron(QMatrix.flip(2, 2))
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
        p = QMatrix.flip(d, d)
        assert (p * p).is_identity


def test_kron_shapes_and_mixed_flip():
    a = QMatrix.identity(2)
    b = QMatrix.identity(3)
    assert a.kron(b).rows == 6
    p = QMatrix.flip(2, 3)
    q = QMatrix.flip(3, 2)
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
        QMatrix.identity(2) + QMatrix.identity(3)
    with pytest.raises(DimensionError):
        QMatrix.from_rows([[ONE], [ONE]]).det()


def test_specialize_zero_matrix():
    z = QMatrix.from_strings([["0", "0"], ["0", "0"]])
    assert z.specialize(5) == ((0, 0), (0, 0))
