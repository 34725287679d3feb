import hashlib
import itertools
import random

from helpers import random_braid_word, random_cyl_word, relation_rewrite, seeded_rng
from orbibraid.braid import BraidWord, braid_eq, lk_matrix
from orbibraid.braid.lk import lk_generator

ONE = (((0, 0), 1),)


def identity(m: int):
    return tuple(tuple(ONE if r == c else () for c in range(m)) for r in range(m))


def product(a, b):
    """Matrix product of two lk_matrix images, entries multiplied as Laurent polynomials."""
    rows = []
    for row in a:
        out = []
        for col in zip(*b):
            acc = {}
            for x, y in zip(row, col):
                for (qa, ta), ca in x:
                    for (qb, tb), cb in y:
                        acc[qa + qb, ta + tb] = acc.get((qa + qb, ta + tb), 0) + ca * cb
            out.append(tuple(sorted((e, c) for e, c in acc.items() if c)))
        rows.append(tuple(out))
    return tuple(rows)


def test_identity_image():
    for n in (1, 2, 3, 5):
        assert lk_matrix(BraidWord(n)) == identity(n * (n - 1) // 2)


def test_braid_relations_hold():
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            u = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
            v = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
            assert lk_matrix(u) == lk_matrix(v)
        for i, j in itertools.product(range(1, n), repeat=2):
            if abs(i - j) > 1:
                assert lk_matrix(BraidWord(n, ((i, 1), (j, 1)))) == lk_matrix(
                    BraidWord(n, ((j, 1), (i, 1)))
                )


def test_generator_inverses():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            assert lk_matrix(BraidWord(n, ((i, 1), (i, -1)))) == lk_matrix(BraidWord(n))
            assert lk_matrix(BraidWord(n, ((i, -1), (i, 1)))) == lk_matrix(BraidWord(n))
            # The docstring's table: each column of sigma_i has at most two terms.
            assert all(1 <= len(col) <= 2 for col in lk_generator(n, i, 1))


def test_sigma_squared_nontrivial_entry():
    # B_2 is one-dimensional: sigma_1 acts by t q^2, so sigma_1^2 acts by t^2 q^4.
    m = lk_matrix(BraidWord.from_text(2, "s1 s1"))
    assert m[0][0] == (((4, 2), 1),)
    assert m != identity(1)


def test_multiplicative_on_concatenation():
    rng = seeded_rng(18)
    for _ in range(25):
        n = rng.randint(2, 4)
        u = random_braid_word(rng, n, rng.randint(0, 6))
        v = random_braid_word(rng, n, rng.randint(0, 6))
        assert lk_matrix(u * v) == product(lk_matrix(u), lk_matrix(v))


def test_oracle_agreement_sample():
    rng = seeded_rng(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        u = random_braid_word(rng, n, rng.randint(0, 10))
        v = random_braid_word(rng, n, rng.randint(0, 10))
        assert braid_eq(u, v) == (lk_matrix(u) == lk_matrix(v))


def test_images_are_pinned():
    # sha256 of the images' reprs, recorded from the dense-matrix implementation
    # that the sparse column action replaced: 123 words, n = 1..6, up to 20 letters.
    rng = random.Random(2718)
    words = [BraidWord(1), BraidWord(2), BraidWord(3)]
    for k in range(120):
        n, length = 1 + k % 6, rng.randint(0, 20)
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)) if n > 1 else ()
        words.append(BraidWord(n, letters))
    digest = hashlib.sha256()
    for w in words:
        digest.update(repr(lk_matrix(w)).encode())
    assert digest.hexdigest() == "c4832f2e5b7c5261e88a6d87311197c8348c8fc6f3ddb8ccc9e371f9374609cd"


def test_long_words_agree_with_garside():
    # Criterion 2 draws independent random pairs, which are almost never equal;
    # here every u is paired with a rewrite of itself and with u s1^2, for
    # words of B_n and then of B^cyl_n.
    rng = seeded_rng(33)
    for random_word, strands in ((random_braid_word, range(3, 7)), (random_cyl_word, range(2, 6))):
        for n in strands:
            for _ in range(2):
                u = random_word(rng, n, 30)
                v = relation_rewrite(rng, u, 8)
                w = u * BraidWord(n, ((1, 1), (1, 1)), u.cyl)
                image = lk_matrix(u)
                assert braid_eq(u, v) and image == lk_matrix(v)
                assert not braid_eq(u, w) and image != lk_matrix(w)
