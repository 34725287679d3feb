import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_braid_word, random_cyl_word, seeded_rng
from orbibraid.braid import BraidWord, embed_cyl, garside_nf, strand_ends
from orbibraid.errors import ArityError, MalformedWordError


def test_parse_and_format_round_trip():
    w = BraidWord.from_text(2, "k s1 K S1", cyl=True)
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert w.to_text() == "k s1 K S1"
    assert BraidWord.from_text(2, w.to_text(), cyl=True) == w


def test_malformed_words_rejected():
    with pytest.raises(MalformedWordError):
        BraidWord.from_text(2, "s2")
    with pytest.raises(MalformedWordError):
        BraidWord.from_text(3, "k")
    with pytest.raises(MalformedWordError):
        BraidWord.from_text(1, "s1", cyl=True)
    with pytest.raises(MalformedWordError):
        BraidWord.from_text(2, "sigma1")
    with pytest.raises(MalformedWordError, match="unrecognised braid token 's²'"):
        BraidWord.from_text(3, "s²")
    with pytest.raises(MalformedWordError):
        BraidWord(0, ())


def test_an_index_past_the_digit_cap_is_malformed(int_digit_limit):
    # Fixed: int() raised its own ValueError, past sys.get_int_max_str_digits() only.
    with pytest.raises(MalformedWordError, match="an index has at most 4300 digits, found 5000"):
        BraidWord.from_text(3, "s" + "1" * 5000)
    with pytest.raises(MalformedWordError, match="sigma index 1{4300} out of range for 3 strands"):
        BraidWord.from_text(3, "S" + "1" * 4300)


def test_a_word_without_a_group_is_an_ordinary_braid_word():
    w = BraidWord(2, ((1, 1),))
    assert w.cyl is False and w == BraidWord(2, ((1, 1),), False) and w.group() == "B_2"
    assert w != BraidWord(2, ((1, 1),), cyl=True)
    assert BraidWord.from_text(2, "k", cyl=True).group() == "B^cyl_2"


def test_concatenation_checks_strand_count():
    with pytest.raises(ArityError):
        BraidWord(2) * BraidWord(3)
    with pytest.raises(ArityError):
        BraidWord(2, cyl=True) * BraidWord(3, cyl=True)


def test_concatenation_refuses_words_of_different_groups():
    with pytest.raises(ArityError, match="cannot concatenate words of B\\^cyl_2 and B_2"):
        BraidWord(2, cyl=True) * BraidWord(2)
    with pytest.raises(ArityError, match="cannot concatenate words of B_3 and B\\^cyl_3"):
        BraidWord(3) * BraidWord(3, cyl=True)
    assert (BraidWord.from_text(2, "k", cyl=True) * BraidWord.from_text(2, "s1", cyl=True)).cyl


def test_embed_cyl_definitional_images():
    # kappa on one strand becomes the double crossing on two.
    assert embed_cyl(BraidWord.from_text(1, "k", cyl=True)) == BraidWord.from_text(2, "s1 s1")
    # letterwise application
    assert embed_cyl(BraidWord.from_text(2, "k s1 k s1", cyl=True)) == BraidWord.from_text(
        3, "s1 s1 s2 s1 s1 s2"
    )
    # identity maps to identity
    assert embed_cyl(BraidWord(4, cyl=True)) == BraidWord(5)


def test_inverse_reverses_and_negates():
    w = BraidWord.from_text(3, "k s1 S2", cyl=True)
    assert w.inverse().to_text() == "s2 S1 K"
    assert (w * w.inverse()).n == 3


def test_pole_winding_examples():
    assert strand_ends(BraidWord.from_text(1, "k", cyl=True)) == ((1,), (1,))
    assert strand_ends(BraidWord.from_text(2, "s1 k s1", cyl=True)) == ((1, 2), (0, 1))
    assert strand_ends(BraidWord.from_text(1, "k K", cyl=True)) == ((1,), (0,))
    assert strand_ends(BraidWord.from_text(3, "s1 s2")) == ((3, 1, 2), (0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8), st.integers())
def test_pole_winding_additive_over_concatenation(n, length, seed):
    rng = seeded_rng(seed % 10_000)
    u = random_cyl_word(rng, n, length)
    v = random_cyl_word(rng, n, rng.randint(0, 8))
    ends_u, winding_u = strand_ends(u)
    ends_v, winding_v = strand_ends(v)
    ends, total = strand_ends(u * v)
    for strand in range(n):
        assert ends[strand] == ends_v[ends_u[strand] - 1]
        assert total[strand] == winding_u[strand] + winding_v[ends_u[strand] - 1]


def _nf_ends(w: BraidWord) -> tuple[int, ...]:
    """End positions read off the Garside form: Delta^power, then each factor's permutation."""
    nf = garside_nf(w)
    pos = [nf.n - 1 - s for s in range(nf.n)] if nf.power % 2 else list(range(nf.n))
    for factor in nf.factors:
        pos = [factor[p] for p in pos]
    return tuple(p + 1 for p in pos)


def test_strand_ends_match_the_garside_permutation():
    # The Garside form is an independent record of where each strand ends; a
    # cylinder word's form is that of its embedding, whose first strand is the pole.
    rng = seeded_rng(15)
    for _ in range(600):
        n, length = rng.randint(2, 7), rng.randint(0, 30)
        w = random_braid_word(rng, n, length)
        ends, winding = strand_ends(w)
        assert ends == _nf_ends(w), w
        assert winding == (0,) * n
        c = random_cyl_word(rng, n - 1, length)
        pole, *rest = _nf_ends(c)
        assert pole == 1, c
        assert strand_ends(c)[0] == tuple(p - 1 for p in rest), c
