from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import seeded_rng, stdout_under_python_O
from orbibraid.reflect import ONE, ZERO, LaurentScalar, QMatrix, parse_scalar, specialize


def random_scalar(rng, nonzero=False) -> LaurentScalar:
    while True:
        num_low = rng.randint(-3, 3)
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
        if not any(den):
            continue
        s = LaurentScalar.make(num_low, num, rng.randint(-2, 2), den)
        if nonzero and s.is_zero:
            continue
        return s


def test_canonical_reduction():
    s = parse_scalar("q^2 - 1") / parse_scalar("q - 1")
    assert s == parse_scalar("q + 1")
    assert s.specialize(Fraction(1)) == 2
    assert (parse_scalar("q") - parse_scalar("q")) == ZERO
    assert ZERO.num == () and ZERO.den == (1,)


def test_specialize_examples():
    assert parse_scalar("q - q^-1").specialize(Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("q").specialize(Fraction(0))
    s = ONE / parse_scalar("q - 1")
    with pytest.raises(ZeroDivisionError):
        s.specialize(Fraction(1))


def test_specialize_dispatcher():
    assert specialize(parse_scalar("q - q^-1"), 2) == Fraction(3, 2)
    m = QMatrix.from_strings([["q", "0"], ["0", "1"]])
    assert specialize(m, Fraction(1, 2)) == ((Fraction(1, 2), 0), (0, 1))


def test_denominator_sign_normalised():
    s = ONE / LaurentScalar.make(0, (-1, -1))  # 1 / (-1 - q)
    assert s.den[0] > 0
    assert s.specialize(Fraction(1)) == Fraction(-1, 2)


def test_parse_and_format_round_trip():
    rng = seeded_rng(13)
    for text in ("q - q^-1", "1", "-2*q^3 + 1", "q^2", "0", "-q", "3*q^-2 - 5"):
        s = parse_scalar(text)
        assert parse_scalar(s.to_text()) == s
    for _ in range(50):
        s = random_scalar(rng)
        num_text = s._poly_text(s.num_low, s.num)
        if s.den == (1,):
            assert parse_scalar(num_text) == s


def test_parse_rejects_garbage():
    for bad in ("", "q +", "x", "q^^2", "1..2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_field_axioms_random():
    rng = seeded_rng(14)
    for _ in range(100):
        a = random_scalar(rng, nonzero=True)
        assert a * a.inverse() == ONE
    for _ in range(60):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.fractions())
def test_arithmetic_matches_specialization(seed, q0):
    if q0 == 0:
        q0 = Fraction(7, 3)
    rng = seeded_rng(seed)
    a = random_scalar(rng)
    b = random_scalar(rng)
    try:
        va, vb = a.specialize(q0), b.specialize(q0)
        assert (a + b).specialize(q0) == va + vb
        assert (a * b).specialize(q0) == va * vb
        assert (a - b).specialize(q0) == va - vb
    except ZeroDivisionError:
        pass


def test_inexact_division_raises_under_python_O():
    # The exactness check must survive -O, which strips assert statements:
    # (2 + 2q) / (1 + q) = 2, but (1 + q) / 2 leaves Z[q] and (1 + q^2) / (1 + q)
    # leaves a remainder.
    script = (
        "from orbibraid.reflect.laurent import _pdiv_exact\n"
        "print(_pdiv_exact((2, 2), (1, 1)))\n"
        "for a, b in [((1, 1), (2,)), ((1, 0, 1), (1, 1))]:\n"
        "    try:\n"
        "        _pdiv_exact(a, b)\n"
        "    except ArithmeticError as exc:\n"
        "        print(exc)\n"
    )
    assert stdout_under_python_O(script).splitlines() == ["(2,)"] + ["inexact polynomial division"] * 2
