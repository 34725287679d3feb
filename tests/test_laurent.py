import math
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


def gcd_oracle_pairs(rng, count: int = 300):
    """Nonzero integer polynomial pairs (low-to-high coefficients, nonzero leading one).

    Every pair gets a planted common factor of degree 0 to 3; on top of that,
    one case in four each multiplies both sides by a shared integer content,
    makes the leading coefficients negative, or shrinks one side to a
    constant or a monomial c*q^k (where make skips the gcd).
    """

    def poly(degree):
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        return tuple(coeffs)

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)

    for k in range(count):
        common = poly(rng.randint(0, 3))
        a, b = times(common, poly(rng.randint(0, 3))), times(common, poly(rng.randint(0, 3)))
        case = k % 4
        if case == 1:
            c = rng.choice((2, 3, 6, 12))
            a, b = tuple(c * rng.choice((1, 2, 5)) * x for x in a), tuple(c * x for x in b)
        elif case == 2:
            a, b = (tuple(-x for x in p) if p[-1] > 0 else p for p in (a, b))
        elif case == 3:
            mono = (0,) * rng.randint(0, 2) + (rng.choice((-4, -1, 1, 3)),)
            a, b = (mono, b) if rng.random() < 0.5 else (a, mono)
        yield a, b


def test_gcd_and_reduction_match_sympy():
    sp = pytest.importorskip("sympy")
    from orbibraid.reflect.laurent import _pgcd

    q = sp.symbols("q")

    def as_poly(coeffs):
        return sp.Poly(list(reversed(coeffs)), q, domain="ZZ")

    def coeffs_of(p):
        return tuple(int(c) for c in reversed(p.all_coeffs()))

    def lowest(coeffs):
        low = next(i for i, c in enumerate(coeffs) if c)
        return low, coeffs[low:]

    rng = seeded_rng(16)
    for a, b in gcd_oracle_pairs(rng):
        g = sp.gcd(as_poly(a), as_poly(b)).primitive()[1]
        assert _pgcd(a, b) == coeffs_of(-g if g.LC() < 0 else g), (a, b)

        num_low, den_low = rng.randint(-3, 3), rng.randint(-3, 3)
        got = LaurentScalar.make(num_low, a, den_low, b)
        shift = num_low - den_low  # a q^shift / b, with the q-power moved onto one side
        top, bottom = as_poly((0,) * max(shift, 0) + a), as_poly((0,) * max(-shift, 0) + b)
        (n_low, n), (d_low, d) = (lowest(coeffs_of(p)) for p in top.cancel(bottom, include=True))
        unit = math.gcd(*n, *d) * (-1 if d[0] < 0 else 1)
        want = LaurentScalar(n_low - d_low, tuple(x // unit for x in n), 0, tuple(x // unit for x in d))
        assert got == want, (num_low, a, den_low, b)


def test_polynomial_products_and_sums_match_sympy():
    """Products and sums of scalars with denominator 1, including zero, monomials and integer content."""
    sp = pytest.importorskip("sympy")
    q = sp.symbols("q")

    def lowest_and_coeffs(p):
        coeffs = tuple(int(c) for c in reversed(sp.Poly(p, q, domain="ZZ").all_coeffs()))
        low = next(i for i, c in enumerate(coeffs) if c)
        return low, coeffs[low:]

    def scalar_of(expr) -> LaurentScalar:
        top, bottom = sp.fraction(sp.cancel(expr))
        if top == 0:
            return ZERO
        (n_low, n), (d_low, d) = lowest_and_coeffs(top), lowest_and_coeffs(bottom)
        unit = math.gcd(*n, *d) * (-1 if d[0] < 0 else 1)
        return LaurentScalar(n_low - d_low, tuple(x // unit for x in n), 0, tuple(x // unit for x in d))

    def polynomial(rng) -> LaurentScalar:
        content = rng.choice((1, 1, 2, 6))
        coeffs = [content * rng.randint(-4, 4) for _ in range(rng.choice((0, 1, 1, 2, 3, 5)))]
        return LaurentScalar.make(rng.randint(-4, 4), coeffs)

    def expr_of(s: LaurentScalar):
        return sum(c * q ** (s.num_low + i) for i, c in enumerate(s.num))

    rng = seeded_rng(17)
    for _ in range(100):
        a, b = polynomial(rng), polynomial(rng)
        assert a.den == b.den == (1,)
        ea, eb = expr_of(a), expr_of(b)
        assert a * b == scalar_of(ea * eb), (a, b)
        assert a + b == scalar_of(ea + eb), (a, b)
        assert a - b == scalar_of(ea - eb), (a, b)
