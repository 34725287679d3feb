"""Exact rational functions in q with integer coefficients.

A scalar is a reduced fraction of Laurent polynomials: the numerator is
stored as a lowest exponent together with its coefficient run, the
denominator as a coefficient run from q^0.  The canonical form has the
denominator's q-power absorbed into the numerator's lowest exponent, no
common polynomial or integer-content factor, and a positive lowest
denominator coefficient; zero is 0/1.  Equality of canonical forms is
equality in the field Q(q).

Reduction stays in the integers.  The polynomial gcd is the primitive
remainder sequence over Z (Knuth, TAOCP vol. 2, 4.6.1): each step takes a
pseudo-remainder and divides out its content, so no rational coefficient
appears.  When the numerator or the denominator is a single coefficient,
c*q^k, the gcd is a unit (the denominator has no factor q) and is not
computed; the integer content is still divided out.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ..errors import MAX_INDEX_DIGITS, SizeCapError
from ..record import Record, set_slot

Coeffs = tuple[int, ...]


def _strip(low: int, coeffs) -> tuple[int, Coeffs]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    drop = 0
    while drop < len(coeffs) and coeffs[drop] == 0:
        drop += 1
    return low + drop, tuple(coeffs[drop:])


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return tuple(out)


def _primitive(a) -> Coeffs:
    c = math.gcd(*a)
    return tuple(x // c for x in a) if c > 1 else tuple(a)


def _prem(a: Coeffs, b: Coeffs) -> list[int]:
    """A pseudo-remainder: a nonzero integer multiple of the remainder of a by b in Q[q]."""
    r = list(a)
    lead, nb = b[-1], len(b)
    while len(r) >= nb:
        c = r[-1]
        if c % lead:
            r = [x * lead for x in r]
        else:
            c //= lead
        shift = len(r) - nb
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd in Z[q], with positive leading coefficient, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b if b[-1] > 0 else tuple(-x for x in b)
        a, b = b, _primitive(r)
    return (1,)


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division a / b in Z[q]; raises ArithmeticError unless it is exact."""
    r = list(a)
    lead, nb = b[-1], len(b)
    out = [0] * (len(a) - nb + 1)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[k + nb - 1], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


class LaurentScalar(Record):
    """Reduced fraction of integer Laurent polynomials in q."""

    __slots__ = __match_args__ = ("num_low", "num", "den")

    def __init__(self, num_low: int, num: Coeffs, den: Coeffs):
        set_slot(self, "num_low", num_low)
        set_slot(self, "num", num)
        set_slot(self, "den", den)

    def __eq__(self, other):
        if type(other) is not LaurentScalar:
            return NotImplemented
        return self.num_low == other.num_low and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num_low, self.num, self.den))

    @staticmethod
    def make(num_low: int, num, den_low: int = 0, den=(1,)) -> LaurentScalar:
        num_low, num = _strip(num_low, num)
        den_low, den = _strip(den_low, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return LaurentScalar(0, (), (1,))
        if len(num) > 1 and len(den) > 1:  # else one side is c*q^k, coprime to den in Q[q]
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
        c = math.gcd(*num, *den)
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[0] < 0:
            num = tuple(-x for x in num)
            den = tuple(-x for x in den)
        return LaurentScalar(num_low - den_low, num, den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: LaurentScalar) -> LaurentScalar:
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den == (1,):
            # Polynomials: add the aligned runs; with the zeros at both ends stripped the sum is canonical.
            low, a, b = self.num_low, self.num, other.num
            shift = other.num_low - low
            if shift < 0:
                low, a, b, shift = other.num_low, b, a, -shift
            out = list(a)
            out.extend([0] * (shift + len(b) - len(out)))
            for i, y in enumerate(b, shift):
                out[i] += y
            hi = len(out)
            while hi and not out[hi - 1]:
                hi -= 1
            if not hi:
                return ZERO
            lo = 0
            while not out[lo]:
                lo += 1
            return LaurentScalar(low + lo, tuple(out[lo:hi]), (1,))
        low = min(self.num_low, other.num_low)
        a = (0,) * (self.num_low - low) + self.num
        b = (0,) * (other.num_low - low) + other.num
        return LaurentScalar.make(low, _padd(_pmul(a, other.den), _pmul(b, self.den)), 0, _pmul(self.den, other.den))

    def __neg__(self) -> LaurentScalar:
        return LaurentScalar(self.num_low, tuple(-x for x in self.num), self.den)

    def __sub__(self, other: LaurentScalar) -> LaurentScalar:
        return self + (-other)

    def __mul__(self, other: LaurentScalar) -> LaurentScalar:
        if not self.num or not other.num:
            return ZERO
        if other.num in _UNITS and other.den == (1,):
            self, other = other, self
        if self.num in _UNITS and self.den == (1,):
            # A factor +-q^k shifts the other and signs it: a canonical form stays canonical.
            num = other.num if self.num[0] == 1 else tuple([-x for x in other.num])
            return LaurentScalar(self.num_low + other.num_low, num, other.den)
        if self.den == other.den == (1,):
            # Polynomials with nonzero end coefficients: the product is canonical as it stands.
            return LaurentScalar(self.num_low + other.num_low, _pmul(self.num, other.num), (1,))
        return LaurentScalar.make(
            self.num_low + other.num_low, _pmul(self.num, other.num), 0, _pmul(self.den, other.den)
        )

    def inverse(self) -> LaurentScalar:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return LaurentScalar.make(-self.num_low, self.den, 0, self.num)

    def __truediv__(self, other: LaurentScalar) -> LaurentScalar:
        return self * other.inverse()

    def specialize(self, q0: Fraction) -> Fraction:
        """Exact value at q = q0 (q0 nonzero, denominator nonvanishing)."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("cannot specialize at q = 0")
        num = sum(c * q0 ** (self.num_low + i) for i, c in enumerate(self.num))
        den = sum(c * q0 ** i for i, c in enumerate(self.den))
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {q0}")
        return Fraction(num) / den

    def _poly_text(self, low: int, coeffs: Coeffs) -> str:
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            e = low + i
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            parts.append(("- " if c < 0 else "+ ") + body)
        if not parts:
            return "0"
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])

    def to_text(self) -> str:
        num = self._poly_text(self.num_low, self.num)
        if self.den == (1,):
            return num
        den = self._poly_text(0, self.den)
        return f"({num}) / ({den})"


ZERO = LaurentScalar(0, (), (1,))
ONE = LaurentScalar(0, (1,), (1,))
_UNITS = ((1,), (-1,))  # the numerators of +-q^k over the denominator (1,)

MAX_SCALAR_SPAN = 1_000  # widest exponent range a parsed scalar may write: its coefficient run is dense
_TERM = re.compile(r"^(?P<sign>[+-])?(?:(?P<coeff>\d+)\*?)?(?P<q>q(?:\^(?P<exp>-?\d+))?)?$")


def parse_scalar(text: str) -> LaurentScalar:
    """Parse the tiny scalar grammar: integer terms in q^e joined by + and -.

    Exponents spanning more than MAX_SCALAR_SPAN raise SizeCapError before any run is built.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    chunks = [c for c in re.split(r"(?<!\^)(?=[+-])", s) if c]
    terms: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse scalar term {chunk!r} in {text!r}")
        digits = max(len(m.group("coeff") or ""), len((m.group("exp") or "").lstrip("-")))
        if digits > MAX_INDEX_DIGITS:
            raise SizeCapError(f"a scalar's integers have at most {MAX_INDEX_DIGITS} digits, found {digits}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign") == "-":
            coeff = -coeff
        exp = 0
        if m.group("q"):
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        terms[exp] = terms.get(exp, 0) + coeff
    low, high = min(terms), max(terms)
    if high - low > MAX_SCALAR_SPAN:
        raise SizeCapError(f"scalar exponents span {low}..{high}, past the cap of {MAX_SCALAR_SPAN}")
    coeffs = [0] * (high - low + 1)
    for exp, coeff in terms.items():
        coeffs[exp - low] = coeff
    return LaurentScalar.make(low, coeffs)
