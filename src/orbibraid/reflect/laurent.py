"""Exact rational functions in q with integer coefficients.

A scalar is a reduced fraction of Laurent polynomials, each stored as a
lowest exponent together with its coefficient run.  The canonical form
has the denominator's q-power absorbed into the numerator's lowest
exponent, no common polynomial or integer-content factor, and a positive
lowest denominator coefficient; zero is 0/1.  Equality of canonical forms
is equality in the field Q(q).

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
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class LaurentScalar:
    """Reduced fraction of integer Laurent polynomials in q."""

    num_low: int
    num: Coeffs
    den_low: int
    den: Coeffs

    @staticmethod
    def make(num_low: int, num, den_low: int = 0, den=(1,)) -> LaurentScalar:
        num_low, num = _strip(num_low, num)
        den_low, den = _strip(den_low, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return LaurentScalar(0, (), 0, (1,))
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
        return LaurentScalar(num_low - den_low, num, 0, den)

    @staticmethod
    def from_int(k: int) -> LaurentScalar:
        return LaurentScalar.make(0, (k,))

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> LaurentScalar:
        return LaurentScalar.make(e, (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self == ONE

    def __add__(self, other: LaurentScalar) -> LaurentScalar:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.num_low, other.num_low)
        a = (0,) * (self.num_low - low) + self.num
        b = (0,) * (other.num_low - low) + other.num
        return LaurentScalar.make(low, _padd(_pmul(a, other.den), _pmul(b, self.den)), 0, _pmul(self.den, other.den))

    def __neg__(self) -> LaurentScalar:
        return LaurentScalar(self.num_low, tuple(-x for x in self.num), self.den_low, self.den)

    def __sub__(self, other: LaurentScalar) -> LaurentScalar:
        return self + (-other)

    def __mul__(self, other: LaurentScalar) -> LaurentScalar:
        if self.is_zero or other.is_zero:
            return ZERO
        if self.den == other.den == (1,):
            # Polynomials with nonzero end coefficients: the product is canonical as it stands.
            return LaurentScalar(self.num_low + other.num_low, _pmul(self.num, other.num), 0, (1,))
        return LaurentScalar.make(
            self.num_low + other.num_low, _pmul(self.num, other.num), 0, _pmul(self.den, other.den)
        )

    def inverse(self) -> LaurentScalar:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return LaurentScalar.make(-self.num_low, self.den, 0, self.num)

    def __truediv__(self, other: LaurentScalar) -> LaurentScalar:
        return self * other.inverse()

    def __pow__(self, k: int) -> LaurentScalar:
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def specialize(self, q0: Fraction) -> Fraction:
        """Exact value at q = q0 (q0 nonzero, denominator nonvanishing)."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("cannot specialize at q = 0")
        num = sum(c * q0 ** (self.num_low + i) for i, c in enumerate(self.num))
        den = sum(c * q0 ** (self.den_low + i) for i, c in enumerate(self.den))
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
        den = self._poly_text(self.den_low, self.den)
        return f"({num}) / ({den})"

    def __str__(self) -> str:
        return self.to_text()


ZERO = LaurentScalar(0, (), 0, (1,))
ONE = LaurentScalar(0, (1,), 0, (1,))

_TERM = re.compile(r"^(?P<sign>[+-])?(?:(?P<coeff>\d+)\*?)?(?P<q>q(?:\^(?P<exp>-?\d+))?)?$")


def parse_scalar(text: str) -> LaurentScalar:
    """Parse the tiny scalar grammar: integer terms in q^e joined by + and -."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    chunks = [c for c in re.split(r"(?<!\^)(?=[+-])", s) if c]
    out = ZERO
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse scalar term {chunk!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign") == "-":
            coeff = -coeff
        exp = 0
        if m.group("q"):
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        out = out + LaurentScalar.q_power(exp, coeff)
    return out
