"""Exact rational functions in q with integer coefficients.

A scalar is a reduced fraction of Laurent polynomials, each stored as a
lowest exponent together with its coefficient run.  The canonical form
has the denominator's q-power absorbed into the numerator's lowest
exponent, no common polynomial or integer-content factor, and a positive
lowest denominator coefficient; zero is 0/1.  Equality of canonical forms
is equality in the field Q(q).
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


def _content(a: Coeffs) -> int:
    return math.gcd(*(abs(x) for x in a)) if a else 0


def _primitive(a: Coeffs) -> Coeffs:
    c = _content(a)
    return tuple(x // c for x in a) if c > 1 else a


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd in Z[q] via the Euclidean algorithm over Q."""
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    while fb:
        while fb and fb[-1] == 0:
            fb.pop()
        if not fb:
            break
        # fa mod fb
        while len(fa) >= len(fb) and any(fa):
            while fa and fa[-1] == 0:
                fa.pop()
            if len(fa) < len(fb):
                break
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, y in enumerate(fb):
                fa[shift + i] -= factor * y
            fa.pop()
        fa, fb = fb, fa
    while fa and fa[-1] == 0:
        fa.pop()
    if not fa:
        return ()
    denlcm = math.lcm(*(f.denominator for f in fa))
    ints = tuple(int(f * denlcm) for f in fa)
    return _primitive(ints)


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division a / b in Q[q]; raises ArithmeticError unless it is exact in Z[q]."""
    fa = [Fraction(x) for x in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = fa[k + len(b) - 1] / Fraction(b[-1])
        out[k] = coeff
        if coeff:
            for i, y in enumerate(b):
                fa[k + i] -= coeff * y
    if any(fa) or any(f.denominator != 1 for f in out):
        raise ArithmeticError("inexact polynomial division")
    return tuple(int(f) for f in out)


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
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        c = math.gcd(_content(num), _content(den))
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
