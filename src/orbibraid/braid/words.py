"""Words in the Artin braid groups B_n and the cylinder braid groups B^cyl_n.

A letter is a pair (i, e): for ordinary words i is a generator index with
1 <= i <= n-1 and e in {+1, -1}.  Cylinder words admit the additional
letter (0, e), written ``k``/``K`` in text form, for the strand nearest the
pole winding once around it.

Text syntax: whitespace-separated tokens ``s<i>`` (positive crossing),
``S<i>`` (inverse crossing), ``k`` and ``K`` (pole winding and its
inverse), e.g. ``"k s1 K s1"``.  The strand count is given separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..errors import ArityError, MalformedWordError

KAPPA = 0

Letter = tuple[int, int]


def _check_letters(n: int, letters: tuple[Letter, ...], allow_kappa: bool) -> None:
    low = 0 if allow_kappa else 1
    for i, e in letters:
        if e not in (1, -1):
            raise MalformedWordError(f"letter exponent must be +1 or -1, got {e}")
        if not (low <= i <= n - 1):
            kind = "kappa/sigma" if allow_kappa else "sigma"
            raise MalformedWordError(
                f"{kind} index {i} out of range for {n} strands"
            )


def _parse_letters(text: str, allow_kappa: bool) -> tuple[Letter, ...]:
    letters: list[Letter] = []
    for tok in text.split():
        if tok == "k" and allow_kappa:
            letters.append((KAPPA, 1))
        elif tok == "K" and allow_kappa:
            letters.append((KAPPA, -1))
        elif tok[:1] in ("s", "S") and tok[1:].isdigit():
            letters.append((int(tok[1:]), 1 if tok[0] == "s" else -1))
        else:
            raise MalformedWordError(f"unrecognised braid token {tok!r}")
    return tuple(letters)


def _letters_text(letters: tuple[Letter, ...]) -> str:
    out = []
    for i, e in letters:
        if i == KAPPA:
            out.append("k" if e == 1 else "K")
        else:
            out.append(f"s{i}" if e == 1 else f"S{i}")
    return " ".join(out)


@dataclass(frozen=True)
class _Word:
    n: int
    letters: tuple[Letter, ...] = ()

    allow_kappa: ClassVar[bool] = False

    def __post_init__(self):
        if self.n < 1:
            raise MalformedWordError("strand count must be positive")
        _check_letters(self.n, self.letters, self.allow_kappa)

    @classmethod
    def from_text(cls, n: int, text: str):
        return cls(n, _parse_letters(text, cls.allow_kappa))

    def to_text(self) -> str:
        return _letters_text(self.letters)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ArityError(f"cannot concatenate words on {self.n} and {other.n} strands")
        return type(self)(self.n, self.letters + other.letters)

    def inverse(self):
        return type(self)(self.n, tuple((i, -e) for i, e in reversed(self.letters)))


class BraidWord(_Word):
    """A word in the Artin generators of B_n; the empty word is the identity."""


class CylBraidWord(_Word):
    """A word in the generators sigma_1..sigma_{n-1}, kappa of B^cyl_n."""

    allow_kappa = True


def embed_cyl(w: CylBraidWord) -> BraidWord:
    """Embed B^cyl_n into B_{n+1}: kappa -> sigma_1^2 and sigma_i -> sigma_{i+1}.

    The pole becomes an ordinary strand in first position; the map is a group
    homomorphism, so equality questions transport along it.
    """
    letters: list[Letter] = []
    for i, e in w.letters:
        if i == KAPPA:
            letters.extend([(1, e), (1, e)])
        else:
            letters.append((i + 1, e))
    return BraidWord(w.n + 1, tuple(letters))


def word_positions(w: CylBraidWord | BraidWord) -> tuple[int, ...]:
    """Final position of each strand (both 1-based), tracking through the word."""
    pos = list(range(w.n + 1))  # pos[s] = current position of strand s; index 0 unused
    at = list(range(w.n + 1))  # at[p] = strand currently at position p
    for i, _ in w.letters:
        if i == KAPPA:
            continue
        a, b = at[i], at[i + 1]
        at[i], at[i + 1] = b, a
        pos[a], pos[b] = i + 1, i
    return tuple(pos[1:])


def pole_winding(w: CylBraidWord, strand: int) -> int:
    """Signed number of kappa letters applied while ``strand`` sits in position 1.

    Positions are threaded through the sigma letters, so the count is the
    winding of that strand around the orbifold pole.
    """
    if not (1 <= strand <= w.n):
        raise MalformedWordError(f"strand {strand} out of range for {w.n} strands")
    return all_pole_windings(w)[strand - 1]


def all_pole_windings(w: CylBraidWord) -> tuple[int, ...]:
    """Winding numbers of every strand, in starting-position order."""
    at = list(range(w.n + 1))
    winding = [0] * (w.n + 1)
    for i, e in w.letters:
        if i == KAPPA:
            winding[at[1]] += e
        else:
            at[i], at[i + 1] = at[i + 1], at[i]
    return tuple(winding[1:])
