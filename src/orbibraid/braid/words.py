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

from ..errors import ArityError, MalformedWordError
from ..record import Record, set_slot

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


class _Word(Record):
    __slots__ = __match_args__ = ("n", "letters")
    allow_kappa = False

    def __init__(self, n: int, letters: tuple[Letter, ...] = ()):
        if n < 1:
            raise MalformedWordError("strand count must be positive")
        _check_letters(n, letters, self.allow_kappa)
        set_slot(self, "n", n)
        set_slot(self, "letters", letters)

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

    __slots__ = ()


class CylBraidWord(_Word):
    """A word in the generators sigma_1..sigma_{n-1}, kappa of B^cyl_n."""

    __slots__ = ()
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


def strand_ends(w: CylBraidWord | BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each strand's 1-based end position and signed pole winding, in starting-position order.

    The winding counts the kappa letters applied while the strand sits in
    position 1, so an ordinary word winds nothing.
    """
    at = list(range(w.n))  # at[p] = strand at 0-based position p
    winding = [0] * w.n
    for i, e in w.letters:
        if i == KAPPA:
            winding[at[0]] += e
        else:
            at[i - 1], at[i] = at[i], at[i - 1]
    ends = [0] * w.n
    for p, s in enumerate(at, 1):
        ends[s] = p
    return tuple(ends), tuple(winding)
