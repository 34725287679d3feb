"""Words in the Artin braid groups B_n and the cylinder braid groups B^cyl_n.

One record holds both: a word carries its strand count n and its group,
``cyl`` set for B^cyl_n.  A letter is a pair (i, e): i is a generator index
with 1 <= i <= n-1 and e in {+1, -1}.  A cylinder word admits the
additional letter (0, e), written ``k``/``K`` in text form, for the strand
nearest the pole winding once around it.

Text syntax: whitespace-separated tokens ``s<i>`` (positive crossing),
``S<i>`` (inverse crossing), ``k`` and ``K`` (pole winding and its
inverse), e.g. ``"k s1 K s1"``.  The strand count and group are given
separately.
"""

from __future__ import annotations

from ..errors import MAX_INDEX_DIGITS, ArityError, MalformedWordError
from ..record import Record

KAPPA = 0

Letter = tuple[int, int]


class BraidWord(Record):
    """A word of B_n or, with cyl set, of B^cyl_n; the empty word is the identity.

    Words of different groups or strand counts neither multiply nor compare.
    """

    __slots__ = __match_args__ = ("n", "letters", "cyl")

    def __init__(self, n: int, letters: tuple[Letter, ...] = (), cyl: bool = False):
        if n < 1:
            raise MalformedWordError("strand count must be positive")
        low = KAPPA if cyl else 1
        for i, e in letters:
            if e not in (1, -1):
                raise MalformedWordError(f"letter exponent must be +1 or -1, got {e}")
            if not (low <= i <= n - 1):
                kind = "kappa/sigma" if cyl else "sigma"
                raise MalformedWordError(f"{kind} index {i} out of range for {n} strands")
        super().__init__(n, letters, cyl)

    @staticmethod
    def from_text(n: int, text: str, cyl: bool = False) -> BraidWord:
        letters: list[Letter] = []
        for tok in text.split():
            if tok in ("k", "K") and cyl:
                letters.append((KAPPA, 1 if tok == "k" else -1))
            elif tok[:1] in ("s", "S") and tok[1:].isdecimal():
                if len(tok) > MAX_INDEX_DIGITS + 1:
                    raise MalformedWordError(f"an index has at most {MAX_INDEX_DIGITS} digits, found {len(tok) - 1}")
                letters.append((int(tok[1:]), 1 if tok[0] == "s" else -1))
            else:
                raise MalformedWordError(f"unrecognised braid token {tok!r}")
        return BraidWord(n, tuple(letters), cyl)

    def to_text(self) -> str:
        return " ".join(
            [("k" if e == 1 else "K") if i == KAPPA else (f"s{i}" if e == 1 else f"S{i}") for i, e in self.letters]
        )

    def group(self) -> str:
        return f"B^cyl_{self.n}" if self.cyl else f"B_{self.n}"

    def __mul__(self, other):
        if type(other) is not BraidWord:
            return NotImplemented
        if self.cyl != other.cyl or self.n != other.n:
            raise ArityError(f"cannot concatenate words of {self.group()} and {other.group()}")
        return BraidWord(self.n, self.letters + other.letters, self.cyl)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple((i, -e) for i, e in reversed(self.letters)), self.cyl)


def embed_cyl(w: BraidWord) -> BraidWord:
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


def strand_ends(w: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
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
