"""Left-greedy Garside normal form for B_n and the word problem it decides.

A braid is written Delta^p x_1 ... x_l where Delta is the positive half
twist and every x_j is a permutation braid (a positive braid in which each
pair of strands crosses at most once).  Permutation braids are stored as
permutations of {0, ..., n-1} in one-line notation mapping start position
to end position.  The factorisation is *left-weighted*: each factor
absorbs every generator that could migrate from the factor to its right,
which makes the form canonical, so two words represent the same group
element exactly when their normal forms are identical tuples.

The form is built by right multiplication, one letter at a time.  A
positive letter sigma_i contributes its permutation braid; an inverse
letter is sigma_i^-1 = Delta^-1 (Delta sigma_i^-1), whose second factor has
permutation s_i . omega.  After the letter's factor is appended, one sweep
from the right weights pairs up to the first one that is already
left-weighted, as every pair left of it was.  Only the appended factor can
become the identity, and is dropped; a Delta that forms is carried to the
front and goes into the power.

Moving the Delta^-1 to the front conjugates the factors before it by Delta
(generator indices i -> n-i), which preserves permutation braids and
left-weightedness.  So only its parity is kept: while it is odd, stored
factors stand for their conjugates and new ones are stored conjugated; the
stored factors are conjugated once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ArityError
from .words import BraidWord, CylBraidWord, embed_cyl

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def omega_perm(n: int) -> Perm:
    """Permutation of the half twist Delta: full order reversal."""
    return tuple(range(n - 1, -1, -1))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def flip_perm(p: Perm) -> Perm:
    """Conjugation by Delta: omega . p . omega."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def _swap_values(p: Perm, j: int) -> Perm:
    q = list(p)
    for x in range(len(q)):
        if q[x] == j:
            q[x] = j + 1
        elif q[x] == j + 1:
            q[x] = j
    return tuple(q)


def _swap_entries(p: Perm, j: int) -> Perm:
    q = list(p)
    q[j], q[j + 1] = q[j + 1], q[j]
    return tuple(q)


def starting_set(p: Perm) -> set[int]:
    """Indices j such that sigma_{j+1} is a left divisor of the permutation braid."""
    return {j for j in range(len(p) - 1) if p[j] > p[j + 1]}


def finishing_set(p: Perm) -> set[int]:
    """Indices j such that sigma_{j+1} is a right divisor of the permutation braid."""
    return starting_set(inverse_perm(p))


def perm_to_letters(p: Perm) -> tuple[tuple[int, int], ...]:
    """A minimal positive word for a permutation braid (letters 1-based)."""
    letters = []
    q = p
    while True:
        for j in range(len(q) - 1):
            if q[j] > q[j + 1]:
                letters.append((j + 1, 1))
                q = _swap_entries(q, j)
                break
        else:
            return tuple(letters)


def _weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm, bool]:
    """Move b ^ da, the meet of b and the complement of a, from b into a.

    sigma_{j+1} can move while it left-divides b (b has a descent at j) and
    a sigma_{j+1} is still a permutation braid (a^-1 has an ascent at j).
    Moving it swaps positions j and j+1 of b and of a^-1, which changes
    whether positions j-1..j+1 can move and no other.  One scan that steps
    back one position after each move therefore ends with nothing left to
    move: the pair is left-weighted and a has absorbed exactly the meet.
    """
    a_inv = list(inverse_perm(a))
    b_out = list(b)
    moved = False
    j = 0
    last = len(b) - 2
    while j <= last:
        if b_out[j] > b_out[j + 1] and a_inv[j] < a_inv[j + 1]:
            b_out[j], b_out[j + 1] = b_out[j + 1], b_out[j]
            a_inv[j], a_inv[j + 1] = a_inv[j + 1], a_inv[j]
            moved = True
            if j:
                j -= 1
        else:
            j += 1
    if not moved:
        return a, b, False
    return inverse_perm(a_inv), tuple(b_out), True


@dataclass(frozen=True)
class GarsideNF:
    """Canonical form Delta^power x_1 ... x_l of an element of B_n.

    Factors are permutation braids given by their permutations; none is the
    identity or Delta, and consecutive factors are left-weighted.
    """

    n: int
    power: int
    factors: tuple[Perm, ...]

    def __post_init__(self):
        ident = identity_perm(self.n)
        omega = omega_perm(self.n)
        for k, f in enumerate(self.factors):
            if f == ident or f == omega:
                raise ValueError(f"factor {k} is not a proper permutation braid")
        for k in range(1, len(self.factors)):
            if not starting_set(self.factors[k]) <= finishing_set(self.factors[k - 1]):
                raise ValueError(f"factor {k} is not left-weighted against factor {k - 1}")

    @property
    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors

    def to_word(self) -> BraidWord:
        """Rebuild a braid word (Delta^power, then the factors)."""
        delta = perm_to_letters(omega_perm(self.n))
        letters: list[tuple[int, int]] = []
        if self.power >= 0:
            letters.extend(delta * self.power)
        else:
            delta_inv = tuple((i, -e) for i, e in reversed(delta))
            letters.extend(delta_inv * (-self.power))
        for f in self.factors:
            letters.extend(perm_to_letters(f))
        return BraidWord(self.n, tuple(letters))

    def describe(self) -> str:
        facs = " ".join("(" + " ".join(str(v + 1) for v in f) + ")" for f in self.factors)
        return f"Delta^{self.power} {facs}".strip()


def garside_nf(w: BraidWord) -> GarsideNF:
    """Left-greedy normal form; nf(u) == nf(v) iff u = v in B_n."""
    n = w.n
    ident = identity_perm(n)
    omega = omega_perm(n)
    power = 0
    odd = False  # parity of Delta^-1 moved to the front so far
    factors: list[Perm] = []
    lead = 0  # factors[:lead] are Delta, and stay out of the sweep
    for i, e in w.letters:
        j = i - 1
        if e == 1:
            f = _swap_entries(ident, j)
        else:
            power -= 1
            odd = not odd
            f = _swap_values(omega, j)
        factors.append(flip_perm(f) if odd else f)
        k = len(factors) - 1
        while k > lead:
            a, b, moved = _weight_pair(factors[k - 1], factors[k])
            if not moved:
                break
            factors[k - 1], factors[k] = a, b
            k -= 1
        if factors[-1] == ident:
            factors.pop()
        while lead < len(factors) and factors[lead] == omega:
            lead += 1
    tail = factors[lead:]
    if odd:
        tail = [flip_perm(f) for f in tail]
    return GarsideNF(n, power + lead, tuple(tail))


def braid_eq(u: BraidWord, v: BraidWord) -> bool:
    """Decide u = v in B_n via triviality of nf(u^-1 v)."""
    if u.n != v.n:
        raise ArityError(f"words live on {u.n} and {v.n} strands")
    return garside_nf(u.inverse() * v).is_trivial


def cyl_braid_eq(u: CylBraidWord, v: CylBraidWord) -> bool:
    """Decide u = v in B^cyl_n through the annular embedding into B_{n+1}."""
    if u.n != v.n:
        raise ArityError(f"words live on {u.n} and {v.n} strands")
    return braid_eq(embed_cyl(u), embed_cyl(v))
