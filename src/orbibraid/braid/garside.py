"""Left-greedy Garside normal form for B_n and B^cyl_n, and the word problem it decides.

A braid is written Delta^p x_1 ... x_l where Delta is the positive half
twist and every x_j is a permutation braid (a positive braid in which each
pair of strands crosses at most once).  Permutation braids are stored as
permutations of {0, ..., n-1} in one-line notation mapping start position
to end position.  The factorisation is *left-weighted*: each factor
absorbs every generator that could migrate from the factor to its right,
which makes the form canonical, so two words represent the same group
element exactly when their normal forms are identical tuples.  A cylinder
word's form is that of its annular embedding in B_{n+1}.

The form is built by right multiplication, one permutation braid at a
time.  The word is cut into runs: maximal stretches of letters of one sign
in which no two strands cross twice, so that each run is a permutation
braid P or the inverse of one.  A positive run appends P's permutation.  A
negative run is P^-1 = Delta^-1 (Delta P^-1): it counts one Delta^-1 and
appends the permutation x -> P^-1(omega(x)) of Delta P^-1.  After each
append, one sweep from the right weights pairs up to the first one that is
already left-weighted, as every pair left of it was.  A run of length 0 is
dropped and a run that is Delta goes into the power, so no stored factor is
ever the identity or Delta.  Only the appended factor can become the
identity, and is dropped.

Each stored factor is kept beside its inverse permutation, both as mutable
lists, so weighting a pair moves one generator at a time by four swaps in
place, with no permutation rebuilt.

Moving a Delta^+-1 to the front conjugates the factors before it by Delta
(tau: generator indices i -> n-i), which preserves permutation braids and
left-weightedness.  So only the parity of the Deltas moved is kept: while it
is odd, stored factors stand for their conjugates and new ones are stored
conjugated; the stored factors are conjugated once, at the end.  A factor
that becomes Delta in the sweep joins the power at once: flipping the parity
conjugates the factors left of it, and each factor right of it, which did
not pass it, is re-stored conjugated (O(n) each).  The sweep stops there, as
the new junction is left-weighted already: a, the factor that became Delta,
took its complement a^-1 Delta from its right neighbour b = (a^-1 Delta) z,
so z left-divides tau(a), as b is a permutation braid.  A generator s that z
could give to tau(x), where x is the factor left of a, would make tau(s) a
left divisor of a that x could take; but x and a were left-weighted.
"""

from __future__ import annotations

from ..errors import ArityError, SizeCapError
from ..record import Record, set_slot
from .words import BraidWord, embed_cyl

Perm = tuple[int, ...]

MAX_NF_WORK = 15_000_000  # most units garside_nf counts: about 5.5 s for the slowest word found
HELD_UNITS = 199  # units a strand of a factor costs while held: one factor holds at most 75,000 strands


def omega_perm(n: int) -> Perm:
    """Permutation of the half twist Delta: full order reversal."""
    return tuple(range(n - 1, -1, -1))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def starting_set(p: Perm) -> set[int]:
    """Indices j such that sigma_{j+1} is a left divisor of the permutation braid."""
    return {j for j in range(len(p) - 1) if p[j] > p[j + 1]}


def finishing_set(p: Perm) -> set[int]:
    """Indices j such that sigma_{j+1} is a right divisor of the permutation braid."""
    return starting_set(inverse_perm(p))


def _weight_pair(a: list[int], a_inv: list[int], b: list[int], b_inv: list[int]) -> int:
    """Move b ^ da, the meet of b and the complement of a, from b into a, in place.

    sigma_{j+1} can move while it left-divides b (b has a descent at j) and
    a sigma_{j+1} is still a permutation braid (a^-1 has an ascent at j).
    Moving it swaps positions j and j+1 of b and of a^-1, and values j and
    j+1 of b^-1 and of a: four swaps.  A move at j changes whether positions
    j-1..j+1 can move and no other, and a move at j-1 right after one at j
    leaves j unable to move.  So one scan from the left, which at each
    position keeps moving leftwards while it can, ends with nothing left to
    move: the pair is left-weighted and a has absorbed exactly the meet.
    Returns the number of generators moved, at most n(n-1)/2.
    """
    moved = 0
    for start in range(len(b) - 1):
        j = start
        while j >= 0:
            x, y = b[j], b[j + 1]
            if x < y:
                break
            u, v = a_inv[j], a_inv[j + 1]
            if u > v:
                break
            b[j], b[j + 1] = y, x
            b_inv[x], b_inv[y] = j + 1, j
            a_inv[j], a_inv[j + 1] = v, u
            a[u], a[v] = j + 1, j
            moved += 1
            j -= 1
    return moved


class GarsideNF(Record):
    """Canonical form Delta^power x_1 ... x_l of an element of B_n.

    Factors are permutation braids given by their permutations; none is the
    identity or Delta, and consecutive factors are left-weighted.
    """

    __slots__ = __match_args__ = ("n", "power", "factors")

    def __init__(self, n: int, power: int, factors: tuple[Perm, ...]):
        ends = (tuple(range(n)), omega_perm(n))  # the identity and Delta
        for k, f in enumerate(factors):
            if f in ends:
                raise ValueError(f"factor {k} is not a proper permutation braid")
        for k in range(1, len(factors)):
            if not starting_set(factors[k]) <= finishing_set(factors[k - 1]):
                raise ValueError(f"factor {k} is not left-weighted against factor {k - 1}")
        set_slot(self, "n", n)
        set_slot(self, "power", power)
        set_slot(self, "factors", factors)

    def describe(self) -> str:
        facs = " ".join("(" + " ".join(str(v + 1) for v in f) + ")" for f in self.factors)
        return f"Delta^{self.power} {facs}".strip()


def _runs(n: int, letters):
    """Cut a word into maximal same-sign runs whose letters form a permutation braid.

    A letter extends the current run while it has the run's sign and the two
    strands at its positions have not crossed yet.  Strands are named by
    their start positions; ``at`` maps position -> strand and ``pos`` strand
    -> position, so a finished run yields its sign, its start -> end
    permutation ``pos``, that permutation's inverse ``at`` and its length.
    """
    sign = length = 0  # a first letter always starts a run, so at and pos are set before use
    for i, e in letters:
        j = i - 1
        if e != sign or at[j] > at[j + 1]:
            if sign:
                yield sign, pos, at, length
            sign, length, at, pos = e, 0, list(range(n)), list(range(n))
        x, y = at[j], at[j + 1]
        at[j], at[j + 1] = y, x
        pos[x], pos[y] = j + 1, j
        length += 1
    if sign:
        yield sign, pos, at, length


def _refusal(n: int, count: int) -> SizeCapError:
    return SizeCapError(f"normal form on {n} strands would pass the work cap of {MAX_NF_WORK} ({count} units counted)")


def garside_nf(w: BraidWord) -> GarsideNF:
    """Left-greedy normal form; nf(u) == nf(v) iff u = v in B_n, or in B^cyl_n through embed_cyl.

    Counts n a run appended, n a pair visited, one a generator moved and n a factor re-stored when a
    Delta forms left of it (100-370 ns a unit), and HELD_UNITS a strand for each factor while it is
    held, given back when the factor is dropped as the identity or joins the power as Delta; that
    charge bounds the lists held and the form built and printed from them.  Raises SizeCapError before
    a run (n + HELD_UNITS n), a pair (n + its right factor's length, which bounds its moves) or the
    re-stores after a Delta (n each) could take the count past MAX_NF_WORK.
    """
    if w.cyl:
        w = embed_cyl(w)
    n = w.n
    held = HELD_UNITS * n  # units a factor costs while it is held
    run_limit = MAX_NF_WORK - n - held  # most units counted before a run is appended
    pair_limit = MAX_NF_WORK - n  # and, less its right factor's length, before a pair is weighted
    if run_limit < 0:  # refuse any word, before building a list of n entries
        raise _refusal(n, 0)
    count = power = 0
    top, half = n - 1, n * (n - 1) // 2  # half is the length of Delta
    odd = False  # parity of the Deltas moved to the front so far
    factors: list[list[int]] = []
    inverses: list[list[int]] = []  # inverses[k] is the inverse permutation of factors[k]
    lengths: list[int] = []  # lengths[k] is the number of crossings of factors[k]
    for e, f, f_inv, length in _runs(n, w.letters):
        if count > run_limit:
            raise _refusal(n, count)
        count += n + held
        if e == -1:
            # P^-1 = Delta^-1 (Delta P^-1), where Delta P^-1 is x -> P^-1(omega(x)).
            power -= 1
            odd = not odd
            length = half - length
            if odd:  # conjugated by Delta as well; the two reversals cancel
                f, f_inv = [top - v for v in f], f_inv[::-1]
            else:
                f, f_inv = f[::-1], [top - v for v in f_inv]
        elif odd:  # stored conjugated by Delta
            f, f_inv = [top - v for v in reversed(f)], [top - v for v in reversed(f_inv)]
        if not 0 < length < half:  # the identity is dropped, and Delta joins the power
            count -= held
            if length:
                power += 1
                odd = not odd
            continue
        factors.append(f)
        inverses.append(f_inv)
        lengths.append(length)
        k = len(factors) - 1
        while k:  # weight the pair that ends at factors[k]
            length = lengths[k]
            if count + length > pair_limit:  # a pair moves at most its right factor's length
                raise _refusal(n, count)
            moved = _weight_pair(factors[k - 1], inverses[k - 1], factors[k], inverses[k])
            count += n + moved
            if not moved:
                break
            if moved == length:  # only the appended factor can empty
                del factors[k], inverses[k], lengths[k]
                count -= held
            else:
                lengths[k] = length - moved
            k -= 1
            lengths[k] += moved
            if lengths[k] == half:  # Delta joins the power; the factors right of it pass it, conjugated
                del factors[k], inverses[k], lengths[k]
                count -= held
                power += 1
                odd = not odd
                passed = len(factors) - k
                if count + n * passed > MAX_NF_WORK:
                    raise _refusal(n, count)
                count += n * passed
                for j in range(k, len(factors)):
                    factors[j] = [top - v for v in reversed(factors[j])]
                    inverses[j] = [top - v for v in reversed(inverses[j])]
                break  # the new junction is left-weighted already
    if odd:
        factors = [[top - v for v in reversed(f)] for f in factors]
    # Tuples are made from lists, which size them once.  tuple() of a generator guesses a size and
    # resizes, so CPython files the freed tuple under another size's free list; over many calls
    # those lists hold megabytes.
    return GarsideNF(n, power, tuple([tuple(f) for f in factors]))


def braid_eq(u: BraidWord, v: BraidWord) -> bool:
    """Decide u = v by comparing normal forms, each within garside_nf's work cap on its own."""
    if u.cyl != v.cyl or u.n != v.n:
        raise ArityError(f"cannot compare words of {u.group()} and {v.group()}")
    return garside_nf(u) == garside_nf(v)


def cyl_braid_eq(u: BraidWord, v: BraidWord) -> bool:
    """Decide u = v in B^cyl_n: braid_eq, whose forms go through the annular embedding into B_{n+1}."""
    return braid_eq(u, v)
