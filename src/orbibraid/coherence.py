"""Underlying braids of structural isomorphisms and the coherence decision.

A structural isomorphism between M-typed objects has an underlying word in
the cylinder braid group on its A-strands (the module/pole is not a
strand); between A-typed objects, an ordinary braid word.  Braidings of
compound objects contribute cabled words: a sigma on blocks of sizes
(c1, c2) contributes the positive block crossing, a kappa whose argument
carries c strands contributes the doubled pole crossing, built
from the one-strand winding and block crossings.  All other
generators are silent.  Vertical composition concatenates (first factor
first), inverses reverse and negate, the involution reverses strand
positions.

The decision procedure: two parallel structural isomorphisms commute in
every Z2-braided pair whenever their underlying (cylinder) braids are
equal (their Garside normal forms, which are canonical, agree), for
Z2-monoidal pairs whenever both are braiding-free, and in every
Z2-symmetric pair whenever the underlying signed permutations
(permutation plus per-strand winding parity) agree.
"""

from __future__ import annotations

from .braid.garside import garside_nf
from .braid.words import KAPPA, BraidWord, Letter, strand_ends
from .dsl.morphisms import (
    ActMor,
    Gen,
    Id,
    Inv,
    MorExpr,
    PhiMor,
    TensorMor,
    Vert,
    codomain,
    domain,
    fold,
    mentions_braiding,
    unexpected,
)
from .dsl.objects import SignedSignature, is_module, signature, strand_count
from .errors import FlavorError, SizeCapError
from .record import Record

# Longest underlying word extract_braid builds: a kappa cabled over a
# 1,200-strand block has 720,600 letters.
MAX_WORD_LETTERS = 1_000_000

COMMUTES = "COMMUTES"
NOT_COMMUTES = "NOT_COMMUTES"
NOT_PARALLEL = "NOT_PARALLEL"


def _block_swap(offset: int, cx: int, cy: int) -> list[Letter]:
    """Positive word moving a block of cy strands over a block of cx strands.

    The blocks start at positions offset+1..offset+cx and
    offset+cx+1..offset+cx+cy.
    """
    letters: list[Letter] = []
    for p in range(1, cy + 1):
        for s in range(offset + p + cx - 1, offset + p - 1, -1):
            letters.append((s, 1))
    return letters


def _cable_kappa(ell: int, c: int) -> list[Letter]:
    """Doubled pole crossing of a c-strand block behind ell module-side strands:
    the block crosses the ell strands, its strands wind the pole in turn
    (each behind those wound before it), and the block crosses back."""
    letters: list[Letter] = []
    for i in reversed(range(ell)):
        letters += _block_swap(i, 1, c)
    for j in range(c):
        letters += _block_swap(0, j, 1) + [(KAPPA, 1)]
    for i in range(ell):
        letters += _block_swap(i, c, 1)
    return letters


def _too_long(length: int) -> SizeCapError:
    return SizeCapError(f"underlying braid word of {length} letters exceeds the cap of {MAX_WORD_LETTERS}")


def _gen_letters(f: Gen, kids: list) -> list[Letter]:
    if f.name == "sigma":
        x, y = f.params
        a, b = strand_count(x), strand_count(y)
        if a * b > MAX_WORD_LETTERS:
            raise _too_long(a * b)
        return _block_swap(0, a, b)
    if f.name == "kappa":
        m, x = f.params
        ell, c = strand_count(m), strand_count(x)
        length = 2 * c * ell + c * (c + 1) // 2
        if length > MAX_WORD_LETTERS:
            raise _too_long(length)
        return _cable_kappa(ell, c)
    return []


def _joined(first: list[Letter], second: list[Letter], shift: int = 0) -> list[Letter]:
    length = len(first) + len(second)
    if length > MAX_WORD_LETTERS:
        raise _too_long(length)
    first.extend(((i + shift, e) for i, e in second) if shift else second)
    return first


def _mirrored(f: PhiMor, kids: list) -> list[Letter]:
    c = strand_count(domain(f))
    return [(c - i, e) for i, e in kids[0]]


# The letter rule of each node kind: its word (strands from 0) from the node
# and its children's words.  No word is shorter than a child's, so checking
# each against MAX_WORD_LETTERS before building it bounds the whole word.  A
# product's right factor's strands follow its left factor's; typing keeps
# the module-typed factor (the only one with pole windings) on the left.
LETTER_RULES = {
    Id: lambda f, kids: [],
    Gen: _gen_letters,
    Inv: lambda f, kids: [(i, -e) for i, e in reversed(kids[0])],
    Vert: lambda f, kids: _joined(kids[1], kids[0]),
    TensorMor: lambda f, kids: _joined(*kids, strand_count(domain(f.left))),
    ActMor: lambda f, kids: _joined(*kids, strand_count(domain(f.module))),
    PhiMor: _mirrored,
}


def extract_braid(f: MorExpr) -> BraidWord:
    """Underlying braid of a presentation; cylinder word iff f is M-typed.

    A word of more than MAX_WORD_LETTERS letters is refused with SizeCapError.
    """
    dom = domain(f)
    n = max(1, strand_count(dom))
    letters = tuple(fold(f, lambda g, kids: LETTER_RULES.get(type(g), unexpected)(g, kids)))
    return BraidWord(n, letters, is_module(dom))


class Verdict(Record):
    """Outcome of a diagram check with the evidence that decided it: the
    underlying words and their ``GarsideNF``s, each None when not shown."""

    __slots__ = __match_args__ = ("status", "lhs_word", "rhs_word", "lhs_nf", "rhs_nf", "detail")

    def __init__(self, status: str, lhs_word=None, rhs_word=None, lhs_nf=None, rhs_nf=None, detail: str = ""):
        super().__init__(status, lhs_word, rhs_word, lhs_nf, rhs_nf, detail)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "lhs_nf": self.lhs_nf.describe() if self.lhs_nf else None,
            "rhs_nf": self.rhs_nf.describe() if self.rhs_nf else None,
            "braid_words": {
                "lhs": self.lhs_word.to_text() if self.lhs_word is not None else None,
                "rhs": self.rhs_word.to_text() if self.rhs_word is not None else None,
            },
            "detail": self.detail,
        }


def _signature_text(sig: SignedSignature) -> str:
    strands = " ".join(f"X{label}^{e}" for label, e in sig.strands)
    return f"[{sig.module or '-'} | {strands}]"


def check(lhs: MorExpr, rhs: MorExpr, flavor: str) -> Verdict:
    """Decide whether the diagram lhs = rhs commutes under the given flavor."""
    if flavor not in ("monoidal", "braided", "symmetric"):
        raise FlavorError(f"unknown flavor {flavor!r}")
    sig_dom_l = signature(domain(lhs))
    sig_dom_r = signature(domain(rhs))
    sig_cod_l = signature(codomain(lhs))
    sig_cod_r = signature(codomain(rhs))
    if sig_dom_l != sig_dom_r or sig_cod_l != sig_cod_r:
        return Verdict(
            NOT_PARALLEL,
            detail=(
                f"domains {_signature_text(sig_dom_l)} vs {_signature_text(sig_dom_r)}; "
                f"codomains {_signature_text(sig_cod_l)} vs {_signature_text(sig_cod_r)}"
            ),
        )
    if flavor == "monoidal":
        if mentions_braiding(lhs) or mentions_braiding(rhs):
            raise FlavorError("a monoidal-flavor diagram mentions sigma or kappa")
        return Verdict(COMMUTES, detail="parallel braiding-free structural isomorphisms")

    wl = extract_braid(lhs)
    wr = extract_braid(rhs)
    if flavor == "braided":
        # Garside normal forms are canonical, so they decide equality.
        nf_l, nf_r = garside_nf(wl), garside_nf(wr)
        return Verdict(COMMUTES if nf_l == nf_r else NOT_COMMUTES, wl, wr, nf_l, nf_r)
    # symmetric: the signed permutations decide; the normal forms are evidence only
    ends_l, winding_l = strand_ends(wl)
    ends_r, winding_r = strand_ends(wr)
    equal = ends_l == ends_r and [x % 2 for x in winding_l] == [x % 2 for x in winding_r]
    status = COMMUTES if equal else NOT_COMMUTES
    try:
        return Verdict(status, wl, wr, garside_nf(wl), garside_nf(wr))
    except SizeCapError as exc:
        return Verdict(status, wl, wr, detail=f"normal forms not shown: {exc}")
