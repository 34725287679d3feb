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

``check`` reads each side as its ``Summary`` (types, word, whether it
mentions a braiding), one rule per node kind (``SUMMARY_RULES``): the parser
applies them as each morphism closes (``summarize``), so ``coherence check``
builds no tree, and ``summary`` folds them over a tree built by hand.

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
from .dsl.morphisms import TYPE_RULES, ActMor, Gen, Id, Inv, MorExpr, PhiMor, TensorMor, Vert, replay, validate
from .dsl.objects import SignedSignature, is_module, signature
from .dsl.parser import FLAVORS
from .errors import FlavorError, SizeCapError, TypingError
from .record import Record

# Longest underlying word a summary builds: a kappa cabled over a
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


class Summary:
    """What ``check`` reads of a morphism: its (domain, codomain) in ``_types``, as a node
    keeps them; its word's ``length`` and ``letters`` (strands from 0), None past
    MAX_WORD_LETTERS, where the word is not built; and whether a sigma or kappa occurs.
    Not a record: a product's summary is its first factor's, updated."""

    __slots__ = ("_types", "letters", "length", "braids")

    def __init__(self, types: tuple, letters: list | None, length: int, braids: bool):
        self._types = types
        self.letters = letters
        self.length = length
        self.braids = braids


def _gen_summary(types: tuple, name: str, params: tuple) -> Summary:
    if name != "sigma" and name != "kappa":
        return Summary(types, [], 0, False)
    a, b = params[0].n_strands, params[1].n_strands
    length = a * b if name == "sigma" else 2 * a * b + b * (b + 1) // 2
    letters = None if length > MAX_WORD_LETTERS else _block_swap(0, a, b) if name == "sigma" else _cable_kappa(a, b)
    return Summary(types, letters, length, True)


def _joined(types: tuple, head: Summary, tail: Summary, shift: int) -> Summary:
    """head's summary made the product's: head's letters, then tail's with strands
    shifted, unless the product's word passes the cap."""
    head.length += tail.length
    if head.length > MAX_WORD_LETTERS:
        head.letters = None
    else:  # neither factor's word is longer than the product's, so both are built
        head.letters.extend(((i + shift, e) for i, e in tail.letters) if shift else tail.letters)
    head._types, head.braids = types, head.braids or tail.braids
    return head


# The summary rule of each node kind, from the node's (domain, codomain) and
# fields, a child standing for its summary.  No word is shorter than a
# child's, so checking each length against MAX_WORD_LETTERS before building
# its word bounds the whole word.  A product's right factor's strands follow
# its left factor's; typing keeps the module-typed factor (the only one with
# pole windings) on the left.
SUMMARY_RULES = {
    Id: lambda types, obj: Summary(types, [], 0, False),
    Gen: _gen_summary,
    Inv: lambda types, f: Summary(
        types, None if f.letters is None else [(i, -e) for i, e in reversed(f.letters)], f.length, f.braids
    ),
    Vert: lambda types, after, before: _joined(types, before, after, 0),
    TensorMor: lambda types, left, right: _joined(types, left, right, left._types[0].n_strands),
    ActMor: lambda types, module, algebra: _joined(types, module, algebra, module._types[0].n_strands),
    PhiMor: lambda types, f: Summary(
        types, None if f.letters is None else [(types[0].n_strands - i, e) for i, e in f.letters], f.length, f.braids
    ),
}


def summarize(kind: type, args, table: dict, held: list) -> Summary | None:
    """The Summary of ``kind(*args)``, typed through table by ``TYPE_RULES``: the
    parser's rule for ``coherence check``.  Once a typing error is held, None."""
    if held:
        return None
    try:
        types = TYPE_RULES[kind](table, *args)
    except TypingError as exc:
        held.append(exc)
        return None
    return SUMMARY_RULES[kind](types, *args)


def summary(f: MorExpr | Summary) -> Summary:
    """f's Summary; a tree is typed first, so its first typing error is raised as ``validate`` raises it."""
    if type(f) is Summary:
        return f
    validate(f)
    return replay(f, summarize, {}, [])


def _word(s: Summary) -> BraidWord:
    if s.letters is None:
        raise SizeCapError(f"underlying braid word of {s.length} letters exceeds the cap of {MAX_WORD_LETTERS}")
    dom = s._types[0]
    return BraidWord(max(1, dom.n_strands), tuple(s.letters), is_module(dom))


def extract_braid(f: MorExpr | Summary) -> BraidWord:
    """Underlying braid of a presentation; cylinder word iff f is M-typed.

    A word of more than MAX_WORD_LETTERS letters is refused with SizeCapError.
    """
    return _word(summary(f))


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


def check(lhs: MorExpr | Summary, rhs: MorExpr | Summary, flavor: str) -> Verdict:
    """Decide whether the diagram lhs = rhs, each side a tree or its Summary,
    commutes under the given flavor.  A word past the cap is refused last."""
    if flavor not in FLAVORS:
        raise FlavorError(f"unknown flavor {flavor!r}")
    lhs, rhs = summary(lhs), summary(rhs)
    sig_dom_l, sig_cod_l = map(signature, lhs._types)
    sig_dom_r, sig_cod_r = map(signature, rhs._types)
    if sig_dom_l != sig_dom_r or sig_cod_l != sig_cod_r:
        return Verdict(
            NOT_PARALLEL,
            detail=(
                f"domains {_signature_text(sig_dom_l)} vs {_signature_text(sig_dom_r)}; "
                f"codomains {_signature_text(sig_cod_l)} vs {_signature_text(sig_cod_r)}"
            ),
        )
    if flavor == "monoidal":
        if lhs.braids or rhs.braids:
            raise FlavorError("a monoidal-flavor diagram mentions sigma or kappa")
        return Verdict(COMMUTES, detail="parallel braiding-free structural isomorphisms")

    wl = _word(lhs)
    wr = _word(rhs)
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
