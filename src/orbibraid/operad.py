"""Connected components of the two-colored orbifold disk operation spaces.

An operation with d two-sided disk inputs is classified, up to isotopy, by
a tuple eps in {0,1}^d saying which half of the target each disk's marked
half lands in, together with the permutation ranking the disks by their
canonical representatives (nearest the pole first when the target has a
pole, left to right otherwise).  At most one input is the pole (module)
input, and it comes first, so a class is its output colour, whether it has
that input, eps and perm.  This module implements that discrete shadow:
enumeration, the object a class builds in the categorical algebra
(``op_object``), the composition law, and a one-dimensional interval model
as its oracle.

Composition is substitution: ``compose(g, fs, outer_perm)`` plugs the
object of ``fs[j]`` into input ``outer_perm[j]`` of the object of ``g``
and reads the class off the signed signature (``op_of_signature``).  Phi
is anti-monoidal, so a block in a mirrored slot comes out reversed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .dsl.objects import ALeaf, Act, AUnit, MLeaf, MUnit, ObjectExpr, Phi, SignedSignature, Tensor, signature
from .errors import MAX_INDEX_DIGITS, ArityError, GeometryError, TypingError
from .record import Record

# The two colours: the free double disk and the pole disk.
D = "D"
DSTAR = "Dstar"


def parse_color(text: str) -> str:
    if text not in (D, DSTAR):
        raise TypingError(f"unknown color {text!r}")
    return text


def parse_ranks(text: str) -> tuple[int, ...]:
    """Ranks counted from 1, separated by whitespace, as positions counted from 0."""
    ranks = text.split()
    for r in ranks:
        if not (r.isascii() and r.isdigit()):
            raise TypingError(f"a rank is a decimal number, found {r!r}")
        if len(r) > MAX_INDEX_DIGITS:
            raise TypingError(f"a rank has at most {MAX_INDEX_DIGITS} digits, found {len(r)}")
    return tuple(int(r) - 1 for r in ranks)


Perm = tuple[int, ...]

MAX_DISK_INPUTS = 7  # 2^7 7! = 645,120 classes, the largest listing classify builds


class SignedOp(Record):
    """pi_0 class of an operation: output colour, pole input, sign tuple, and ranking permutation.

    The inputs are the pole input when ``has_module_input``, then one D
    input per entry of ``eps``.  ``eps`` and ``perm`` are indexed over the
    D inputs only (the pole input carries no sign).  ``perm[r]`` is the D
    input occupying rank r.
    """

    __slots__ = __match_args__ = ("output", "has_module_input", "eps", "perm")

    def __init__(self, output: str, has_module_input: bool, eps: tuple[int, ...], perm: Perm):
        if parse_color(output) == D and has_module_input:
            raise TypingError("no operation targets the free double disk from a pole input")
        if any(e not in (0, 1) for e in eps):
            raise TypingError("eps entries must be 0 or 1")
        if sorted(perm) != list(range(len(eps))):
            raise TypingError("perm is not a permutation")
        super().__init__(output, has_module_input, eps, perm)

    @property
    def inputs(self) -> tuple[str, ...]:
        return (DSTAR,) * self.has_module_input + (D,) * len(self.eps)

    @property
    def arity(self) -> int:
        return self.has_module_input + len(self.eps)

    @property
    def d_arity(self) -> int:
        return len(self.eps)

    def to_text(self) -> str:
        bits = "".join(map(str, self.eps))
        perm = " ".join([str(v + 1) for v in self.perm])
        return f"op {self.output} [{','.join(self.inputs)}] eps={bits} perm={perm}"


# The text ``SignedOp.to_text`` writes: output, inputs, eps bits, and perm ranks counted from 1.
# Compiled on first use, through re's cache, so importing the module compiles nothing.
_OP_TEXT = r"op\s+(\S+)\s+\[([^][]*)\]\s+eps=([01]*)\s+perm=([0-9]+(?:\s+[0-9]+)*)?"


def parse_signed_op(text: str) -> SignedOp:
    """Read ``op <output> [<inputs>] eps=<bits> perm=<ranks>``, and nothing else.

    The inputs are colours separated by commas, the pole input first when
    there is one; eps holds one bit per D input, and perm lists the D
    inputs in rank order.
    """
    match = re.fullmatch(_OP_TEXT, text.strip(), re.ASCII)
    if match is None:
        raise TypingError(f"cannot parse signed operation {text!r}")
    output, body, bits, ranks = match.groups()
    inputs = [parse_color(c.strip()) for c in body.split(",")] if body.strip() else []
    poles = inputs.count(DSTAR)
    if poles > 1:
        raise TypingError("at most one pole input is allowed")
    if poles and inputs[0] != DSTAR:
        raise TypingError("the pole input must come first in the canonical order")
    eps, perm = tuple(map(int, bits)), parse_ranks(ranks or "")
    if len(eps) != len(inputs) - poles or len(perm) != len(eps):
        raise TypingError("eps and perm must be indexed by the D inputs")
    return SignedOp(parse_color(output), poles == 1, eps, perm)


def classify(k: int, output: str, input_colors) -> list[SignedOp]:
    """All 2^d d! classes with the given colors; empty when the space is empty.

    The input colors may come in any order: a class keeps only whether one
    of them is the pole input.  More than MAX_DISK_INPUTS disk inputs are
    refused before any class is built.
    """
    output, input_colors = parse_color(output), tuple(map(parse_color, input_colors))
    if k != len(input_colors):
        raise ArityError(f"arity {k} does not match {len(input_colors)} input colors")
    poles = input_colors.count(DSTAR)
    if poles > (output == DSTAR):  # no pole input into D, at most one into Dstar
        return []
    d = k - poles
    if d > MAX_DISK_INPUTS:
        raise ArityError(f"{d} disk inputs exceed the cap of {MAX_DISK_INPUTS} (2^d d! classes)")
    ranks = list(itertools.permutations(range(d)))
    return [SignedOp(output, poles == 1, eps, perm) for eps in itertools.product((0, 1), repeat=d) for perm in ranks]


# ---------------------------------------------------------------------------
# Operation classes as objects of the categorical algebra.


def _tensor_all(factors: list[ObjectExpr]) -> ObjectExpr:
    """Tensor product in order, bracketed pairwise: ``signature`` joins the strand tuples of
    every node, so a right-nested chain would copy O(d^2) strands (``test_op_object_tensor_is_balanced``
    pins the depth)."""
    if not factors:
        return AUnit()
    while len(factors) > 1:
        paired = [Tensor(a, b) for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired) :]
    return factors[0]


def op_object(op: SignedOp, leaves: list[ObjectExpr] | None = None, module: ObjectExpr | None = None) -> ObjectExpr:
    """The functor of ``op`` applied to ``leaves``: Phi^eps on each, tensored in rank order.

    Leaf i defaults to the generator X<i+1>.  A pole-disk output acts on
    ``module``: by default M with a module input, the pointing oneM without.
    """
    if leaves is None:
        leaves = [ALeaf(i + 1) for i in range(op.d_arity)]
    body = _tensor_all([Phi(leaves[i]) if op.eps[i] else leaves[i] for i in op.perm])
    if op.output == D:
        return body
    if module is None:
        module = MLeaf() if op.has_module_input else MUnit()
    return Act(module, body)


def op_of_signature(sig: SignedSignature) -> SignedOp:
    """The class whose object has signature ``sig``, its strands labelled 1..d."""
    eps = tuple(sign for _, sign in sorted(sig.strands))
    perm = tuple(label - 1 for label, _ in sig.strands)
    return SignedOp(D if sig.module is None else DSTAR, sig.module == "M", eps, perm)


def compose(g: SignedOp, fs, outer_perm: Perm | None = None) -> SignedOp:
    """Class of g . (outer_perm . (f_1 u ... u f_m)); fs[j] feeds input outer_perm[j]."""
    fs = tuple(fs)
    m = g.arity
    if len(fs) != m:
        raise ArityError(f"{g.arity}-ary operation composed with {len(fs)} arguments")
    if outer_perm is None:
        outer_perm = tuple(range(m))
    if sorted(outer_perm) != list(range(m)):
        raise TypingError("outer_perm is not a permutation of the inputs")
    inputs = g.inputs
    for slot, f in zip(outer_perm, fs):
        if inputs[slot] != f.output:
            raise TypingError(
                f"input {slot} of the outer operation expects {inputs[slot]}, got an operation with output {f.output}"
            )
    if g.has_module_input and outer_perm[0] != 0:
        raise TypingError("the module argument must be plugged into the module slot first")

    # Label the inner disks 1..d in argument order; plug each object into its slot.
    firsts = itertools.accumulate((f.d_arity for f in fs), initial=1)
    objects = [op_object(f, [ALeaf(a + i) for i in range(f.d_arity)]) for f, a in zip(fs, firsts)]
    by_slot = dict(zip(outer_perm, objects))
    module = by_slot[0] if g.has_module_input else None
    return op_of_signature(signature(op_object(g, [by_slot[pos] for pos in range(g.has_module_input, m)], module)))


# ---------------------------------------------------------------------------
# One-dimensional interval model: the geometric oracle.


class Interval(Record):
    """Marked-half image of one disk input: a closed subinterval of (-1, 1).

    ``copy`` is "b" or "r" when the target is the free double disk, None
    when the target is the pole disk (there the sign of the center plays
    that role).
    """

    __slots__ = __match_args__ = ("center", "radius", "copy")

    def __init__(self, center: Fraction, radius: Fraction, copy: str | None = None):
        super().__init__(center, radius, copy)


class IntervalConfig(Record):
    """A concrete equivariant rectilinear embedding in dimension one."""

    __slots__ = __match_args__ = ("target", "intervals", "module_radius")

    def __init__(self, target: str, intervals: tuple[Interval, ...], module_radius: Fraction | None = None):
        super().__init__(target, intervals, module_radius)


def _rep_center(target: str, iv: Interval) -> Fraction:
    if target == D:
        return iv.center if iv.copy == "b" else -iv.center
    return iv.center if iv.center > 0 else -iv.center


def _validate_config(cfg: IntervalConfig) -> None:
    if cfg.target == D and cfg.module_radius is not None:
        raise GeometryError("the free double disk has no pole input")
    if cfg.module_radius is not None and not 0 < cfg.module_radius < 1:
        raise GeometryError("module radius out of range")
    reps = []
    for iv in cfg.intervals:
        if iv.radius <= 0:
            raise GeometryError("intervals must have positive radius")
        if cfg.target == D:
            if iv.copy not in ("b", "r"):
                raise GeometryError("disks in the double disk must be tagged b or r")
        else:
            if iv.copy is not None:
                raise GeometryError("pole-disk intervals carry no copy tag")
            if abs(iv.center) <= iv.radius:
                raise GeometryError("interval overlaps the pole or its own mirror image")
        if abs(iv.center) + iv.radius >= 1:
            raise GeometryError("interval leaves the unit disk")
        rc = _rep_center(cfg.target, iv)
        reps.append((rc - iv.radius, rc + iv.radius))
        if cfg.target == DSTAR and cfg.module_radius is not None:
            if rc - iv.radius <= cfg.module_radius:
                raise GeometryError("interval overlaps the pole-disk image")
    reps.sort()
    for (lo1, hi1), (lo2, hi2) in zip(reps, reps[1:]):
        if hi1 >= lo2:
            raise GeometryError("equivariant images overlap")


def brute_force_classify_1d(cfg: IntervalConfig) -> SignedOp:
    """Read (eps, perm) off a concrete embedding; the oracle for compose."""
    _validate_config(cfg)
    # A disk is mirrored (eps 1) in the red copy of D, or on the negative half of Dstar.
    eps = tuple(int(iv.copy == "r" if cfg.target == D else iv.center < 0) for iv in cfg.intervals)
    reps = [_rep_center(cfg.target, iv) for iv in cfg.intervals]
    perm = tuple(sorted(range(len(reps)), key=reps.__getitem__))
    return SignedOp(cfg.target, cfg.module_radius is not None, eps, perm)


def realize_intervals(op: SignedOp) -> IntervalConfig:
    """A concrete embedding in the class of ``op`` (canonical representative)."""
    k = op.d_arity
    rank_of = {local: rank for rank, local in enumerate(op.perm)}
    intervals = []
    if op.output == DSTAR:
        radius = Fraction(1, 4 * (k + 1))
        module_radius = Fraction(1, 2 * (k + 1)) if op.has_module_input else None
        for local in range(k):
            rep = Fraction(rank_of[local] + 1, k + 1)
            center = rep if op.eps[local] == 0 else -rep
            intervals.append(Interval(center, radius))
    else:
        radius = Fraction(1, 2 * (k + 1))
        module_radius = None
        for local in range(k):
            rep = Fraction(2 * (rank_of[local] + 1), k + 1) - 1
            copy = "b" if op.eps[local] == 0 else "r"
            center = rep if copy == "b" else -rep
            intervals.append(Interval(center, radius, copy))
    return IntervalConfig(op.output, tuple(intervals), module_radius)


def compose_intervals(g_cfg: IntervalConfig, fs_cfgs, outer_perm: Perm | None = None) -> IntervalConfig:
    """Geometric composition of concrete embeddings (plug disks into slots)."""
    fs_cfgs = tuple(fs_cfgs)
    slots = list(g_cfg.intervals)
    has_module_slot = g_cfg.module_radius is not None
    m = len(slots) + (1 if has_module_slot else 0)
    if len(fs_cfgs) != m:
        raise ArityError(f"{m} slots but {len(fs_cfgs)} arguments")
    if outer_perm is None:
        outer_perm = tuple(range(m))
    if has_module_slot and outer_perm[0] != 0:
        raise TypingError("the module argument must be plugged into the module slot first")

    out: list[Interval] = []
    module_radius = None
    for j, f in enumerate(fs_cfgs):
        slot_idx = outer_perm[j]
        if has_module_slot and slot_idx == 0:
            lam = g_cfg.module_radius
            if f.target != DSTAR:
                raise TypingError("module slot expects a pole-disk embedding")
            for iv in f.intervals:
                out.append(Interval(iv.center * lam, iv.radius * lam))
            if f.module_radius is not None:
                module_radius = lam * f.module_radius
            continue
        slot = slots[slot_idx - (1 if has_module_slot else 0)]
        if f.target != D:
            raise TypingError("disk slots expect double-disk embeddings")
        c, rho = slot.center, slot.radius
        for iv in f.intervals:
            center = c + rho * iv.center if iv.copy == "b" else -c + rho * iv.center
            if g_cfg.target == D:
                same = slot.copy if iv.copy == "b" else ("r" if slot.copy == "b" else "b")
                out.append(Interval(center, rho * iv.radius, same))
            else:
                out.append(Interval(center, rho * iv.radius))
    return IntervalConfig(g_cfg.target, tuple(out), module_radius)
