"""Formal objects of a Z2-braided pair and their signed signatures.

An object is a tree over two sorts: A-typed trees are built from labelled
generators X_i and the tensor unit with Tensor and Phi nodes; M-typed
trees hang A-typed material off a single module generator (M or the
pointing) through Act nodes.

The signed signature flattens an object to its strand sequence.  Phi is
anti-monoidal, so it reverses the strand order of its argument and flips
each strand's sign; units contribute no strands.  Two objects can be
joined by a structural isomorphism exactly when their signatures agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TypingError


class ObjectExpr:
    """Base class for object trees."""


@dataclass(frozen=True)
class ALeaf(ObjectExpr):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise TypingError("generator labels are positive integers")


@dataclass(frozen=True)
class AUnit(ObjectExpr):
    pass


@dataclass(frozen=True)
class MLeaf(ObjectExpr):
    pass


@dataclass(frozen=True)
class MUnit(ObjectExpr):
    pass


def is_module(o: ObjectExpr) -> bool:
    if isinstance(o, (MLeaf, MUnit)):
        return True
    if isinstance(o, Act):
        return True
    return False


@dataclass(frozen=True)
class Tensor(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr

    def __post_init__(self):
        if is_module(self.left) or is_module(self.right):
            raise TypingError(f"tensor factors must be A-typed in {obj_text(self)}")


@dataclass(frozen=True)
class Phi(ObjectExpr):
    child: ObjectExpr

    def __post_init__(self):
        if is_module(self.child):
            raise TypingError(f"the involution applies to A-typed objects only in {obj_text(self)}")


@dataclass(frozen=True)
class Act(ObjectExpr):
    module: ObjectExpr
    algebra: ObjectExpr

    def __post_init__(self):
        if not is_module(self.module):
            raise TypingError(f"action expects an M-typed left argument in {obj_text(self)}")
        if is_module(self.algebra):
            raise TypingError(f"action expects an A-typed right argument in {obj_text(self)}")


# Head word of every object node but the labelled generators X<i>, shared by
# the parser and obj_text.  The arity of a node is its number of fields.
OBJECT_WORDS = {"one": AUnit, "oneM": MUnit, "M": MLeaf, "tensor": Tensor, "Phi": Phi, "act": Act}
_WORD_OF = {node: word for word, node in OBJECT_WORDS.items()}


@dataclass(frozen=True)
class SignedSignature:
    """Module marker (None for A-typed objects) plus the strand sequence."""

    module: str | None
    strands: tuple[tuple[int, int], ...]


def _strands(o: ObjectExpr) -> tuple[tuple[int, int], ...]:
    cached = getattr(o, "_strand_cache", None)
    if cached is not None:
        return cached
    if isinstance(o, ALeaf):
        out = ((o.index, 0),)
    elif isinstance(o, (AUnit, MLeaf, MUnit)):
        out = ()
    elif isinstance(o, Tensor):
        out = _strands(o.left) + _strands(o.right)
    elif isinstance(o, Phi):
        out = tuple((label, 1 - e) for label, e in reversed(_strands(o.child)))
    elif isinstance(o, Act):
        out = _strands(o.module) + _strands(o.algebra)
    else:
        raise TypingError(f"unknown object node {o!r}")
    object.__setattr__(o, "_strand_cache", out)
    return out


def signature(o: ObjectExpr) -> SignedSignature:
    walk = o
    while isinstance(walk, Act):
        walk = walk.module
    marker = _WORD_OF[type(walk)] if isinstance(walk, (MLeaf, MUnit)) else None
    return SignedSignature(marker, _strands(o))


def strand_count(o: ObjectExpr) -> int:
    return len(_strands(o))


def obj_text(o: ObjectExpr) -> str:
    if isinstance(o, ALeaf):
        return f"X{o.index}"
    word = _WORD_OF.get(type(o))
    if word is None:
        raise TypingError(f"unknown object node {o!r}")
    if not o.__match_args__:
        return word
    return f"{word}({', '.join(obj_text(getattr(o, name)) for name in o.__match_args__)})"
