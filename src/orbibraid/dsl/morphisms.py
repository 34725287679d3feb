"""Structural isomorphisms as syntax trees, with domain/codomain typing.

Generator leaves are instantiated at explicit object parameters; vertical
composition demands syntactic equality at the seam (users insert explicit
associators).  Each generator's domain and codomain are written once, as
shapes over tensor, action, Phi and the unit (``GENERATORS``); the same
shapes type an instance and build the functor image used in whiskering.

Horizontal composition ``horiz(outer; inners)`` whiskers morphisms into the
parameter slots of a generator instance.  It is surface syntax only, with no
node of its own: ``desugar_horiz`` builds the Vert of the re-instantiated
generator with the functor image of the inners, and the parser calls it as
it reads each ``horiz`` (``mor_text`` of a parsed ``horiz`` renders its
expansion).

Every pass over a tree is a post-order ``fold`` on an explicit stack, so
the depth of a tree is not limited by the interpreter's recursion limit.

Typing is one rule, ``_types``, that builds every domain and codomain
through one ``share`` table (see ``objects``): objects are shared within
one call, so the two sides of a vertical seam are the same node whenever
they are equal, and no object is built or sort-checked twice.  Each node
keeps its (domain, codomain) in ``_types``.  ``parse_mor`` applies the
rule to each node as the parser closes it (``typed``), through the table
it parses with; ``validate`` folds it over a tree built by hand, through
a table of its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

from ..errors import TypingError
from .objects import Act, AUnit, ObjectExpr, Phi, Tensor, fold, is_module, obj_text, same, share


class MorExpr:
    _types = None  # (domain, codomain) once typed

    def children(self) -> tuple[MorExpr, ...]:
        return ()

    def rebuild(self, kids) -> MorExpr:
        """The same node over new children; the node itself if none changed."""
        if all(map(operator.is_, kids, self.children())):
            return self
        return type(self)(*kids)


@dataclass(frozen=True)
class Id(MorExpr):
    obj: ObjectExpr


@dataclass(frozen=True)
class Gen(MorExpr):
    name: str
    params: tuple[ObjectExpr, ...]


@dataclass(frozen=True)
class Inv(MorExpr):
    inner: MorExpr

    def children(self):
        return (self.inner,)


@dataclass(frozen=True)
class Vert(MorExpr):
    after: MorExpr
    before: MorExpr  # applied first

    def children(self):
        return (self.after, self.before)


@dataclass(frozen=True)
class TensorMor(MorExpr):
    left: MorExpr
    right: MorExpr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class ActMor(MorExpr):
    module: MorExpr
    algebra: MorExpr

    def children(self):
        return (self.module, self.algebra)


@dataclass(frozen=True)
class PhiMor(MorExpr):
    inner: MorExpr

    def children(self):
        return (self.inner,)


# Surface keyword of each composite node, shared by the parser and mor_text.
KEYWORDS = {"inv": Inv, "vert": Vert, "tens": TensorMor, "act": ActMor, "phi": PhiMor}
_KEYWORD_OF = {node: word for word, node in KEYWORDS.items()}


def unexpected(f: MorExpr):
    raise TypingError(f"no rule for a {type(f).__name__} node")


ONE = AUnit()

# Parameter sorts, domain shape and codomain shape of each generator.  A
# shape is a parameter index, ONE (the tensor unit) or (Tensor | Act | Phi,
# *shapes).
GENERATORS: dict[str, tuple[str, object, object]] = {
    "alpha": ("AAA", (Tensor, (Tensor, 0, 1), 2), (Tensor, 0, (Tensor, 1, 2))),
    "lambda": ("A", (Tensor, ONE, 0), 0),
    "rho": ("A", (Tensor, 0, ONE), 0),
    "a": ("MAA", (Act, (Act, 0, 1), 2), (Act, 0, (Tensor, 1, 2))),
    "r": ("M", (Act, 0, ONE), 0),
    "sigma": ("AA", (Tensor, 0, 1), (Tensor, 1, 0)),
    "kappa": ("MA", (Act, 0, 1), (Act, 0, (Phi, 1))),
    "phi2": ("AA", (Tensor, (Phi, 0), (Phi, 1)), (Phi, (Tensor, 1, 0))),
    "phi0": ("", (Phi, ONE), ONE),
    "t": ("A", (Phi, (Phi, 0)), 0),
}

_OBJ_OF_MOR = {TensorMor: Tensor, ActMor: Act, PhiMor: Phi}
_MOR_OF_OBJ = {obj: mor for mor, obj in _OBJ_OF_MOR.items()}


def _fill(shape, slots: tuple, table: dict, on_morphisms: bool = False):
    """A shape at objects, built through table, or at morphisms (the functor
    image, for whiskering)."""
    if type(shape) is int:
        return slots[shape]
    if shape is ONE:
        one = share(table, AUnit)
        return Id(one) if on_morphisms else one
    node, *args = shape
    args = [_fill(a, slots, table, on_morphisms) for a in args]
    return _MOR_OF_OBJ[node](*args) if on_morphisms else share(table, node, *args)


def _check_gen(name: str, params: tuple[ObjectExpr, ...]) -> tuple[str, object, object]:
    entry = GENERATORS.get(name)
    if entry is None:
        raise TypingError(f"unknown generator {name!r}")
    kinds = entry[0]
    if len(params) != len(kinds):
        raise TypingError(f"{name} expects {len(kinds)} parameters, got {len(params)}")
    for kind, p in zip(kinds, params):
        if (kind == "M") != is_module(p):
            raise TypingError(f"{name} parameter {obj_text(p)} has the wrong sort")
    return entry


def desugar_horiz(outer: MorExpr, inners, table: dict | None = None) -> MorExpr:
    """The morphism ``horiz(outer; inners)`` stands for.

    The inners are typed through table (a table of its own if None).
    """
    if table is None:
        table = {}
    inverted = isinstance(outer, Inv) and isinstance(outer.inner, Gen)
    gen = outer.inner if inverted else outer
    if isinstance(gen, Id):
        slots = (gen.obj,)
        if len(inners) != 1:
            raise TypingError("identity whiskering takes exactly one inner morphism")
    elif isinstance(gen, Gen):
        _, dom_shape, cod_shape = _check_gen(gen.name, gen.params)
        slots = gen.params
        if len(inners) != len(slots):
            raise TypingError(f"{gen.name} has {len(slots)} slots, got {len(inners)} inner morphisms")
    else:
        raise TypingError("the outer morphism of a horizontal composition must be a generator instance")
    for p, inner in zip(slots, inners):
        dom = validate(inner, table)[0]
        if not same(dom, p):
            raise TypingError(f"inner morphism starts at {obj_text(dom)}, slot is {obj_text(p)}")
    if isinstance(gen, Id):
        return inners[0]
    if not inners:
        return outer
    new_gen = Gen(gen.name, tuple(codomain(inner) for inner in inners))
    if inverted:
        return Vert(Inv(new_gen), _fill(cod_shape, inners, table, on_morphisms=True))
    return Vert(new_gen, _fill(dom_shape, inners, table, on_morphisms=True))


def _types(table: dict, f: MorExpr, kids: list) -> tuple[ObjectExpr, ObjectExpr]:
    kind = type(f)
    if kind is Id:
        return f.obj, f.obj
    if kind is Gen:
        _, dom_shape, cod_shape = _check_gen(f.name, f.params)
        return _fill(dom_shape, f.params, table), _fill(cod_shape, f.params, table)
    if kind is Inv:
        dom, cod = kids[0]
        return cod, dom
    if kind is Vert:
        (need, cod), (dom, seam) = kids
        if seam is not need and not same(seam, need):
            raise TypingError(
                f"vertical seam mismatch: first factor ends at {obj_text(seam)}, "
                f"second starts at {obj_text(need)}"
            )
        return dom, cod
    node = _OBJ_OF_MOR.get(kind)
    if node is None:
        unexpected(f)
    if len(kids) == 1:
        ((dom, cod),) = kids
        return share(table, node, dom), share(table, node, cod)
    (dom, cod), (dom2, cod2) = kids
    return share(table, node, dom, dom2), share(table, node, cod, cod2)


def typed(f: MorExpr, table: dict, held: list) -> MorExpr:
    """f, its children typed, with its types cached, unless held has a typing
    error: then f stays untyped, and the first error f raises is held.  The
    parser closes nodes in ``validate``'s post-order, so the same error."""
    if not held:
        try:
            object.__setattr__(f, "_types", _types(table, f, [kid._types for kid in f.children()]))
        except TypingError as exc:
            held.append(exc)
    return f


def validate(f: MorExpr, table: dict | None = None) -> tuple[ObjectExpr, ObjectExpr]:
    """Type-check f fully; returns (domain, codomain), cached on every node.

    Objects are built through table, a table of this call's own if None.
    """
    types = f._types
    if types is not None:
        return types
    return fold(f, partial(_types, {} if table is None else table), "_types")


def domain(f: MorExpr) -> ObjectExpr:
    return validate(f)[0]


def codomain(f: MorExpr) -> ObjectExpr:
    return validate(f)[1]


def mentions_braiding(f: MorExpr) -> bool:
    """Whether any sigma or kappa instance occurs in the presentation."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Gen) and g.name in ("sigma", "kappa"):
            return True
        stack.extend(g.children())
    return False


def _text(f: MorExpr, kids: list) -> str:
    if isinstance(f, Id):
        return f"id({obj_text(f.obj)})"
    if isinstance(f, Gen):
        return f"{f.name}({', '.join(obj_text(p) for p in f.params)})"
    word = _KEYWORD_OF.get(type(f))
    if word is None:
        unexpected(f)
    return f"{word}({', '.join(kids)})"


def mor_text(f: MorExpr) -> str:
    return fold(f, _text)
