"""Structural isomorphisms as syntax trees, with domain/codomain typing.

Generator leaves are instantiated at explicit object parameters; vertical
composition demands syntactic equality at the seam (users insert explicit
associators).  Each generator's domain and codomain are written once, as
programs over tensor, action, Phi and the unit (``GENERATORS``); the same
programs type an instance and build the functor image used in whiskering.

Horizontal composition ``horiz(outer; inners)`` whiskers morphisms into the
parameter slots of a generator instance.  It is surface syntax only, with no
node of its own: ``desugar_horiz`` builds the Vert of the re-instantiated
generator with the functor image of the inners, and the parser calls it as
it reads each ``horiz`` (``mor_text`` of a parsed ``horiz`` renders its
expansion).

Every pass over a tree, equality, hashing, repr and pickle included, is a
post-order ``fold`` on an explicit stack, so the depth of a tree is not
limited by the interpreter's recursion limit.

Nodes are records (``record.Record``), each keeping its (domain,
codomain) in ``_types``.  Typing is one rule per node kind (``TYPE_RULES``)
on the children's ``_types``, building every domain and codomain through
one ``share`` table (see ``objects``): objects are shared within one call,
so the two sides of a vertical seam are one node when they are equal
(else compared by ``tree_key``), and no object is built twice.  The parser's default
rule, ``build``, makes each node typed, its fields and ``_types`` written
once; ``validate`` folds the same rules over a tree built by hand, and
``replay`` hands a tree's nodes to another rule, as the parser would.
"""

from __future__ import annotations

import operator
from functools import partial

from ..errors import TypingError
from ..record import Record, set_slot
from .objects import Act, AUnit, ObjectExpr, Phi, Tensor, fold, is_module, obj_text, share
from .objects import tree_eq, tree_hash, tree_reduce, tree_repr


class MorExpr(Record):
    """A morphism node: a record whose ``_types`` slot, outside its fields,
    keeps its (domain, codomain) once typed, else None."""

    __slots__ = ("_types",)
    __eq__, __hash__, __repr__, __reduce__ = tree_eq, tree_hash, tree_repr, tree_reduce
    __copy__ = __deepcopy__ = ObjectExpr.__copy__

    def __init__(self, *values):
        super().__init__(*values)
        set_slot(self, "_types", None)

    def children(self) -> tuple[MorExpr, ...]:
        return ()

    def rebuild(self, kids) -> MorExpr:
        """The same node over new children; the node itself if none changed."""
        if all(map(operator.is_, kids, self.children())):
            return self
        return type(self)(*kids)


class Id(MorExpr):
    __slots__ = __match_args__ = ("obj",)


class Gen(MorExpr):
    __slots__ = __match_args__ = ("name", "params")


class Inv(MorExpr):
    __slots__ = __match_args__ = ("inner",)

    def children(self):
        return (self.inner,)


class Vert(MorExpr):
    __slots__ = __match_args__ = ("after", "before")  # before is applied first

    def children(self):
        return (self.after, self.before)


class TensorMor(MorExpr):
    __slots__ = __match_args__ = ("left", "right")

    def children(self):
        return (self.left, self.right)


class ActMor(MorExpr):
    __slots__ = __match_args__ = ("module", "algebra")

    def children(self):
        return (self.module, self.algebra)


class PhiMor(MorExpr):
    __slots__ = __match_args__ = ("inner",)

    def children(self):
        return (self.inner,)


# Surface keyword of each composite node, shared by the parser and mor_text.
KEYWORDS = {"inv": Inv, "vert": Vert, "tens": TensorMor, "act": ActMor, "phi": PhiMor}
_KEYWORD_OF = {node: word for word, node in KEYWORDS.items()}


def unexpected(f: MorExpr, *_):  # takes a rule's other arguments, to stand in for it
    raise TypingError(f"no rule for a {type(f).__name__} node")


ONE = AUnit()

# Parameter sorts, domain and codomain of each generator, each end as a
# postfix program: a parameter index or ONE (the tensor unit) pushes an
# object; Tensor and Act take the two objects on top, Phi the one on top.
GENERATORS: dict[str, tuple[str, tuple, tuple]] = {
    "alpha": ("AAA", (0, 1, Tensor, 2, Tensor), (0, 1, 2, Tensor, Tensor)),
    "lambda": ("A", (ONE, 0, Tensor), (0,)),
    "rho": ("A", (0, ONE, Tensor), (0,)),
    "a": ("MAA", (0, 1, Act, 2, Act), (0, 1, 2, Tensor, Act)),
    "r": ("M", (0, ONE, Act), (0,)),
    "sigma": ("AA", (0, 1, Tensor), (1, 0, Tensor)),
    "kappa": ("MA", (0, 1, Act), (0, 1, Phi, Act)),
    "phi2": ("AA", (0, Phi, 1, Phi, Tensor), (1, 0, Tensor, Phi)),
    "phi0": ("", (ONE, Phi), (ONE,)),
    "t": ("A", (0, Phi, Phi), (0,)),
}

_MOR_OF_OBJ = {Tensor: TensorMor, Act: ActMor, Phi: PhiMor}


def _fill(program: tuple, slots: tuple, table: dict, on_morphisms: bool = False):
    """A generator's end at objects, built through table, or at morphisms
    (the functor image, for whiskering)."""
    values = []
    for op in program:
        if type(op) is int:
            values.append(slots[op])
        elif op is ONE:
            one = share(table, AUnit)
            values.append(Id(one) if on_morphisms else one)
        elif op is Phi:
            values[-1] = PhiMor(values[-1]) if on_morphisms else share(table, Phi, values[-1])
        else:
            b = values.pop()
            values[-1] = _MOR_OF_OBJ[op](values[-1], b) if on_morphisms else share(table, op, values[-1], b)
    return values[0]


def _check_gen(name: str, params: tuple[ObjectExpr, ...]) -> tuple[str, tuple, tuple]:
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
    table = {} if table is None else table
    inverted = isinstance(outer, Inv) and isinstance(outer.inner, Gen)
    gen = outer.inner if inverted else outer
    if isinstance(gen, Id):
        slots = (gen.obj,)
        if len(inners) != 1:
            raise TypingError("identity whiskering takes exactly one inner morphism")
    elif isinstance(gen, Gen):
        _, dom_program, cod_program = _check_gen(gen.name, gen.params)
        slots = gen.params
        if len(inners) != len(slots):
            raise TypingError(f"{gen.name} has {len(slots)} slots, got {len(inners)} inner morphisms")
    else:
        raise TypingError("the outer morphism of a horizontal composition must be a generator instance")
    for p, inner in zip(slots, inners):
        dom = validate(inner, table)[0]
        if dom != p:
            raise TypingError(f"inner morphism starts at {obj_text(dom)}, slot is {obj_text(p)}")
    if isinstance(gen, Id):
        return inners[0]
    if not inners:
        return outer
    new_gen = Gen(gen.name, tuple(codomain(inner) for inner in inners))
    if inverted:
        return Vert(Inv(new_gen), _fill(cod_program, inners, table, on_morphisms=True))
    return Vert(new_gen, _fill(dom_program, inners, table, on_morphisms=True))


def _gen_types(table: dict, name: str, params: tuple) -> tuple[ObjectExpr, ObjectExpr]:
    _, dom_program, cod_program = _check_gen(name, params)
    return _fill(dom_program, params, table), _fill(cod_program, params, table)


def _vert_types(table: dict, after: MorExpr, before: MorExpr) -> tuple[ObjectExpr, ObjectExpr]:
    need, cod = after._types
    dom, seam = before._types
    if seam is not need and seam != need:
        raise TypingError(
            f"vertical seam mismatch: first factor ends at {obj_text(seam)}, second starts at {obj_text(need)}"
        )
    return dom, cod


def _image_types(node: type, table: dict, *kids: MorExpr) -> tuple[ObjectExpr, ObjectExpr]:
    """Both ends of a TensorMor, ActMor or PhiMor: node over its children's."""
    if len(kids) == 1:
        dom, cod = kids[0]._types
        return share(table, node, dom), share(table, node, cod)
    (dom, cod), (dom2, cod2) = kids[0]._types, kids[1]._types
    return share(table, node, dom, dom2), share(table, node, cod, cod2)


# The typing rule of each node kind: (domain, codomain) from the node's
# fields, through table; a child's types are read from its _types.
TYPE_RULES = {
    Id: lambda table, obj: (obj, obj),
    Gen: _gen_types,
    Inv: lambda table, inner: inner._types[::-1],
    Vert: _vert_types,
    TensorMor: partial(_image_types, Tensor),
    ActMor: partial(_image_types, Act),
    PhiMor: partial(_image_types, Phi),
}


def build(kind: type, args, table: dict, held: list) -> MorExpr:
    """``kind(*args)``, typed by its rule through table, unless held has a
    typing error: then untyped, and the first error a rule raises is held.
    The parser builds in ``validate``'s post-order, so it holds its error."""
    f = object.__new__(kind)
    for name, value in zip(kind.__match_args__, args):
        set_slot(f, name, value)
    types = None
    if not held:
        try:
            types = TYPE_RULES[kind](table, *args)
        except TypingError as exc:
            held.append(exc)
    set_slot(f, "_types", types)
    return f


def validate(f: MorExpr, table: dict | None = None) -> tuple[ObjectExpr, ObjectExpr]:
    """Type-check f fully; returns (domain, codomain), cached on every node.

    Objects are built through table, a table of this call's own if None.
    """
    if f._types is not None:
        return f._types
    table = {} if table is None else table

    def types_of(g: MorExpr, _) -> tuple[ObjectExpr, ObjectExpr]:
        rule = TYPE_RULES.get(type(g))
        if rule is None:
            unexpected(g)
        return rule(table, *g.fields())

    return fold(f, types_of, "_types")


def replay(f: MorExpr, rule, table: dict, held: list):
    """f built again bottom up by rule, called as the parser calls it, each
    child standing for what rule made of it in the node's fields."""
    return fold(f, lambda g, kids: rule(type(g), kids or g.fields(), table, held))


def domain(f: MorExpr) -> ObjectExpr:
    return validate(f)[0]


def codomain(f: MorExpr) -> ObjectExpr:
    return validate(f)[1]


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
