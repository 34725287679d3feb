"""Formal objects of a Z2-braided pair and their signed signatures.

An object is a tree over two sorts: A-typed trees are built from labelled
generators X_i and the tensor unit with Tensor and Phi nodes; M-typed
trees hang A-typed material off a single module generator (M or the
pointing) through Act nodes.

The signed signature flattens an object to its strand sequence.  Phi is
anti-monoidal, so it reverses the strand order of its argument and flips
each strand's sign; units contribute no strands.  Two objects can be
joined by a structural isomorphism exactly when their signatures agree.

Objects are shared within one call: the parser and each typing pass
build their objects through one ``share`` table, keyed by node type and
the identity of each child (the parser keys a label by its spelling), so
equal objects read or typed in that call are one node, but for a label
spelled two ways (``X1``, ``X01``), and each node runs its sort checks
once.  The table lives only as long as the call.  Every walk over an
object (signature, text, hash, repr, the ``tree_key`` that equality and
pickle read) is one post-order ``fold`` on an explicit stack, so depth
costs no interpreter frames.  Each node gets its strand count
``n_strands`` as it is built; the strand sequence is folded only when a
signature asks for it (kept on every node, a deep comb would hold
quadratically many strands).
"""

from __future__ import annotations

from ..errors import TypingError
from ..record import Record, set_slot


class _Hashed:
    """A subtree's hash, standing in a tuple for the subtree: the tuple hashes as over the subtree."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _hash_rule(node, kids: list) -> _Hashed:
    # A node with children has no other fields.
    return _Hashed(hash(tuple(kids) if kids else node.fields()))


def _repr_rule(node, kids: list) -> str:
    fields = zip(node.__match_args__, kids or map(repr, node.fields()))
    return f"{type(node).__name__}({', '.join(f'{n}={t}' for n, t in fields)})"


def tree_key(t) -> tuple:
    """The tree as a flat post-order tuple of (class, scalar fields, child indices), each
    distinct subtree listed once, so equal trees have equal keys however their nodes are
    shared.  A node with children has no other fields; a morphism leaf's objects are fields."""
    entries: dict = {}

    def listed(node, kids: list) -> int:
        return entries.setdefault((type(node), () if kids else node.fields(), tuple(kids)), len(entries))

    fold(t, listed)
    return tuple(entries)


def tree_eq(a, b):
    """``a == b`` for objects and morphisms, as ``Record.__eq__`` decides it."""
    if type(b) is not type(a):
        return NotImplemented
    return a is b or tree_key(a) == tree_key(b)


def tree_hash(t) -> int:
    return fold(t, _hash_rule).value


def tree_repr(t) -> str:
    return fold(t, _repr_rule)


def tree_reduce(t):
    """``__reduce__`` for objects and morphisms: the ``tree_key``, which pickles and rebuilds
    without recursion, one node per distinct subtree; pickle writes the objects a
    morphism leaf holds each as a key of its own."""
    return _rebuild_tree, (tree_key(t),)


def _rebuild_tree(entries: tuple):
    nodes: list = []
    for kind, fields, kids in entries:
        nodes.append(kind(*fields, *map(nodes.__getitem__, kids)))
    return nodes[-1]


class ObjectExpr(Record):
    """Base class for object trees; the nullary nodes build through its constructor."""

    __slots__ = ("n_strands",)  # the strand count, set as the node is built
    __eq__, __hash__, __repr__, __reduce__ = tree_eq, tree_hash, tree_repr, tree_reduce
    __copy__ = __deepcopy__ = lambda self, memo=None: self  # an immutable node is its own copy

    def __init__(self):
        set_slot(self, "n_strands", 0)

    def children(self) -> tuple[ObjectExpr, ...]:
        return ()


class ALeaf(ObjectExpr):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise TypingError("generator labels are positive integers")
        set_slot(self, "index", index)
        set_slot(self, "n_strands", 1)


class AUnit(ObjectExpr):
    __slots__ = ()


class MLeaf(ObjectExpr):
    __slots__ = ()


class MUnit(ObjectExpr):
    __slots__ = ()


def is_module(o: ObjectExpr) -> bool:
    return type(o) in _MODULE_NODES


class Tensor(ObjectExpr):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: ObjectExpr, right: ObjectExpr):
        set_slot(self, "left", left)
        set_slot(self, "right", right)
        if is_module(left) or is_module(right):
            raise TypingError(f"tensor factors must be A-typed in {obj_text(self)}")
        set_slot(self, "n_strands", left.n_strands + right.n_strands)

    def children(self):
        return (self.left, self.right)


class Phi(ObjectExpr):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: ObjectExpr):
        set_slot(self, "child", child)
        if is_module(child):
            raise TypingError(f"the involution applies to A-typed objects only in {obj_text(self)}")
        set_slot(self, "n_strands", child.n_strands)

    def children(self):
        return (self.child,)


class Act(ObjectExpr):
    __slots__ = __match_args__ = ("module", "algebra")

    def __init__(self, module: ObjectExpr, algebra: ObjectExpr):
        set_slot(self, "module", module)
        set_slot(self, "algebra", algebra)
        if not is_module(module):
            raise TypingError(f"action expects an M-typed left argument in {obj_text(self)}")
        if is_module(algebra):
            raise TypingError(f"action expects an A-typed right argument in {obj_text(self)}")
        set_slot(self, "n_strands", module.n_strands + algebra.n_strands)

    def children(self):
        return (self.module, self.algebra)


# Head word of every object node but the labelled generators X<i>, shared by
# the parser and obj_text.  The arity of a node is its number of fields.
OBJECT_WORDS = {"one": AUnit, "oneM": MUnit, "M": MLeaf, "tensor": Tensor, "Phi": Phi, "act": Act}
_WORD_OF = {node: word for word, node in OBJECT_WORDS.items()}
_MODULE_NODES = frozenset((MLeaf, MUnit, Act))


def fold(f, rule, slot: str | None = None):
    """Post-order fold ``rule(node, values of its children)``, on an explicit stack.

    Works on any tree whose nodes list their subtrees in ``children()``:
    objects and morphisms.  With ``slot``, each node keeps its value under
    that attribute (None until then), and later folds with the same slot
    reuse it without descending.
    """
    values: list = []
    stack: list = [f]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, children), the children's values are on top
            node, kids = node
            cut = len(values) - len(kids)
            value = rule(node, values[cut:])
            del values[cut:]
        elif slot is not None and (cached := getattr(node, slot)) is not None:
            values.append(cached)
            continue
        else:
            kids = node.children()
            if kids:
                stack.append((node, kids))
                stack.extend(reversed(kids))
                continue
            value = rule(node, kids)
        if slot is not None:
            set_slot(node, slot, value)
        values.append(value)
    return values[0]


def share(table: dict, node: type, a: ObjectExpr | None = None, b: ObjectExpr | None = None) -> ObjectExpr:
    """``node`` over the children given, or the node that table already holds for it.

    The key is the node type and the identity of each child (one shape for
    every arity), so children must have come out of the same table for
    equal objects to be one node; the table keeps every node it made, and
    with it every key, alive.
    """
    key = (node, id(a), id(b))
    found = table.get(key)
    if found is None:
        found = table[key] = node() if a is None else node(a) if b is None else node(a, b)
    return found


class SignedSignature(Record):
    """Module marker (None for A-typed objects) plus the strand sequence."""

    __slots__ = __match_args__ = ("module", "strands")


def _strand_rule(o: ObjectExpr, kids: list) -> tuple[tuple[int, int], ...]:
    kind = type(o)
    if kind is ALeaf:
        return ((o.index, 0),)
    if kind is Phi:
        return tuple((label, 1 - e) for label, e in reversed(kids[0]))
    if kind in _WORD_OF:
        return sum(kids, ())
    raise TypingError(f"unknown object node {o!r}")


def signature(o: ObjectExpr) -> SignedSignature:
    walk = o
    while isinstance(walk, Act):
        walk = walk.module
    marker = _WORD_OF[type(walk)] if isinstance(walk, (MLeaf, MUnit)) else None
    return SignedSignature(marker, fold(o, _strand_rule))


def _text_rule(o: ObjectExpr, kids: list) -> str:
    if type(o) is ALeaf:
        return f"X{o.index}"
    word = _WORD_OF.get(type(o))
    if word is None:
        raise TypingError(f"unknown object node {o!r}")
    if not kids:
        return word
    return f"{word}({', '.join(kids)})"


def obj_text(o: ObjectExpr) -> str:
    return fold(o, _text_rule)
