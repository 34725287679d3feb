"""Compositional matrix semantics of structural isomorphisms.

Single-object semantics: every A-leaf denotes the object V of the bundled
representation data, the M-leaf denotes the module object.  ``eval_mor``
is a fold of one rule per node kind with the data, and every matrix that
depends on T comes from ``RepData``, under its one rule (``twisted``): a
strand in an odd state conjugates by T on its leg.  So a braiding of
strands in states (e, f) acts by flip . (T^e (x) T^f) R (T^e (x) T^f)^-1,
the pole winding of a strand in state e by (1 (x) T^e) K (1 (x) T^e)^-1,
and phi(f) by f conjugated by T on every leg.  The double-involution
retyping t is the balancing of the data, extended through the involution
by the same conjugation and to tensor factors through the ribbon rule
theta_{X (x) Y} = sigma_{Y,X} (theta_Y (x) theta_X) sigma_{X,Y}.  All the
purely structural generators are identity reindexings.  Morphisms are
normalised first so braidings act one strand at a time.
"""

from __future__ import annotations

from ..dsl.morphisms import ActMor, Gen, Id, Inv, MorExpr, PhiMor, TensorMor, Vert, domain, fold, unexpected
from ..dsl.normalize import normalize_presentation
from ..dsl.objects import ALeaf, AUnit, MLeaf, MUnit, ObjectExpr, Phi, Tensor, is_module, obj_text, signature
from ..errors import TypingError, UnsupportedGeneratorError
from .checks import _check_dim
from .qmatrix import QMatrix
from .repdata import RepData


def _state(o: ObjectExpr) -> int:
    """The state of the one strand of o."""
    strands = signature(o).strands
    if len(strands) != 1:
        raise TypingError(f"expected a single-strand object, got {obj_text(o)}")
    return strands[0][1]


def _odd(o: ObjectExpr) -> tuple[int, ...]:
    """State 1 on every strand of o: the states the involution twists o's legs by."""
    return (1,) * o.n_strands


def _dim(data: RepData, o: ObjectExpr) -> int:
    sig = signature(o)
    if sig.module == "oneM":
        raise UnsupportedGeneratorError("the module pointing has no matrix semantics")
    return (data.m if sig.module else 1) * data.d ** len(sig.strands)


def _balancing(o: ALeaf, kids: list, data: RepData) -> QMatrix:
    if data.balancing is None:
        raise UnsupportedGeneratorError("t requested but no balancing supplied and T^2 is not the identity")
    return data.balancing


def _theta_tensor(o: Tensor, kids: list, data: RepData) -> QMatrix:
    x, y = o.left, o.right
    return _eval(data, Gen("sigma", (y, x))) * kids[1].kron(kids[0]) * _eval(data, Gen("sigma", (x, y)))


# The balancing component at each node kind of an A-typed object, by the ribbon rule.
THETA_RULES = {
    AUnit: lambda o, kids, data: QMatrix.identity(1),
    ALeaf: _balancing,
    Phi: lambda o, kids, data: data.twisted(kids[0], _odd(o)),
    Tensor: _theta_tensor,
}


def _theta(data: RepData, o: ObjectExpr) -> QMatrix:
    if is_module(o):
        raise TypingError(f"balancing at a non-A-typed object {obj_text(o)}")
    return fold(o, lambda p, kids: THETA_RULES[type(p)](p, kids, data))


def _gen_matrix(f: Gen, kids: list, data: RepData) -> QMatrix:
    name = f.name
    if name in ("alpha", "lambda", "rho", "a", "r", "phi0"):
        return QMatrix.identity(_dim(data, domain(f)))
    if name == "sigma":
        x, y = f.params
        return data.braiding(_state(x), _state(y))
    if name == "kappa":
        m, x = f.params
        if isinstance(m, MUnit):
            raise UnsupportedGeneratorError("the module pointing has no K-matrix")
        if not isinstance(m, MLeaf):
            raise TypingError("normalisation should have peeled the module argument")
        return data.winding(_state(x))
    if name == "phi2":
        x, y = f.params
        return _eval(data, Gen("sigma", (Phi(x), Phi(y))))
    if name == "t":
        return _theta(data, f.params[0])
    raise TypingError(f"unknown generator {name!r}")


# The matrix of each morphism node kind from its children's matrices.
MOR_RULES = {
    Id: lambda f, kids, data: QMatrix.identity(_dim(data, f.obj)),
    Gen: _gen_matrix,
    Inv: lambda f, kids, data: kids[0] if kids[0].is_identity else kids[0].inverse(),
    Vert: lambda f, kids, data: kids[0] * kids[1],
    TensorMor: lambda f, kids, data: kids[0].kron(kids[1]),
    ActMor: lambda f, kids, data: kids[0].kron(kids[1]),
    PhiMor: lambda f, kids, data: data.twisted(kids[0], _odd(domain(f))),
}


def _eval(data: RepData, f: MorExpr) -> QMatrix:
    return fold(normalize_presentation(f), lambda g, kids: MOR_RULES.get(type(g), unexpected)(g, kids, data))


def eval_mor(data: RepData, f: MorExpr) -> QMatrix:
    """Matrix of a structural isomorphism on the bundled (V, M) data.

    A domain past MAX_REP_DIM rows is refused with DimensionError before any matrix is built.
    """
    dom = domain(f)
    _check_dim(data.m if is_module(dom) else 1, data.d, dom.n_strands)
    return _eval(data, f)
