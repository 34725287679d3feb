"""Compositional matrix semantics of structural isomorphisms.

Single-object semantics: every A-leaf denotes the object V of the bundled
representation data, the M-leaf denotes the module object.  The strand
state recorded in an object's signature twists the elementary matrices,
which ``RepData`` builds: a braiding of strands in states (e, f) acts by
flip . (T^e (x) T^f) R (T^e (x) T^f)^-1, the pole winding of a strand in
state e by (1 (x) T^e) K (1 (x) T^e)^-1, and the double-involution
retyping t by the balancing, extended to tensor factors through the ribbon rule
theta_{X (x) Y} = sigma_{Y,X} (theta_Y (x) theta_X) sigma_{X,Y}.  All the
purely structural generators are identity reindexings.  Morphisms are
normalised first so braidings act one strand at a time.
"""

from __future__ import annotations

from ..dsl.morphisms import (
    ActMor,
    Gen,
    Id,
    Inv,
    MorExpr,
    PhiMor,
    TensorMor,
    Vert,
    domain,
    fold,
    unexpected,
)
from ..dsl.normalize import normalize_presentation
from ..dsl.objects import (
    ALeaf,
    AUnit,
    MLeaf,
    MUnit,
    ObjectExpr,
    Phi,
    Tensor,
    is_module,
    obj_text,
    signature,
    strand_count,
)
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


class _Evaluator:
    def __init__(self, data: RepData):
        self.data = data
        self._theta_leaf: QMatrix | None = None

    # -- objects -----------------------------------------------------------
    def dim(self, o: ObjectExpr) -> int:
        sig = signature(o)
        if sig.module == "oneM":
            raise UnsupportedGeneratorError("the module pointing has no matrix semantics")
        return (self.data.m if sig.module else 1) * self.data.d ** len(sig.strands)

    def theta(self, o: ObjectExpr) -> QMatrix:
        """Balancing component at an A-typed object, by the ribbon rule."""
        if is_module(o):
            raise TypingError(f"balancing at a non-A-typed object {obj_text(o)}")
        return fold(o, self._theta_node)

    def _theta_node(self, o: ObjectExpr, kids: list) -> QMatrix:
        if isinstance(o, AUnit):
            return QMatrix.identity(1)
        if isinstance(o, Phi):
            return kids[0]
        if isinstance(o, ALeaf):
            if self._theta_leaf is None:
                if self.data.balancing is not None:
                    self._theta_leaf = self.data.balancing
                elif self.data.T == self.data.T_inv:  # T^2 = I
                    self._theta_leaf = QMatrix.identity(self.data.d)
                else:
                    raise UnsupportedGeneratorError(
                        "t requested but no balancing supplied and T^2 is not the identity"
                    )
            return self._theta_leaf
        if isinstance(o, Tensor):
            x, y = o.left, o.right
            s_xy = self.eval(Gen("sigma", (x, y)))
            s_yx = self.eval(Gen("sigma", (y, x)))
            return s_yx * kids[1].kron(kids[0]) * s_xy
        raise TypingError(f"balancing at a non-A-typed object {obj_text(o)}")

    # -- morphisms -----------------------------------------------------------
    def eval(self, f: MorExpr) -> QMatrix:
        return fold(normalize_presentation(f), self._eval_node)

    def _eval_node(self, f: MorExpr, kids: list) -> QMatrix:
        if isinstance(f, Id):
            return QMatrix.identity(self.dim(f.obj))
        if isinstance(f, Gen):
            return self._eval_gen(f)
        if isinstance(f, Inv):
            return kids[0] if kids[0].is_identity else kids[0].inverse()
        if isinstance(f, Vert):
            return kids[0] * kids[1]
        if isinstance(f, (TensorMor, ActMor)):
            return kids[0].kron(kids[1])
        if isinstance(f, PhiMor):
            # The involution twists actions, not underlying linear maps.
            return kids[0]
        unexpected(f)

    def _eval_gen(self, f: Gen) -> QMatrix:
        name = f.name
        if name in ("alpha", "lambda", "rho", "a", "r", "phi0"):
            return QMatrix.identity(self.dim(domain(f)))
        if name == "sigma":
            x, y = f.params
            return self.data.braiding(_state(x), _state(y))
        if name == "kappa":
            m, x = f.params
            if isinstance(m, MUnit):
                raise UnsupportedGeneratorError("the module pointing has no K-matrix")
            if not isinstance(m, MLeaf):
                raise TypingError("normalisation should have peeled the module argument")
            return self.data.winding(_state(x))
        if name == "phi2":
            x, y = f.params
            return self.eval(Gen("sigma", (Phi(x), Phi(y))))
        if name == "t":
            return self.theta(f.params[0])
        raise TypingError(f"unknown generator {name!r}")


def eval_mor(data: RepData, f: MorExpr) -> QMatrix:
    """Matrix of a structural isomorphism on the bundled (V, M) data.

    A domain past MAX_REP_DIM rows is refused with DimensionError before any matrix is built.
    """
    dom = domain(f)
    _check_dim(data.m if is_module(dom) else 1, data.d, strand_count(dom))
    return _Evaluator(data).eval(f)
