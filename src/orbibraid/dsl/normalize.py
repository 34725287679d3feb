"""Rewriting a presentation so braidings act one strand at a time.

Multi-strand instances of sigma are split through the hexagon routes;
for kappa the module side is peeled one strand at a time and the
argument is split across its tensor factors.  An argument wrapped in the
involution is unwrapped by one rule, ``_unwrap``, for either leg of sigma
and for kappa: conjugation by the braid-free retyping Phi_2, t or Phi_0
that moves the outer Phi one level in (a naturality move).  Every rewrite
preserves the domain and the codomain on the nose and leaves the
underlying braid unchanged, so normalisation fixes the presentation the
coherence checker reads off.
"""

from __future__ import annotations

from ..errors import TypingError
from .morphisms import ActMor, Gen, Id, Inv, MorExpr, PhiMor, TensorMor, Vert
from .objects import Act, AUnit, MLeaf, MUnit, ObjectExpr, Phi, Tensor


def _chain(*steps: MorExpr) -> MorExpr:
    """Vertical composite of steps listed in application order."""
    out = steps[0]
    for step in steps[1:]:
        out = Vert(step, out)
    return out


def _sigma(x: ObjectExpr, y: ObjectExpr) -> MorExpr:
    return Gen("sigma", (x, y))


def _unwrap(x: ObjectExpr) -> tuple[MorExpr, MorExpr, ObjectExpr] | None:
    """(to, back, x2) for x = Phi(w): to retypes x as x2, its Phi one level
    further in, and back is the inverse of to; None for any other x."""
    if not isinstance(x, Phi):
        return None
    w = x.child
    if isinstance(w, Tensor):
        u, v = w.left, w.right
        phi2 = Gen("phi2", (v, u))
        return Inv(phi2), phi2, Tensor(Phi(v), Phi(u))
    if isinstance(w, Phi):
        t = Gen("t", (w.child,))
        return t, Inv(t), w.child
    if isinstance(w, AUnit):
        phi0 = Gen("phi0", ())
        return phi0, Inv(phi0), w
    return None


def _expand_sigma(x: ObjectExpr, y: ObjectExpr) -> MorExpr | None:
    """One rewriting step for sigma_{x,y}; None when already single-strand."""
    if isinstance(x, AUnit):
        return _chain(Gen("lambda", (y,)), Inv(Gen("rho", (y,))))
    if isinstance(y, AUnit):
        return _chain(Gen("rho", (x,)), Inv(Gen("lambda", (x,))))
    if x.n_strands != 1:
        if isinstance(x, Tensor):
            u, v = x.left, x.right
            return _chain(
                Gen("alpha", (u, v, y)),
                TensorMor(Id(u), _sigma(v, y)),
                Inv(Gen("alpha", (u, y, v))),
                TensorMor(_sigma(u, y), Id(v)),
                Gen("alpha", (y, u, v)),
            )
        unwrapped = _unwrap(x)
        if unwrapped is None:
            raise TypingError(f"cannot split braiding argument {x!r}")
        to, back, x2 = unwrapped
        return _chain(TensorMor(to, Id(y)), _sigma(x2, y), TensorMor(Id(y), back))
    if y.n_strands != 1:
        if isinstance(y, Tensor):
            u, v = y.left, y.right
            return _chain(
                Inv(Gen("alpha", (x, u, v))),
                TensorMor(_sigma(x, u), Id(v)),
                Gen("alpha", (u, x, v)),
                TensorMor(Id(u), _sigma(x, v)),
                Inv(Gen("alpha", (u, v, x))),
            )
        unwrapped = _unwrap(y)
        if unwrapped is None:
            raise TypingError(f"cannot split braiding argument {y!r}")
        to, back, y2 = unwrapped
        return _chain(TensorMor(Id(x), to), _sigma(x, y2), TensorMor(back, Id(x)))
    return None


def _expand_kappa(m: ObjectExpr, x: ObjectExpr) -> MorExpr | None:
    """One rewriting step for kappa_{m,x}; None when already single-strand."""
    if isinstance(m, Act):
        m2, z = m.module, m.algebra
        return _chain(
            Gen("a", (m2, z, x)),
            ActMor(Id(m2), _sigma(z, x)),
            Inv(Gen("a", (m2, x, z))),
            ActMor(Gen("kappa", (m2, x)), Id(z)),
            Gen("a", (m2, Phi(x), z)),
            ActMor(Id(m2), _sigma(Phi(x), z)),
            Inv(Gen("a", (m2, z, Phi(x)))),
        )
    if not isinstance(m, (MLeaf, MUnit)):
        raise TypingError(f"cannot peel module argument {m!r}")
    if isinstance(x, AUnit):
        return _chain(
            Gen("r", (m,)),
            Inv(Gen("r", (m,))),
            ActMor(Id(m), Inv(Gen("phi0", ()))),
        )
    if x.n_strands == 1:
        return None
    if isinstance(x, Tensor):
        u, v = x.left, x.right
        return _chain(
            Inv(Gen("a", (m, u, v))),
            ActMor(Gen("kappa", (m, u)), Id(v)),
            Gen("a", (m, Phi(u), v)),
            ActMor(Id(m), _sigma(Phi(u), v)),
            Inv(Gen("a", (m, v, Phi(u)))),
            ActMor(Gen("kappa", (m, v)), Id(Phi(u))),
            Gen("a", (m, Phi(v), Phi(u))),
            ActMor(Id(m), Gen("phi2", (v, u))),
        )
    unwrapped = _unwrap(x)
    if unwrapped is None:
        raise TypingError(f"cannot split cylinder braiding argument {x!r}")
    to, back, x2 = unwrapped
    return _chain(ActMor(Id(m), to), Gen("kappa", (m, x2)), ActMor(Id(m), PhiMor(back)))


_EXPAND = {"sigma": _expand_sigma, "kappa": _expand_kappa}


def normalize_presentation(f: MorExpr) -> MorExpr:
    """Equivalent presentation in which every sigma/kappa is single-strand: ``fold``'s walk,
    with a multi-strand generator walked as its rewriting step, so no rewrite costs a frame."""
    values: list = []
    stack: list = [f]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, children), the children's values are on top
            node, kids = node
            cut = len(values) - len(kids)
            node = node.rebuild(values[cut:])
            del values[cut:]
        elif type(node) is Gen and node.name in _EXPAND:
            step = _EXPAND[node.name](*node.params)
            if step is not None:
                stack.append(step)
                continue
        elif kids := node.children():
            stack.append((node, kids))
            stack.extend(reversed(kids))
            continue
        values.append(node)
    return values[0]
