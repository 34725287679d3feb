"""Rewriting a presentation so braidings act one strand at a time.

Multi-strand instances of sigma are split through the hexagon routes;
for kappa the module side is peeled one strand at a time and the
argument is split across its tensor factors; arguments
wrapped in the involution are unwrapped by conjugating with the braid-free
retypings Phi_2, Phi_0 and t (naturality moves).  Every rewrite preserves
the domain and the codomain on the nose and leaves the underlying braid
unchanged, so normalisation fixes the presentation the coherence checker
reads off.
"""

from __future__ import annotations

from ..errors import TypingError
from .morphisms import ActMor, Gen, Id, Inv, MorExpr, PhiMor, TensorMor, Vert, fold
from .objects import Act, AUnit, MLeaf, MUnit, ObjectExpr, Phi, Tensor, strand_count


def _chain(*steps: MorExpr) -> MorExpr:
    """Vertical composite of steps listed in application order."""
    out = steps[0]
    for step in steps[1:]:
        out = Vert(step, out)
    return out


def _sigma(x: ObjectExpr, y: ObjectExpr) -> MorExpr:
    return Gen("sigma", (x, y))


def _expand_sigma(x: ObjectExpr, y: ObjectExpr) -> MorExpr | None:
    """One rewriting step for sigma_{x,y}; None when already single-strand."""
    unit = AUnit()
    if x == unit:
        return _chain(Gen("lambda", (y,)), Inv(Gen("rho", (y,))))
    if y == unit:
        return _chain(Gen("rho", (x,)), Inv(Gen("lambda", (x,))))
    if strand_count(x) != 1:
        if isinstance(x, Tensor):
            u, v = x.left, x.right
            return _chain(
                Gen("alpha", (u, v, y)),
                TensorMor(Id(u), _sigma(v, y)),
                Inv(Gen("alpha", (u, y, v))),
                TensorMor(_sigma(u, y), Id(v)),
                Gen("alpha", (y, u, v)),
            )
        if isinstance(x, Phi):
            w = x.child
            if isinstance(w, Tensor):
                u, v = w.left, w.right
                return _chain(
                    TensorMor(Inv(Gen("phi2", (v, u))), Id(y)),
                    _sigma(Tensor(Phi(v), Phi(u)), y),
                    TensorMor(Id(y), Gen("phi2", (v, u))),
                )
            if isinstance(w, Phi):
                u = w.child
                return _chain(
                    TensorMor(Gen("t", (u,)), Id(y)),
                    _sigma(u, y),
                    TensorMor(Id(y), Inv(Gen("t", (u,)))),
                )
            if isinstance(w, AUnit):
                return _chain(
                    TensorMor(Gen("phi0", ()), Id(y)),
                    _sigma(unit, y),
                    TensorMor(Id(y), Inv(Gen("phi0", ()))),
                )
        raise TypingError(f"cannot split braiding argument {x!r}")
    if strand_count(y) != 1:
        if isinstance(y, Tensor):
            u, v = y.left, y.right
            return _chain(
                Inv(Gen("alpha", (x, u, v))),
                TensorMor(_sigma(x, u), Id(v)),
                Gen("alpha", (u, x, v)),
                TensorMor(Id(u), _sigma(x, v)),
                Inv(Gen("alpha", (u, v, x))),
            )
        if isinstance(y, Phi):
            w = y.child
            if isinstance(w, Tensor):
                u, v = w.left, w.right
                return _chain(
                    TensorMor(Id(x), Inv(Gen("phi2", (v, u)))),
                    _sigma(x, Tensor(Phi(v), Phi(u))),
                    TensorMor(Gen("phi2", (v, u)), Id(x)),
                )
            if isinstance(w, Phi):
                u = w.child
                return _chain(
                    TensorMor(Id(x), Gen("t", (u,))),
                    _sigma(x, u),
                    TensorMor(Inv(Gen("t", (u,))), Id(x)),
                )
            if isinstance(w, AUnit):
                return _chain(
                    TensorMor(Id(x), Gen("phi0", ())),
                    _sigma(x, unit),
                    TensorMor(Inv(Gen("phi0", ())), Id(x)),
                )
        raise TypingError(f"cannot split braiding argument {y!r}")
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
    if strand_count(x) == 1:
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
    if isinstance(x, Phi):
        w = x.child
        if isinstance(w, Tensor):
            u, v = w.left, w.right
            return _chain(
                ActMor(Id(m), Inv(Gen("phi2", (v, u)))),
                Gen("kappa", (m, Tensor(Phi(v), Phi(u)))),
                ActMor(Id(m), PhiMor(Gen("phi2", (v, u)))),
            )
        if isinstance(w, Phi):
            u = w.child
            return _chain(
                ActMor(Id(m), Gen("t", (u,))),
                Gen("kappa", (m, u)),
                ActMor(Id(m), PhiMor(Inv(Gen("t", (u,))))),
            )
        if isinstance(w, AUnit):
            return _chain(
                ActMor(Id(m), Gen("phi0", ())),
                Gen("kappa", (m, AUnit())),
                ActMor(Id(m), PhiMor(Inv(Gen("phi0", ())))),
            )
    raise TypingError(f"cannot split cylinder braiding argument {x!r}")


def normalize_presentation(f: MorExpr) -> MorExpr:
    """Equivalent presentation in which every sigma/kappa is single-strand."""
    return fold(f, _normalize_node)


_EXPAND = {"sigma": _expand_sigma, "kappa": _expand_kappa}


def _normalize_node(f: MorExpr, kids: list) -> MorExpr:
    expand = _EXPAND.get(f.name) if isinstance(f, Gen) else None
    step = expand(*f.params) if expand is not None else None
    return f.rebuild(kids) if step is None else normalize_presentation(step)
