"""Seeded diagrams whose coherence verdict is fixed by construction.

Objects and morphisms are plain tuples rendered straight to the diagram
grammar, so the inputs depend on the seed alone and not on the library's
own syntax trees.  Objects: ``("X", i)``, ``("one",)``, ``("M",)``,
``("tensor", a, b)``, ``("Phi", a)``, ``("act", m, a)``.  Morphisms:
``("id", o)``, ``("gen", name, params)``, ``("inv", f)``,
``("vert", after, before)``, ``("tens", f, g)``, ``("act", f, g)``,
``("phi", f)``.

A route is a chain of basic rewriting steps (an associator, unitor,
braiding, involution retyping, ... whiskered into its object), shaped like
the random morphisms of the test suite.  A diagram pairs a route ``f``
with a copy of ``f`` into which one piece has been spliced at an
intermediate object Z:

- ``detour``: g^-1 . g for a random route g out of Z.  The underlying
  braid is unchanged, so the diagram commutes in every flavor.
- ``crossing``: sigma_{Y,X} sigma_{X,Y} on a sub-object X (x) Y of Z with
  strands on both sides.  That is a nontrivial pure braid (the blocks link
  once), so the diagram does not commute when braided; the permutation
  and the winding parities are unchanged, so it commutes when symmetric.
- ``winding``: t . kappa_{m,Phi x} . kappa_{m,x} on a sub-object m . x of
  Z with strands in x.  The block winds twice around the pole: nontrivial
  when braided, even winding parity when symmetric.

Monoidal diagrams use braiding-free steps only and a detour, so they
commute.  Route depth stays far below the nesting at which the parser
and the typing recursion run out of stack.
"""

from __future__ import annotations

import random

COMMUTES = "COMMUTES"
NOT_COMMUTES = "NOT_COMMUTES"

# Known verdict of each splice kind per flavor.
VERDICT = {
    ("detour", "monoidal"): COMMUTES,
    ("detour", "braided"): COMMUTES,
    ("detour", "symmetric"): COMMUTES,
    ("crossing", "braided"): NOT_COMMUTES,
    ("crossing", "symmetric"): COMMUTES,
    ("winding", "braided"): NOT_COMMUTES,
    ("winding", "symmetric"): COMMUTES,
}

ONE = ("one",)


def strands(o) -> int:
    if o[0] == "X":
        return 1
    if o[0] in ("tensor", "act"):
        return strands(o[1]) + strands(o[2])
    if o[0] == "Phi":
        return strands(o[1])
    return 0


def _size(o) -> int:
    return 1 + sum(_size(c) for c in o[1:] if isinstance(c, tuple))


def _is_module(o) -> bool:
    return o[0] in ("M", "act")


def obj_text(o) -> str:
    if o[0] == "X":
        return f"X{o[1]}"
    if o[0] in ("one", "M"):
        return o[0]
    return f"{o[0]}({', '.join(obj_text(c) for c in o[1:])})"


def mor_text(f) -> str:
    if f[0] == "id":
        return f"id({obj_text(f[1])})"
    if f[0] == "gen":
        return f"{f[1]}({', '.join(obj_text(p) for p in f[2])})"
    return f"{f[0]}({', '.join(mor_text(g) for g in f[1:])})"


def random_a_object(rng: random.Random, labels: list[int], phi_budget: int = 2):
    if not labels:
        return ONE
    if len(labels) == 1:
        o = ("X", labels[0])
        if phi_budget > 0 and rng.random() < 0.3:
            o = ("Phi", o)
        if rng.random() < 0.1:
            o = ("tensor", o, ONE) if rng.random() < 0.5 else ("tensor", ONE, o)
        return o
    cut = rng.randint(1, len(labels) - 1)
    o = ("tensor", random_a_object(rng, labels[:cut], phi_budget), random_a_object(rng, labels[cut:], phi_budget))
    if phi_budget > 0 and rng.random() < 0.25:
        o = ("Phi", o)
    return o


def random_m_object(rng: random.Random, labels: list[int]):
    o = ("M",)
    rest = list(labels)
    while rest:
        take = rng.randint(1, len(rest))
        o = ("act", o, random_a_object(rng, rest[:take]))
        rest = rest[take:]
    return o


def _gen(name, *params):
    return ("gen", name, params)


def _top_steps(o, growth: bool, braiding: bool):
    """(step, codomain) for generator instances or inverses with domain exactly ``o``."""
    out = []
    if o[0] == "tensor":
        l, r = o[1], o[2]
        if l[0] == "tensor":
            out.append((_gen("alpha", l[1], l[2], r), ("tensor", l[1], ("tensor", l[2], r))))
        if r[0] == "tensor":
            out.append((("inv", _gen("alpha", l, r[1], r[2])), ("tensor", ("tensor", l, r[1]), r[2])))
        if l == ONE:
            out.append((_gen("lambda", r), r))
        if r == ONE:
            out.append((_gen("rho", l), l))
        if braiding:
            out.append((_gen("sigma", l, r), ("tensor", r, l)))
            out.append((("inv", _gen("sigma", r, l)), ("tensor", r, l)))
        if l[0] == "Phi" and r[0] == "Phi":
            out.append((_gen("phi2", l[1], r[1]), ("Phi", ("tensor", r[1], l[1]))))
    elif o[0] == "Phi":
        c = o[1]
        if c[0] == "tensor":
            out.append((("inv", _gen("phi2", c[2], c[1])), ("tensor", ("Phi", c[2]), ("Phi", c[1]))))
        if c[0] == "Phi":
            out.append((_gen("t", c[1]), c[1]))
        if c == ONE:
            out.append((_gen("phi0"), ONE))
    elif o == ONE:
        out.append((("inv", _gen("phi0")), ("Phi", ONE)))
    elif o[0] == "act":
        m, x = o[1], o[2]
        if braiding:
            out.append((_gen("kappa", m, x), ("act", m, ("Phi", x))))
            if x[0] == "Phi":
                out.append((("inv", _gen("kappa", m, x[1])), ("act", m, x[1])))
        if x[0] == "tensor":
            out.append((("inv", _gen("a", m, x[1], x[2])), ("act", ("act", m, x[1]), x[2])))
        if x == ONE:
            out.append((_gen("r", m), m))
        if m[0] == "act":
            out.append((_gen("a", m[1], m[2], x), ("act", m[1], ("tensor", m[2], x))))
    if growth:
        if _is_module(o):
            out.append((("inv", _gen("r", o)), ("act", o, ONE)))
        else:
            out.append((("inv", _gen("lambda", o)), ("tensor", ONE, o)))
            out.append((("inv", _gen("rho", o)), ("tensor", o, ONE)))
            out.append((("inv", _gen("t", o)), ("Phi", ("Phi", o))))
    return out


def _steps(o, growth: bool, braiding: bool):
    """(step, codomain) for every basic step out of ``o``: top-level and whiskered."""
    out = _top_steps(o, growth, braiding)
    if o[0] in ("tensor", "act"):
        whisker = "tens" if o[0] == "tensor" else "act"
        a, b = o[1], o[2]
        out += [((whisker, s, ("id", b)), (o[0], new, b)) for s, new in _steps(a, growth, braiding)]
        out += [((whisker, ("id", a), s), (o[0], a, new)) for s, new in _steps(b, growth, braiding)]
    elif o[0] == "Phi":
        out += [(("phi", s), ("Phi", new)) for s, new in _steps(o[1], growth, braiding)]
    return out


def braid_letters(f) -> int:
    """Length of the cabled braid word a morphism contributes (sigma on blocks of
    a and b strands: a b letters; kappa of c strands behind l: 2 c l + c (c + 1) / 2)."""
    if f[0] == "gen":
        if f[1] == "sigma":
            return strands(f[2][0]) * strands(f[2][1])
        if f[1] == "kappa":
            ell, c = strands(f[2][0]), strands(f[2][1])
            return 2 * c * ell + c * (c + 1) // 2
        return 0
    if f[0] == "id":
        return 0
    return sum(braid_letters(g) for g in f[1:])


def random_route(rng: random.Random, start, n_steps: int, braiding: bool, budget: int):
    """A chain of basic steps out of ``start``; returns (steps, objects visited).

    Braiding steps are taken half the time while their cabled words fit in
    ``budget`` letters, so routes of one size have braids of about one length.
    """
    steps, objs = [], [start]
    used = 0
    for _ in range(n_steps):
        cur = objs[-1]
        options = [(s, new, braid_letters(s)) for s, new in _steps(cur, _size(cur) < 4 * (strands(cur) + 2), braiding)]
        fits = [o for o in options if used + o[2] <= budget]
        braids = [o for o in fits if o[2]]
        plain = [o for o in fits if not o[2]]
        step, new, letters = rng.choice(braids if braids and (not plain or rng.random() < 0.5) else plain or options)
        used += letters
        steps.append(step)
        objs.append(new)
    return steps, objs


def chain(steps):
    """Vertical composite of steps listed in application order."""
    out = steps[0]
    for step in steps[1:]:
        out = ("vert", step, out)
    return out


def _sites(o, kind: str, path: tuple = ()):
    """Paths to sub-objects where a crossing or winding piece can be spliced."""
    if kind == "crossing" and o[0] == "tensor" and strands(o[1]) and strands(o[2]):
        yield path
    if kind == "winding" and o[0] == "act" and strands(o[2]):
        yield path
    for i, c in enumerate(o[1:], start=1):
        if isinstance(c, tuple):
            yield from _sites(c, kind, path + (i,))


def _whisker(o, path: tuple, piece_at):
    """The piece built at the sub-object ``path`` of ``o``, whiskered out to ``o``."""
    if not path:
        return piece_at(o)
    if o[0] == "Phi":
        return ("phi", _whisker(o[1], path[1:], piece_at))
    whisker = "tens" if o[0] == "tensor" else "act"
    if path[0] == 1:
        return (whisker, _whisker(o[1], path[1:], piece_at), ("id", o[2]))
    return (whisker, ("id", o[1]), _whisker(o[2], path[1:], piece_at))


def _double_crossing(o):
    x, y = o[1], o[2]
    return ("vert", _gen("sigma", y, x), _gen("sigma", x, y))


def _double_winding(o):
    m, x = o[1], o[2]
    winds = ("vert", _gen("kappa", m, ("Phi", x)), _gen("kappa", m, x))
    return ("vert", ("act", ("id", m), _gen("t", x)), winds)


def make_diagram(rng: random.Random, flavor: str, kind: str, n_leaves: int, n_steps: int, m_typed: bool):
    """Diagram text with its known verdict: a route against a spliced copy."""
    braiding = flavor != "monoidal"
    labels = list(range(1, n_leaves + 1))
    start = random_m_object(rng, labels) if m_typed else random_a_object(rng, labels)
    steps, objs = random_route(rng, start, n_steps, braiding, budget=n_steps // 2)
    if kind == "detour":
        at = rng.randrange(len(objs))
        g, _ = random_route(rng, objs[at], rng.randint(4, 12), braiding, budget=n_steps // 8)
        piece = ("vert", ("inv", chain(g)), chain(g))
    else:
        sites = [(i, p) for i, o in enumerate(objs) for p in _sites(o, kind)]
        if not sites:  # no split block with strands on both sides: wind instead
            kind = "winding"
            sites = [(i, p) for i, o in enumerate(objs) for p in _sites(o, kind)]
        at, path = rng.choice(sites)
        piece = _whisker(objs[at], path, _double_crossing if kind == "crossing" else _double_winding)
    lhs = chain(steps)
    rhs = chain(steps[:at] + [piece] + steps[at:])
    text = f"flavor = {flavor}\nlhs = {mor_text(lhs)}\nrhs = {mor_text(rhs)}\n"
    return text, VERDICT[(kind, flavor)]
