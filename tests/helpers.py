"""Shared test utilities: seeded RNG, random well-typed morphisms, word sampling and rewriting, normal-form invariants,
the flip matrix that index-based leg swaps are checked against, and the oracles the library does not run: the word of
a normal form, the identity operation, and the class a braid moves a signed operation to."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from orbibraid.braid import KAPPA, BraidWord, GarsideNF, strand_ends
from orbibraid.braid.garside import Perm, omega_perm
from orbibraid.dsl import (
    ActMor,
    ALeaf,
    Act,
    AUnit,
    Gen,
    Id,
    Inv,
    MLeaf,
    MorExpr,
    ObjectExpr,
    Phi,
    PhiMor,
    Tensor,
    TensorMor,
    Vert,
    codomain,
    is_module,
)
from orbibraid.errors import ArityError, TypingError
from orbibraid.operad import D, DSTAR, SignedOp
from orbibraid.reflect import ONE, ZERO, QMatrix


def stdout_under_python_O(script: str) -> str:
    """Run script with `python -O`, which strips assert statements, on this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True, env=env)
    return run.stdout


def flip_matrix(d1: int, d2: int) -> QMatrix:
    """Permutation matrix of v (x) w -> w (x) v, built entry by entry."""
    n = d1 * d2
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(d1):
        for j in range(d2):
            rows[j * d1 + i][i * d2 + j] = ONE
    return QMatrix.from_rows(rows)


def perm_to_letters(p: Perm) -> tuple[tuple[int, int], ...]:
    """A minimal positive word for a permutation braid (letters 1-based)."""
    letters, q, j = [], list(p), 0
    while j < len(q) - 1:  # swap the first descent; the next one is no further left than j - 1
        if q[j] > q[j + 1]:
            letters.append((j + 1, 1))
            q[j], q[j + 1] = q[j + 1], q[j]
            j = max(j - 1, 0)
        else:
            j += 1
    return tuple(letters)


def nf_to_word(nf: GarsideNF) -> BraidWord:
    """Rebuild a braid word (Delta^power, then the factors)."""
    delta = perm_to_letters(omega_perm(nf.n))
    if nf.power < 0:
        delta = tuple((i, -e) for i, e in reversed(delta))
    letters = list(delta * abs(nf.power))
    for f in nf.factors:
        letters.extend(perm_to_letters(f))
    return BraidWord(nf.n, tuple(letters))


def identity_op(color: str) -> SignedOp:
    if color == D:
        return SignedOp(D, False, (0,), (0,))
    return SignedOp(DSTAR, True, (), ())


def braid_of_signed_path(start: SignedOp, word: BraidWord) -> SignedOp:
    """Endpoint of the path over ``start`` determined by a (cylinder) braid.

    Each strand carries its disk to the strand's end rank, and the disk's
    sign flips once per pole winding; the result is the isotopy class at
    the far end.
    """
    if word.n != start.d_arity:
        raise ArityError(f"word on {word.n} strands cannot act on a {start.d_arity}-disk class")
    has_kappa = any(i == KAPPA for i, _ in word.letters)
    if has_kappa and start.output != DSTAR:
        raise TypingError("pole windings require an operation targeting the pole disk")
    eps = list(start.eps)
    perm = [0] * word.n
    for disk, end, winding in zip(start.perm, *strand_ends(word)):
        perm[end - 1] = disk
        eps[disk] ^= winding % 2
    return SignedOp(start.output, start.has_module_input, tuple(eps), tuple(perm))


def seeded_rng(salt: int = 0) -> random.Random:
    base = int(os.environ.get("ORBIBRAID_SEED", "20260810"))
    return random.Random(base + salt)


def random_braid_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))


def random_cyl_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        i = rng.randint(0, n - 1) if n > 1 else 0
        letters.append((i, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters), cyl=True)


def relation_rewrite(rng: random.Random, w: BraidWord, steps: int) -> BraidWord:
    """A word equal to w in B_n, or in B^cyl_n for a cylinder word: each step changes it at one random place.

    The step applies k s1 k s1 <-> s1 k s1 k (equal signs) if
    such a quadruple starts there, else s_i s_j s_i -> s_j s_i s_j
    (|i - j| = 1, neither a k, equal signs) if such a triple does, else
    s_i s_j -> s_j s_i (|i - j| > 1, k counting as index 0) if such a pair
    does, else it inserts a cancelling pair.
    """
    low = KAPPA if w.cyl else 1
    letters = list(w.letters)
    for _ in range(steps):
        p = rng.randrange(len(letters) + 1)
        x = letters[p : p + 4]
        if len(x) == 4 and x[:2] == x[2:] and {x[0][0], x[1][0]} == {KAPPA, 1} and x[0][1] == x[1][1]:
            letters[p : p + 4] = [x[1], x[0], x[1], x[0]]
        elif len(x) >= 3 and x[0] == x[2] and x[0][1] == x[1][1] and abs(x[0][0] - x[1][0]) == 1 and KAPPA not in (x[0][0], x[1][0]):
            letters[p : p + 3] = [x[1], x[0], x[1]]
        elif len(x) >= 2 and abs(x[0][0] - x[1][0]) > 1:
            letters[p : p + 2] = [x[1], x[0]]
        else:
            i, e = rng.randint(low, w.n - 1), rng.choice((1, -1))
            letters[p:p] = [(i, e), (i, -e)]
    return BraidWord(w.n, tuple(letters), w.cyl)


def normal_form_violations(w: BraidWord, power: int, factors) -> list[str]:
    """Which invariants of a left-greedy normal form of w the form Delta^power factors breaks.

    Each factor is a proper permutation braid (0-based one-line notation),
    consecutive factors are left-weighted, and the form has the exponent sum
    and the permutation of w.  Computed from scratch, without the library's
    permutation helpers.
    """
    n = w.n
    ident, omega = tuple(range(n)), tuple(range(n - 1, -1, -1))
    found = []
    for k, f in enumerate(factors):
        if sorted(f) != list(ident) or f in (ident, omega):
            found.append(f"factor {k} is not a proper permutation braid")
    for k in range(1, len(factors)):
        a, b = factors[k - 1], factors[k]
        ends = sorted(range(n), key=lambda x: a[x])  # a^-1 in one-line notation
        if any(b[j] > b[j + 1] and ends[j] < ends[j + 1] for j in range(n - 1)):
            found.append(f"factors {k - 1} and {k} are not left-weighted")
    inversions = sum(1 for f in factors for x in range(n) for y in range(x + 1, n) if f[x] > f[y])
    if power * n * (n - 1) // 2 + inversions != sum(e for _, e in w.letters):
        found.append("wrong exponent sum")
    at = list(range(n))  # the strand at each position
    for i, _ in w.letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    word_perm = tuple(at.index(strand) for strand in range(n))
    perm = omega if power % 2 else ident
    for f in factors:
        perm = tuple(f[x] for x in perm)
    if perm != word_perm:
        found.append("wrong permutation")
    return found


# ---------------------------------------------------------------------------
# Random objects and random well-typed structural isomorphisms.


def random_a_object(rng: random.Random, labels: list[int], phi_budget: int = 2) -> ObjectExpr:
    if not labels:
        return AUnit()
    if len(labels) == 1:
        o: ObjectExpr = ALeaf(labels[0])
        if phi_budget > 0 and rng.random() < 0.3:
            o = Phi(o)
        if rng.random() < 0.1:
            o = Tensor(o, AUnit()) if rng.random() < 0.5 else Tensor(AUnit(), o)
        return o
    cut = rng.randint(1, len(labels) - 1)
    left = random_a_object(rng, labels[:cut], phi_budget)
    right = random_a_object(rng, labels[cut:], phi_budget)
    o = Tensor(left, right)
    if phi_budget > 0 and rng.random() < 0.25:
        o = Phi(o)
    return o


def random_m_object(rng: random.Random, labels: list[int]) -> ObjectExpr:
    blocks = []
    rest = list(labels)
    while rest:
        take = rng.randint(1, len(rest))
        blocks.append(rest[:take])
        rest = rest[take:]
    o: ObjectExpr = MLeaf()
    for block in blocks:
        o = Act(o, random_a_object(rng, block))
    if not blocks and rng.random() < 0.5:
        o = Act(o, AUnit())
    return o


def _size(o: ObjectExpr) -> int:
    if isinstance(o, Tensor):
        return 1 + _size(o.left) + _size(o.right)
    if isinstance(o, Act):
        return 1 + _size(o.module) + _size(o.algebra)
    if isinstance(o, Phi):
        return 1 + _size(o.child)
    return 1


def applicable_steps(obj: ObjectExpr, allow_growth: bool) -> list[MorExpr]:
    """Basic rewriting steps with domain exactly ``obj``; none is typed until it is chosen."""
    steps: list[MorExpr] = []
    emit = steps.append

    if isinstance(obj, Tensor):
        l, r = obj.left, obj.right
        if isinstance(l, Tensor):
            emit(Gen("alpha", (l.left, l.right, r)))
        if isinstance(r, Tensor):
            emit(Inv(Gen("alpha", (l, r.left, r.right))))
        if isinstance(l, AUnit):
            emit(Gen("lambda", (r,)))
        if isinstance(r, AUnit):
            emit(Gen("rho", (l,)))
        emit(Gen("sigma", (l, r)))
        emit(Inv(Gen("sigma", (r, l))))
        if isinstance(l, Phi) and isinstance(r, Phi):
            emit(Gen("phi2", (l.child, r.child)))
    if isinstance(obj, Phi):
        c = obj.child
        if isinstance(c, Tensor):
            emit(Inv(Gen("phi2", (c.right, c.left))))
        if isinstance(c, Phi):
            emit(Gen("t", (c.child,)))
        if isinstance(c, AUnit):
            emit(Gen("phi0", ()))
    if isinstance(obj, AUnit):
        emit(Inv(Gen("phi0", ())))
    if isinstance(obj, Act):
        m, x = obj.module, obj.algebra
        emit(Gen("kappa", (m, x)))
        if isinstance(x, Phi):
            emit(Inv(Gen("kappa", (m, x.child))))
        if isinstance(x, Tensor):
            emit(Inv(Gen("a", (m, x.left, x.right))))
        if isinstance(x, AUnit):
            emit(Gen("r", (m,)))
        if isinstance(m, Act):
            emit(Gen("a", (m.module, m.algebra, x)))
    if allow_growth and not is_module(obj):
        emit(Inv(Gen("lambda", (obj,))))
        emit(Inv(Gen("rho", (obj,))))
        emit(Inv(Gen("t", (obj,))))
    if allow_growth and is_module(obj):
        emit(Inv(Gen("r", (obj,))))

    # Recurse into children.
    if isinstance(obj, Tensor):
        steps.extend(TensorMor(sub, Id(obj.right)) for sub in applicable_steps(obj.left, allow_growth))
        steps.extend(TensorMor(Id(obj.left), sub) for sub in applicable_steps(obj.right, allow_growth))
    if isinstance(obj, Phi):
        steps.extend(PhiMor(sub) for sub in applicable_steps(obj.child, allow_growth))
    if isinstance(obj, Act):
        steps.extend(ActMor(sub, Id(obj.algebra)) for sub in applicable_steps(obj.module, allow_growth))
        steps.extend(ActMor(Id(obj.module), sub) for sub in applicable_steps(obj.algebra, allow_growth))
    return steps


def random_mor(
    rng: random.Random,
    n_leaves: int | None = None,
    n_steps: int | None = None,
    m_typed: bool = True,
    max_leaves: int = 6,
    obj: ObjectExpr | None = None,
) -> MorExpr:
    """A random well-typed structural isomorphism as a chain of basic steps, from obj if given."""
    if obj is None:
        if n_leaves is None:
            n_leaves = rng.randint(0, max_leaves)
        labels = list(range(1, n_leaves + 1))
        obj = random_m_object(rng, labels) if m_typed else random_a_object(rng, labels)
    if n_steps is None:
        n_steps = rng.randint(1, 8)
    mor: MorExpr = Id(obj)
    cur = obj
    for _ in range(n_steps):
        allow_growth = _size(cur) < 4 * (cur.n_strands + 2)
        steps = applicable_steps(cur, allow_growth)
        if not steps:
            break
        step = rng.choice(steps)
        cur = codomain(step)
        mor = Vert(step, mor)
    return mor


def balanced_tensor_text(first: int, count: int) -> str:
    """Text of a balanced tensor of the leaves X<first> .. X<first + count - 1>."""
    if count == 1:
        return f"X{first}"
    half = count // 2
    return f"tensor({balanced_tensor_text(first, half)}, {balanced_tensor_text(first + half, count - half)})"


def kappa_cable_diagram(c: int) -> str:
    """kappa over a balanced tensor of c >= 2 leaves against its route through the two halves.

    The route is the two-leaf cylinder winding expansion with each leaf replaced
    by one half of the tensor, so the diagram commutes in every braided pair.
    """
    x1, x2 = balanced_tensor_text(1, c // 2), balanced_tensor_text(c // 2 + 1, c - c // 2)
    return (
        "flavor = braided\n"
        f"lhs = kappa(M, tensor({x1}, {x2}))\n"
        f"rhs = vert(act(id(M), phi2({x2}; {x1})), vert(a(M, Phi({x2}), Phi({x1})),"
        f" vert(act(kappa(M, {x2}), id(Phi({x1}))), vert(inv(a(M, {x2}, Phi({x1}))),"
        f" vert(act(id(M), sigma(Phi({x1}), {x2})), vert(a(M, Phi({x1}), {x2}),"
        f" vert(act(kappa(M, {x1}), id({x2})), inv(a(M, {x1}, {x2})))))))))\n"
    )
