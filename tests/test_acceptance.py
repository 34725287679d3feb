"""Acceptance suite: every check is exact, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the
``ORBIBRAID_SEED`` environment variable fixes the randomized samples.
"""

import itertools

from helpers import identity_op, random_braid_word, random_mor, seeded_rng
from orbibraid.braid import BraidWord, braid_eq, cyl_braid_eq, lk_matrix, strand_ends
from orbibraid.coherence import COMMUTES, NOT_COMMUTES, check, extract_braid
from orbibraid.dsl import codomain, domain, normalize_presentation, parse_diagram, signature
from orbibraid.operad import (
    D,
    DSTAR,
    brute_force_classify_1d,
    classify,
    compose,
    compose_intervals,
    realize_intervals,
)
from orbibraid.reflect import build_cyl_rep, eval_mor, reflection_check, yang_baxter_check


def report(num: int, desc: str, ok: bool) -> None:
    print(f"\ncriterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def test_criterion_1_cylinder_braid_relations():
    ok = True
    for n in range(1, 6):
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                if abs(i - j) == 1:
                    k = min(i, j)
                    u = BraidWord(n, ((k, 1), (k + 1, 1), (k, 1)), cyl=True)
                    v = BraidWord(n, ((k + 1, 1), (k, 1), (k + 1, 1)), cyl=True)
                else:
                    u = BraidWord(n, ((i, 1), (j, 1)), cyl=True)
                    v = BraidWord(n, ((j, 1), (i, 1)), cyl=True)
                ok = ok and cyl_braid_eq(u, v)
        if n >= 1:
            u = BraidWord.from_text(n, "s1 k s1 k", cyl=True) if n >= 2 else None
            if u is not None:
                v = BraidWord.from_text(n, "k s1 k s1", cyl=True)
                ok = ok and cyl_braid_eq(u, v)
        for i in range(2, n):
            u = BraidWord(n, ((i, 1), (0, 1)), cyl=True)
            v = BraidWord(n, ((0, 1), (i, 1)), cyl=True)
            ok = ok and cyl_braid_eq(u, v)
    report(1, "cylinder braid relations, n <= 5", ok)


def test_criterion_2_garside_lk_oracle_agreement():
    rng = seeded_rng(100)
    disagreements = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        u = random_braid_word(rng, n, rng.randint(0, 12))
        v = random_braid_word(rng, n, rng.randint(0, 12))
        if braid_eq(u, v) != (lk_matrix(u) == lk_matrix(v)):
            disagreements += 1
    report(2, "Garside equality <=> Lawrence-Krammer equality, 200 pairs", disagreements == 0)


def _op_pool(max_arity: int):
    pool = []
    for k in range(max_arity + 1):
        pool.extend(classify(k, D, [D] * k))
        pool.extend(classify(k, DSTAR, [D] * k))
        if k >= 1:
            pool.extend(classify(k, DSTAR, [DSTAR] + [D] * (k - 1)))
    return pool


def _circ(h, i, g):
    fs = [identity_op(c) for c in h.inputs]
    fs[i] = g
    return compose(h, fs)


def test_criterion_3_operad_composition():
    rng = seeded_rng(101)
    pool = _op_pool(2)
    ok = True

    # Symbolic composition against the geometric interval oracle.
    checked = 0
    while checked < 500:
        g = rng.choice(pool)
        if g.arity == 0:
            continue
        fs = []
        for c in g.inputs:
            fs.append(rng.choice([op for op in pool if op.output == c and op.arity <= 2]))
        sym = compose(g, fs)
        geo = brute_force_classify_1d(
            compose_intervals(realize_intervals(g), [realize_intervals(f) for f in fs])
        )
        ok = ok and sym == geo
        checked += 1

    # Exhaustive associativity for triples of total arity <= 4.
    for h, g, f in itertools.product(pool, repeat=3):
        if h.arity + g.arity + f.arity > 4 or h.arity == 0 or g.arity == 0:
            continue
        for i in range(h.arity):
            if h.inputs[i] != g.output:
                continue
            hg = _circ(h, i, g)
            for j in range(g.arity):
                if g.inputs[j] != f.output:
                    continue
                nested = _circ(h, i, _circ(g, j, f))
                flat = _circ(hg, i + j, f)
                ok = ok and nested == flat
            for k in range(h.arity):
                if k <= i or h.inputs[k] != f.output:
                    continue
                lhs = _circ(hg, k - 1 + g.arity, f)
                rhs = _circ(_circ(h, k, f), i, g)
                ok = ok and lhs == rhs

    # Exhaustive identity laws for arity <= 3.
    for op in _op_pool(3):
        if op.arity:
            plugs = [identity_op(c) for c in op.inputs]
            ok = ok and compose(op, plugs) == op
        ok = ok and compose(identity_op(op.output), [op]) == op
    report(3, "composition: 500 oracle pairs, associativity and units", ok)


CORPUS = {
    "pentagon.diag": COMMUTES,
    "triangle.diag": COMMUTES,
    "hexagon1.diag": COMMUTES,
    "hexagon2.diag": COMMUTES,
    "winding_module_pair.diag": COMMUTES,
    "winding_tensor_pair.diag": COMMUTES,
    "yang_baxter.diag": COMMUTES,
    "reflection_twisted.diag": COMMUTES,
    "sigma_squared.diag": NOT_COMMUTES,
    "kappa_squared.diag": NOT_COMMUTES,
}


def test_criterion_4_coherence_regression_corpus(diagram_dir):
    ok = True
    for name, want in CORPUS.items():
        diag = parse_diagram((diagram_dir / name).read_text())
        verdict = check(diag.lhs, diag.rhs, diag.flavor)
        ok = ok and verdict.status == want
        if want == NOT_COMMUTES:
            # sigma^2 = id and kappa^2 = id hold in the symmetric flavor.
            ok = ok and check(diag.lhs, diag.rhs, "symmetric").status == COMMUTES
    report(4, "coherence regression corpus", ok)


def test_criterion_5_endpoint_consistency():
    rng = seeded_rng(102)
    ok = True
    for _ in range(1000):
        f = random_mor(rng, max_leaves=6)
        w = extract_braid(f)
        dom_strands = signature(domain(f)).strands
        cod_strands = signature(codomain(f)).strands
        pos, windings = strand_ends(w)
        for p, (label, eps) in enumerate(dom_strands):
            label_c, eps_c = cod_strands[pos[p] - 1]
            ok = ok and label == label_c and (eps + windings[p]) % 2 == eps_c
    report(5, "endpoint consistency on 1000 random morphisms", ok)


def test_criterion_6_matrix_semantics(sl2_data):
    ok = yang_baxter_check(sl2_data.R)
    ok = ok and reflection_check(sl2_data)
    rep = build_cyl_rep(sl2_data, 3)  # raises on any violated relation
    ok = ok and rep.dim == 8 * sl2_data.m
    report(6, "sl2 matrix semantics: YBE, reflection, 3-strand representation", ok)


def test_criterion_7_soundness_bridge(sl2_data, diagram_dir):
    ok = True
    for name, want in CORPUS.items():
        diag = parse_diagram((diagram_dir / name).read_text())
        if diag.flavor != "braided":
            continue
        if check(diag.lhs, diag.rhs, "braided").status == COMMUTES:
            ok = ok and eval_mor(sl2_data, diag.lhs) == eval_mor(sl2_data, diag.rhs)
    report(7, "COMMUTES diagrams evaluate to equal sl2 matrices", ok)


def test_criterion_8_normalization_preserves_braid():
    rng = seeded_rng(103)
    ok = True
    for _ in range(500):
        f = random_mor(rng, max_leaves=6)
        nf = normalize_presentation(f)
        ok = ok and domain(nf) == domain(f) and codomain(nf) == codomain(f)
        wf, wn = extract_braid(f), extract_braid(nf)
        if wf.cyl:
            ok = ok and cyl_braid_eq(wf, wn)
        else:
            ok = ok and braid_eq(wf, wn)
    report(8, "normalization preserves the underlying braid on 500 morphisms", ok)
