"""Self-tests of the benchmark: determinism and known answers against independent oracles.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import routes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orbibraid.braid import BraidWord, lk_matrix  # noqa: E402
from orbibraid.dsl import parse_diagram  # noqa: E402
from orbibraid.reflect import RepData, eval_mor  # noqa: E402


def _pool(name: str, seed: int, workdir: Path, cycles: int = 1):
    build = workloads.WORKLOADS[name][0]
    workdir.mkdir()
    return build(random.Random(f"{name}:{seed}"), workdir, cycles)


def _fingerprint(pool, workdir: Path):
    """Every input the program sees: argv (with the scratch directory elided) and file contents."""
    argv = [tuple(str(x).replace(str(workdir), "<dir>") for x in r.inputs) for r in pool]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return argv, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    a = _fingerprint(_pool(name, 7, tmp_path / "a"), tmp_path / "a")
    b = _fingerprint(_pool(name, 7, tmp_path / "b"), tmp_path / "b")
    c = _fingerprint(_pool(name, 8, tmp_path / "c"), tmp_path / "c")
    assert a == b
    if name != "cli-corpus":  # the corpus part is fixed; only compose operands vary
        assert a != c


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_gives_every_known_answer(name, tmp_path):
    for req in _pool(name, 3, tmp_path / "w"):
        req.check(req.call())


def _lk_equal(n: int, u, v) -> bool:
    return lk_matrix(BraidWord(n, tuple(u))) == lk_matrix(BraidWord(n, tuple(v)))


def test_braid_pairs_agree_with_lawrence_krammer():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 4)
        cyl = rng.random() < 0.3
        u = workloads.random_letters(rng, n, rng.randint(4, 9), cyl)
        v = workloads.rewrite(rng, u, n, cyl, rewrites=4, inserts=2)
        w = v + [(1, 1), (1, 1)]
        if cyl:
            u, v, w, n = workloads.embed(u), workloads.embed(v), workloads.embed(w), n + 1
        assert _lk_equal(n, u, v)
        assert not _lk_equal(n, u, w)


def test_normal_form_checker_rejects_a_wrong_form():
    code, out = workloads.run_cli(["braid", "nf", "-n", "3", "s1 s2 s1 s1", "--json"])
    payload = json.loads(out)["payload"]
    workloads.check_normal_form(3, [(1, 1), (2, 1), (1, 1), (1, 1)], payload)
    with pytest.raises(workloads.Mismatch):
        workloads.check_normal_form(3, [(1, 1), (2, 1), (1, 1), (2, 1)], payload)
    with pytest.raises(workloads.Mismatch):
        workloads.check_normal_form(3, [(1, 1), (2, 1), (1, 1)], payload)


def test_commuting_braided_routes_evaluate_equal():
    data = RepData.load(workloads.SL2)
    rng = random.Random(12)
    for m_typed in (False, True, False, True):
        text, want = routes.make_diagram(rng, "braided", "detour", 2, 6, m_typed)
        assert want == routes.COMMUTES
        diagram = parse_diagram(text)
        assert eval_mor(data, diagram.lhs) == eval_mor(data, diagram.rhs)


def _vert_depth(text: str) -> int:
    depth = top = 0
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            depth += 1
            top = max(top, depth)
        elif tok == ")":
            depth -= 1
    return top


def test_routes_stay_far_below_the_recursion_limit():
    rng = random.Random(13)
    for flavor, kind in (("braided", "detour"), ("symmetric", "crossing"), ("monoidal", "detour")):
        text, _ = routes.make_diagram(rng, flavor, kind, 5, 80, True)
        assert _vert_depth(text) < 300


def _sympy_reflection_holds(K_rows, T_rows) -> bool:
    """The phi-twisted reflection equation for m = 1, d = 2, solved in sympy."""
    sp = pytest.importorskip("sympy")
    q = sp.symbols("q")

    def scalar(text):
        return sp.sympify(text.replace("^", "**"), locals={"q": q})

    R = sp.Matrix([[scalar(x) for x in row] for row in workloads.SL2_R])
    K = sp.Matrix([[scalar(x) for x in row] for row in K_rows])
    T = sp.Matrix([[scalar(x) for x in row] for row in T_rows]) if T_rows else sp.eye(2)
    P = sp.Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    T1 = sp.kronecker_product(T, sp.eye(2))
    Rphi = T1 * R * T1.inv()
    K1 = sp.kronecker_product(K, sp.eye(2))
    K2 = P * K1 * P
    residual = K1 * (P * Rphi * P) * K2 * R - (P * R * P) * K2 * Rphi * K1
    return all(sp.simplify(e) == 0 for e in residual)


def test_reflection_families_agree_with_sympy():
    rng = random.Random(14)
    for family in workloads.FAMILIES + [workloads.family_sl2]:
        for _ in range(2):
            K, T, good = family(rng)
            assert _sympy_reflection_holds(K, T) is good, (family.__name__, K, T)


def test_tracer_counts_and_restores(tmp_path):
    from orbibraid import cli
    from orbibraid.reflect import QMatrix

    original_main, original_mul = cli.main, QMatrix.__mul__
    pool = _pool("cli-corpus", 1, tmp_path / "w")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for req in pool:
            req.check(req.call())
    finally:
        tracer.uninstall()
    assert cli.main is original_main and QMatrix.__mul__ is original_mul
    m = tracer.metrics(1.0)
    assert m["coherence.check.calls"] == 11  # the corpus plus the README command
    assert m["coherence.check.nf_calls_per_check"] == 3  # lhs, rhs and lhs^-1 rhs when braided
    assert m["operad.classify.classes_out"] == sum(2**d * math.factorial(d) for d in (3, 2, 3, 4, 5, 1, 2, 3, 4))
    assert all(v >= 0 for v in m.values())


def test_pair_second_needs_its_partner_since_the_last_comparison(tmp_path):
    u, v = _pool("braid-words", 4, tmp_path / "w")[8:10]  # the first nf pair of the cycle
    assert (u.kind, v.kind) == ("nf", "nf")
    u.check(u.call())
    v.check(v.call())
    with pytest.raises(workloads.Mismatch):
        v.check(v.call())


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("orbibraid.braid", "no_such_fn", "braid.no_such_fn", None, False)])
    tracer = tracing.Tracer()
    with pytest.raises(LookupError):
        tracer.install()
    tracer.uninstall()
