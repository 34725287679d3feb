import json

import pytest

from helpers import braid_of_signed_path, random_mor, seeded_rng
from orbibraid.braid import KAPPA, BraidWord, cyl_braid_eq, strand_ends
from orbibraid import coherence
from orbibraid.coherence import (
    COMMUTES,
    NOT_COMMUTES,
    NOT_PARALLEL,
    _block_swap,
    _cable_kappa,
    check,
    extract_braid,
    summarize,
)
from orbibraid.dsl import (
    ALeaf,
    Act,
    Gen,
    MLeaf,
    codomain,
    domain,
    normalize_presentation,
    parse_diagram,
    parse_mor,
    parse_obj,
    signature,
)
from orbibraid.cli import main
from orbibraid.dsl.morphisms import build
from orbibraid.errors import ArityError, FlavorError, SizeCapError, TypingError
from orbibraid.operad import D, DSTAR, SignedOp, op_of_signature


def test_extract_simple_instances():
    w = extract_braid(parse_mor("sigma(X1, X2)"))
    assert not w.cyl and w.to_text() == "s1" and w.n == 2
    w = extract_braid(parse_mor("tens(sigma(X1, X2), sigma(X3, X4))"))
    assert w.n == 4 and w.to_text() == "s1 s3"
    w = extract_braid(parse_mor("kappa(M, X1)"))
    assert w.cyl and w.to_text() == "k"


def test_extract_doubled_kappa_matches_split_expansion(diagram_dir):
    doubled = extract_braid(parse_mor("kappa(M, tensor(X1, X2))"))
    diag = parse_diagram((diagram_dir / "winding_tensor_pair.diag").read_text())
    assert cyl_braid_eq(doubled, extract_braid(diag.rhs))
    assert cyl_braid_eq(doubled, BraidWord.from_text(2, "k s1 k", cyl=True))


def _cable_kappa_recursive(ell, c):
    """The doubled pole crossing by its recursive definition."""
    if c == 0:
        return []
    if ell > 0:
        return _block_swap(ell - 1, 1, c) + _cable_kappa_recursive(ell - 1, c) + _block_swap(ell - 1, c, 1)
    if c == 1:
        return [(KAPPA, 1)]
    return _cable_kappa_recursive(0, c - 1) + _block_swap(0, c - 1, 1) + [(KAPPA, 1)]


def test_cable_kappa_matches_its_recursive_definition():
    for ell in range(7):
        for c in range(7):
            assert _cable_kappa(ell, c) == _cable_kappa_recursive(ell, c), (ell, c)


def test_kappa_behind_a_deep_module_is_not_limited_by_recursion():
    m = MLeaf()
    for i in range(2, 1502):
        m = Act(m, ALeaf(i))
    w = extract_braid(Gen("kappa", (m, ALeaf(1))))
    assert w.cyl and w.n == 1501
    letters = [(s, 1) for s in range(1500, 0, -1)] + [(KAPPA, 1)] + [(s, 1) for s in range(1, 1501)]
    assert list(w.letters) == letters and len(letters) == 3001


def test_extract_vert_concatenates_and_inverse_negates():
    rng = seeded_rng(9)
    for _ in range(40):
        f = random_mor(rng, n_steps=3)
        g_dom = codomain(f)
        from helpers import applicable_steps

        steps = applicable_steps(g_dom, allow_growth=False)
        if not steps:
            continue
        g = steps[0]
        from orbibraid.dsl import Vert, Inv

        assert extract_braid(Vert(g, f)).letters == extract_braid(f).letters + extract_braid(g).letters
        wf = extract_braid(f)
        winv = extract_braid(Inv(f))
        assert winv.letters == wf.inverse().letters


def test_extract_braid_of_phi_functor_mirrors_positions():
    f = parse_mor("phi(sigma(X1, X2))")
    assert extract_braid(f).to_text() == "s1"
    g = parse_mor("phi(tens(sigma(X1, X2), id(X3)))")
    assert extract_braid(g).to_text() == "s2"


def test_check_flavors_and_verdicts():
    lhs = parse_mor("vert(sigma(X2, X1), sigma(X1, X2))")
    rhs = parse_mor("id(tensor(X1, X2))")
    assert check(lhs, rhs, "braided").status == NOT_COMMUTES
    assert check(lhs, rhs, "symmetric").status == COMMUTES
    with pytest.raises(FlavorError):
        check(lhs, rhs, "monoidal")
    v = check(parse_mor("id(X1)"), parse_mor("id(X2)"), "braided")
    assert v.status == NOT_PARALLEL
    with pytest.raises(FlavorError):
        check(lhs, rhs, "lax")


def test_check_monoidal_requires_parallel():
    v = check(parse_mor("id(tensor(X1, X2))"), parse_mor("id(tensor(X2, X1))"), "monoidal")
    assert v.status == NOT_PARALLEL


def test_verdict_json_fields():
    lhs = parse_mor("sigma(X1, X2)")
    rhs = parse_mor("sigma(X1, X2)")
    doc = check(lhs, rhs, "braided").to_json_dict()
    assert set(doc) >= {"status", "lhs_nf", "rhs_nf", "braid_words"}


def test_braided_implies_symmetric_on_random_pairs():
    rng = seeded_rng(10)
    agree = 0
    for _ in range(60):
        f = random_mor(rng, n_steps=4)
        g = random_mor(rng, n_steps=4)
        try:
            v1 = check(f, g, "braided")
            v2 = check(f, g, "symmetric")
        except TypingError:
            continue
        if v1.status == COMMUTES:
            assert v2.status == COMMUTES
            agree += 1
    # the sample must have exercised the implication at least once
    assert agree >= 1


def test_braid_of_signed_path_examples():
    start = SignedOp(DSTAR, True, (0,), (0,))
    end = braid_of_signed_path(start, BraidWord.from_text(1, "k", cyl=True))
    assert end.eps == (1,) and end.perm == (0,)
    assert braid_of_signed_path(start, BraidWord(1, cyl=True)) == start
    two = SignedOp(DSTAR, False, (0, 0), (0, 1))
    moved = braid_of_signed_path(two, BraidWord.from_text(2, "s1", cyl=True))
    assert moved.eps == (0, 0) and moved.perm == (1, 0)
    with pytest.raises(ArityError):
        braid_of_signed_path(two, BraidWord.from_text(3, "k", cyl=True))
    with pytest.raises(TypingError):
        braid_of_signed_path(SignedOp(D, False, (0,), (0,)), BraidWord.from_text(1, "k", cyl=True))


def test_braid_of_signed_path_moves_domain_class_to_codomain_class():
    # Read as classes, a morphism's domain moved along its braid is its codomain.
    rng = seeded_rng(14)
    checked = 0
    for _ in range(1000):
        f = random_mor(rng, max_leaves=6)
        start = op_of_signature(signature(domain(f)))
        if start.d_arity == 0:
            continue
        end = braid_of_signed_path(start, extract_braid(f))
        assert end == op_of_signature(signature(codomain(f)))
        checked += 1
    assert checked >= 700


def test_endpoint_consistency_small():
    rng = seeded_rng(11)
    for _ in range(60):
        f = random_mor(rng, n_steps=5)
        w = extract_braid(f)
        sig_d = signature(domain(f)).strands
        sig_c = signature(codomain(f)).strands
        pos, windings = strand_ends(w)
        for p in range(len(sig_d)):
            label_d, eps_d = sig_d[p]
            label_c, eps_c = sig_c[pos[p] - 1]
            assert label_d == label_c
            assert (eps_d + windings[p]) % 2 == eps_c


def test_normalize_preserves_braid_sample():
    rng = seeded_rng(12)
    for _ in range(50):
        f = random_mor(rng, n_steps=5)
        nf = normalize_presentation(f)
        assert cyl_braid_eq(extract_braid(f), extract_braid(nf))


def test_word_cap_is_checked_against_the_exact_length(monkeypatch):
    # Each generator's length comes from strand counts before its letters are
    # built, so a cap equal to the word's length must pass and one less refuse.
    rng = seeded_rng(13)
    morphisms = [random_mor(rng, n_steps=6) for _ in range(120)] + [
        parse_mor("kappa(act(M, tensor(X1, X2)), tensor(X3, tensor(X4, X5)))"),
        parse_mor("sigma(tensor(X1, X2), tensor(X3, tensor(X4, X5)))"),
        parse_mor("vert(inv(sigma(tensor(X1, X3), X2)), sigma(tensor(X1, X3), X2))"),
        parse_mor("tens(sigma(X1, X2), sigma(X3, X4))"),
        parse_mor("act(kappa(M, X1), sigma(X2, X3))"),
    ]
    checked = 0
    for f in morphisms:
        length = len(extract_braid(f).letters)
        if not length:
            continue
        monkeypatch.setattr(coherence, "MAX_WORD_LETTERS", length)
        assert len(extract_braid(f).letters) == length
        monkeypatch.setattr(coherence, "MAX_WORD_LETTERS", length - 1)
        with pytest.raises(SizeCapError, match=f"exceeds the cap of {length - 1}"):
            extract_braid(f)
        monkeypatch.undo()
        checked += 1
    assert checked >= 30


EIGHT_LETTERS = "tens(sigma(tensor(X1, X2), tensor(X3, X4)), sigma(tensor(X5, X6), tensor(X7, X8)))"


def test_a_product_past_the_cap_is_refused_at_its_own_length(monkeypatch, tmp_path, capsys):
    # Each factor's word has 4 letters, past a cap of 3; the refusal named the first factor's 4.
    monkeypatch.setattr(coherence, "MAX_WORD_LETTERS", 3)
    refusal = "underlying braid word of 8 letters exceeds the cap of 3"
    for text in (EIGHT_LETTERS, f"inv({EIGHT_LETTERS})", f"phi({EIGHT_LETTERS})"):
        with pytest.raises(SizeCapError) as exc:
            extract_braid(parse_mor(text))
        assert str(exc.value) == refusal
    f = tmp_path / "eight.diag"
    f.write_text(f"flavor = braided\nlhs = {EIGHT_LETTERS}\nrhs = {EIGHT_LETTERS}\n")
    assert main(["coherence", "check", str(f), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["payload"]["error"] == f"SizeCapError: {refusal}"


def test_a_label_spelled_two_ways_meets_itself_at_a_seam():
    # The parser keys a label by its spelling: X1 and X01 are two equal nodes, which a
    # vertical seam compares as it compares any equal objects that are not one node.
    left, right = parse_obj("tensor(X1, X01)").children()
    assert left is not right and left == right
    spelled = "flavor = braided\nlhs = vert(sigma(X2, X01), sigma(X1, X2))\nrhs = id(tensor(X01, X2))\n"
    plain = spelled.replace("X01", "X1")
    for rule in (build, summarize):
        got, want = parse_diagram(spelled, rule), parse_diagram(plain, rule)
        assert got.lhs._types == want.lhs._types and got.rhs._types == want.rhs._types
        assert check(got.lhs, got.rhs, "braided") == check(want.lhs, want.rhs, "braided")
    assert check(want.lhs, want.rhs, "braided").status == NOT_COMMUTES
