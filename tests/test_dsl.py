import copy
import hashlib
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import balanced_tensor_text, random_a_object, random_m_object, random_mor, seeded_rng
from orbibraid.dsl import (
    ALeaf,
    Act,
    Gen,
    Id,
    Inv,
    MLeaf,
    MUnit,
    Phi,
    Tensor,
    TensorMor,
    Vert,
    codomain,
    domain,
    mor_text,
    normalize_presentation,
    obj_text,
    parse_diagram,
    parse_mor,
    parse_obj,
    signature,
    validate,
)
from orbibraid.coherence import SUMMARY_RULES, extract_braid
from orbibraid.dsl.morphisms import TYPE_RULES, ActMor, MorExpr, PhiMor
from orbibraid.dsl.parser import _run
from orbibraid.errors import ParseError, TypingError


def test_parse_single_generators():
    f = parse_mor("sigma(X1, X2)")
    assert f == Gen("sigma", (ALeaf(1), ALeaf(2)))
    v = _run("vert(kappa(M, X1), a(M, X1, X2))", True)
    assert isinstance(v, Vert)
    f = parse_mor("phi2(X1; X2)")
    assert obj_text(domain(f)) == "tensor(Phi(X1), Phi(X2))"
    assert obj_text(codomain(f)) == "Phi(tensor(X2, X1))"


def test_domain_codomain_examples():
    k = parse_mor("kappa(M, X1)")
    assert domain(k) == Act(MLeaf(), ALeaf(1))
    assert codomain(k) == Act(MLeaf(), Phi(ALeaf(1)))
    t = parse_mor("t(X1)")
    assert domain(t) == Phi(Phi(ALeaf(1)))
    assert codomain(t) == ALeaf(1)
    al = parse_mor("alpha(X1, X2, X3)")
    assert obj_text(domain(al)) == "tensor(tensor(X1, X2), X3)"
    assert obj_text(codomain(al)) == "tensor(X1, tensor(X2, X3))"


def test_signature_examples():
    assert signature(parse_obj("tensor(X1, X2)")).strands == ((1, 0), (2, 0))
    assert signature(parse_obj("Phi(tensor(X1, X2))")).strands == ((2, 1), (1, 1))
    assert signature(parse_obj("Phi(Phi(X1))")).strands == ((1, 0),)
    assert signature(parse_obj("act(M, X1)")).module == "M"
    assert signature(parse_obj("act(oneM, one)")).module == "oneM"
    assert signature(parse_obj("tensor(one, one)")).strands == ()


def test_object_type_errors():
    with pytest.raises(TypingError):
        Tensor(MLeaf(), ALeaf(1))
    with pytest.raises(TypingError):
        Phi(MLeaf())
    with pytest.raises(TypingError):
        Act(ALeaf(1), ALeaf(2))
    with pytest.raises(TypingError):
        parse_mor("kappa(X1, X2)")


def test_vert_seam_requires_syntactic_equality():
    with pytest.raises(TypingError):
        domain(_run("vert(kappa(M, X1), a(M, X1, X2))", True))
    ok = parse_mor("vert(kappa(M, tensor(X1, X2)), a(M, X1, X2))")
    assert obj_text(codomain(ok)) == "act(M, Phi(tensor(X1, X2)))"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_mor("vert(sigma(X1, X2)")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_mor("nonsense(X1)")
    assert exc.value.col == 1
    with pytest.raises(ParseError):
        parse_mor("sigma(X1, X2) trailing")


def test_parse_pretty_parse_identity():
    rng = seeded_rng(7)
    for _ in range(40):
        f = random_mor(rng, m_typed=bool(rng.random() < 0.5))
        text = mor_text(f)
        assert _run(text, True) == f


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_parallel_morphisms_share_leaf_multiset(seed):
    rng = seeded_rng(seed % 100_000)
    f = random_mor(rng)
    dom_sig = signature(domain(f))
    cod_sig = signature(codomain(f))
    assert sorted(l for l, _ in dom_sig.strands) == sorted(l for l, _ in cod_sig.strands)
    assert dom_sig.module == cod_sig.module


def _all_braidings_single_strand(f):
    from orbibraid.dsl import MUnit

    if isinstance(f, Gen):
        if f.name in ("sigma", "kappa"):
            if f.name == "sigma":
                return f.params[0].n_strands == 1 and f.params[1].n_strands == 1
            return isinstance(f.params[0], (MLeaf, MUnit)) and f.params[1].n_strands == 1
        return True
    if isinstance(f, (Id,)):
        return True
    if isinstance(f, Inv):
        return _all_braidings_single_strand(f.inner)
    if isinstance(f, Vert):
        return _all_braidings_single_strand(f.after) and _all_braidings_single_strand(f.before)
    if isinstance(f, TensorMor):
        return _all_braidings_single_strand(f.left) and _all_braidings_single_strand(f.right)
    if isinstance(f, ActMor):
        return _all_braidings_single_strand(f.module) and _all_braidings_single_strand(f.algebra)
    if isinstance(f, PhiMor):
        return _all_braidings_single_strand(f.inner)
    return False


def test_normalize_single_strand_and_preserves_typing():
    rng = seeded_rng(8)
    for _ in range(80):
        f = random_mor(rng)
        nf = normalize_presentation(f)
        assert domain(nf) == domain(f)
        assert codomain(nf) == codomain(f)
        assert _all_braidings_single_strand(nf)


def test_normalize_kappa_at_unit_is_braid_free():
    from orbibraid.coherence import extract_braid

    f = parse_mor("kappa(M, one)")
    nf = normalize_presentation(f)
    assert domain(nf) == domain(f) and codomain(nf) == codomain(f)
    assert extract_braid(nf).letters == ()
    assert extract_braid(f).letters == ()
    # sigma at compound Phi-wrapped unit also collapses
    g = parse_mor("sigma(Phi(one), X1)")
    ng = normalize_presentation(g)
    assert extract_braid(ng).letters == ()


# Every generator over each argument that normalisation unwraps from Phi.
PHI_WRAPPED = [
    f"{gen}({args})"
    for inner in ("Phi(tensor(X1, X2))", "Phi(Phi(tensor(X1, X2)))", "Phi(one)")
    for gen, args in (("sigma", f"{inner}, X3"), ("sigma", f"X3, {inner}"), ("kappa", f"M, {inner}"))
]


def _normal_digest(fs) -> str:
    text = "\n".join(mor_text(normalize_presentation(f)) for f in fs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_normalized_trees_are_pinned():
    """Normalised trees, node for node, as recorded before the unwrapping
    rewrites were folded into one rule."""
    rng = random.Random(90210)  # fixed, whatever ORBIBRAID_SEED is
    assert _normal_digest([random_mor(rng) for _ in range(200)]) == (
        "e7ded4994566d41054c8f1c31deb7ec600574bdacd219d491e59eed1606c8bb9"
    )
    assert _normal_digest([parse_mor(s) for s in PHI_WRAPPED]) == (
        "062fc1c32ed3112ae94b1fece0ea213ac622abc49fc451213f97ed503e40bc5b"
    )


def test_horiz_expansion_and_typing():
    h = parse_mor("horiz(kappa(M, X1); id(M), id(X1))")
    assert domain(h) == Act(MLeaf(), ALeaf(1))
    assert isinstance(h, Vert)
    with pytest.raises(TypingError):
        parse_mor("horiz(kappa(M, X1); id(M), id(X2))")
    with pytest.raises(TypingError):
        parse_mor("horiz(vert(sigma(X1, X2), sigma(X2, X1)); id(X1))")
    # whiskering a non-identity inner morphism
    h2 = parse_mor("horiz(sigma(tensor(X1, X2), X3); sigma(X1, X2), id(X3))")
    assert obj_text(domain(h2)) == "tensor(tensor(X1, X2), X3)"
    assert obj_text(codomain(h2)) == "tensor(X3, tensor(X2, X1))"


def test_diagram_parsing_and_errors(diagram_dir):
    text = (diagram_dir / "pentagon.diag").read_text()
    diag = parse_diagram(text)
    assert diag.flavor == "monoidal"
    with pytest.raises(ParseError):
        parse_diagram("lhs = id(X1)\nrhs = id(X1)\n")
    with pytest.raises(ParseError):
        parse_diagram("flavor = sylleptic\nlhs = id(X1)\nrhs = id(X1)\n")


def object_nodes(f) -> list:
    """Every object node a parsed tree holds: parameters, identities and the
    cached domain and codomain of each node, with all their subobjects."""
    stack, out = [], []
    for g in fold_nodes(f):
        stack.extend(g.params if isinstance(g, Gen) else (g.obj,) if isinstance(g, Id) else ())
        stack.extend(g._types or ())
    while stack:
        o = stack.pop()
        out.append(o)
        stack.extend(o.children())
    return out


def fold_nodes(f) -> list:
    stack, out = [f], []
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(g.children())
    return out


def test_equal_objects_in_one_parse_are_one_node():
    f = parse_mor("vert(sigma(X2, tensor(X1, X3)), sigma(tensor(X1, X3), X2))")
    assert f.before.params[0] is f.after.params[1]
    assert f.before.params[1] is f.after.params[0]
    # the seam: the codomain typing builds is the node the parser read
    assert codomain(f.before) is domain(f.after)
    assert domain(f) is codomain(f)
    nodes = object_nodes(f)
    assert len({id(o) for o in nodes}) == len(set(map(obj_text, nodes)))


def test_two_parses_share_no_object_node():
    rng = seeded_rng(11)
    for _ in range(20):
        text = mor_text(random_mor(rng, m_typed=bool(rng.random() < 0.5)))
        f, g = parse_mor(text), parse_mor(text)
        assert f == g
        assert not {id(o) for o in object_nodes(f)} & {id(o) for o in object_nodes(g)}


def unshared(f):
    """f rebuilt by hand, every object node a fresh one: nothing is shared."""

    def obj(o):
        return ALeaf(o.index) if isinstance(o, ALeaf) else type(o)(*map(obj, o.children()))

    if isinstance(f, Gen):
        return Gen(f.name, tuple(map(obj, f.params)))
    if isinstance(f, Id):
        return Id(obj(f.obj))
    return type(f)(*map(unshared, f.children()))


def test_validate_on_an_unshared_tree_gives_the_parsed_types():
    rng = seeded_rng(12)
    for _ in range(30):
        f = parse_mor(mor_text(random_mor(rng, m_typed=bool(rng.random() < 0.5))))
        hand = unshared(f)
        nodes = object_nodes(hand)
        assert len({id(o) for o in nodes}) == len(nodes)
        assert validate(hand) == validate(f)


def every_subobject(o) -> list:
    stack, out = [o], []
    while stack:
        o = stack.pop()
        out.append(o)
        stack.extend(o.children())
    return out


def test_strand_count_is_the_signature_length_however_the_object_was_built():
    rng = seeded_rng(13)
    objects = []
    for _ in range(30):
        labels = list(range(1, rng.randint(1, 5) + 1))
        o = random_m_object(rng, labels) if rng.random() < 0.5 else random_a_object(rng, labels)
        objects += [parse_obj(obj_text(o)), o]  # shared by the parser, and built by hand
    # built by hand, unshared: a Phi chain at the parser's depth limit and a
    # balanced tensor of 1,200 leaves, with module material on top
    chain = ALeaf(7)
    for _ in range(985):
        chain = Phi(chain)
    level = [ALeaf(i) for i in range(1, 1201)]
    while len(level) > 1:
        level = [Tensor(*level[i : i + 2]) if i + 1 < len(level) else level[i] for i in range(0, len(level), 2)]
    objects += [chain, level[0], Act(Act(MUnit(), chain), level[0]), parse_obj(balanced_tensor_text(1, 1200))]
    for whole in objects:
        for o in every_subobject(whole):
            assert o.n_strands == len(signature(o).strands)
    assert chain.n_strands == 1 and signature(chain).strands == ((7, 1),)
    assert objects[-2].n_strands == 1201


NODE_KINDS = (Id, Gen, Inv, Vert, TensorMor, ActMor, PhiMor)


def test_parsed_nodes_and_objects_refuse_every_assignment():
    f = parse_mor("vert(inv(act(id(M), inv(lambda(Phi(tensor(X2, X1)))))), act(id(M), tens(phi0, phi(sigma(X1, X2)))))")
    seen = set()
    for g in fold_nodes(f):
        seen.add(type(g))
        for name in (*g.__match_args__, "_types"):
            kept = getattr(g, name)
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(g, name)
            assert getattr(g, name) is kept
    assert seen == set(NODE_KINDS)
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and validate(copied) == validate(f)
    for o in object_nodes(f):
        for name in (*o.__match_args__, "n_strands"):
            with pytest.raises(FrozenInstanceError):
                setattr(o, name, None)


def test_every_node_kind_has_a_typing_rule_and_a_letter_rule():
    kinds = {kind for kind in MorExpr.__subclasses__() if kind.__module__ == "orbibraid.dsl.morphisms"}
    assert kinds == set(NODE_KINDS)
    assert set(TYPE_RULES) == set(SUMMARY_RULES) == kinds

    class Unknown(MorExpr):
        __slots__ = ()

    for call in (validate, extract_braid):
        with pytest.raises(TypingError, match="no rule for a Unknown node"):
            call(Vert(Unknown(), Id(ALeaf(1))))


def test_parsed_types_are_the_types_validate_gives_a_rebuilt_copy():
    rng = seeded_rng(14)
    for _ in range(300):
        f = parse_mor(mor_text(random_mor(rng, m_typed=bool(rng.random() < 0.5))))
        hand = unshared(f)
        assert hand._types is None
        validate(hand)
        pairs = [(f, hand)]
        while pairs:
            g, h = pairs.pop()
            assert type(g) is type(h) and g._types == h._types, mor_text(f)
            pairs.extend(zip(g.children(), h.children()))
