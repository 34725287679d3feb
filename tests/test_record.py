"""Every value class is a record (orbibraid.record): frozen, slotted, and
equal, hashed and shown as the frozen dataclass with the same fields would
be.  The constructors' checks are raised errors, so this file also runs
under ``python -O``."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from conftest import data_path
from orbibraid.braid import BraidWord, garside_nf
from orbibraid.braid.garside import GarsideNF
from orbibraid.cli import Report
from orbibraid.coherence import check
from orbibraid.dsl import parse_diagram, parse_mor, parse_obj
from orbibraid.dsl.morphisms import Gen, Inv, MorExpr, PhiMor, Vert, mor_text, validate
from orbibraid.dsl.objects import ALeaf, Act, AUnit, MLeaf, MUnit, ObjectExpr, Phi, Tensor, signature
from orbibraid.errors import MalformedWordError, TypingError
from orbibraid.operad import D, DSTAR, Interval, IntervalConfig, SignedOp
from orbibraid.record import Record
from orbibraid.reflect import LaurentScalar, RepData, build_cyl_rep, parse_scalar


def records() -> list:
    """One instance of every record class, its caches filled where it has any:
    the copy and dataclass-twin tests then also show that no comparison reads them."""
    diagram = parse_diagram(data_path("diagrams/winding_module_pair.diag").read_text())
    data = RepData.load(data_path("sl2.rep.json"))
    rep = build_cyl_rep(data, 2)
    nf = garside_nf(BraidWord.from_text(3, "s1 s2 S1 s2 s2"))
    matrix = rep.sigma[0] * rep.kappa
    tensor = Tensor(Phi(ALeaf(2)), ALeaf(1))
    mor = parse_mor("vert(inv(act(id(M), inv(lambda(Phi(tensor(X2, X1)))))), act(id(M), tens(phi0, phi(sigma(X1, X2)))))")
    nodes = {}
    stack = [mor]
    while stack:
        node = stack.pop()
        nodes.setdefault(type(node), node)
        stack.extend(node.children())
    return [
        ALeaf(3),
        AUnit(),
        MLeaf(),
        MUnit(),
        tensor,
        tensor.left,
        Act(Act(MUnit(), ALeaf(1)), tensor),
        signature(tensor),
        diagram,
        *nodes.values(),
        BraidWord(3),
        BraidWord.from_text(2, "k s1 K s1", cyl=True),
        nf,
        SignedOp(DSTAR, True, (1, 0), (1, 0)),
        Interval(Fraction(1, 2), Fraction(1, 8), "b"),
        IntervalConfig(DSTAR, (Interval(Fraction(1, 2), Fraction(1, 8)),), Fraction(1, 4)),
        check(diagram.lhs, diagram.rhs, diagram.flavor),
        parse_scalar("q - q^-1"),
        matrix,
        data,
        rep,
        Report("orbibraid braid eq", "ok", {"equal": True}, 0.25),
    ]


RECORDS = records()


def test_every_record_class_has_an_instance():
    bases = {Record, ObjectExpr, MorExpr}
    classes, stack = set(), [Record]
    while stack:
        kind = stack.pop()
        stack.extend(kind.__subclasses__())
        if kind.__module__.startswith("orbibraid.") and kind not in bases:
            classes.add(kind)
    assert len(classes) == 27
    assert {type(r) for r in RECORDS} == classes


def slots(r) -> list[str]:
    return [name for kind in type(r).__mro__ for name in vars(kind).get("__slots__", ())]


def as_dataclass(r):
    """The frozen dataclass of r's class name and fields, holding r's field values."""
    return dataclasses.make_dataclass(type(r).__name__, r.__match_args__, frozen=True)(*r.fields())


@pytest.mark.parametrize("r", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_every_field_and_cache_slot_refuses_assignment_and_deletion(r):
    assert not hasattr(r, "__dict__")
    names = slots(r)
    assert set(r.__match_args__) <= set(names)
    for name in names:
        kept = getattr(r, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
        assert getattr(r, name) is kept
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.not_a_field = 1


@pytest.mark.parametrize("r", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_copy_deepcopy_and_pickle_round_trip(r):
    hashable = type(r) is not Report  # a report's payload is a dict
    tree = isinstance(r, (ObjectExpr, MorExpr))  # an immutable DSL node is its own copy
    assert (copy.copy(r) is r, copy.deepcopy(r) is r) == (tree, tree)
    for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(copied) is type(r) and copied == r and not copied != r
        if copied is not r and "_types" in slots(r):
            assert copied._types is None
        if hashable:
            assert hash(copied) == hash(r)


@pytest.mark.parametrize("r", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_repr_equality_and_hash_are_those_of_a_frozen_dataclass(r):
    twin = as_dataclass(r)
    assert repr(r) == repr(twin)
    if type(r) is not Report:
        assert hash(r) == hash(twin)
    assert (r == twin) is False  # another class is never equal, as between two dataclasses


@pytest.mark.parametrize(
    "parse, head, field, leaf, other",
    [(parse_obj, "Phi", "child", "X1", "X2"), (parse_mor, "inv", "inner", "sigma(X1, X2)", "sigma(X2, X1)")],
    ids=["Phi", "inv"],
)
def test_trees_at_the_parser_depth_compare_hash_and_print(parse, head, field, leaf, other):
    # The parser reads 985 nested nodes; equality, hash and repr walk them on an explicit stack,
    # with the values and text that the field tuples give a shallow tree.
    depth = 985

    def nested(inner: str):
        return parse(f"{head}(" * depth + inner + ")" * depth)

    a, b, c = nested(leaf), nested(leaf), nested(other)
    assert a is not b and a == b and not a != b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != c and not a == c
    bottom = parse(leaf)
    name = type(a).__name__
    assert repr(a) == f"{name}({field}=" * depth + repr(bottom) + ")" * depth
    shallow = type(a)(bottom)
    assert repr(shallow) == f"{name}({field}={bottom!r})" and hash(shallow) == hash((bottom,))


@pytest.mark.parametrize(
    "parse, head, leaf", [(parse_obj, "Phi", "X1"), (parse_mor, "inv", "sigma(X1, X2)")], ids=["Phi", "inv"]
)
def test_trees_at_the_parser_depth_copy_and_pickle(parse, head, leaf):
    deep = parse(f"{head}(" * 985 + leaf + ")" * 985)
    assert copy.copy(deep) is deep and copy.deepcopy(deep) is deep
    loaded = pickle.loads(pickle.dumps(deep))
    assert loaded is not deep and loaded == deep and repr(loaded) == repr(deep)


def test_a_hand_built_ill_typed_tree_of_five_thousand_levels_pickles():
    # No rule types Gen("nosuch"), and each Vert seam mismatches: the copy is rebuilt, not typed.
    chain = Gen("sigma", (Tensor(ALeaf(1), ALeaf(2)),))
    for level in range(5000):
        chain = PhiMor(chain) if level % 2 else Vert(chain, Inv(Gen("nosuch", ())))
    loaded = pickle.loads(pickle.dumps(chain))
    assert loaded == chain and mor_text(loaded) == mor_text(chain) and loaded._types is None
    assert copy.deepcopy([chain])[0] is chain
    with pytest.raises(TypingError):
        validate(loaded)


@pytest.mark.parametrize(
    "part, whole",
    [
        (lambda: Phi(Tensor(ALeaf(1), ALeaf(2))), Tensor),
        (lambda: PhiMor(Gen("sigma", (ALeaf(1), ALeaf(1)))), Vert),
    ],
    ids=["Tensor", "Vert"],
)
def test_a_shared_subtree_and_its_copies_are_one_tree(part, whole):
    node = part()
    shared, copies = whole(node, node), whole(part(), part())
    assert shared == copies and copies == shared and not shared != copies
    assert hash(shared) == hash(copies) and {shared: 1}[copies] == 1 and {copies: 2}[shared] == 2
    for tree in (shared, copies):
        left, right = pickle.loads(pickle.dumps(tree)).children()
        assert left is right and left == part()


def test_records_of_different_classes_or_fields_differ():
    assert BraidWord(2, ((1, 1),)) != BraidWord(2, ((1, 1),), cyl=True)
    assert ALeaf(1) != ALeaf(2) and ALeaf(1) == ALeaf(1) and AUnit() != MUnit()
    assert parse_scalar("q") != parse_scalar("q^2") and parse_scalar("q") == LaurentScalar(1, (1,), (1,))
    assert (parse_scalar("q") == 1) is False


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ALeaf(0), TypingError, "generator labels are positive integers"),
        (lambda: Tensor(MLeaf(), ALeaf(1)), TypingError, "tensor factors must be A-typed in tensor"),
        (lambda: Phi(MUnit()), TypingError, "the involution applies to A-typed objects only in Phi"),
        (lambda: Act(ALeaf(1), ALeaf(2)), TypingError, "action expects an M-typed left argument"),
        (lambda: Act(MLeaf(), MUnit()), TypingError, "action expects an A-typed right argument"),
        (lambda: BraidWord(0), MalformedWordError, "strand count must be positive"),
        (lambda: BraidWord(2, ((0, 1),)), MalformedWordError, "sigma index 0 out of range for 2 strands"),
        (lambda: BraidWord(2, ((1, 2),), cyl=True), MalformedWordError, "letter exponent must be"),
        (lambda: GarsideNF(3, 0, ((0, 1, 2),)), ValueError, "factor 0 is not a proper permutation braid"),
        (lambda: GarsideNF(3, 0, ((1, 0, 2), (0, 2, 1))), ValueError, "factor 1 is not left-weighted"),
        (lambda: SignedOp(D, True, (), ()), TypingError, "no operation targets"),
        (lambda: SignedOp(D, False, (2,), (0,)), TypingError, "eps entries must be 0 or 1"),
        (lambda: SignedOp(D, False, (0, 0), (1, 1)), TypingError, "perm is not a permutation"),
    ],
)
def test_constructor_checks_are_raised_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
