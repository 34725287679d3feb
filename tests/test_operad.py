import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import identity_op, seeded_rng
from orbibraid.dsl import Tensor, obj_text, signature
from orbibraid.errors import ArityError, GeometryError, TypingError
from orbibraid.operad import (
    D,
    DSTAR,
    Interval,
    IntervalConfig,
    SignedOp,
    brute_force_classify_1d,
    classify,
    compose,
    compose_intervals,
    op_object,
    op_of_signature,
    parse_ranks,
    parse_signed_op,
    realize_intervals,
)

DS = DSTAR


def all_ops(max_d_arity: int, output: str, module: bool):
    """Every class with the given output color and module flag."""
    out = []
    for k in range(max_d_arity + 1):
        inputs = ([DS] if module else []) + [D] * k
        out.extend(classify(len(inputs), output, inputs))
    return out


def test_classify_counts_and_emptiness():
    assert len(classify(1, D, [D])) == 2
    assert classify(1, D, [DS]) == []
    assert len(classify(3, DS, [D, D, D])) == 48
    assert classify(2, DS, [DS, DS]) == []
    for k in range(4):
        got = len(classify(k, D, [D] * k))
        want = 2**k * _fact(k)
        assert got == want
    with pytest.raises(ArityError):
        classify(2, D, [D])
    # Fixed: an unknown input colour was taken for D, an unknown output gave no classes.
    with pytest.raises(TypingError, match="unknown color 'Y'"):
        classify(1, D, ["Y"])
    with pytest.raises(TypingError, match="unknown color 'X'"):
        classify(2, "X", [DS, DS])


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_classify_normalises_module_first():
    ops = classify(2, DS, [D, DS])
    assert ops and all(op.has_module_input and op.inputs == (DS, D) for op in ops)
    assert ops == classify(2, DS, [DS, D])


def test_signed_op_invariants():
    # What the record can hold is checked by its constructor.
    with pytest.raises(TypingError, match="no operation targets"):
        SignedOp(D, True, (), ())
    with pytest.raises(TypingError, match="eps entries must be 0 or 1"):
        SignedOp(D, False, (2,), (0,))
    with pytest.raises(TypingError, match="perm is not a permutation"):
        SignedOp(D, False, (0, 1), (0,))
    with pytest.raises(TypingError, match="perm is not a permutation"):
        SignedOp(D, False, (0, 0), (0, 0))
    # An output colour that parse_signed_op would refuse to read back.
    with pytest.raises(TypingError, match="unknown color 'X'"):
        SignedOp("X", False, (), ())
    with pytest.raises(TypingError, match="unknown color 'X'"):
        classify(0, "X", [])
    # A colour list is read only from text, and its shape is checked there.
    with pytest.raises(TypingError, match="no operation targets"):
        parse_signed_op("op D [Dstar] eps= perm=")
    with pytest.raises(TypingError, match="the pole input must come first"):
        parse_signed_op("op Dstar [D,Dstar] eps=0 perm=1")
    with pytest.raises(TypingError, match="at most one pole input"):
        parse_signed_op("op Dstar [Dstar,Dstar] eps= perm=")
    with pytest.raises(TypingError, match="indexed by the D inputs"):
        parse_signed_op("op D [D] eps=01 perm=1")
    with pytest.raises(TypingError, match="indexed by the D inputs"):
        parse_signed_op("op D [D,D] eps=00 perm=1")


def test_compose_involution_squares_to_identity_class():
    phi = SignedOp(D, False, (1,), (0,))
    assert compose(phi, [phi]) == identity_op(D)


def test_compose_spec_example_with_swap():
    g = SignedOp(D, False, (0, 0), (1, 0))
    f1 = SignedOp(D, False, (0,), (0,))
    f2 = SignedOp(D, False, (1,), (0,))
    got = compose(g, [f1, f2])
    # Derived by composing concrete interval embeddings and reclassifying.
    oracle = brute_force_classify_1d(
        compose_intervals(realize_intervals(g), [realize_intervals(f1), realize_intervals(f2)])
    )
    assert got == oracle
    assert got.eps == (0, 1)
    assert got.perm == (1, 0)


def test_compose_identity_laws_exhaustive():
    idD, idS = identity_op(D), identity_op(DS)
    ops = all_ops(3, D, False) + all_ops(2, DS, False) + all_ops(2, DS, True)
    for op in ops:
        if op.arity == 0:
            continue
        plugs = [idS if c == DS else idD for c in op.inputs]
        assert compose(op, plugs) == op
        outer = idS if op.output == DS else idD
        assert compose(outer, [op]) == op


def test_compose_type_errors():
    g = SignedOp(D, False, (0, 0), (0, 1))
    f_star = classify(1, DS, [D])[0]
    with pytest.raises(TypingError):
        compose(g, [f_star, identity_op(D)])
    with pytest.raises(ArityError):
        compose(g, [identity_op(D)])
    gm = classify(2, DS, [DS, D])[0]
    with pytest.raises(TypingError):
        compose(gm, [identity_op(DS), identity_op(D)], outer_perm=(1, 0))


def test_compose_agrees_with_interval_oracle_randomized():
    rng = seeded_rng(6)
    pool_d = all_ops(2, D, False)
    pool_s = all_ops(2, DS, False) + all_ops(2, DS, True)
    checked = 0
    while checked < 200:
        g = rng.choice(pool_d + pool_s)
        if g.arity == 0:
            continue
        fs = []
        for c in g.inputs:
            fs.append(rng.choice([op for op in (pool_s if c == DS else pool_d) if op.output == c]))
        got = compose(g, fs)
        oracle = brute_force_classify_1d(
            compose_intervals(realize_intervals(g), [realize_intervals(f) for f in fs])
        )
        assert got == oracle
        checked += 1


def test_brute_force_single_interval_examples():
    pos = IntervalConfig(DS, (Interval(Fraction(1, 2), Fraction(1, 8)),))
    assert brute_force_classify_1d(pos).eps == (0,)
    red = IntervalConfig(D, (Interval(Fraction(0), Fraction(1, 4), "r"),))
    assert brute_force_classify_1d(red).eps == (1,)


def test_brute_force_fig_perm_panels():
    left = IntervalConfig(
        D,
        (
            Interval(Fraction(1, 12), Fraction(1, 12), "r"),
            Interval(Fraction(-1, 2), Fraction(1, 6), "r"),
            Interval(Fraction(-7, 12), Fraction(1, 4), "b"),
        ),
    )
    op = brute_force_classify_1d(left)
    assert op.eps == (1, 1, 0)
    assert op.perm == (2, 0, 1)
    right = IntervalConfig(
        DS,
        (
            Interval(Fraction(1, 4), Fraction(1, 12)),
            Interval(Fraction(-7, 12), Fraction(1, 12)),
            Interval(Fraction(19, 24), Fraction(1, 24)),
        ),
    )
    op = brute_force_classify_1d(right)
    assert op.eps == (0, 1, 0)
    assert op.perm == (0, 1, 2)


def test_geometry_errors():
    with pytest.raises(GeometryError):
        brute_force_classify_1d(
            IntervalConfig(DS, (Interval(Fraction(1, 2), Fraction(1, 4)), Interval(Fraction(2, 5), Fraction(1, 4))))
        )
    with pytest.raises(GeometryError):
        brute_force_classify_1d(IntervalConfig(DS, (Interval(Fraction(9, 10), Fraction(1, 5)),)))
    with pytest.raises(GeometryError):
        brute_force_classify_1d(IntervalConfig(DS, (Interval(Fraction(1, 8), Fraction(1, 4)),)))
    with pytest.raises(GeometryError):
        brute_force_classify_1d(IntervalConfig(D, (Interval(Fraction(0), Fraction(1, 4)),)))


def test_realize_then_classify_round_trip_exhaustive_small():
    for op in all_ops(3, D, False) + all_ops(3, DS, False) + all_ops(2, DS, True):
        assert brute_force_classify_1d(realize_intervals(op)) == op


def test_op_object_examples():
    assert obj_text(op_object(SignedOp(D, False, (0, 0), (0, 1)))) == "tensor(X1, X2)"
    assert obj_text(op_object(SignedOp(D, False, (), ()))) == "one"
    act = parse_signed_op("op Dstar [Dstar,D,D] eps=10 perm=2 1")
    assert obj_text(op_object(act)) == "act(M, tensor(X2, Phi(X1)))"
    pointing = classify(1, DS, [D])[1]
    assert obj_text(op_object(pointing)) == "act(oneM, Phi(X1))"
    three = SignedOp(D, False, (0, 0, 0), (2, 0, 1))
    assert obj_text(op_object(three)) == "tensor(tensor(X3, X1), X2)"


def test_op_of_signature_inverts_op_object():
    for op in all_ops(3, D, False) + all_ops(3, DS, False) + all_ops(3, DS, True):
        assert op_of_signature(signature(op_object(op))) == op


def _tensor_depth(o) -> int:
    deepest, stack = 0, [(o, 0)]
    while stack:
        node, depth = stack.pop()
        depth += type(node) is Tensor
        deepest = max(deepest, depth)
        stack.extend((kid, depth) for kid in node.children())
    return deepest


def test_op_object_tensor_is_balanced():
    # A right-nested chain would make every signature quadratic in d.
    rng = seeded_rng(13)
    d = 1000
    perm = list(range(d))
    rng.shuffle(perm)
    op = SignedOp(DS, True, tuple(rng.randint(0, 1) for _ in range(d)), tuple(perm))
    assert _tensor_depth(op_object(op)) <= math.ceil(math.log2(d)) + 1
    assert op_of_signature(signature(op_object(op))) == op


def _valid_compose_triples():
    """Every valid (g, fs, outer_perm), g of 1-3 inputs, g and fs with at most 2 disks."""
    pool = all_ops(2, D, False) + all_ops(2, DS, False) + all_ops(2, DS, True)
    by_output = {c: [op for op in pool if op.output == c] for c in (D, DS)}
    out = []
    for g in pool:
        if g.arity == 0:
            continue
        for outer in itertools.permutations(range(g.arity)):
            if g.has_module_input and outer[0] != 0:
                continue
            out.extend((g, fs, outer) for fs in itertools.product(*[by_output[g.inputs[s]] for s in outer]))
    return out


def test_compose_pinned_on_a_sample_of_valid_triples():
    # Recorded from the block-ranking compose that substitution replaced.
    triples = _valid_compose_triples()
    assert len(triples) == 47014
    sample = random.Random(20261018).sample(triples, 10_000)
    text = "\n".join(compose(g, fs, outer).to_text() for g, fs, outer in sample)
    assert hashlib.sha256(text.encode()).hexdigest() == "0c2b26942003ebdb134b52626ec3d90e7b3fac4d248ae670f92e1be577d348aa"


def test_signed_op_text_round_trip():
    for op in all_ops(2, D, False) + all_ops(2, DS, True):
        assert parse_signed_op(op.to_text()) == op


def test_nullary_text_round_trips():
    for text in ("op D [] eps= perm=", "op Dstar [] eps= perm=", "op Dstar [Dstar] eps= perm="):
        assert parse_signed_op(text).to_text() == text


@pytest.mark.parametrize(
    "text",
    [
        "op D [D] eps=1 perm=1 foo=bar",
        "op D [D] eps=0 eps=1 perm=1",
        "op D extra [D] eps=1 perm=1",
        "op D [D,,D] eps=00 perm=1 2",
        "op D [D] eps=0 1 perm=1",
    ],
    ids=["unknown-key", "repeated-key", "words-before-inputs", "empty-color", "second-eps-token"],
)
def test_parse_signed_op_refuses_what_to_text_never_writes(text):
    with pytest.raises(TypingError):
        parse_signed_op(text)


def test_a_rank_past_the_digit_cap_is_refused_whatever_the_int_limit(int_digit_limit):
    # int() leaked its own ValueError past the interpreter's limit, and read the rank without one.
    with pytest.raises(TypingError, match="^a rank has at most 4300 digits, found 5000$"):
        parse_signed_op("op D [D] eps=0 perm=" + "1" * 5000)
    with pytest.raises(TypingError, match="^a rank is a decimal number, found 'a'$"):
        parse_ranks("a b")
    assert parse_ranks(" 2  1 ") == (1, 0) and parse_ranks("") == ()
