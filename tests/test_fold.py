import copy
import functools
import pickle

import pytest

from conftest import data_path
from orbibraid.coherence import check, extract_braid
from orbibraid.dsl import Gen, Id, TensorMor, Vert, mor_text, normalize_presentation, parse_mor, validate
from orbibraid.dsl.morphisms import desugar_horiz
from orbibraid.dsl.objects import ALeaf, Tensor
from orbibraid.dsl.parser import MAX_DEPTH
from orbibraid.errors import OrbibraidError, ParseError
from orbibraid.reflect import RepData, eval_mor

# (horiz form, the same morphism expanded by hand, a parallel rhs it commutes with)
HORIZ_CASES = [
    (
        "horiz(kappa(M, tensor(X1, X2)); id(M), sigma(X1, X2))",
        "vert(kappa(M, tensor(X2, X1)), act(id(M), sigma(X1, X2)))",
        "vert(act(id(M), phi(sigma(X1, X2))), kappa(M, tensor(X1, X2)))",
    ),
    (
        "horiz(inv(sigma(X1, X2)); id(X1), inv(t(X2)))",
        "vert(inv(sigma(X1, Phi(Phi(X2)))), tens(inv(t(X2)), id(X1)))",
        "vert(tens(id(X1), inv(t(X2))), inv(sigma(X1, X2)))",
    ),
]


@pytest.mark.parametrize("sugared, expanded, rhs", HORIZ_CASES)
def test_horiz_matches_its_hand_expansion(sl2_data, sugared, expanded, rhs):
    f, g, h = parse_mor(sugared), parse_mor(expanded), parse_mor(rhs)
    assert f == g and mor_text(f) == expanded
    assert check(f, h, "braided") == check(g, h, "braided")
    assert check(f, h, "braided").status == "COMMUTES"
    assert extract_braid(f) == extract_braid(g)
    assert eval_mor(sl2_data, f) == eval_mor(sl2_data, g)


def test_expand_horiz_desugars_nested_inners():
    x1, x2 = ALeaf(1), ALeaf(2)
    inner = desugar_horiz(Gen("sigma", (x1, x2)), (Id(x1), Id(x2)))
    out = desugar_horiz(Id(Tensor(x1, x2)), (inner,))
    assert out == Vert(Gen("sigma", (x1, x2)), TensorMor(Id(x1), Id(x2)))
    assert validate(out) == (Tensor(x1, x2), Tensor(x2, x1))


def test_folds_do_not_recurse():
    x = Tensor(ALeaf(1), ALeaf(2))
    f = Id(x)
    for _ in range(20_000):
        f = Vert(Id(x), f)
    assert validate(f) == (x, x)
    assert extract_braid(f).letters == ()


def test_parser_depth_limit_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_mor("inv(" * 1500 + "sigma(X1, X2)" + ")" * 1500)
    assert exc.value.line == 1 and exc.value.col > 1
    assert "nested too deeply" in str(exc.value)


# Each nesting kind the parser reads, as (text around the nest, head of a level, innermost text,
# tail of a level, text after the nest).
NESTING_KINDS = {
    "Phi": ("kappa(M, ", "Phi(", "X1", ")", ")"),
    "Phi-tensor-in-sigma": ("sigma(", "Phi(", "tensor(X1, X2)", ")", ", X3)"),
    "act-one": ("kappa(", "act(", "M", ", one)", ", X1)"),
    "tensor-one": ("sigma(", "tensor(one, ", "tensor(X1, X2)", ")", ", X3)"),
    "inv": ("", "inv(", "sigma(X1, X2)", ")", ""),
    "phi": ("", "phi(", "sigma(X1, X2)", ")", ""),
    "vert": ("", "vert(id(tensor(X2, X1)), ", "sigma(X1, X2)", ")", ""),
    "tens": ("", "tens(id(X1), ", "sigma(X1, X2)", ")", ""),
}


@functools.cache
def deepest(kind: str):
    """The tree of the kind nested as deep as the parser accepts, and that depth."""
    before, head, inner, tail, after = NESTING_KINDS[kind]
    for depth in range(MAX_DEPTH, 0, -1):
        try:
            return depth, parse_mor(before + head * depth + inner + tail * depth + after)
        except ParseError:
            pass


WALKS = {
    "validate": validate,
    "mor_text": mor_text,
    "==": lambda f: f == parse_mor(mor_text(f)),
    "hash": hash,
    "repr": repr,
    "pickle": lambda f: pickle.loads(pickle.dumps(f)) == f,
    "deepcopy": copy.deepcopy,
    "extract_braid": extract_braid,
    "check": lambda f: check(f, f, "braided"),
    "normalize_presentation": normalize_presentation,
    "eval_mor": lambda f: eval_mor(RepData.load(data_path("sl2.rep.json")), f),
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_every_walk_takes_the_deepest_tree_of_each_kind(kind, walk):
    # A walk that recursed once per level raised RecursionError here, which is neither a result nor a refusal.
    depth, f = deepest(kind)
    assert depth > 980
    raised = None
    try:
        WALKS[walk](f)
    except OrbibraidError:
        pass
    except Exception as exc:  # named only: its traceback is as deep as the tree, and slow to report
        raised = type(exc).__name__
    assert raised is None, f"{walk} of {depth} levels of {kind} raised {raised}"
