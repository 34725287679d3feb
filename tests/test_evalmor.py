import json
import random
import time

import pytest

from helpers import flip_matrix, random_mor, seeded_rng
from orbibraid.coherence import COMMUTES, check, extract_braid
from orbibraid.dsl import objects, parse_diagram, parse_mor
from orbibraid.dsl.morphisms import ActMor, Gen, Id, MorExpr, PhiMor, TensorMor, Vert, mor_text, validate
from orbibraid.dsl.objects import MLeaf
from orbibraid.errors import DimensionError, SingularMatrixError, UnsupportedGeneratorError
from orbibraid.reflect import QMatrix, RepData, eval_mor
from test_cli import run_json
from test_reflect import ANTIDIAGONAL_T, SL2_R, make_data, sl2_R


def test_identity_and_structural_generators(sl2_data):
    assert eval_mor(sl2_data, parse_mor("id(X1)")).is_identity
    assert eval_mor(sl2_data, parse_mor("id(act(M, X1))")).rows == 2
    assert eval_mor(sl2_data, parse_mor("alpha(X1, X2, X3)")).is_identity
    assert eval_mor(sl2_data, parse_mor("lambda(X1)")).is_identity
    assert eval_mor(sl2_data, parse_mor("r(M)")).is_identity
    assert eval_mor(sl2_data, parse_mor("t(X1)")).is_identity


def test_units_are_one_dimensional(sl2_data):
    assert eval_mor(sl2_data, parse_mor("phi0()")).rows == 1
    assert eval_mor(sl2_data, parse_mor("id(one)")).is_identity


def _leaves(k: int) -> str:
    return "X1" if k == 1 else f"tensor({_leaves(k - 1)}, X{k})"


def test_domain_past_the_dimension_cap_is_refused_before_any_matrix(sl2_data):
    started = time.perf_counter()
    with pytest.raises(DimensionError, match=r"dimension 1\*2\^9 exceeds the cap of 256"):
        eval_mor(sl2_data, parse_mor(f"id({_leaves(9)})"))
    assert time.perf_counter() - started < 1
    assert eval_mor(sl2_data, parse_mor(f"id({_leaves(8)})")).rows == 256


def test_sigma_is_flip_compose_R(sl2_data):
    got = eval_mor(sl2_data, parse_mor("sigma(X1, X2)"))
    assert got == flip_matrix(2, 2) * sl2_R()


def test_winding_and_hexagon_routes_evaluate_equal(sl2_data, diagram_dir):
    for name in (
        "winding_module_pair.diag",
        "winding_tensor_pair.diag",
        "hexagon1.diag",
        "hexagon2.diag",
    ):
        diag = parse_diagram((diagram_dir / name).read_text())
        assert eval_mor(sl2_data, diag.lhs) == eval_mor(sl2_data, diag.rhs), name


def test_twisted_reflection_routes_evaluate_equal(diagram_dir):
    diag = parse_diagram((diagram_dir / "reflection_twisted.diag").read_text())
    data = make_data([["0", "1"], ["1", "0"]], T_rows=[["1", "0"], ["0", "-1"]])
    assert eval_mor(data, diag.lhs) == eval_mor(data, diag.rhs)


K_GRID = ("0", "1", "-1", "q", "-q", "q^-1", "q - q^-1")
# One K per T that passes `rep verify`, so every sample holds both verdicts.
TWISTS = {
    "identity": (None, [["q - q^-1", "1"], ["1", "0"]]),
    "sign": ([["1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]]),
    "antidiagonal": (ANTIDIAGONAL_T, [["1", "0"], ["1", "1"]]),
    "diag-1-q": ([["1", "0"], ["0", "q"]], [["q^-1", "-1"], ["-q", "0"]]),
}


def rep_doc(K_rows, T_rows=None, **extra) -> dict:
    return {"d": 2, "m": 1, "R": SL2_R, "K": K_rows, **({"T": T_rows} if T_rows else {}), **extra}


@pytest.mark.parametrize("twist", TWISTS)
def test_rep_verify_agrees_with_the_twisted_reflection_routes(capsys, tmp_path, diagram_dir, twist):
    # Differential: on a seeded sample of invertible K, rep verify's reflection and
    # cylinder_rep_n3 verdicts equal the eval_mor equality of the two routes of the
    # twisted reflection diagram, which coherence check decides COMMUTES.
    diag = parse_diagram((diagram_dir / "reflection_twisted.diag").read_text())
    T_rows, passing = TWISTS[twist]
    rng = seeded_rng(21)
    f = tmp_path / "rep.json"
    verdicts, K, checked = set(), passing, 0
    while checked < 80:
        if checked:
            K = [[rng.choice(K_GRID) for _ in range(2)] for _ in range(2)]
        doc = rep_doc(K, T_rows)
        try:
            data = RepData.from_json_dict(doc)
        except SingularMatrixError:
            continue
        checked += 1
        routes_equal = eval_mor(data, diag.lhs) == eval_mor(data, diag.rhs)
        f.write_text(json.dumps(doc))
        code, report = run_json(capsys, "rep", "verify", str(f))
        payload = report["payload"]
        assert payload["yang_baxter"] is True
        assert payload["reflection"] is payload["cylinder_rep_n3"] is routes_equal, K
        assert code == (0 if routes_equal else 1)
        verdicts.add(routes_equal)
    assert verdicts == {True, False}


@pytest.mark.parametrize("twist", ["antidiagonal", "diag-1-q"])
def test_check_commutes_exactly_when_twisted_routes_evaluate_equal(diagram_dir, twist):
    # With T not the identity and a K that passes rep verify, on every bundled diagram.  The
    # balancing is the identity, so t evaluates although T = diag(1, q) squares to no identity.
    T_rows, K_rows = TWISTS[twist]
    data = RepData.from_json_dict(rep_doc(K_rows, T_rows, balancing=[["1", "0"], ["0", "1"]]))
    for path in sorted(diagram_dir.glob("*.diag")):
        diag = parse_diagram(path.read_text())
        commutes = check(diag.lhs, diag.rhs, diag.flavor).status == COMMUTES
        assert commutes == (eval_mor(data, diag.lhs) == eval_mor(data, diag.rhs)), path.name


def test_double_braiding_not_identity(sl2_data, diagram_dir):
    diag = parse_diagram((diagram_dir / "sigma_squared.diag").read_text())
    assert eval_mor(sl2_data, diag.lhs) != eval_mor(sl2_data, diag.rhs)


def test_phi2_matches_braiding_at_twisted_objects(sl2_data):
    phi2 = eval_mor(sl2_data, parse_mor("phi2(X1; X2)"))
    sigma = eval_mor(sl2_data, parse_mor("sigma(Phi(X1), Phi(X2))"))
    assert phi2 == sigma


IDENTITY_BALANCING = [["1", "0"], ["0", "1"]]
# Under T = diag(1, q), which squares to no identity, some commuting squares evaluate unequal
# with the identity balancing; not every one of them involves t.  The square samples draw from
# fixed seeds, whatever ORBIBRAID_SEED is, so the strict xfail holds.
T_SQUARED_NOT_I = pytest.mark.xfail(
    strict=True, reason="FOUND in CHANGES.md: with T^2 != I, commuting naturality squares evaluate unequal"
)
NATURALITY_TWISTS = [pytest.param(t, marks=T_SQUARED_NOT_I) if t == "diag-1-q" else t for t in TWISTS]


def balanced_data(twist: str) -> RepData:
    T_rows, K_rows = TWISTS[twist]
    return RepData.from_json_dict(rep_doc(K_rows, T_rows, balancing=IDENTITY_BALANCING))


def assert_squares_commute_and_evaluate_equal(data: RepData, squares) -> None:
    for lhs, rhs in squares:
        assert check(lhs, rhs, "braided").status == COMMUTES, mor_text(lhs)
        equal = eval_mor(data, lhs) == eval_mor(data, rhs)
        assert equal, mor_text(lhs)


def a_typed_mor(rng, max_leaves: int) -> MorExpr:
    return random_mor(rng, n_leaves=rng.randint(1, max_leaves), n_steps=rng.randint(1, 4), m_typed=False)


@pytest.mark.parametrize("twist", TWISTS)
def test_phi_of_a_braiding_is_the_braiding_of_the_twisted_strands(twist):
    # phi(f) is f conjugated by T on every leg, so Phi carries the braiding of X1, X2 to the one
    # of Phi(X2), Phi(X1) through phi2.  Both words are s1; with phi(f) read as f itself, the two
    # sides evaluated unequal under the antidiagonal T.
    lhs = parse_mor("vert(phi(sigma(X1, X2)), phi2(X2, X1))")
    rhs = parse_mor("vert(phi2(X1, X2), sigma(Phi(X2), Phi(X1)))")
    assert extract_braid(lhs).to_text() == extract_braid(rhs).to_text() == "s1"
    assert_squares_commute_and_evaluate_equal(balanced_data(twist), [(lhs, rhs)])


@pytest.mark.parametrize("twist", NATURALITY_TWISTS)
def test_phi2_is_natural_in_both_arguments(twist):
    # phi2 . (phi(a) (x) phi(b)) = phi(b (x) a) . phi2 for random a: X -> X', b: Y -> Y' on one
    # or two leaves.
    rng = random.Random(0)
    squares = []
    for _ in range(50):
        a, b = a_typed_mor(rng, 2), a_typed_mor(rng, 2)
        (x, x2), (y, y2) = validate(a), validate(b)
        after = Vert(Gen("phi2", (x2, y2)), TensorMor(PhiMor(a), PhiMor(b)))
        squares.append((after, Vert(PhiMor(TensorMor(b, a)), Gen("phi2", (x, y)))))
    assert_squares_commute_and_evaluate_equal(balanced_data(twist), squares)


@pytest.mark.parametrize("twist", NATURALITY_TWISTS)
def test_kappa_is_natural_in_its_strands(twist):
    # kappa_{M,X'} . (1 act a) = (1 act phi(a)) . kappa_{M,X} for random a: X -> X' on one to
    # three leaves: the winding carries X to Phi(X), and a past it to phi(a).
    rng = random.Random(101)
    m = MLeaf()
    squares = []
    for _ in range(50):
        a = a_typed_mor(rng, 3)
        x, x2 = validate(a)
        after = Vert(Gen("kappa", (m, x2)), ActMor(Id(m), a))
        squares.append((after, Vert(ActMor(Id(m), PhiMor(a)), Gen("kappa", (m, x)))))
    assert_squares_commute_and_evaluate_equal(balanced_data(twist), squares)


def one_strand_product(data: RepData, letters, states: tuple[int, ...], lead: int) -> tuple[QMatrix, tuple[int, ...]]:
    """The product over a word's letters (the first rightmost) of one-strand matrices on a leg of
    dimension lead (M, or lead = 1 for no module) then V^n: k is the winding at the state of the
    strand in position 1, and flips that state; s_i is the braiding at the states of the strands
    in positions i and i + 1, and swaps them.  Returns the product and the final states."""
    d, n = data.d, len(states)
    out = QMatrix.identity(lead * d**n)
    for i, _ in letters:
        if i == 0:
            out = data.winding(states[0]).placed(1, d ** (n - 1)) * out
            states = (1 - states[0],) + states[1:]
        else:
            out = data.braiding(states[i - 1], states[i]).placed(lead * d ** (i - 1), d ** (n - i - 1)) * out
            states = states[: i - 1] + (states[i], states[i - 1]) + states[i + 1 :]
    return out, states


@pytest.mark.parametrize("twist", TWISTS)
def test_block_winding_is_its_cable_then_phi2(twist):
    # eval_mor keeps a Phi-wrapped object's legs in tree order, where the cable k s1 k of
    # kappa over a two-strand block leaves them in signature order, X2 before X1.  So the
    # matrix is the cable's product (each strand's state moving with it), then phi2 on the
    # V legs, and not the cable's product alone.  The identity twist is the bundled sl2 data.
    T_rows, K_rows = TWISTS[twist]
    data = make_data(K_rows, T_rows)
    f = parse_mor("kappa(M, tensor(X1, X2))")
    word = extract_braid(f)
    assert word.to_text() == "k s1 k"
    cable, states = one_strand_product(data, word.letters, (0, 0), data.m)
    assert states == (1, 1)
    phi2 = eval_mor(data, parse_mor("act(id(M), phi2(X2, X1))"))
    assert phi2 == data.braiding(1, 1).placed(data.m, 1)
    assert eval_mor(data, f) == phi2 * cable
    assert eval_mor(data, f) != cable


@pytest.mark.parametrize("twist", TWISTS)
def test_block_crossing_is_its_cable_over_legs_in_tree_order(twist):
    # A crossing moves the block Phi(tensor(X1, X2)) whole, so its legs stay in tree order
    # (X1, X2) at states (1, 1) and the cable s2 s1 alone gives the matrix.
    T_rows, K_rows = TWISTS[twist]
    data = make_data(K_rows, T_rows)
    f = parse_mor("sigma(Phi(tensor(X1, X2)), X3)")
    word = extract_braid(f)
    assert word.to_text() == "s2 s1"
    cable, states = one_strand_product(data, word.letters, (1, 1, 0), 1)
    assert states == (0, 1, 1)
    assert eval_mor(data, f) == cable


def test_no_inverse_of_an_identity(sl2_data, diagram_dir, monkeypatch):
    # Over both sides of the corpus, 59 inversions were of identities: 40 twists
    # (T is the identity in sl2) and 19 inv(...) of structural generators.
    twisted = make_data([["0", "1"], ["1", "0"]], T_rows=[["1", "0"], ["0", "-1"]])
    inverted = []
    inverse = QMatrix.inverse

    def counted(m):
        inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(QMatrix, "inverse", counted)
    for path in sorted(diagram_dir.glob("*.diag")):
        diag = parse_diagram(path.read_text())
        eval_mor(sl2_data, diag.lhs)
        eval_mor(sl2_data, diag.rhs)
    assert inverted == []
    # A twisted strand inverts nothing: T^-1 was taken when the data was built.
    diag = parse_diagram((diagram_dir / "reflection_twisted.diag").read_text())
    eval_mor(twisted, diag.lhs)
    assert inverted == []


def test_inverse_and_vert(sl2_data):
    f = parse_mor("vert(inv(kappa(M, X1)), kappa(M, X1))")
    assert eval_mor(sl2_data, f).is_identity


def test_unsupported_cases():
    data = make_data([["0", "1"], ["1", "0"]], T_rows=[["1", "1"], ["0", "1"]])
    assert data.balancing is None
    with pytest.raises(UnsupportedGeneratorError, match="no balancing supplied and T\\^2 is not the identity"):
        eval_mor(data, parse_mor("t(X1)"))
    # T^2 = I, decided once at load as T = T^-1: the balancing is the identity.
    involutive = make_data([["0", "1"], ["1", "0"]], T_rows=[["1", "0"], ["0", "-1"]])
    assert involutive.balancing == QMatrix.identity(2)
    assert eval_mor(involutive, parse_mor("t(X1)")).is_identity
    sl2 = make_data([["0", "1"], ["1", "0"]])
    with pytest.raises(UnsupportedGeneratorError):
        eval_mor(sl2, parse_mor("id(oneM)"))
    with pytest.raises(UnsupportedGeneratorError):
        eval_mor(sl2, parse_mor("kappa(oneM, X1)"))


def test_balancing_supplied_when_twist_not_involutive():
    # With an explicit balancing the t generator evaluates to it.
    data = RepData.build(
        2,
        1,
        sl2_R(),
        QMatrix.identity(2),
        balancing=QMatrix.from_strings([["q", "0"], ["0", "q"]]),
    )
    got = eval_mor(data, parse_mor("t(X1)"))
    assert got == QMatrix.from_strings([["q", "0"], ["0", "q"]])



def test_balancing_follows_the_ribbon_rule_under_deep_involutions(sl2_data):
    # The parser accepts 985 nested Phi; the balancing walks them on an explicit stack.
    deep = parse_mor("t(" + "Phi(" * 985 + "X1" + ")" * 985 + ")")
    assert eval_mor(sl2_data, deep) == eval_mor(sl2_data, parse_mor("t(X1)"))
    # theta_{X (x) Y} = sigma_{Y,X} (theta_Y (x) theta_X) sigma_{X,Y}, with a balancing
    # that is not scalar, so the order of the factors shows.
    balancing = QMatrix.from_strings([["q", "0"], ["0", "1"]])
    data = RepData.build(2, 1, sl2_R(), QMatrix.identity(2), balancing=balancing)

    def ev(text):
        return eval_mor(data, parse_mor(text))

    x, y = "X1", "tensor(X2, X3)"
    want = ev(f"sigma({y}, {x})") * ev(f"t({y})").kron(ev(f"t({x})")) * ev(f"sigma({x}, {y})")
    assert ev(f"t(tensor({x}, {y}))") == want
    assert ev("t(" + "Phi(" * 985 + f"tensor({x}, {y})" + ")" * 985 + ")") == want


# t on a tensor against the same retyping through phi2 (ROADMAP item 2).  extract_braid gives
# t and phi2 no letters, while eval_mor reads t(X1 (x) X2) by the ribbon rule.
T_OF_A_TENSOR = parse_mor("vert(t(tensor(X1, X2)), vert(phi(phi2(X2, X1)), phi2(Phi(X1), Phi(X2))))")
T_OF_EACH_FACTOR = parse_mor("tens(t(X1), t(X2))")


def test_check_says_t_of_a_tensor_is_t_of_each_factor():
    for flavor in ("braided", "symmetric"):
        assert check(T_OF_A_TENSOR, T_OF_EACH_FACTOR, flavor).status == COMMUTES


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: check and eval_mor give t two meanings")
def test_eval_mor_agrees_that_t_of_a_tensor_is_t_of_each_factor(sl2_data):
    # Today the left side evaluates to Rhat^4 and the right side to the identity.
    assert eval_mor(sl2_data, T_OF_A_TENSOR) == eval_mor(sl2_data, T_OF_EACH_FACTOR)


@pytest.mark.parametrize(
    "padded, unpadded",
    [
        ("kappa(" + "act(" * 985 + "M" + ", one)" * 985 + ", X1)", "kappa(M, X1)"),
        ("sigma(" + "tensor(one, " * 985 + "tensor(X1, X2)" + ")" * 985 + ", X3)", "sigma(tensor(X1, X2), X3)"),
        ("sigma(" + "Phi(" * 985 + "tensor(X1, X2)" + ")" * 985 + ", X3)", "sigma(tensor(X1, X2), X3)"),
    ],
    ids=["act-one", "tensor-one", "Phi"],
)
def test_expansions_as_deep_as_the_parser_reads_evaluate(sl2_data, padded, unpadded):
    # normalize_presentation rewrote each expansion step inside the walk of the one before:
    # RecursionError at 400 levels (984 for Phi), where 300 evaluated equal.
    assert eval_mor(sl2_data, parse_mor(padded)) == eval_mor(sl2_data, parse_mor(unpadded))


@pytest.mark.parametrize("levels", [100, 200])
def test_matrix_sizes_fold_no_strand_sequence(sl2_data, monkeypatch, levels):
    # Each structural generator's matrix was sized by folding its domain's whole signature, so
    # this expansion folded 63,301 nodes at 100 levels and 246,601 at 200; now only X1 is folded.
    visits = []
    rule = objects._strand_rule
    monkeypatch.setattr(objects, "_strand_rule", lambda o, kids: visits.append(o) or rule(o, kids))
    padded = parse_mor("kappa(" + "act(" * levels + "M" + ", one)" * levels + ", X1)")
    assert eval_mor(sl2_data, padded) == eval_mor(sl2_data, parse_mor("kappa(M, X1)"))
    assert len(visits) == 2  # X1, once for each side
