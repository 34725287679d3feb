import pytest

from conftest import data_path
from helpers import flip_matrix, random_cyl_word, seeded_rng
from orbibraid.braid import BraidWord, cyl_braid_eq
from orbibraid.cli import main
from orbibraid.dsl import parse_diagram
from orbibraid.errors import DimensionError, RelationError, SingularMatrixError
from orbibraid.reflect import (
    LaurentScalar,
    QMatrix,
    RepData,
    ZERO,
    build_cyl_rep,
    eval_braid,
    eval_mor,
    reflection_check,
    yang_baxter_check,
)
from orbibraid.reflect import laurent

SL2_R = [["q", "0", "0", "0"], ["0", "1", "q - q^-1", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "q"]]


def sl2_R() -> QMatrix:
    return QMatrix.from_strings(SL2_R)


ANTIDIAGONAL_T = [["0", "1"], ["1", "0"]]


def make_data(K_rows, T_rows=None, m=1) -> RepData:
    T = QMatrix.from_strings(T_rows) if T_rows else None
    return RepData.build(2, m, sl2_R(), QMatrix.from_strings(K_rows), T=T)


# ---------------------------------------------------------------------------
# Independent leg-placement oracle: index arithmetic instead of kron/flip.


def _indexed_leg(R: QMatrix, d: int, a: int, b: int) -> QMatrix:
    """R placed on legs a,b of a 3-fold tensor power, built entrywise."""
    n = d**3
    rows = [[ZERO] * n for _ in range(n)]
    for u0 in range(d):
        for u1 in range(d):
            for u2 in range(d):
                u = (u0, u1, u2)
                for v0 in range(d):
                    for v1 in range(d):
                        for v2 in range(d):
                            v = (v0, v1, v2)
                            c = next(i for i in range(3) if i not in (a, b))
                            if u[c] != v[c]:
                                continue
                            entry = R.entries[u[a] * d + u[b]][v[a] * d + v[b]]
                            rows[u0 * d * d + u1 * d + u2][v0 * d * d + v1 * d + v2] = entry
    return QMatrix.from_rows(rows)


def yang_baxter_indexed_oracle(R: QMatrix) -> bool:
    d = 2
    r12 = _indexed_leg(R, d, 0, 1)
    r13 = _indexed_leg(R, d, 0, 2)
    r23 = _indexed_leg(R, d, 1, 2)
    return r12 * r13 * r23 == r23 * r13 * r12


def test_yang_baxter_examples_and_oracle_agreement():
    assert yang_baxter_check(QMatrix.identity(4))
    assert yang_baxter_check(flip_matrix(2, 2))
    assert yang_baxter_check(sl2_R())
    bad = QMatrix.from_strings([["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    assert not yang_baxter_check(bad)
    for R in (QMatrix.identity(4), flip_matrix(2, 2), sl2_R(), bad):
        assert yang_baxter_check(R) == yang_baxter_indexed_oracle(R)
    with pytest.raises(DimensionError):
        yang_baxter_check(QMatrix.identity(3))


def elimination_solutions(T_rows):
    """Solve the sixteen entrywise equations of the expanded twisted reflection equation
    K_1 R^phi_21 K_2 R_12 = R^{phi,phi}_21 K_2 R^phi_12 K_1, with R^phi = (T (x) 1) R (T (x) 1)^-1
    and R^{phi,phi} = (T (x) T) R (T (x) T)^-1, for the four unknown K entries in sympy."""
    sp = pytest.importorskip("sympy")
    q = sp.symbols("q")
    a, b, c, d = sp.symbols("a b c d")
    R = sp.Matrix([[q, 0, 0, 0], [0, 1, q - 1 / q, 0], [0, 0, 1, 0], [0, 0, 0, q]])
    P = sp.Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    T = sp.Matrix(T_rows)
    T1 = sp.Matrix(sp.kronecker_product(T, sp.eye(2)))
    TT = sp.Matrix(sp.kronecker_product(T, T))
    Rphi = T1 * R * T1.inv()
    Rphiphi = TT * R * TT.inv()
    K = sp.Matrix([[a, b], [c, d]])
    K1 = sp.Matrix(sp.kronecker_product(K, sp.eye(2)))
    K2 = P * K1 * P
    sides = K1 * (P * Rphi * P) * K2 * R - (P * Rphiphi * P) * K2 * Rphi * K1
    eqs = [sp.expand(e * q**3) for e in sides if e != 0]
    return (a, b, c, d), sp.solve(eqs, [a, b, c, d], dict=True)


def test_reflection_solutions_from_elimination_script():
    # Independent oracle: solve the entrywise equations symbolically, then
    # feed solution members back.
    sp = pytest.importorskip("sympy")
    (a, b, c, d), sols = elimination_solutions([[1, 0], [0, 1]])
    # The invertible families: d = 0 with free (a, b, c), and scalars a = d.
    assert {d: sp.Integer(0)} in sols
    assert {a: d, b: sp.Integer(0), c: sp.Integer(0)} in sols
    members = [
        [["0", "1"], ["1", "0"]],
        [["q - q^-1", "1"], ["1", "0"]],
        [["q^2", "-3*q"], ["q^-1", "0"]],
        [["5", "0"], ["0", "5"]],
    ]
    for rows in members:
        assert reflection_check(make_data(rows))


def test_antidiagonal_twist_solutions_from_elimination_script():
    # The same oracle with T = [[0, 1], [1, 0]], where (T (x) T) R (T (x) T)^-1 = R_21 is not R,
    # so the verdicts show which doubly twisted R the equation uses.  reflection_check builds
    # neither twisted R, so sympy's expanded equation stays an independent oracle.
    sp = pytest.importorskip("sympy")
    (a, b, c, d), sols = elimination_solutions([[0, 1], [1, 0]])
    # The invertible families: lower triangular K, and K = [[0, b], [b, 0]].
    assert {b: sp.Integer(0)} in sols
    assert {a: sp.Integer(0), c: b, d: sp.Integer(0)} in sols
    members = [
        [["1", "0"], ["1", "1"]],
        [["q", "0"], ["q - q^-1", "-1"]],
        [["0", "1"], ["1", "0"]],
        [["0", "q^-1"], ["q^-1", "0"]],
    ]
    for rows in members:
        assert reflection_check(make_data(rows, T_rows=ANTIDIAGONAL_T))
    for rows in ([["1", "1"], ["0", "1"]], [["0", "1"], ["2", "0"]]):
        assert not reflection_check(make_data(rows, T_rows=ANTIDIAGONAL_T))


def test_reflection_check_rejects_non_solutions():
    assert not reflection_check(make_data([["1", "1"], ["0", "1"]]))
    assert reflection_check(make_data([["1", "0"], ["0", "1"]]))


def test_singular_data_rejected_at_load():
    with pytest.raises(SingularMatrixError):
        make_data([["1", "1"], ["1", "1"]])


def test_reflection_iff_two_strand_representation():
    for rows, good in ([["q - q^-1", "1"], ["1", "0"]], True), ([["1", "2"], ["0", "1"]], False):
        data = make_data(rows)
        assert reflection_check(data) is good
        if good:
            build_cyl_rep(data, 2)
        else:
            with pytest.raises(RelationError) as exc:
                build_cyl_rep(data, 2)
            assert "kappa" in exc.value.relation


def test_twisted_reflection_with_sign_twist():
    T = [["1", "0"], ["0", "-1"]]
    assert reflection_check(make_data([["0", "1"], ["1", "0"]], T_rows=T))
    assert reflection_check(make_data([["1", "0"], ["0", "-1"]], T_rows=T))
    # The identity K fails once the twist is on.
    assert not reflection_check(make_data([["1", "0"], ["0", "1"]], T_rows=T))
    build_cyl_rep(make_data([["0", "1"], ["1", "0"]], T_rows=T), 3)


def test_trivial_one_strand_representation():
    data = RepData.build(2, 1, sl2_R(), QMatrix.identity(2))
    rep = build_cyl_rep(data, 1)
    assert rep.kappa.is_identity
    assert eval_braid(rep, BraidWord(1, cyl=True)).is_identity


def test_eval_braid_relations_and_inverses(sl2_data):
    rep3 = build_cyl_rep(sl2_data, 3)
    assert eval_braid(rep3, BraidWord(3, cyl=True)).is_identity
    u = BraidWord.from_text(3, "s1 s2 s1", cyl=True)
    v = BraidWord.from_text(3, "s2 s1 s2", cyl=True)
    assert eval_braid(rep3, u) == eval_braid(rep3, v)
    rng = seeded_rng(16)
    rep2 = build_cyl_rep(sl2_data, 2)
    for _ in range(20):
        w = random_cyl_word(rng, 2, rng.randint(0, 6))
        assert eval_braid(rep2, w * w.inverse()).is_identity


def test_eval_braid_factors_through_braid_equality(sl2_data):
    rng = seeded_rng(17)
    rep2 = build_cyl_rep(sl2_data, 2)
    checked = 0
    for _ in range(100):
        u = random_cyl_word(rng, 2, rng.randint(0, 6))
        v = random_cyl_word(rng, 2, rng.randint(0, 6))
        if cyl_braid_eq(u, v):
            assert eval_braid(rep2, u) == eval_braid(rep2, v)
            checked += 1
    assert checked >= 3


def test_eval_braid_on_plain_words(sl2_data):
    rep3 = build_cyl_rep(sl2_data, 3)
    u = BraidWord.from_text(3, "s1 s2 S1 S2")
    v = BraidWord(3)
    assert eval_braid(rep3, u * u.inverse()) == eval_braid(rep3, v)
    with pytest.raises(DimensionError):
        eval_braid(rep3, BraidWord(2))


TWISTED_FLIP_K = [["0", "-q^-2 + 2*q^-1 + 3 - q"], ["-q^-2 + 2*q^-1 + 3 - q", "0"]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("twisted", [False, True], ids=["sl2", "twisted-flip"])
def test_cylinder_inverses_match_direct_inversion(sl2_data, twisted, n):
    data = make_data(TWISTED_FLIP_K, T_rows=[["1", "0"], ["0", "-1"]]) if twisted else sl2_data
    rep = build_cyl_rep(data, n)
    assert len(rep.sigma) == len(rep.sigma_inv) == n - 1
    for mat, inv in [*zip(rep.sigma, rep.sigma_inv), (rep.kappa, rep.kappa_inv)]:
        assert inv == mat.inverse()
        assert (mat * inv).is_identity and (inv * mat).is_identity


# ---------------------------------------------------------------------------
# Full-size relation oracle: every defining relation at dimension m d^n.


def kron_generators(data: RepData, n: int):
    """sigma_1..sigma_(n-1), kappa and their inverses, built with the flip matrix and padded
    by kron with identities; each inverse is placed from one small inverse."""
    d, m = data.d, data.m
    rhat = flip_matrix(d, d) * data.R
    core = QMatrix.identity(m).kron(data.T.inverse()) * data.K

    def place(mat: QMatrix, i: int) -> QMatrix:
        left = m * d ** (i - 1) if i else 1
        return QMatrix.identity(left).kron(mat).kron(QMatrix.identity(d ** (n - i - 1)))

    rhat_inv = rhat.inverse()
    sigma = [place(rhat, i) for i in range(1, n)]
    return sigma, place(core, 0), [place(rhat_inv, i) for i in range(1, n)], place(core.inverse(), 0)


def full_size_violation(data: RepData, n: int) -> str | None:
    """The first relation the padded m d^n-dimensional generators violate, or None.

    Checks every braid relation, far commutation, the kappa relation and
    every sigma_i kappa commutation at full size, in that order: the checks
    build_cyl_rep made before it checked each relation once on its own legs.
    """
    sigma, kappa, _, _ = kron_generators(data, n)
    for i in range(1, n - 1):
        if sigma[i - 1] * sigma[i] * sigma[i - 1] != sigma[i] * sigma[i - 1] * sigma[i]:
            return f"sigma_{i} sigma_{i + 1} sigma_{i} = sigma_{i + 1} sigma_{i} sigma_{i + 1}"
    for i in range(1, n):
        for j in range(i + 2, n):
            if sigma[i - 1] * sigma[j - 1] != sigma[j - 1] * sigma[i - 1]:
                return f"sigma_{i} sigma_{j} = sigma_{j} sigma_{i}"
    if n >= 2:
        s1 = sigma[0]
        if s1 * kappa * s1 * kappa != kappa * s1 * kappa * s1:
            return "sigma_1 kappa sigma_1 kappa = kappa sigma_1 kappa sigma_1"
    for i in range(2, n):
        if sigma[i - 1] * kappa != kappa * sigma[i - 1]:
            return f"sigma_{i} kappa = kappa sigma_{i}"
    return None


NON_YANG_BAXTER_R = [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


def relation_cases(sl2_data) -> dict[str, RepData]:
    """sl2, the four reflection-equation families of the report pins, a non-Yang-Baxter R with two K,
    and two K under the antidiagonal T, where T (x) T does not commute with R."""
    from test_rep_reports import REP_FILES  # imported late: that module imports this one

    cases = {"sl2": sl2_data}
    for name, doc in REP_FILES.items():
        cases[name] = RepData.from_json_dict({"d": 2, "m": 1, "R": SL2_R, **doc})
    for name, K in (("non-yb-identity-K", [["1", "0"], ["0", "1"]]), ("non-yb-unipotent-K", [["1", "2"], ["0", "1"]])):
        cases[name] = RepData.from_json_dict({"d": 2, "m": 1, "R": NON_YANG_BAXTER_R, "K": K})
    for name, K in (("antidiagonal-T", [["1", "0"], ["1", "1"]]), ("antidiagonal-T-unipotent-K", [["1", "1"], ["0", "1"]])):
        cases[name] = make_data(K, T_rows=ANTIDIAGONAL_T)
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_relation_checks_agree_with_full_size_oracle(sl2_data, n):
    outcomes = {}
    for name, data in relation_cases(sl2_data).items():
        try:
            build_cyl_rep(data, n)
            raised = None
        except RelationError as exc:
            raised = exc.relation
        assert raised == full_size_violation(data, n), name
        outcomes[name] = raised
    # Every check is exercised: a passing case, the kappa relation and the braid relation.
    assert outcomes["sl2"] is None and outcomes["twisted_flip.json"] is None and outcomes["antidiagonal-T"] is None
    if n >= 2:
        assert "kappa" in outcomes["unipotent.json"] and "kappa" in outcomes["twisted_identity.json"]
        assert "kappa" in outcomes["antidiagonal-T-unipotent-K"]
    if n >= 3:
        assert outcomes["non-yb-identity-K"] == "sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("twisted", [False, True], ids=["sl2", "twisted-flip"])
def test_placed_generators_equal_kron_built_ones(sl2_data, twisted, n):
    data = make_data(TWISTED_FLIP_K, T_rows=[["1", "0"], ["0", "-1"]]) if twisted else sl2_data
    rep = build_cyl_rep(data, n)
    sigma, kappa, sigma_inv, kappa_inv = kron_generators(data, n)
    assert list(rep.sigma) == sigma and list(rep.sigma_inv) == sigma_inv
    assert rep.kappa == kappa and rep.kappa_inv == kappa_inv


@pytest.fixture
def work_counts(monkeypatch) -> dict[str, int]:
    """Counts of exact products from here on: matrix products, krons, scalar products, and the
    polynomial products (``_pmul``) under those; a product by +-q^k is a shift and runs none."""
    counts = {"QMatrix.__mul__": 0, "QMatrix.kron": 0, "LaurentScalar.__mul__": 0, "_pmul": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(QMatrix, "__mul__", "QMatrix.__mul__")
    counted(QMatrix, "kron", "QMatrix.kron")
    counted(LaurentScalar, "__mul__", "LaurentScalar.__mul__")
    counted(laurent, "_pmul", "_pmul")
    return counts


def test_rep_verify_work_counts(capsys, work_counts):
    """Exact products of one `rep verify` of the bundled sl2 data: four for the Yang-Baxter
    equation and four for the kappa relation, with no product by an identity T.  Every leg is
    placed and every flip applied by index, so no kron runs; building a leg by kron or a flip
    product changes these counts, and a deliberate change records the new ones."""
    assert main(["rep", "verify", str(data_path("sl2.rep.json"))]) == 0
    capsys.readouterr()
    assert work_counts == {"QMatrix.__mul__": 8, "QMatrix.kron": 0, "LaurentScalar.__mul__": 101, "_pmul": 10}


def test_rep_eval_work_counts(capsys, work_counts):
    """Exact products of one `rep eval -n 4 --cyl` of the bundled sl2 data: the relation
    checks' products and one per letter after the first, with polynomial products only where
    neither scalar factor is +-q^k.  A deliberate change records the new counts."""
    word = "k s1 s2 S3 K s1 s3 S2 k s1"
    assert main(["rep", "eval", str(data_path("sl2.rep.json")), "-n", "4", "--cyl", word]) == 0
    capsys.readouterr()
    assert work_counts == {"QMatrix.__mul__": 17, "QMatrix.kron": 0, "LaurentScalar.__mul__": 715, "_pmul": 103}


def test_kappa_is_formed_once_at_load(work_counts):
    """Loading the twisted-flip data forms kappa = (1 (x) T^-1) K with one product, and
    build_cyl_rep(data, 3) reads it: four products for the Yang-Baxter equation and four
    for the kappa relation, none to form kappa again."""
    data = RepData.from_json_dict({"d": 2, "m": 1, "R": SL2_R, "K": TWISTED_FLIP_K, "T": [["1", "0"], ["0", "-1"]]})
    assert work_counts["QMatrix.__mul__"] == 1
    build_cyl_rep(data, 3)
    assert work_counts["QMatrix.__mul__"] == 9


def test_t_is_inverted_once_at_load(monkeypatch, diagram_dir):
    """On the twisted-flip data, building it takes T^-1 and nothing later inverts T: build_cyl_rep
    inverts Rhat and kappa only, and neither reflection_check nor eval_mor of the twisted
    reflection diagram inverts anything."""
    inverted = []
    inverse = QMatrix.inverse

    def counted(m):
        inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(QMatrix, "inverse", counted)
    make_data(TWISTED_FLIP_K)  # an identity T is its own inverse
    assert inverted == []
    data = make_data(TWISTED_FLIP_K, T_rows=[["1", "0"], ["0", "-1"]])
    assert inverted == [data.T]
    inverted.clear()
    build_cyl_rep(data, 3)
    assert len(inverted) == 2 and data.T not in inverted
    inverted.clear()
    assert reflection_check(data)
    diag = parse_diagram((diagram_dir / "reflection_twisted.diag").read_text())
    eval_mor(data, diag.lhs)
    eval_mor(data, diag.rhs)
    assert inverted == []
