import hashlib
import json
import random

import pytest

from conftest import data_path
from helpers import normal_form_violations, random_braid_word, random_cyl_word, relation_rewrite, seeded_rng
from orbibraid.braid import BraidWord
from orbibraid.cli import main
from orbibraid.dsl import parse_diagram
from orbibraid.reflect import RepData


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_braid_eq_relation(capsys):
    code, doc = run_json(capsys, "braid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2")
    assert code == 0 and doc["status"] == "ok" and doc["payload"]["equal"] is True


def test_braid_eq_false_exits_one(capsys):
    code, doc = run_json(capsys, "braid", "eq", "-n", "2", "s1 s1", "")
    assert code == 1 and doc["status"] == "fail" and doc["payload"]["equal"] is False


def test_braid_nf_trivial(capsys):
    code, doc = run_json(capsys, "braid", "nf", "-n", "2", "s1 S1")
    assert code == 0
    assert doc["payload"]["power"] == 0 and doc["payload"]["factors"] == []


def test_braid_eq_cylinder(capsys):
    code, doc = run_json(capsys, "braid", "eq", "--cyl", "-n", "2", "k s1 k s1", "s1 k s1 k")
    assert code == 0 and doc["payload"]["equal"] is True


def test_braid_malformed_word_exits_two(capsys):
    code, doc = run_json(capsys, "braid", "nf", "-n", "2", "s7")
    assert code == 2 and doc["status"] == "error"


def test_operad_classify(capsys):
    code, doc = run_json(capsys, "operad", "classify", "-k", "1", "--output", "D", "--inputs", "D")
    assert code == 0 and doc["payload"]["count"] == 2


def test_operad_compose(capsys):
    code, doc = run_json(
        capsys,
        "operad",
        "compose",
        "-g",
        "op D [D] eps=1 perm=1",
        "-f",
        "op D [D] eps=1 perm=1",
    )
    assert code == 0 and doc["payload"]["result"] == "op D [D] eps=0 perm=1"


def test_coherence_check_exit_codes(capsys, diagram_dir):
    code, doc = run_json(capsys, "coherence", "check", str(diagram_dir / "pentagon.diag"))
    assert code == 0 and doc["payload"]["status"] == "COMMUTES"
    code, doc = run_json(capsys, "coherence", "check", str(diagram_dir / "sigma_squared.diag"))
    assert code == 1 and doc["payload"]["status"] == "NOT_COMMUTES"
    assert doc["payload"]["braid_words"]["lhs"] == "s1 s1"


def test_coherence_parse_error_exits_two(capsys, tmp_path):
    f = tmp_path / "bad.diag"
    f.write_text("flavor = braided\nlhs = sigma(X1\nrhs = id(X1)\n")
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert code == 2 and doc["status"] == "error"


def test_rep_verify_bundled(capsys):
    code, doc = run_json(capsys, "rep", "verify", str(data_path("sl2.rep.json")))
    assert code == 0
    assert doc["payload"] == {"yang_baxter": True, "reflection": True, "cylinder_rep_n3": True}


def test_rep_verify_singular_k_exits_two(capsys, tmp_path):
    doc = json.loads(data_path("sl2.rep.json").read_text())
    doc["K"] = [["1", "1"], ["1", "1"]]
    f = tmp_path / "broken.rep"
    f.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["status"] == "error"


def test_rep_eval_reflection_identity(capsys):
    path = str(data_path("sl2.rep.json"))
    code1, d1 = run_json(capsys, "rep", "eval", path, "-n", "2", "--cyl", "k s1 k s1")
    code2, d2 = run_json(capsys, "rep", "eval", path, "-n", "2", "--cyl", "s1 k s1 k")
    assert code1 == code2 == 0
    assert d1["payload"]["matrix"] == d2["payload"]["matrix"]


def test_reports_are_deterministic(capsys):
    _, out1 = run(capsys, "braid", "nf", "-n", "3", "s1 s2 S1", "--json")
    _, out2 = run(capsys, "braid", "nf", "-n", "3", "s1 s2 S1", "--json")
    assert out1 == out2
    _, t1 = run(capsys, "coherence", "check", str(data_path("diagrams") / "winding_module_pair.diag"))
    _, t2 = run(capsys, "coherence", "check", str(data_path("diagrams") / "winding_module_pair.diag"))
    assert t1 == t2


def test_bundled_files_round_trip():
    for path in sorted(data_path("diagrams").glob("*.diag")):
        parse_diagram(path.read_text())
    RepData.load(data_path("sl2.rep.json"))


def alternating_route(steps: int, nest_right: bool = True) -> str:
    """sigma(X1, X2), sigma(X2, X1), ... in application order, as nested verts."""
    gens = [("sigma(X1, X2)", "sigma(X2, X1)")[k % 2] for k in range(steps)]
    if nest_right:
        return "".join(f"vert({g}, " for g in reversed(gens[1:])) + gens[0] + ")" * (steps - 1)
    return "vert(" * (steps - 1) + gens[-1] + "".join(f", {g})" for g in reversed(gens[:-1]))


def test_deep_braided_route_commutes(capsys, tmp_path):
    f = tmp_path / "deep.diag"
    lhs, rhs = alternating_route(900), alternating_route(900, nest_right=False)
    f.write_text(f"flavor = braided\nlhs = {lhs}\nrhs = {rhs}\n")
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert code == 0 and doc["payload"]["status"] == "COMMUTES"
    assert doc["payload"]["lhs_nf"] == "Delta^900"


def test_route_nested_past_the_parser_limit_exits_two(capsys, tmp_path):
    f = tmp_path / "deeper.diag"
    f.write_text(f"flavor = braided\nlhs = {alternating_route(1200)}\nrhs = id(tensor(X1, X2))\n")
    code = main(["coherence", "check", str(f), "--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["status"] == "error"
    assert "nested too deeply" in doc["payload"]["error"]
    assert "Traceback" not in captured.out + captured.err


def test_rep_file_not_an_object_exits_two(capsys, tmp_path):
    f = tmp_path / "list.rep"
    f.write_text("[1, 2]")
    code, doc = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["error"].startswith("ParseError")


def test_rep_file_missing_matrix_exits_two(capsys, tmp_path):
    doc = json.loads(data_path("sl2.rep.json").read_text())
    del doc["K"]
    f = tmp_path / "no_k.rep"
    f.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["status"] == "error"
    assert out["payload"]["error"] == "ParseError: representation data is missing K (line 1, column 1)"


def test_nf_on_three_hundred_strands(capsys):
    code, doc = run_json(capsys, "braid", "nf", "-n", "300", "S1 s2 S3 s1 S2")
    assert code == 0
    factors = [tuple(v - 1 for v in f) for f in doc["payload"]["factors"]]
    w = BraidWord.from_text(300, "S1 s2 S3 s1 S2")
    assert normal_form_violations(w, doc["payload"]["power"], factors) == []


def test_eq_of_a_long_word_and_its_rewrite(capsys):
    u = random_braid_word(seeded_rng(7), 8, 400)
    v = relation_rewrite(seeded_rng(8), u, 200)
    assert u != v
    code, doc = run_json(capsys, "braid", "eq", "-n", "8", u.to_text(), v.to_text())
    assert code == 0 and doc["payload"]["equal"] is True


def _fixed_word(seed: int, n: int, length: int, cyl: bool = False):
    """A word drawn from its own seed, independent of ORBIBRAID_SEED."""
    rng = random.Random(seed)
    return random_cyl_word(rng, n, length) if cyl else random_braid_word(rng, n, length)


def _eq_pair(equal: bool) -> list[str]:
    u = _fixed_word(8100, 8, 100)
    v = relation_rewrite(random.Random(8101), u, 60)
    if not equal:
        v = v * BraidWord.from_text(8, "s1 s1")
    return [u.to_text(), v.to_text()]


# sha256 of the --json reports printed by the original normal-form algorithm.
PINNED_REPORTS = {
    "nf-n4": (
        ["braid", "nf", "-n", "4", _fixed_word(4120, 4, 120).to_text()],
        0,
        "73c1e34dbdbd87f3341c70244f067e8971ec70a8324f757f57a6cb9a8bd19eee",
    ),
    "nf-cyl-n7": (
        ["braid", "nf", "--cyl", "-n", "7", _fixed_word(7040, 7, 40, cyl=True).to_text()],
        0,
        "884958067eda984275388624011e92b078d2656447a5763d58c01a542813d1f3",
    ),
    "eq-n8-equal": (
        ["braid", "eq", "-n", "8", *_eq_pair(True)],
        0,
        "6ef55c9b578dc86c3260ec6276806c5b0e3989b5f7be97e899ec4ad0e3f3d9d9",
    ),
    "eq-n8-unequal": (
        ["braid", "eq", "-n", "8", *_eq_pair(False)],
        1,
        "3a5f35a81aa3ff3c6899942a73da8f55e9a2e8fc3a934205280ae5aa9b1aaad5",
    ),
}


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_REPORTS.values(), ids=PINNED_REPORTS)
def test_braid_reports_are_byte_identical_to_the_original(capsys, argv, exit_code, digest):
    code, out = run(capsys, *argv, "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
