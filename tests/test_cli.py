import json

from conftest import data_path
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
