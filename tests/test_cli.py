import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import data_path
from helpers import normal_form_violations, random_braid_word, random_cyl_word, relation_rewrite, seeded_rng
from orbibraid import cli
from orbibraid.braid import BraidWord
from orbibraid.cli import build_parser, main
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


def test_label_with_a_non_decimal_digit_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "superscript.diag"
    f.write_text("flavor = braided\nlhs = sigma(X1, X²)\nrhs = sigma(X1, X2)\n")
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert code == 2
    assert doc["payload"]["error"] == "ParseError: unknown object 'X²' (line 2, column 17)"


WRITTEN_DIAGRAMS = {
    "route300.diag": f"flavor = braided\nlhs = {alternating_route(300)}\nrhs = {alternating_route(300, nest_right=False)}\n",
    "horiz.diag": (
        "flavor = braided\n"
        "lhs = horiz(kappa(M, tensor(X1, X2)); id(M), sigma(X1, X2))\n"
        "rhs = vert(kappa(M, tensor(X2, X1)), act(id(M), sigma(X1, X2)))\n"
    ),
}

# Exit code and sha256 of the text and the --json report of `coherence check`
# on each bundled diagram and the two above, printed by the character-loop parser.
PINNED_COHERENCE_REPORTS = {
    "hexagon1.diag": (
        0,
        "be2d4f65eeb7fa961a194ed7b23ca471bded07e19ac0ad82d2d3d103ab04969a",
        "5963201b39ad7e89f676f09cba905eb29fb414c16de6b21ddb9d40a81b74d7a4",
    ),
    "hexagon2.diag": (
        0,
        "32740171513c94a2dd89b40750d26a4b80383fcf18632a2034088d4b9ea5c403",
        "d03ad4139ad114fb2d1276b3eb4701b80d61351fd4743fa3350259e1521b0a37",
    ),
    "kappa_squared.diag": (
        1,
        "405e0701c9de131f08ecfc8b10e6b06ce37a485834b32da97bd6305efe0ee6f8",
        "b49c40e3f168460a22720b515998fa0d2753aa2dc1d3441d50b23a9806a9ea6a",
    ),
    "pentagon.diag": (
        0,
        "4ad20f722b5f8facfe2fe4b79eb9a7060829dbc65aee1b2abe98fd2f17e0ae35",
        "1b61d64f3942493b91901659d932346ae07fee654f89f5ef8107fffbbcb033bc",
    ),
    "reflection_twisted.diag": (
        0,
        "1233e4affc6b1415b28ff0e120d16b6fc640da695d7ed0b0c16a69268bccf37a",
        "c53812938045d56c3d0c1d19517630ed7b2793a09edcbd0fc3d9a14376b19266",
    ),
    "sigma_squared.diag": (
        1,
        "87e4cf540380705abdc98aca253e8ed160cef8d29251ad3ca0bb278b2c97c591",
        "720e34d7c70b9116102158b4d06f6fbda04879d9cf0a0a8720779c3128f10ff9",
    ),
    "triangle.diag": (
        0,
        "b37a4e90a42bfb756f40754d765f279073429b2b92aea6d5c3621c5532b6a8dc",
        "af169433207aeba6e958ab5c7da66f3347509212099a2f0fe97dc57aff0efd8d",
    ),
    "winding_module_pair.diag": (
        0,
        "ce2c97ba589f6ca3a5a0ab0350740304a35ebb6f43b48f3bb44080c7f2d796d4",
        "8f31b452c3fa8c2fe47d817b664a4542112ff216a5fa1e90ca134db5350a7fbe",
    ),
    "winding_tensor_pair.diag": (
        0,
        "618bd84170f8a8c8d2b96a9fb76bd2bd2958dc516e6ee6343218648af6af2255",
        "b0b631576312928715a3dd78679aabf7c9d58a18ce7e00d2ee539a306597bd6c",
    ),
    "yang_baxter.diag": (
        0,
        "ca9e8a2d51fd8d388bf0c65e202473aa694e9ccb7c65427d5fc55ceaf0ba805b",
        "5fce563789dcb4205e7ad48604a4c6b551c5340698bebd6d4c401ac5e53e7d2c",
    ),
    "route300.diag": (
        0,
        "de0cdbeedcfc79ab9fba362e8ebc2f3f5047cd176edc7e470798ebdf2563bb34",
        "5e6aba81d18d6a6cb346705b6eb6e999a8e3c4a76fe75e9c007386142aa049a3",
    ),
    "horiz.diag": (
        0,
        "e0d7d960f1d89bbdce074112d0fa8da6b88fce8168d3b7d61ce0dc0c2a53c003",
        "f0610418839e1940ae441bac3ed92ccef62ecd1e6e5cd1a849578a42776d88e4",
    ),
}


def coherence_report(capsys, monkeypatch, tmp_path, diagram_dir, name: str, as_json: bool) -> tuple[int, str]:
    """`coherence check name` run from the diagram's directory, so the echoed command has no path."""
    if name in WRITTEN_DIAGRAMS:
        (tmp_path / name).write_text(WRITTEN_DIAGRAMS[name])
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.chdir(diagram_dir)
    return run(capsys, "coherence", "check", name, *(["--json"] if as_json else []))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", PINNED_COHERENCE_REPORTS)
def test_coherence_reports_are_byte_identical_to_the_original(
    capsys, monkeypatch, tmp_path, diagram_dir, name, as_json
):
    exit_code, *digests = PINNED_COHERENCE_REPORTS[name]
    code, out = coherence_report(capsys, monkeypatch, tmp_path, diagram_dir, name, as_json)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digests[as_json], out


COMPOSE_OUTER = ["operad", "compose", "-g", "op D [D,D] eps=01 perm=2 1"]

README_COMMANDS = [
    ["braid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2"],
    ["braid", "nf", "-n", "2", "s1 S1"],
    ["braid", "eq", "--cyl", "-n", "2", "k s1 k s1", "s1 k s1 k"],
    ["operad", "classify", "-k", "3", "--output", "Dstar", "--inputs", "D,D,D"],
    [*COMPOSE_OUTER, "-f", "op D [D] eps=1 perm=1", "-f", "op D [D] eps=0 perm=1"],
    ["coherence", "check", str(data_path("diagrams") / "winding_tensor_pair.diag")],
    ["rep", "verify", str(data_path("sl2.rep.json"))],
    ["rep", "eval", str(data_path("sl2.rep.json")), "-n", "2", "--cyl", "k s1 k s1"],
]


def report_or_usage_error(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv), including argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_leaves_no_state_behind(capsys, monkeypatch):
    readme = [argv + ["--json"] * (k % 2) for k, argv in enumerate(README_COMMANDS)]
    sequence = [*readme, README_COMMANDS[4], COMPOSE_OUTER, ["braid", "eq", "-n", "3", "s1"], *readme]
    assert cli._parser() is cli._parser()
    reused = [report_or_usage_error(capsys, argv) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser for every call
    fresh = [report_or_usage_error(capsys, argv) for argv in sequence]
    assert reused == fresh
    assert reused[8][0] == 0 and "eps=11 perm=2 1" in reused[8][1]
    assert reused[9][0] == 2 and "composed with 0 arguments" in reused[9][1]
    assert reused[10][0] == 2 and reused[10][2].startswith("usage: orbibraid braid eq")


def run_module(*argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(data_path("").parents[1]), "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-m", "orbibraid.cli", *argv], capture_output=True, text=True, env=env)


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["braid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2", "--json"]
    proc = run_module(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == run(capsys, *argv)[1]


def test_module_entry_point_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text is wrapped to the terminal width
    proc = run_module("--help")
    assert proc.returncode == 0
    assert proc.stdout == build_parser().format_help()
