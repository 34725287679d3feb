import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from conftest import data_path
from helpers import (
    balanced_tensor_text,
    kappa_cable_diagram,
    normal_form_violations,
    random_braid_word,
    random_cyl_word,
    relation_rewrite,
    seeded_rng,
)
from orbibraid import cli, reflect
from orbibraid.braid import BraidWord
from orbibraid.braid import garside
from orbibraid.braid.garside import MAX_NF_WORK
from orbibraid.cli import build_parser, main
from orbibraid.coherence import MAX_WORD_LETTERS
from orbibraid.dsl import parse_diagram
from orbibraid.errors import ParseError
from orbibraid.reflect import RepData, checks, reflection_check, yang_baxter_check


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
    code, doc = run_json(capsys, "braid", "nf", "-n", "3", "s²")  # a superscript two is no index
    assert code == 2 and doc["payload"]["error"] == "MalformedWordError: unrecognised braid token 's²'"


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


def test_operad_compose_refuses_a_malformed_class(capsys):
    outer = "op D [D] eps=0 1 perm=1 foo=bar"
    code, doc = run_json(capsys, "operad", "compose", "-g", outer, "-f", "op D [D] eps=1 perm=1")
    assert code == 2 and doc["payload"]["error"].startswith("TypingError: cannot parse signed operation")


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


def test_rep_verify_checks_yang_baxter_once_and_builds_no_representation(capsys, monkeypatch):
    calls = []
    reflections = []

    def counted(R):
        calls.append(R)
        return yang_baxter_check(R)

    def counted_reflection(data):
        reflections.append(data)
        return reflection_check(data)

    def refuse(*args):
        raise AssertionError("rep verify built a representation or checked its relations")

    # cli's handler imports the checks from the reflect package as it runs, so they are patched there.
    monkeypatch.setattr(reflect, "yang_baxter_check", counted)
    monkeypatch.setattr(reflect, "reflection_check", counted_reflection)
    monkeypatch.setattr(reflect, "build_cyl_rep", refuse)
    monkeypatch.setattr(checks, "yang_baxter_check", counted)
    monkeypatch.setattr(checks, "reflection_check", counted_reflection)
    code, doc = run_json(capsys, "rep", "verify", str(data_path("sl2.rep.json")))
    assert code == 0
    assert doc["payload"] == {"yang_baxter": True, "reflection": True, "cylinder_rep_n3": True}
    assert len(calls) == 1
    assert len(reflections) == 1


def identity_text(k: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(k)] for i in range(k)]


def test_rep_verify_past_the_dimension_cap_exits_two(capsys, tmp_path):
    f = tmp_path / "d7.rep.json"
    f.write_text(json.dumps({"d": 7, "m": 1, "R": identity_text(49), "K": identity_text(7)}))
    code, doc = run_json(capsys, "rep", "verify", str(f))
    assert code == 2
    assert doc["payload"] == {"error": "DimensionError: dimension 1*7^3 exceeds the cap of 256"}


def test_rep_verify_refuses_the_yang_baxter_matrix_before_building_it(capsys, tmp_path):
    # R on V (x) V (x) V at d = 14 is 2,744 rows; checked at that size, the file took 17 s.
    f = tmp_path / "d14.rep.json"
    f.write_text(json.dumps({"d": 14, "m": 1, "R": identity_text(196), "K": identity_text(14)}))
    start = time.perf_counter()
    code, doc = run_json(capsys, "rep", "verify", str(f))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert doc["payload"] == {"error": "DimensionError: dimension 1*14^3 exceeds the cap of 256"}


def test_rep_verify_sizes_each_check_by_the_matrix_it_builds(capsys, tmp_path):
    # m d^3 = 432 passes the cap, but no check builds it: Yang-Baxter is d^3 = 216,
    # reflection and the kappa relation m d^2 = 72.
    f = tmp_path / "m2d6.rep.json"
    f.write_text(json.dumps({"d": 6, "m": 2, "R": identity_text(36), "K": identity_text(12)}))
    code, doc = run_json(capsys, "rep", "verify", str(f))
    assert code == 0
    assert doc["payload"] == {"yang_baxter": True, "reflection": True, "cylinder_rep_n3": True}
    code, doc = run_json(capsys, "rep", "eval", str(f), "-n", "3", "s1")
    assert code == 2
    assert doc["payload"] == {"error": "DimensionError: dimension 2*6^3 exceeds the cap of 256"}


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


DEEP_OBJECT = "Phi(" * 985 + "X1" + ")" * 985

DEEP_DIAGRAMS = {
    "identity": f"flavor = braided\nlhs = id({DEEP_OBJECT})\nrhs = id({DEEP_OBJECT})\n",
    "braiding-and-back": (
        f"flavor = braided\nlhs = vert(inv(sigma({DEEP_OBJECT}, X2)), sigma({DEEP_OBJECT}, X2))\n"
        f"rhs = id(tensor({DEEP_OBJECT}, X2))\n"
    ),
    "module-in-a-tensor": f"flavor = monoidal\nlhs = id(tensor(M, {DEEP_OBJECT}))\nrhs = id(M)\n",
    "seam-mismatch": (
        f"flavor = symmetric\nlhs = vert(id({DEEP_OBJECT}), id({DEEP_OBJECT.replace('X1', 'X2')}))\n"
        f"rhs = id(X1)\n"
    ),
}


@pytest.mark.parametrize("text", DEEP_DIAGRAMS.values(), ids=DEEP_DIAGRAMS)
def test_deep_object_parameter_exits_zero_or_two(capsys, tmp_path, text):
    f = tmp_path / "deep-object.diag"
    f.write_text(text)
    code = main(["coherence", "check", str(f), "--json"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert json.loads(captured.out)["status"] == ("ok" if code == 0 else "error")
    assert "Traceback" not in captured.out + captured.err


def test_rep_file_not_an_object_exits_two(capsys, tmp_path):
    f = tmp_path / "list.rep"
    f.write_text("[1, 2]")
    code, doc = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["error"].startswith("ParseError")


MALFORMED_REP = {
    "d-not-a-number": ("d", [1], "d must be an integer"),
    "d-float": ("d", 2.9, "d must be an integer"),
    "d-string": ("d", "2", "d must be an integer"),
    "m-boolean": ("m", True, "m must be an integer"),
    "entry-not-a-string": ("R", [[1]], "R must be an array of arrays of strings"),
    "matrix-not-an-array": ("R", 5, "R must be an array of arrays of strings"),
}


@pytest.mark.parametrize("key, value, message", MALFORMED_REP.values(), ids=MALFORMED_REP)
def test_rep_file_malformed_field_exits_two(capsys, tmp_path, key, value, message):
    doc = json.loads(data_path("sl2.rep.json").read_text())
    doc[key] = value
    f = tmp_path / "malformed.rep"
    f.write_text(json.dumps(doc))
    code = main(["rep", "verify", str(f), "--json"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2 and out["status"] == "error"
    assert out["payload"]["error"] == f"ParseError: representation data: {message} (line 1, column 1)"
    assert "Traceback" not in captured.out + captured.err


def test_rep_file_missing_matrix_exits_two(capsys, tmp_path):
    doc = json.loads(data_path("sl2.rep.json").read_text())
    del doc["K"]
    f = tmp_path / "no_k.rep"
    f.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["status"] == "error"
    assert out["payload"]["error"] == "ParseError: representation data is missing K (line 1, column 1)"


@pytest.mark.parametrize("depth", [33, 1000, 100_000])
def test_rep_file_nested_past_the_depth_bound_exits_two(tmp_path, depth):
    # json.load recursed once per level: 1,000 levels raised RecursionError and a traceback.
    doc = json.loads(data_path("sl2.rep.json").read_text())
    doc["R"] = "NESTED"
    f = tmp_path / "deep.rep"
    text = json.dumps(doc).replace('"NESTED"', "[" * depth + "]" * depth)
    f.write_text(text)
    proc = run_module("rep", "verify", str(f), "--json")
    assert proc.returncode == 2 and proc.stderr == ""
    column = text.index("[" * 32) + 32  # the object is the first level, so R's 32nd array is the 33rd
    assert json.loads(proc.stdout)["payload"] == {
        "error": f"ParseError: representation data nests deeper than 32 levels (line 1, column {column})"
    }


def test_rep_file_at_the_depth_bound_reaches_the_field_checks(capsys, tmp_path):
    # 32 levels, a string literal of brackets skipped, and an escaped quote inside it.
    doc = json.loads(data_path("sl2.rep.json").read_text())
    doc["note"] = '[[[[\\"[[[[' * 10
    doc["R"] = "NESTED"
    f = tmp_path / "deep.rep"
    f.write_text(json.dumps(doc).replace('"NESTED"', "[" * 31 + "]" * 31))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2
    assert out["payload"] == {
        "error": "ParseError: representation data: R must be an array of arrays of strings (line 1, column 1)"
    }


def test_rep_file_with_an_unterminated_string_exits_two_at_once(capsys, tmp_path):
    # Each escaped quote could start a string literal of its own: the depth scan must not retry them all.
    f = tmp_path / "open.rep"
    f.write_text('{"d": "' + '\\"' * 200_000)
    start = time.perf_counter()
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out["payload"]["error"].startswith("JSONDecodeError: Unterminated string starting at: line 1 column 7")


def test_rep_scalar_past_the_exponent_span_exits_two_at_once(tmp_path):
    # A dense coefficient run of 10^9 + 1 entries would be built before any check.
    doc = json.loads(data_path("sl2.rep.json").read_text())
    doc["K"] = [["q^1000000000 + 1", "0"], ["0", "1"]]
    f = tmp_path / "wide.rep"
    f.write_text(json.dumps(doc))
    start = time.perf_counter()
    proc = run_module("rep", "verify", str(f), "--json")
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["payload"] == {
        "error": "SizeCapError: scalar exponents span 0..1000000000, past the cap of 1000"
    }


def test_timing_adds_only_elapsed_ms(capsys):
    # The echoed command line carries the flag; every other byte is the report without it.
    argv = ["braid", "nf", "-n", "4", "s1 S2 s3"]
    _, plain = run(capsys, *argv, "--json")
    _, timed = run(capsys, *argv, "--json", "--timing")
    doc = json.loads(plain)
    doc["command"] += " --timing"
    doc["elapsed_ms"] = json.loads(timed)["elapsed_ms"]
    assert isinstance(doc["elapsed_ms"], float)
    assert timed == json.dumps(doc, sort_keys=True) + "\n"
    _, plain = run(capsys, *argv)
    _, timed = run(capsys, *argv, "--timing")
    first, *rest = plain.splitlines()
    last = timed.splitlines()[-1]
    float(last.removeprefix("elapsed_ms: "))
    assert timed == "\n".join([first + " --timing", *rest, last]) + "\n"


def test_internal_errors_propagate(capsys, monkeypatch):
    # Only user-input, I/O and decoding errors become an exit-2 report.
    def broken(args):
        raise ZeroDivisionError("internal")

    monkeypatch.setitem(cli._DISPATCH, "braid", broken)
    with pytest.raises(ZeroDivisionError):
        main(["braid", "nf", "-n", "2", "s1"])
    assert capsys.readouterr().out == ""


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


def test_a_reader_that_closes_stdout_early_gets_exit_two_and_no_traceback():
    # The k = 5 listing is 169 KB, more than a pipe holds: the print meets the closed pipe, as
    # under `orbibraid operad classify ... | head -1`.
    argv = ["operad", "classify", "-k", "5", "--output", "D", "--inputs", "D,D,D,D,D"]
    env = {**os.environ, "PYTHONPATH": str(data_path("").parents[1])}
    cmd = [sys.executable, "-m", "orbibraid.cli", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert first == b"command: orbibraid " + " ".join(argv).encode() + b"\n"
    assert proc.returncode == 2
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_module_entry_point_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text is wrapped to the terminal width
    proc = run_module("--help")
    assert proc.returncode == 0
    assert proc.stdout == build_parser().format_help()


# Exit code and sha256 of the text and the --json report of three listings.
PINNED_CLASSIFY_REPORTS = {
    "k3-D": (
        ["operad", "classify", "-k", "3", "--output", "D", "--inputs", "D,D,D"],
        "56acca0f993e7787528872e9c88cf6887b26959c640bcdcac121c0e2824df79e",
        "7c5c3a635933d3740bfee09a3dc9fed1de20ab5fe775330051334a129903f75e",
    ),
    "k4-Dstar-pole": (
        ["operad", "classify", "-k", "4", "--output", "Dstar", "--inputs", "Dstar,D,D,D"],
        "843f132166ba35a7ffff639c4f51b14ba4739e6f305dce8f0c2380e1925eb21d",
        "2c3d215cd81caa7e11af5848caef66ad39f7f1fb63d3342513140ac52240af15",
    ),
    "k5-Dstar": (
        ["operad", "classify", "-k", "5", "--output", "Dstar", "--inputs", "D,D,D,D,D"],
        "01d385bf549612966d72a09d72dcb390148e2ce0d221eb81b88e886a6d9d6a81",
        "b2e5a964f01c737472cc695982b92288a910d2fb45a3ab5a4b141f70fcce86e5",
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("key", PINNED_CLASSIFY_REPORTS)
def test_classify_reports_are_byte_identical_to_the_original(capsys, key, as_json):
    argv, *digests = PINNED_CLASSIFY_REPORTS[key]
    code, out = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[as_json]


# sha256 of the --json listing of `operad classify` for every arity k <= 6
# and every color mix with classes, keyed (k, output, inputs), as printed
# before any change to how the listing is built.
PINNED_CLASSIFY_LISTINGS = {
    (0, "D", ""): "e428844e2a45545fa5f2dc7f6a20bb1907459a0d414f916037aa203076714e48",
    (0, "Dstar", ""): "6e693bbc2311192c033319dae0b805cc7fc206bdc80dc3a0807cfcd0aaf344e0",
    (1, "D", "D"): "b0d1643237b3115022adf9a68f8edf014ce6ac15d36f8909740ee3976aba42d2",
    (1, "Dstar", "D"): "47bf350e4e801c87f5b858911c9c887d5774164ce6c97c11730ae4d5fa77ae42",
    (1, "Dstar", "Dstar"): "481c3ecde4fbfd5d67079f35f7631d914f9ff5f79313dd4a070e900fa46b811a",
    (2, "D", "D,D"): "20b78859f30e700e54cda5fc25a5c886d45ad3c51a2516344fd8b54fd35ce6db",
    (2, "Dstar", "D,D"): "690d7cf99fea2abf834e22c65938c4ef463f458ad655f02a4295198afb0976e3",
    (2, "Dstar", "Dstar,D"): "e39a579bed4a8a3cfb6f4f6309a78dfa3a8587a2a9fad6418b67b8d6a39c0620",
    (3, "D", "D,D,D"): "7c5c3a635933d3740bfee09a3dc9fed1de20ab5fe775330051334a129903f75e",
    (3, "Dstar", "D,D,D"): "bcfb019dc7b0323c1d929f20742007a3743e810e4e5bce03c8a7d6cbaa40c8bc",
    (3, "Dstar", "Dstar,D,D"): "72f413c9f5cda459817c038092200f5252d62a07133578a57579996331d1e8f9",
    (4, "D", "D,D,D,D"): "950a02775141c795aad0a467ad0cbc7a2760b0f1233108d0c69fb171d06322af",
    (4, "Dstar", "D,D,D,D"): "a09b9941b36356f7d398f79e2b811f995cc8c42961afb6e9df029108401dc3ea",
    (4, "Dstar", "Dstar,D,D,D"): "2c3d215cd81caa7e11af5848caef66ad39f7f1fb63d3342513140ac52240af15",
    (5, "D", "D,D,D,D,D"): "d91b3bb2c382a5471a2d8b8ba084a15fa09b17823899ccf9fc41dd0d64f0d4bf",
    (5, "Dstar", "D,D,D,D,D"): "b2e5a964f01c737472cc695982b92288a910d2fb45a3ab5a4b141f70fcce86e5",
    (5, "Dstar", "Dstar,D,D,D,D"): "3bd34472049130521e8e1171aded6772a9af7b94b4c92a299dbfad2694ab9d26",
    (6, "D", "D,D,D,D,D,D"): "4bf46aa5636580093d5e015495dac6f17f592db5f8fe3825a43d46ac9177fd55",
    (6, "Dstar", "D,D,D,D,D,D"): "b29003ff5f0244e1dda79a026eda61f6c967b0449baac7bb3b4b178564086423",
    (6, "Dstar", "Dstar,D,D,D,D,D"): "0a7484c7ffc23f44a1c62f11cdf03d458818e63e81275dcad605d54a2781320b",
}


def test_every_classify_listing_up_to_six_inputs_is_byte_identical_to_the_original(capsys):
    for (k, output, inputs), digest in PINNED_CLASSIFY_LISTINGS.items():
        code, out = run(capsys, "operad", "classify", "-k", str(k), "--output", output, "--inputs", inputs, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (k, output, inputs)


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["operad", "classify", "-k", "8", "--output", "D", "--inputs", "D,D,D,D,D,D,D,D"],
            "ArityError: 8 disk inputs exceed the cap of 7 (2^d d! classes)",
        ),
        (
            ["rep", "eval", str(data_path("sl2.rep.json")), "-n", "9", "s1"],
            "DimensionError: dimension 1*2^9 exceeds the cap of 256",
        ),
        (
            ["braid", "nf", "-n", "20000", "s1 S2"],
            "SizeCapError: normal form on 20000 strands would pass the work cap of 15000000 (8000000 units counted)",
        ),
    ],
    ids=["classify-k8", "rep-eval-n9", "braid-nf-n20000"],
)
def test_oversized_requests_exit_two_at_once(argv, error):
    start = time.perf_counter()
    proc = run_module(*argv, "--json")
    assert time.perf_counter() - start < 10  # uncapped, each would run for a minute or more
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["payload"] == {"error": error}


def test_braid_work_cap_counts_runs_pairs_and_moves(capsys):
    # The normal form counts n per run, n per pair visited and one per generator
    # moved, and 199 n for each factor while it is held.  It refuses a run when
    # the count plus 200 n passes the cap, and a pair when the count plus n plus
    # the length of its right factor does.  s1 s1 holds two factors and its
    # pair moves nothing: 401 n + 1 fits on 37,406 strands and not on 37,407.
    assert (MAX_NF_WORK, garside.HELD_UNITS) == (15_000_000, 199)
    assert 401 * 37406 + 1 <= MAX_NF_WORK < 401 * 37407 + 1
    cases = [
        (["nf", "-n", "37406", "s1 s1"], 0, None),
        (["nf", "-n", "37407", "s1 s1"], 2, 14962800),  # refused before its first pair
        (["nf", "-n", "37406", "s1 s1 s1"], 2, 14999806),  # refused at its third run, after a pair
        (["eq", "-n", "37406", "S1", "s1"], 1, None),
        (["eq", "-n", "37407", "S1", "s1"], 1, None),  # each word's form is capped on its own
        (["eq", "-n", "37407", "s1 s1", "s1"], 2, 14962800),
        (["nf", "--cyl", "-n", "37405", "k"], 0, None),  # embedded: s1 s1 on 37,406 strands
        (["nf", "--cyl", "-n", "37406", "k"], 2, 14962800),
        (["nf", "-n", "75000", "s1"], 0, None),  # the largest single run: 200 n fits (0.3 s, 28 MB)
        (["nf", "-n", "75001", "s1"], 2, 0),  # refused before any list of n entries
        (["nf", "-n", "75001", ""], 2, 0),  # the empty word as well
    ]
    for argv, exit_code, counted in cases:
        start = time.perf_counter()
        code, doc = run_json(capsys, "braid", *argv)
        assert time.perf_counter() - start < 5, argv  # the slowest accepted pair takes about 5.5 s
        assert code == exit_code, argv
        if counted is not None:
            strands = int(argv[argv.index("-n") + 1]) + ("--cyl" in argv)
            assert doc["payload"] == {
                "error": f"SizeCapError: normal form on {strands} strands would pass the work cap of"
                f" {MAX_NF_WORK} ({counted} units counted)"
            }


def test_kappa_cable_over_300_strands_commutes(capsys, tmp_path):
    f = tmp_path / "cable.diag"
    f.write_text(kappa_cable_diagram(300))
    start = time.perf_counter()
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert time.perf_counter() - start < 30  # the letter-wise normal form took minutes at c = 1,200
    assert code == 0 and doc["payload"]["status"] == "COMMUTES"
    assert doc["payload"]["lhs_nf"] == doc["payload"]["rhs_nf"]
    assert len(doc["payload"]["braid_words"]["lhs"].split()) == 300 * 301 // 2


def test_two_letters_on_twelve_thousand_strands_exit_two_within_seconds(tmp_path):
    # The pair of the normal form of s1 S1 on 12,002 strands moves n(n-1)/2 - 1
    # generators; uncapped, the check took 11-30 s before COMMUTES.
    r = balanced_tensor_text(3, 12000)
    f = tmp_path / "wide.diag"
    f.write_text(
        "flavor = braided\n"
        f"lhs = vert(tens(inv(sigma(X1, X2)), id({r})), tens(sigma(X1, X2), id({r})))\n"
        f"rhs = id(tensor(tensor(X1, X2), {r}))\n"
    )
    start = time.perf_counter()
    proc = run_module("coherence", "check", str(f), "--json")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["payload"] == {
        "error": f"SizeCapError: normal form on 12002 strands would pass the work cap of {MAX_NF_WORK} (4800800 units counted)"
    }


def test_two_letters_on_twelve_thousand_strands_decide_symmetric_without_normal_forms(capsys, tmp_path):
    # The signed permutations decide the symmetric flavor; the normal forms
    # are only evidence, left out when one would pass the work cap.
    r = balanced_tensor_text(3, 12000)
    f = tmp_path / "wide_symmetric.diag"
    f.write_text(
        "flavor = symmetric\n"
        f"lhs = vert(tens(inv(sigma(X1, X2)), id({r})), tens(sigma(X1, X2), id({r})))\n"
        f"rhs = id(tensor(tensor(X1, X2), {r}))\n"
    )
    start = time.perf_counter()
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert time.perf_counter() - start < 10
    assert code == 0
    assert doc["payload"] == {
        "braid_words": {"lhs": "s1 S1", "rhs": ""},
        "detail": (
            "normal forms not shown: normal form on 12002 strands would pass the work cap of "
            f"{MAX_NF_WORK} (4800800 units counted)"
        ),
        "flavor": "symmetric",
        "lhs_nf": None,
        "rhs_nf": None,
        "status": "COMMUTES",
    }


def test_two_positive_runs_on_six_thousand_strands_decide(capsys, tmp_path):
    # The double braiding is s1 s1 on 6,002 strands: two runs and a pair that
    # moves nothing, about 400 n units, so the pair is not charged n(n-1)/2.
    r = balanced_tensor_text(3, 6000)
    f = tmp_path / "wide_positive.diag"
    f.write_text(
        "flavor = braided\n"
        f"lhs = vert(tens(sigma(X1, X2), id({r})), tens(sigma(X2, X1), id({r})))\n"
        f"rhs = tens(vert(sigma(X1, X2), sigma(X2, X1)), id({r}))\n"
    )
    start = time.perf_counter()
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert time.perf_counter() - start < 10
    assert code == 0 and doc["payload"]["status"] == "COMMUTES"
    assert doc["payload"]["braid_words"]["lhs"] == "s1 s1"


def test_diagram_just_past_the_word_cap_exits_two(tmp_path):
    # sigma of a 101-leaf block over a 9,901-leaf block is MAX_WORD_LETTERS + 1 letters.
    assert 101 * 9901 == MAX_WORD_LETTERS + 1
    lhs = f"sigma({balanced_tensor_text(1, 101)}, {balanced_tensor_text(102, 9901)})"
    f = tmp_path / "past_cap.diag"
    f.write_text(f"flavor = braided\nlhs = {lhs}\nrhs = {lhs}\n")
    proc = run_module("coherence", "check", str(f), "--json")
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["payload"] == {
        "error": f"SizeCapError: underlying braid word of 1000001 letters exceeds the cap of {MAX_WORD_LETTERS}"
    }


# An underlying word of 4 letters, past the cap of 3 that the test below sets.
OVER_CAP = "sigma(tensor(X1, X2), tensor(X3, X4))"

# (flavor, lhs, rhs, exit code, what the report says first): each refusal that
# comes before the word cap, with a word past the cap earlier in the text, and
# last the cap itself.
BEFORE_THE_WORD_CAP = {
    "syntax": ("braided", f"vert({OVER_CAP}, id(tensor(X3, X4) X1))", OVER_CAP, 2, "ParseError: expected ')'"),
    "typing": ("braided", f"tens({OVER_CAP}, alpha(M, X5, X6))", OVER_CAP, 2, "TypingError: alpha parameter M"),
    "not-parallel": ("braided", OVER_CAP, "id(X1)", 1, "NOT_PARALLEL"),
    "monoidal": ("monoidal", OVER_CAP, OVER_CAP, 2, "FlavorError: a monoidal-flavor diagram mentions"),
    "the-cap": ("braided", OVER_CAP, OVER_CAP, 2, "SizeCapError: underlying braid word of 4 letters exceeds the cap of 3"),
}


@pytest.mark.parametrize("flavor, lhs, rhs, exit_code, first", BEFORE_THE_WORD_CAP.values(), ids=BEFORE_THE_WORD_CAP)
def test_refusals_come_before_a_word_past_the_cap(capsys, monkeypatch, tmp_path, flavor, lhs, rhs, exit_code, first):
    monkeypatch.setattr("orbibraid.coherence.MAX_WORD_LETTERS", 3)
    f = tmp_path / "order.diag"
    f.write_text(f"flavor = {flavor}\nlhs = {lhs}\nrhs = {rhs}\n")
    code, doc = run_json(capsys, "coherence", "check", str(f))
    assert code == exit_code
    assert doc["payload"].get("error", doc["payload"].get("status")).startswith(first), doc


def test_a_braid_index_past_the_digit_cap_exits_two(capsys):
    code, doc = run_json(capsys, "braid", "nf", "-n", "3", "s" + "1" * 5000)
    assert code == 2 and doc["payload"]["error"] == "MalformedWordError: an index has at most 4300 digits, found 5000"


def test_rep_file_nested_past_the_depth_bound_on_its_third_line_gives_that_line(tmp_path):
    line3 = '"R": ' + "[" * 40 + "]" * 40 + ', "K": [["1"]]}'
    f = tmp_path / "deep.rep"
    f.write_text('{\n"d": 2, "m": 1,\n' + line3 + "\n")
    with pytest.raises(ParseError) as exc:
        RepData.load(f)
    # the object is the first level, so R's 32nd array is the 33rd
    assert (exc.value.line, exc.value.col) == (3, line3.index("[") + 32)
    assert str(exc.value) == f"representation data nests deeper than 32 levels (line 3, column {exc.value.col})"


def test_rep_file_declaring_a_huge_d_is_refused_before_any_matrix_of_that_size(capsys, tmp_path):
    # The default T, an identity of size d, was built before R's shape was checked.
    f = tmp_path / "huge-d.rep"
    f.write_text(json.dumps({"d": 10**9, "m": 1, "R": [["1"]], "K": [["1"]]}))
    start = time.perf_counter()
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert time.perf_counter() - start < 5
    assert code == 2 and out["payload"] == {"error": f"DimensionError: R must be {10**18}x{10**18}"}


def test_rep_file_integers_past_the_digit_cap_are_refused_whatever_the_int_limit(capsys, tmp_path, int_digit_limit):
    doc = json.loads(data_path("sl2.rep.json").read_text())
    f = tmp_path / "long.rep"
    f.write_text(json.dumps(doc).replace('"m": 1', '"m": ' + "1" * 5000))
    column = f.read_text().index("1" * 5000) + 1
    refusal = f"representation data: a number has at most 4300 digits, found 5000 (line 1, column {column})"
    with pytest.raises(ParseError, match=re.escape(refusal)):
        RepData.load(f)
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": f"ParseError: {refusal}"}
    doc["R"][0][0] = "1" * 5000 + "q"
    f.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": "SizeCapError: a scalar's integers have at most 4300 digits, found 5000"}


def test_rep_file_whose_r_would_be_too_long_to_name_is_refused_by_its_length(capsys, tmp_path, int_digit_limit):
    # str(d * d) passed the interpreter's limit, and exit 2 printed its ValueError instead.
    f = tmp_path / "long-d.rep"
    f.write_text(json.dumps({"d": 10**2200, "m": 1, "R": [["1"]], "K": [["1"]]}))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": "DimensionError: R must be NxN for an N of more than 4300 digits"}
    f.write_text(json.dumps({"d": 10**2149, "m": 1, "R": [["1"]], "K": [["1"]]}))  # d * d has 4,299 digits
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": f"DimensionError: R must be {10**4298}x{10**4298}"}


def test_rep_file_whose_k_would_be_too_long_to_name_is_refused_by_its_length(capsys, tmp_path, int_digit_limit):
    # m has 4,300 digits, which the reader takes, and m * d has 4,301.
    doc = json.loads(data_path("sl2.rep.json").read_text())
    assert doc["d"] == 2
    f = tmp_path / "long-m.rep"
    f.write_text(json.dumps({**doc, "m": int("9" * 4300)}))
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": "DimensionError: K must be NxN for an N of more than 4300 digits"}
    f.write_text(json.dumps({**doc, "m": int("4" * 4300)}))  # m * d has 4,300 digits
    code, out = run_json(capsys, "rep", "verify", str(f))
    assert code == 2 and out["payload"] == {"error": f"DimensionError: K must be {'8' * 4300}x{'8' * 4300}"}


@pytest.mark.parametrize(
    "perm, refusal",
    [("1" * 5000, "a rank has at most 4300 digits, found 5000"), ("a b", "a rank is a decimal number, found 'a'")],
    ids=["long", "not-a-number"],
)
def test_outer_perm_that_is_not_a_rank_list_exits_two(capsys, perm, refusal, int_digit_limit):
    # int() leaked its own ValueError for both.
    op = "op D [D] eps=0 perm=1"
    code, out = run_json(capsys, "operad", "compose", "-g", op, "-f", op, "--outer-perm", perm)
    assert code == 2 and out["payload"] == {"error": f"TypingError: {refusal}"}
    code, out = run_json(capsys, "operad", "compose", "-g", op + "1" * 5000, "-f", op)
    assert code == 2 and out["payload"] == {"error": "TypingError: a rank has at most 4300 digits, found 5001"}
