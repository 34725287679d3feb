"""Byte-for-byte pins of the representation reports and of eval_mor on the corpus.

The digests were recorded with the Fraction-based Euclidean gcd and the
dense matrix products; any change to the exact layer must keep every
canonical form, hence every byte.
"""

import hashlib
import json

import pytest

from conftest import data_path
from orbibraid.dsl import parse_diagram
from orbibraid.reflect import RepData, eval_mor
from test_cli import run
from test_evalmor import TWISTS, rep_doc
from test_reflect import ANTIDIAGONAL_T, NON_YANG_BAXTER_R, SL2_R

SIGN_T = [["1", "0"], ["0", "-1"]]
P_TWIST = "-q^-2 + 2*q^-1 + 3 - q"

# One fixed data file per reflection-equation family of the benchmark, with
# degree-3 Laurent entries like the generated ones.
REP_FILES = {
    "solution.json": {
        "K": [["-2*q^-2 + q^-1 - 3 + q", "3*q^-1 + 2 - q + 2*q^2"], ["q - 2*q^2 + q^3 - 3*q^4", "0"]],
    },
    "unipotent.json": {"K": [["1", "2*q^-1 - 3 + q + q^2"], ["0", "1"]]},
    "twisted_flip.json": {"K": [["0", P_TWIST], [P_TWIST, "0"]], "T": SIGN_T},
    "twisted_identity.json": {"K": [[P_TWIST, "0"], ["0", P_TWIST]], "T": SIGN_T},
}
# The pinned files: the benchmark's families and a K that passes under the antidiagonal T,
# which does not commute with R.
PIN_FILES = {**REP_FILES, "antidiagonal.json": {"K": TWISTS["antidiagonal"][1], "T": ANTIDIAGONAL_T}}

# Exit code and sha256 of the text and the --json report of each command,
# run from the data file's directory so the echoed command has no path.
PINNED_REP_REPORTS = {
    "readme-verify": (
        ["rep", "verify", "sl2.rep.json"],
        0,
        "6d490f804b272b0346540efd496e3ff3fdde242d934e18671649c98da4d9db6b",
        "07ccdc9fe998027aad5f1d8fe74c7464dc1f529419fd55c71bd62c6128138dee",
    ),
    "readme-eval": (
        ["rep", "eval", "sl2.rep.json", "-n", "2", "--cyl", "k s1 k s1"],
        0,
        "586faff150f33a9b2c3c8904c4d707a6f7d282263d791b0d9dbfccc902720500",
        "aac640f842dd4c3712b999fd2f61f2eb0e4403133aae2ad308f4afd9a5bd3f56",
    ),
    "verify-solution": (
        ["rep", "verify", "solution.json"],
        0,
        "3ddd29bb8a72667ca622d009efcaca9858c3579f92c40dc44723b797889706da",
        "37fef50489d6a062b21104f91f239ad755ab2f7edf99df3d0843e139e0ba02d6",
    ),
    "verify-unipotent": (
        ["rep", "verify", "unipotent.json"],
        1,
        "7d9228c2c2728e454569f1b05582aacd29bb8775b21ac9c1bd53527dd74e3f1b",
        "2b12f591cda387c9f3812848e1be9e1311c664eb53720986423af3e4be076f3a",
    ),
    "verify-twisted-flip": (
        ["rep", "verify", "twisted_flip.json"],
        0,
        "76c49e156891e53f72a3aeedd11392c18cac5c0692c0b7e6d56a3c9dcc9a0911",
        "bc259cc2384e2e9f8721f5934dd02800d09ad23a39fedf05b353f1116204d2e0",
    ),
    "verify-twisted-identity": (
        ["rep", "verify", "twisted_identity.json"],
        1,
        "3b68091808856d8261b8b464c247a6bf9e6e41d3cd5289f0051526f358e27d8e",
        "2ab533d27986fbb2312b4e2db301f943fb0a1d92833f7ea265645301ed7ca3b4",
    ),
    "eval-sl2-n4": (
        ["rep", "eval", "sl2.rep.json", "-n", "4", "--cyl", "s1 k S3 s2 K s3 s1 S2 k s2"],
        0,
        "88d34d8f3ec58ab1b3819fbea6099bada6c4436ad18de19a6cc21ccc24de55c8",
        "a6d5352da66dddebaf8a32709a65bbade647369b46807ebba197f0deb1a4c994",
    ),
    "eval-twisted-n3": (
        ["rep", "eval", "twisted_flip.json", "-n", "3", "--cyl", "k s1 S2 K s2 s1 k S1"],
        0,
        "d8bf856cc3134652ed6ed0cc89e86958b6970d01c07f88f20e053c6ec604811b",
        "748b223df92cf761f951a61066b4c2894f15097d0d9116f99252dd9fc554fb30",
    ),
    "eval-antidiagonal-n3": (
        ["rep", "eval", "antidiagonal.json", "-n", "3", "--cyl", "k s1 S2 K s2 s1 k S1"],
        0,
        "c9b00732bb07526780173bf2799914b6f231109e350457d74e6ff5458b6e7c69",
        "407b4eed34f37b1c8758a10b9eb0b8248b8dfb23fc4ecc32f826e607ddcda062",
    ),
    "eval-solution-n3": (
        ["rep", "eval", "solution.json", "-n", "3", "--cyl", "K s1 k S2 K s2"],
        0,
        "2b2e8aa1c3a1510666d00db111824da811a7214ca3162f91be42dca6c2a9b41e",
        "6be8c757ac4a1026db563006aa11581f2191acee0fa47b5d9a6f8a1b7b34c203",
    ),
}


def rep_report(capsys, monkeypatch, tmp_path, argv, as_json: bool) -> tuple[int, str]:
    name = argv[2]
    if name in PIN_FILES:
        (tmp_path / name).write_text(json.dumps({"d": 2, "m": 1, "R": SL2_R, **PIN_FILES[name]}))
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.chdir(data_path(""))
    return run(capsys, *argv, *(["--json"] if as_json else []))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("key", PINNED_REP_REPORTS)
def test_rep_reports_are_byte_identical_to_the_original(capsys, monkeypatch, tmp_path, key, as_json):
    argv, exit_code, *digests = PINNED_REP_REPORTS[key]
    code, out = rep_report(capsys, monkeypatch, tmp_path, argv, as_json)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digests[as_json], out


# sha256 of json.dumps([lhs, rhs]) of the to_strings() matrices on the sl2 data.
PINNED_EVAL_MOR = {
    "hexagon1.diag": "395ec0723cbe84f641b14eb58088e08da5c86ff18f6cdb30465a8f6d3dd289db",
    "hexagon2.diag": "3d8267cc2d9d77383d2ca8ff1aa1f01fc2a037fab1f8eb0b871b902666791fc1",
    "kappa_squared.diag": "744d75804cb8971dfdd7f71c02bb1b2649ac373e8b525e1bd4d2bdc8fe6671fc",
    "pentagon.diag": "6cfba02f45c62762193f0eef43bbc93a0f041c093a80d08bcaea2cfcec26bc2e",
    "reflection_twisted.diag": "678ed4716042290108884f2c4e024f22096dd65180e182faf4768a80633eb3c0",
    "sigma_squared.diag": "c1855a1bf42c3e131024ece481f9df60cec909fd27e9c5dfb89026cd9570460d",
    "triangle.diag": "78bb61731d1e38857ebf2228eb84e7bbf505f60f3e550a6f9dda3ccb15ad6d26",
    "winding_module_pair.diag": "3c67c8e2cd5220b6ba16570b0663967d9d29672cc5ac0bc71472c59eaf9086b2",
    "winding_tensor_pair.diag": "678ed4716042290108884f2c4e024f22096dd65180e182faf4768a80633eb3c0",
    "yang_baxter.diag": "f6697f99d93c924f38541a14dcf9693bfb780d815911bccffb52f6147e344fd3",
}


def eval_mor_strings(data, diagram_dir, name: str) -> str:
    diag = parse_diagram((diagram_dir / name).read_text())
    return json.dumps([eval_mor(data, diag.lhs).to_strings(), eval_mor(data, diag.rhs).to_strings()])


@pytest.mark.parametrize("name", PINNED_EVAL_MOR)
def test_eval_mor_matrices_are_byte_identical_to_the_original(sl2_data, diagram_dir, name):
    out = eval_mor_strings(sl2_data, diagram_dir, name)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_EVAL_MOR[name], out


# The same digests under twisted data: the K of each twist that passes rep verify and the
# identity balancing, as test_evalmor builds them.  A diagram with no strand in an odd state
# reads as on the sl2 data.
PINNED_TWISTED_EVAL_MOR = {
    "antidiagonal": {
        "hexagon1.diag": "395ec0723cbe84f641b14eb58088e08da5c86ff18f6cdb30465a8f6d3dd289db",
        "hexagon2.diag": "3d8267cc2d9d77383d2ca8ff1aa1f01fc2a037fab1f8eb0b871b902666791fc1",
        "kappa_squared.diag": "876982b7e19bd4d0edc4f7df9a0d55b1f750a3e3b06b322fe9150566fe673b72",
        "pentagon.diag": "6cfba02f45c62762193f0eef43bbc93a0f041c093a80d08bcaea2cfcec26bc2e",
        "reflection_twisted.diag": "9e807c243c274012e6851e5da65a8ad3dbbe9451002834221d3678cd4a5e1242",
        "sigma_squared.diag": "c1855a1bf42c3e131024ece481f9df60cec909fd27e9c5dfb89026cd9570460d",
        "triangle.diag": "78bb61731d1e38857ebf2228eb84e7bbf505f60f3e550a6f9dda3ccb15ad6d26",
        "winding_module_pair.diag": "46cb9773d8904206b3c3bdb2b2f3207fcc07627d34911cd867e26bf9ca2c9b06",
        "winding_tensor_pair.diag": "9e807c243c274012e6851e5da65a8ad3dbbe9451002834221d3678cd4a5e1242",
        "yang_baxter.diag": "f6697f99d93c924f38541a14dcf9693bfb780d815911bccffb52f6147e344fd3",
    },
    "diag-1-q": {
        "hexagon1.diag": "395ec0723cbe84f641b14eb58088e08da5c86ff18f6cdb30465a8f6d3dd289db",
        "hexagon2.diag": "3d8267cc2d9d77383d2ca8ff1aa1f01fc2a037fab1f8eb0b871b902666791fc1",
        "kappa_squared.diag": "ee9b17c0813ba28a4a16d513bc641e4c25295cbb210db7cf5d28fb718a30d9a0",
        "pentagon.diag": "6cfba02f45c62762193f0eef43bbc93a0f041c093a80d08bcaea2cfcec26bc2e",
        "reflection_twisted.diag": "94444b678cf770288d97a920ad433446da04052e17f76f5981c8f117298424a1",
        "sigma_squared.diag": "c1855a1bf42c3e131024ece481f9df60cec909fd27e9c5dfb89026cd9570460d",
        "triangle.diag": "78bb61731d1e38857ebf2228eb84e7bbf505f60f3e550a6f9dda3ccb15ad6d26",
        "winding_module_pair.diag": "fe11560d93408f3fd841319a601e0bad313adf32736476d2820e1f1244943500",
        "winding_tensor_pair.diag": "94444b678cf770288d97a920ad433446da04052e17f76f5981c8f117298424a1",
        "yang_baxter.diag": "f6697f99d93c924f38541a14dcf9693bfb780d815911bccffb52f6147e344fd3",
    },
}


@pytest.mark.parametrize("name", PINNED_EVAL_MOR)
@pytest.mark.parametrize("twist", PINNED_TWISTED_EVAL_MOR)
def test_twisted_eval_mor_matrices_are_byte_identical_to_the_original(diagram_dir, twist, name):
    T_rows, K_rows = TWISTS[twist]
    data = RepData.from_json_dict(rep_doc(K_rows, T_rows, balancing=[["1", "0"], ["0", "1"]]))
    out = eval_mor_strings(data, diagram_dir, name)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TWISTED_EVAL_MOR[twist][name], out


SINGULAR = [["1", "1"], ["1", "1"]]
SINGULAR4 = [["1"] * 4 for _ in range(4)]
REFUSED_KEY = "ParseError: representation data: {} is refused; the twisted R-matrices are conjugates of R by T (line 1, column 1)"

# The error each input refused at load is reported with.  The determinants
# are taken in the order R, K, T.  The twisted R-matrices are conjugates of
# R by T, never data: a file that gives one is refused before any
# determinant, whatever its value.
SINGULAR_DATA_REPORTS = {
    "R": ({"R": SINGULAR4}, "SingularMatrixError: R must be invertible"),
    "K": ({"K": SINGULAR}, "SingularMatrixError: K must be invertible"),
    "T": ({"T": SINGULAR}, "SingularMatrixError: T must be invertible"),
    "T-and-R": ({"T": SINGULAR, "R": SINGULAR4}, "SingularMatrixError: R must be invertible"),
    "Rphi": ({"Rphi": SINGULAR4}, REFUSED_KEY.format("Rphi")),
    "Rphiphi": ({"Rphiphi": SINGULAR4}, REFUSED_KEY.format("Rphiphi")),
}


@pytest.mark.parametrize("key", SINGULAR_DATA_REPORTS)
def test_singular_data_is_reported_at_load(capsys, tmp_path, key):
    overrides, error = SINGULAR_DATA_REPORTS[key]
    f = tmp_path / "singular.json"
    f.write_text(json.dumps({"d": 2, "m": 1, "R": SL2_R, "K": [["1", "0"], ["0", "1"]], **overrides}))
    code, out = run(capsys, "rep", "verify", str(f), "--json")
    assert code == 2
    assert json.loads(out)["payload"] == {"error": error}


# Exit code and sha256 of the text and the --json report of `rep verify` on
# an invertible R that fails the Yang-Baxter equation, with K = I.
NON_YANG_BAXTER_VERIFY = (
    1,
    "12653a8431a1c0bfb9ee029d6a61dc5c7751485abc61f518fc436ba5a36a1814",
    "97dd0ec25590e11c486f2f33e45cb101dd8139cef78126241018623a774878f8",
)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_non_yang_baxter_verify_report_names_the_braid_relation(capsys, monkeypatch, tmp_path, as_json):
    doc = {"d": 2, "m": 1, "R": NON_YANG_BAXTER_R, "K": [["1", "0"], ["0", "1"]]}
    (tmp_path / "non_yang_baxter.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "rep", "verify", "non_yang_baxter.json", *(["--json"] if as_json else []))
    exit_code, *digests = NON_YANG_BAXTER_VERIFY
    assert code == exit_code
    violated = json.loads(out)["payload"]["violated"] if as_json else out
    assert "sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2" in violated
    assert hashlib.sha256(out.encode()).hexdigest() == digests[as_json], out


def test_antidiagonal_twist_verifies(capsys, tmp_path):
    # For T = [[0, 1], [1, 0]], T (x) T does not commute with R: (T (x) T) R (T (x) T)^-1 = R_21,
    # so this verdict depends on which doubly twisted R the reflection equation uses.
    f = tmp_path / "antidiagonal.json"
    f.write_text(json.dumps({"d": 2, "m": 1, "R": SL2_R, "K": [["0", "1"], ["1", "0"]], "T": ANTIDIAGONAL_T}))
    code, out = run(capsys, "rep", "verify", str(f), "--json")
    assert code == 0
    assert json.loads(out)["payload"] == {"yang_baxter": True, "reflection": True, "cylinder_rep_n3": True}
