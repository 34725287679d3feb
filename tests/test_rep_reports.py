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
from orbibraid.reflect import eval_mor
from test_cli import run
from test_reflect import SL2_R

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
    "eval-solution-n3": (
        ["rep", "eval", "solution.json", "-n", "3", "--cyl", "K s1 k S2 K s2"],
        0,
        "2b2e8aa1c3a1510666d00db111824da811a7214ca3162f91be42dca6c2a9b41e",
        "6be8c757ac4a1026db563006aa11581f2191acee0fa47b5d9a6f8a1b7b34c203",
    ),
}


def rep_report(capsys, monkeypatch, tmp_path, argv, as_json: bool) -> tuple[int, str]:
    name = argv[2]
    if name in REP_FILES:
        (tmp_path / name).write_text(json.dumps({"d": 2, "m": 1, "R": SL2_R, **REP_FILES[name]}))
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


SINGULAR = [["1", "1"], ["1", "1"]]
SINGULAR4 = [["1"] * 4 for _ in range(4)]
IDENTITY4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]

# The error each singular input is reported with, in the order the checks
# run: a singular T fails while Rphi is derived from it, before any
# determinant is taken, unless the file gives Rphi explicitly.
SINGULAR_DATA_REPORTS = {
    "R": ({"R": SINGULAR4}, "SingularMatrixError: R must be invertible"),
    "K": ({"K": SINGULAR}, "SingularMatrixError: K must be invertible"),
    "T": ({"T": SINGULAR}, "SingularMatrixError: matrix is singular"),
    "T-and-R": ({"T": SINGULAR, "R": SINGULAR4}, "SingularMatrixError: matrix is singular"),
    "T-with-explicit-Rphi": ({"T": SINGULAR, "Rphi": IDENTITY4}, "SingularMatrixError: T must be invertible"),
    "Rphi": ({"Rphi": SINGULAR4}, "SingularMatrixError: Rphi must be invertible"),
    "Rphiphi": ({"Rphiphi": SINGULAR4}, "SingularMatrixError: Rphiphi must be invertible"),
    "R-and-Rphi": ({"R": SINGULAR4, "Rphi": SINGULAR4}, "SingularMatrixError: R must be invertible"),
}


@pytest.mark.parametrize("key", SINGULAR_DATA_REPORTS)
def test_singular_data_is_reported_at_load(capsys, tmp_path, key):
    overrides, error = SINGULAR_DATA_REPORTS[key]
    f = tmp_path / "singular.json"
    f.write_text(json.dumps({"d": 2, "m": 1, "R": SL2_R, "K": [["1", "0"], ["0", "1"]], **overrides}))
    code, out = run(capsys, "rep", "verify", str(f), "--json")
    assert code == 2
    assert json.loads(out)["payload"] == {"error": error}
