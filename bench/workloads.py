"""The four seeded, known-answer workloads.

Each workload turns a seed into a pool of requests.  A request is one call
into orbibraid as a user makes it: a CLI invocation through
``orbibraid.cli.main`` (argv in, rendered report out) or one library call
(arguments in, result out).  Every request carries the answer it must
give, fixed when the input was built (by construction or by an
independent oracle), never read back from the code under test.  Requests
that come in pairs (a word and an equal-by-construction rewrite of it)
must also render byte-identical results.

The pool is ordered as repeated cycles of a fixed template list, so any
prefix of it has the same mix of request kinds and sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from orbibraid import cli, dsl, reflect
from orbibraid.operad import brute_force_classify_1d, compose_intervals, parse_signed_op, realize_intervals

import routes

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "orbibraid" / "data"
SL2 = DATA / "sl2.rep.json"
DIAGRAMS = DATA / "diagrams"

# Hand-written verdicts of the bundled corpus (acceptance criterion 4).
CORPUS = {
    "pentagon.diag": "COMMUTES",
    "triangle.diag": "COMMUTES",
    "hexagon1.diag": "COMMUTES",
    "hexagon2.diag": "COMMUTES",
    "winding_module_pair.diag": "COMMUTES",
    "winding_tensor_pair.diag": "COMMUTES",
    "yang_baxter.diag": "COMMUTES",
    "reflection_twisted.diag": "COMMUTES",
    "sigma_squared.diag": "NOT_COMMUTES",
    "kappa_squared.diag": "NOT_COMMUTES",
}

SL2_R = [["q", "0", "0", "0"], ["0", "1", "q - q^-1", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "q"]]
SIGN_T = [["1", "0"], ["0", "-1"]]


class Mismatch(Exception):
    """A request answered differently from its known answer."""


class ExitTwo(Exception):
    """The CLI reported a usage or parse error (exit code 2)."""


@dataclass
class Request:
    """One timed call and the check of its result against the known answer."""

    kind: str
    inputs: tuple  # what the program is given: argv, or the library call's text input
    call: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch, ExitTwo or anything else on failure
    second_of_pair: bool = False  # compared with the request just before it


@dataclass
class Pair:
    """Slot through which the second request of a pair sees the first's latest result."""

    first: object = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, buf.getvalue()


def cli_request(kind: str, argv: list[str], expect_code: int, expect: Callable[[dict], None]) -> Request:
    """A ``--json`` CLI invocation; ``expect`` checks the decoded report."""

    def check(result):
        code, out = result
        if code == 2:
            raise ExitTwo(out.strip()[-200:])
        if code != expect_code:
            raise Mismatch(f"exit code {code}, expected {expect_code}")
        expect(json.loads(out))

    return Request(kind, tuple(argv), lambda: run_cli(argv + ["--json"]), check)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _same_as(pair: Pair, second: bool, key: str, value) -> None:
    """The first request of a pair stores its result; the second compares with it.

    Each comparison uses up the stored result, so the second request fails
    unless its partner ran since the last comparison.
    """
    if not second:
        pair.first = value
        return
    _require(pair.first is not None, f"{key}: its equal-by-construction partner did not run first")
    _require(value == pair.first, f"{key} differs from its equal-by-construction partner")
    pair.first = None


# ---------------------------------------------------------------------------
# Braid words: generation, relation rewrites, and normal-form invariants.

Letter = tuple[int, int]


def random_letters(rng: random.Random, n: int, length: int, cyl: bool) -> list[Letter]:
    low = 0 if cyl else 1
    return [(rng.randint(low, n - 1), rng.choice((1, -1))) for _ in range(length)]


def _rewrite_at(w: list[Letter], p: int, cyl: bool) -> bool:
    """Apply one defining relation of B_n (or B^cyl_n) at position p, if one matches."""
    a = w[p]
    if p + 1 >= len(w):
        return False
    b = w[p + 1]
    if a[0] == b[0] and a[1] == -b[1]:
        del w[p : p + 2]  # free cancellation
        return True
    if p + 2 < len(w):
        c = w[p + 2]
        i, j = a[0], b[0]
        if a == c and a[1] == b[1] and i >= 1 and j >= 1 and abs(i - j) == 1:
            w[p : p + 3] = [b, a, b]  # s_i s_j s_i = s_j s_i s_j
            return True
    if p + 3 < len(w) and cyl:
        quad = w[p : p + 4]
        e = a[1]
        if all(x[1] == e for x in quad) and [x[0] for x in quad] in ([0, 1, 0, 1], [1, 0, 1, 0]):
            w[p : p + 4] = [quad[1], quad[0], quad[1], quad[0]]  # k s1 k s1 = s1 k s1 k
            return True
    i, j = a[0], b[0]
    if (i >= 1 and j >= 1 and abs(i - j) >= 2) or (cyl and min(i, j) == 0 and max(i, j) >= 2):
        w[p], w[p + 1] = b, a  # far commutation
        return True
    return False


def rewrite(rng: random.Random, letters: list[Letter], n: int, cyl: bool, rewrites: int, inserts: int) -> list[Letter]:
    """An equal-by-construction word: relation rewrites plus inserted s S pairs."""
    w = list(letters)
    for _ in range(inserts):
        low = 0 if cyl else 1
        x = (rng.randint(low, n - 1), rng.choice((1, -1)))
        p = rng.randint(0, len(w))
        w[p:p] = [x, (x[0], -x[1])]
    for _ in range(rewrites):
        if len(w) < 2:
            break
        start = rng.randrange(len(w))
        for off in range(len(w)):
            if _rewrite_at(w, (start + off) % len(w), cyl):
                break
    return w


def word_text(letters: list[Letter]) -> str:
    return " ".join(("k" if e == 1 else "K") if i == 0 else (f"s{i}" if e == 1 else f"S{i}") for i, e in letters)


def embed(letters: list[Letter]) -> list[Letter]:
    """B^cyl_n into B_{n+1}: kappa to sigma_1^2, sigma_i to sigma_{i+1}."""
    out: list[Letter] = []
    for i, e in letters:
        out.extend([(1, e), (1, e)] if i == 0 else [(i + 1, e)])
    return out


def _perm_of(n: int, letters: list[Letter]) -> tuple[int, ...]:
    """Start position to end position of every strand (0-based)."""
    at = list(range(n))
    for i, _ in letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    end = [0] * n
    for pos, strand in enumerate(at):
        end[strand] = pos
    return tuple(end)


def _descents(p) -> set[int]:
    return {j for j in range(len(p) - 1) if p[j] > p[j + 1]}


def check_normal_form(n: int, letters: list[Letter], payload: dict) -> None:
    """Invariants any left-greedy normal form of the word must satisfy.

    The factors are proper permutation braids, consecutive ones are
    left-weighted, and Delta^p x_1 ... x_l has the word's exponent sum and
    permutation.
    """
    power = payload["power"]
    factors = [tuple(v - 1 for v in f) for f in payload["factors"]]
    ident, omega = tuple(range(n)), tuple(range(n - 1, -1, -1))
    for f in factors:
        _require(sorted(f) == list(ident) and f not in (ident, omega), "factor is not a proper permutation braid")
    for a, b in zip(factors, factors[1:]):
        a_inv = tuple(sorted(range(n), key=lambda x: a[x]))
        _require(_descents(b) <= _descents(a_inv), "factors are not left-weighted")
    inversions = sum(1 for f in factors for x in range(n) for y in range(x + 1, n) if f[x] > f[y])
    _require(
        power * n * (n - 1) // 2 + inversions == sum(e for _, e in letters),
        "normal form has the wrong exponent sum",
    )
    perm = omega if power % 2 else ident
    for f in factors:
        perm = tuple(f[x] for x in perm)
    _require(perm == _perm_of(n, letters), "normal form has the wrong permutation")


def braid_eq_request(rng: random.Random, n: int, length: int, cyl: bool, equal: bool) -> Request:
    u = random_letters(rng, n, length, cyl)
    v = rewrite(rng, u, n, cyl, rewrites=length // 3, inserts=2)
    if not equal:
        v = v + [(1, 1), (1, 1)]  # u against u s1^2

    def expect(doc):
        _require(doc["payload"]["equal"] is equal, f"equal={doc['payload']['equal']}, expected {equal}")

    argv = ["braid", "eq", "-n", str(n)] + (["--cyl"] if cyl else []) + [word_text(u), word_text(v)]
    kind = ("cyl-" if cyl else "") + ("eq" if equal else "neq")
    return cli_request(kind, argv, 0 if equal else 1, expect)


def braid_nf_pair(rng: random.Random, n: int, length: int, cyl: bool) -> list[Request]:
    """nf of a word and of a rewrite of it: both valid, and byte-identical."""
    u = random_letters(rng, n, length, cyl)
    v = rewrite(rng, u, n, cyl, rewrites=length // 3, inserts=2)
    pair = Pair()
    out = []
    for second, w in enumerate((u, v)):
        flat, strands = (embed(w), n + 1) if cyl else (w, n)

        def expect(doc, flat=flat, strands=strands, second=second):
            check_normal_form(strands, flat, doc["payload"])
            _same_as(pair, second, "normal form", doc["payload"]["nf"])

        argv = ["braid", "nf", "-n", str(n)] + (["--cyl"] if cyl else []) + [word_text(w)]
        out.append(cli_request("cyl-nf" if cyl else "nf", argv, 0, expect))
    out[1].second_of_pair = True
    return out


# (operation, strands, length, cylinder); cylinder words on n strands embed into B_{n+1}.
BRAID_CYCLE = [
    ("eq", 4, 50, False),
    ("neq", 4, 50, False),
    ("eq", 6, 40, False),
    ("neq", 6, 40, False),
    ("eq", 8, 30, False),
    ("neq", 8, 30, False),
    ("eq", 8, 45, False),
    ("neq", 4, 70, False),
    ("nf", 4, 120, False),
    ("nf", 6, 80, False),
    ("nf", 8, 60, False),
    ("nf", 8, 100, False),
    ("eq", 5, 35, True),
    ("neq", 3, 45, True),
    ("nf", 7, 40, True),
]


def braid_words(rng: random.Random, workdir: Path, cycles: int) -> list[Request]:
    pool: list[Request] = []
    for _ in range(cycles):
        for op, n, length, cyl in BRAID_CYCLE:
            if op == "nf":
                pool.extend(braid_nf_pair(rng, n, length, cyl))
            else:
                pool.append(braid_eq_request(rng, n, length, cyl, op == "eq"))
    return pool


# ---------------------------------------------------------------------------
# Coherence routes.


def coherence_request(path: Path, flavor: str, want: str) -> Request:
    def expect(doc):
        got = doc["payload"]["status"]
        _require(got == want, f"{flavor} verdict {got}, expected {want}")
        _require(doc["payload"]["flavor"] == flavor, "report names the wrong flavor")

    return cli_request(f"coherence-{flavor}", ["coherence", "check", str(path)], 0 if want == "COMMUTES" else 1, expect)


# (flavor, splice kind, leaves, M-typed): equal thirds of the three flavors, every
# leaf count A- and M-typed; interleaved by a fixed shuffle so a cycle's prefix is balanced.
COHERENCE_CYCLE = random.Random(0).sample(
    [
        (flavor, kind, leaves, m_typed)
        for flavor, kind in (
            ("monoidal", "detour"),
            ("monoidal", "detour"),
            ("braided", "detour"),
            ("braided", "crossing"),
            ("symmetric", "detour"),
            ("symmetric", "crossing"),
        )
        for leaves in (2, 3, 4, 5)
        for m_typed in (False, True)
    ],
    48,
)


def coherence_routes(rng: random.Random, workdir: Path, cycles: int) -> list[Request]:
    """Routes of 2-5 leaves and 20-80 steps; M-typed crossings wind around the pole half the time."""
    pool: list[Request] = []
    for _ in range(cycles):
        for flavor, kind, leaves, m_typed in COHERENCE_CYCLE:
            if kind == "crossing" and m_typed and rng.random() < 0.5:
                kind = "winding"
            steps = 20 * (leaves - 1) + rng.randint(-5, 0)
            text, want = routes.make_diagram(rng, flavor, kind, leaves, steps, m_typed)
            path = workdir / f"route-{len(pool):04d}.diag"
            path.write_text(text)
            pool.append(coherence_request(path, flavor, want))
    return pool


# ---------------------------------------------------------------------------
# Representation data: reflection-equation families and cylinder evaluation.


def laurent_text(rng: random.Random, degree: int = 3) -> str:
    """A Laurent polynomial with degree + 1 nonzero terms at consecutive powers of q."""
    low = rng.randint(-2, 1)
    terms = [f"{rng.choice((-3, -2, -1, 1, 2, 3))}*q^{e}" for e in range(low, low + degree + 1)]
    return " + ".join(terms).replace("+ -", "- ")


# Each family: K (and T) from a seed, and whether the twisted reflection
# equation holds.  Proved by elimination in the test suite: with T = 1 the
# invertible solutions are K = [[a, b], [c, 0]] and the scalars; with
# T = diag(1, -1), K = [[0, 1], [1, 0]] solves it and the identity does not.
# The equation is homogeneous of degree 2 in K, so scalar multiples keep
# their verdict.
def family_solution(rng, degree: int = 3):
    return [[laurent_text(rng, degree), laurent_text(rng, degree)], [laurent_text(rng, degree), "0"]], None, True


def family_solution_linear(rng):
    """The same family with binomial entries, cheap enough to evaluate on words."""
    return family_solution(rng, degree=1)


def family_unipotent(rng):
    return [["1", laurent_text(rng)], ["0", "1"]], None, False


def family_twisted_flip(rng):
    p = laurent_text(rng)
    return [["0", p], [p, "0"]], SIGN_T, True


def family_twisted_identity(rng):
    p = laurent_text(rng)
    return [[p, "0"], ["0", p]], SIGN_T, False


def family_sl2(rng):
    """The bundled sl2 K times a monomial c q^e: entries stay Laurent polynomials."""
    c, e = rng.choice((1, -1, 2)), rng.randint(-2, 2)
    p = f"{c}*q^{e}"
    return [[f"{c}*q^{e + 1} - {c}*q^{e - 1}".replace("- -", "+ "), p], [p, "0"]], None, True


FAMILIES = [family_solution, family_unipotent, family_twisted_flip, family_twisted_identity]


def write_rep(path: Path, K, T) -> Path:
    doc = {"d": 2, "m": 1, "R": SL2_R, "K": K}
    if T is not None:
        doc["T"] = T
    path.write_text(json.dumps(doc))
    return path


def verify_request(path: Path, good: bool) -> Request:
    def expect(doc):
        p = doc["payload"]
        _require(p["yang_baxter"] is True, "sl2 R fails Yang-Baxter")
        _require(p["reflection"] is good, f"reflection={p['reflection']}, expected {good}")
        _require(p["cylinder_rep_n3"] is good, f"cylinder_rep_n3={p['cylinder_rep_n3']}, expected {good}")

    return cli_request("verify-ok" if good else "verify-fail", ["rep", "verify", str(path)], 0 if good else 1, expect)


def eval_pair(rng: random.Random, kind: str, path: Path, n: int, length: int) -> list[Request]:
    """``rep eval`` of a cylinder word and of a rewrite of it: identical matrices.

    The word is reduced and uses every generator equally often, half of them
    inverted, so words of one length cost about the same to evaluate.
    """
    u = [(i % n, 1 - 2 * (i // n % 2)) for i in range(length)]
    rng.shuffle(u)
    while any(a[0] == b[0] and a[1] == -b[1] for a, b in zip(u, u[1:])):
        rng.shuffle(u)
    v = rewrite(rng, u, n, True, rewrites=length // 2, inserts=1)
    pair = Pair()
    out = []
    for second, w in enumerate((u, v)):

        def expect(doc, second=second):
            matrix = doc["payload"]["matrix"]
            _require(len(matrix) == 2**n, "matrix has the wrong dimension")
            _same_as(pair, second, "matrix", matrix)

        argv = ["rep", "eval", str(path), "-n", str(n), "--cyl", word_text(w)]
        out.append(cli_request(kind, argv, 0, expect))
    out[1].second_of_pair = True
    return out


# (family used for the data file, strands, word length); polynomial K is capped short.
EVAL_CYCLE = [
    (family_sl2, 3, 20),
    (family_sl2, 4, 10),
    (family_twisted_flip, 3, 12),
    (family_solution_linear, 3, 6),
]


def rep_verify(rng: random.Random, workdir: Path, cycles: int) -> list[Request]:
    pool: list[Request] = []
    for c in range(cycles):
        for _ in range(2):
            for family in FAMILIES:
                K, T, good = family(rng)
                path = write_rep(workdir / f"rep-{len(pool):04d}.json", K, T)
                pool.append(verify_request(path, good))
        for family, n, length in EVAL_CYCLE:
            K, T, good = family(rng)
            path = write_rep(workdir / f"rep-{len(pool):04d}.json", K, T)
            kind = f"eval-{family.__name__.removeprefix('family_')}-n{n}"
            pool.extend(eval_pair(rng, kind, path, n, length))
    return pool


# ---------------------------------------------------------------------------
# The documented short requests: README commands, the corpus, operad classes.


def _expect_equal(want: bool):
    def expect(doc):
        _require(doc["payload"]["equal"] is want, f"equal={doc['payload']['equal']}, expected {want}")

    return expect


def classify_request(k: int, output: str, pole_input: bool) -> Request:
    """k inputs, d of them D: the classes are eps in {0,1}^d and a ranking in S_d, 2^d d! in all."""
    d = k - 1 if pole_input else k
    want = 2**d * math.factorial(d)
    inputs = ",".join(["Dstar"] * pole_input + ["D"] * d)

    def expect(doc):
        classes = doc["payload"]["classes"]
        _require(doc["payload"]["count"] == want == len(set(classes)), f"{len(set(classes))} classes, expected {want}")

    return cli_request(f"classify-k{k}", ["operad", "classify", "-k", str(k), "--output", output, "--inputs", inputs], 0, expect)


def compose_request(g: str, fs: list[str]) -> Request:
    """``operad compose`` against the interval model: realise, plug in, read off."""
    inner = [realize_intervals(parse_signed_op(f)) for f in fs]
    want = brute_force_classify_1d(compose_intervals(realize_intervals(parse_signed_op(g)), inner)).to_text()

    def expect(doc):
        _require(doc["payload"]["result"] == want, f"composite {doc['payload']['result']}, expected {want}")

    argv = ["operad", "compose", "-g", g]
    for f in fs:
        argv += ["-f", f]
    return cli_request("compose", argv, 0, expect)


def eval_mor_request(text: str, equal: bool, data) -> Request:
    """Parse a corpus diagram and evaluate both sides on the sl2 data."""

    def call():
        diagram = dsl.parse_diagram(text)
        return reflect.eval_mor(data, diagram.lhs) == reflect.eval_mor(data, diagram.rhs)

    def check(result):
        _require(result is equal, f"sides evaluate {'equal' if result else 'unequal'}, expected {'equal' if equal else 'unequal'}")

    return Request("eval_mor", ("eval_mor", text), call, check)


def readme_requests() -> list[Request]:
    """The README's CLI examples, each with its answer."""
    pair = Pair()

    def same_matrix(second):
        return lambda doc: _same_as(pair, second, "matrix", doc["payload"]["matrix"])

    def trivial_nf(doc):
        _require(doc["payload"]["power"] == 0 and doc["payload"]["factors"] == [], "s1 S1 is not trivial")

    def sl2_ok(doc):
        p = doc["payload"]
        _require(p["yang_baxter"] and p["reflection"] and p["cylinder_rep_n3"], "sl2 data fails verification")

    def commutes(doc):
        _require(doc["payload"]["status"] == "COMMUTES", "winding_tensor_pair does not commute")

    out = [
        cli_request("readme", ["braid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2"], 0, _expect_equal(True)),
        cli_request("readme", ["braid", "nf", "-n", "2", "s1 S1"], 0, trivial_nf),
        cli_request("readme", ["braid", "eq", "--cyl", "-n", "2", "k s1 k s1", "s1 k s1 k"], 0, _expect_equal(True)),
        classify_request(3, "Dstar", pole_input=False),
        compose_request("op D [D,D] eps=01 perm=2 1", ["op D [D] eps=1 perm=1", "op D [D] eps=0 perm=1"]),
        cli_request("readme", ["coherence", "check", str(DIAGRAMS / "winding_tensor_pair.diag")], 0, commutes),
        cli_request("readme", ["rep", "verify", str(SL2)], 0, sl2_ok),
        cli_request("readme", ["rep", "eval", str(SL2), "-n", "2", "--cyl", "k s1 k s1"], 0, same_matrix(False)),
        cli_request("readme", ["rep", "eval", str(SL2), "-n", "2", "--cyl", "s1 k s1 k"], 0, same_matrix(True)),
    ]
    out[-1].second_of_pair = True
    return out


def random_op(rng: random.Random, output: str, min_arity: int = 0, max_arity: int = 2) -> tuple[str, list[str]]:
    """A seeded operation class in the text form ``operad compose`` reads, and its input colors."""
    pole = output == "Dstar" and rng.random() < 0.5
    k = rng.randint(max(min_arity, int(pole)), max_arity)
    d = k - int(pole)
    inputs = ["Dstar"] * pole + ["D"] * d
    eps = "".join(rng.choice("01") for _ in range(d))
    perm = " ".join(str(v + 1) for v in rng.sample(range(d), d))
    return f"op {output} [{','.join(inputs)}] eps={eps} perm={perm}", inputs


def _flavor(text: str) -> str:
    return next(line.split("=", 1)[1].strip() for line in text.splitlines() if line.startswith("flavor"))


def cli_corpus(rng: random.Random, workdir: Path, cycles: int) -> list[Request]:
    data = reflect.RepData.load(SL2)
    texts = {name: (DIAGRAMS / name).read_text() for name in CORPUS}
    braided = [name for name, text in texts.items() if _flavor(text) == "braided"]
    pool: list[Request] = []
    for _ in range(cycles):
        pool += readme_requests()
        for name, want in CORPUS.items():
            pool.append(coherence_request(DIAGRAMS / name, _flavor(texts[name]), want))
        for k in range(2, 6):
            pool += [classify_request(k, "D", pole_input=False), classify_request(k, "Dstar", pole_input=True)]
        for _ in range(6):
            g, slots = random_op(rng, rng.choice(("D", "Dstar")), min_arity=1)
            pool.append(compose_request(g, [random_op(rng, c)[0] for c in slots]))
        # COMMUTES diagrams evaluate to equal matrices; sigma^2 and kappa^2
        # do not (Rhat^2 has eigenvalue q^2, and K^2 has off-diagonal q - q^-1).
        for name in braided:
            pool.append(eval_mor_request(texts[name], CORPUS[name] == "COMMUTES", data))
    return pool


# name -> (pool builder, cycles in the pool, cycles in the traced prefix)
WORKLOADS = {
    "braid-words": (braid_words, 12, 2),
    "coherence-routes": (coherence_routes, 6, 2),
    "rep-verify": (rep_verify, 24, 4),
    "cli-corpus": (cli_corpus, 4, 4),
}
