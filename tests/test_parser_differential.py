"""The one-loop parser against the recursive-descent parser it replaced.

``seed_parse_mor`` and ``seed_parse_obj`` below are that parser, kept as
test-only code.  Both parsers read seeded random morphisms, the same
texts with one token deleted, inserted or swapped or cut short, and the
same texts changed so that they parse but do not type, to equal trees,
or fail with the same error: type, message, line and column.  At
the nesting limit, where the recursive parser's refusal point depends on
its stack, the outcomes it gave on a fresh thread are pinned as literals,
the ones the one-loop parser's ``MAX_DEPTH`` reproduces.

The parse that ``coherence check`` runs, with ``coherence.summarize`` as its
rule, reads the same texts to the summary ``coherence.summary`` folds from
the tree, or fails with the tree parse's error; ``check`` gives the same
verdict on summaries as on trees.
"""

from __future__ import annotations

import re
import threading
from itertools import islice

import pytest

from helpers import random_a_object, random_mor, seeded_rng
from orbibraid.coherence import COMMUTES, NOT_COMMUTES, NOT_PARALLEL, Verdict, check, summarize, summary
from orbibraid.dsl import domain, mor_text, obj_text, parse_diagram, parse_mor, parse_obj
from orbibraid.dsl.morphisms import GENERATORS, KEYWORDS, Gen, Id, desugar_horiz, validate
from orbibraid.dsl.objects import OBJECT_WORDS, ALeaf
from orbibraid.dsl.parser import FLAVORS
from orbibraid.errors import OrbibraidError, ParseError

# ---------------------------------------------------------------------------
# The recursive-descent parser, as it was before the one-loop parser.

_TOKEN = re.compile(r"[(),;]|\w+")
_COMMENT = re.compile(r"#.*")
_STRAY = re.compile(r"[^\w(),; \t\r\n]")


def _position(text: str, index: int) -> tuple[int, int]:
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


class _Error(Exception):
    pass


class _Stream:
    def __init__(self, text: str):
        self.text = text = _COMMENT.sub("", text)
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray[0]!r}", *_position(text, stray.start()))
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def where(self, k: int) -> tuple[int, int]:
        if k < len(self.tokens):
            return _position(self.text, next(islice(_TOKEN.finditer(self.text), k, None)).start())
        if self.tokens:
            return self.where(len(self.tokens) - 1)[0], 1
        return _position(self.text, len(self.text) - len(self.text.lstrip("\r\n")))[0], 1

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise _Error(f"expected {what}, found end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next(repr(text))
        if tok != text:
            raise _Error(f"expected {text!r}, found {tok!r}", self.pos - 1)


_HEADS = (
    {word: (node, len(node.__match_args__), False) for word, node in OBJECT_WORDS.items()},
    {"id": (Id, 1, False)} | {word: (node, len(node.__match_args__), True) for word, node in KEYWORDS.items()},
)


def _parse(s: _Stream, is_mor: bool):
    word = s.next("a morphism" if is_mor else "an object")
    head = _HEADS[is_mor].get(word)
    if head is not None:
        node, arity, of_mor = head
        if not arity:
            return node()
        s.expect("(")
        args = [_parse(s, of_mor)]
        while len(args) < arity:
            s.expect(",")
            args.append(_parse(s, of_mor))
        s.expect(")")
        return node(*args)
    if not is_mor:
        if word[0] == "X" and word[1:].isdecimal():
            return ALeaf(int(word[1:]))
        raise _Error(f"unknown object {word!r}", s.pos - 1)
    if word == "horiz":
        s.expect("(")
        outer = _parse(s, True)
        inners = []
        what, sep_ok = "';' or ')'", ";"
        while (sep := s.next(what)) != ")":
            if sep != sep_ok:
                raise _Error(f"expected {what}, found {sep!r}", s.pos - 1)
            inners.append(_parse(s, True))
            what, sep_ok = "',' or ')'", ","
        return desugar_horiz(outer, inners)
    if word in GENERATORS:
        params = []
        if s.peek() == "(":
            s.expect("(")
            sep = s.next(")") if s.peek() == ")" else ","
            while sep != ")":
                if sep not in (",", ";"):
                    raise _Error(f"expected ',' or ';', found {sep!r}", s.pos - 1)
                params.append(_parse(s, False))
                sep = s.next("',' , ';' or ')'")
        return Gen(word, tuple(params))
    raise _Error(f"unknown generator {word!r}", s.pos - 1)


def _run(text: str, parse, *args):
    s = _Stream(text)
    try:
        result = parse(s, *args)
        if s.pos < len(s.tokens):
            raise _Error(f"unexpected trailing token {s.tokens[s.pos]!r}", s.pos)
    except RecursionError:
        raise ParseError("expression nested too deeply", *s.where(s.pos - 1)) from None
    except _Error as exc:
        message, k = exc.args
        raise ParseError(message, *s.where(k)) from None
    return result


def seed_parse_obj(text: str):
    return _run(text, _parse, False)


def seed_parse_mor(text: str):
    mor = _run(text, _parse, True)
    validate(mor)
    return mor


# ---------------------------------------------------------------------------


def error_outcome(exc: OrbibraidError) -> tuple:
    return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def outcome(parse, text: str):
    """The text of the tree parse reads from text, or its error as (type, message,
    line, column).  Texts are compared, not trees: == on a tree recurses."""
    try:
        tree = parse(text)
    except OrbibraidError as exc:
        return error_outcome(exc)
    return (mor_text if parse in (parse_mor, seed_parse_mor) else obj_text)(tree)


def read_summary(s) -> tuple:
    """What check reads of a summary: its types as text, its letters, whether it mentions a braiding."""
    return tuple(map(obj_text, s._types)), tuple(s.letters), s.braids


def assert_summary_parse_agrees(text: str, want) -> None:
    """The summary-rule parse of text fails as want, the tree parse's outcome,
    says, or reads what ``summary`` folds from the tree."""
    try:
        got = read_summary(parse_mor(text, summarize))
    except OrbibraidError as exc:
        got = error_outcome(exc)
    assert got == (want if type(want) is tuple else read_summary(summary(parse_mor(text)))), text


def outcome_on_a_new_thread(parse, text: str):
    """outcome(parse, text), for a morphism parser, on a thread of its own,
    whose stack starts at the same depth whoever calls."""
    caught = []

    def target():
        try:
            caught.append(mor_text(parse(text)))
        except OrbibraidError as exc:
            caught.append(error_outcome(exc))

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return caught[0]


# Tokens an insertion draws from: every separator, head words of both sorts,
# labels, a bad label and unknown words.
VOCABULARY = ["(", ")", ",", ";", "X1", "X3", "X0", "M", "one", "oneM", "Y", "beta", "horiz"]
VOCABULARY += sorted(OBJECT_WORDS) + sorted(KEYWORDS) + sorted(GENERATORS) + ["id"]


def mutants(rng, text: str, count: int) -> list[str]:
    """count copies of text, each with one token deleted, inserted or swapped,
    or cut short after some token, rejoined with spaces, newlines or nothing
    between tokens."""
    tokens = _TOKEN.findall(text)
    out = []
    for _ in range(count):
        t = list(tokens)
        kind = rng.randrange(4)
        if kind == 3:
            del t[rng.randrange(len(t) + 1) :]
        elif kind == 0 and t:
            del t[rng.randrange(len(t))]
        elif kind == 1:
            t.insert(rng.randrange(len(t) + 1), rng.choice(VOCABULARY))
        elif len(t) >= 2:
            i, j = rng.sample(range(len(t)), 2)
            t[i], t[j] = t[j], t[i]
        out.append("".join(tok + rng.choice((" ", " ", "\n", "")) for tok in t))
    return out


def random_texts(rng) -> list[str]:
    texts = [mor_text(random_mor(rng, m_typed=rng.random() < 0.5)) for _ in range(50)]
    # horiz, written by hand: its inners are typed as it is read
    texts += [
        "horiz(kappa(M, tensor(X1, X2)); id(M), sigma(X1, X2))",
        "horiz(inv(sigma(X1, X2)); id(X1), inv(t(X2)))",
        "horiz(sigma(tensor(X1, X2), X3); sigma(X1, X2), id(X3))",
        "horiz(id(tensor(X1, X2)); sigma(X1, X2))",
        "vert(inv(phi0), phi0())",
    ]
    return texts


def test_random_morphisms_parse_to_equal_trees():
    rng = seeded_rng(31)
    for text in random_texts(rng):
        assert parse_mor(text) == seed_parse_mor(text), text
        assert_summary_parse_agrees(text, mor_text(parse_mor(text)))


def test_mutated_morphisms_fail_alike():
    rng = seeded_rng(32)
    seen = set()
    for text in random_texts(rng):
        for mutant in mutants(rng, text, 12):
            want = outcome(seed_parse_mor, mutant)
            assert outcome(parse_mor, mutant) == want, mutant
            assert_summary_parse_agrees(mutant, want)
            if type(want) is tuple and want[0] == "ParseError":
                seen.add(re.sub(r"'[^']*'$", "<token>", want[1].split(" (line")[0]))
    # the mutants reach most of the parser's raise sites, not just one
    assert len(seen) >= 10, seen


def test_random_objects_and_their_mutants_agree():
    rng = seeded_rng(33)
    for _ in range(40):
        text = obj_text(random_a_object(rng, list(range(1, rng.randint(1, 5) + 1))))
        assert parse_obj(text) == seed_parse_obj(text)
        for mutant in mutants(rng, text, 6):
            assert outcome(parse_obj, mutant) == outcome(seed_parse_obj, mutant), mutant


def inv_around(depth: int, core: str) -> str:
    return "inv(" * depth + core + ")" * depth


def too_deep(col: int) -> tuple:
    return ("ParseError", f"expression nested too deeply (line 1, column {col})", 1, col)


# Texts at the nesting limit, each with the outcome MAX_DEPTH gives it: the
# text parse_mor accepts (as mor_text renders it), or its refusal.  They are
# the outcomes the recursive parser gave on a fresh thread once the tests
# before it had warmed the interpreter, pinned as literals: run live, its
# refusal moves by a level or two with that warm-up and with the cost of
# the node classes it builds, so the test would depend on test order.
AT_THE_LIMIT = {
    "inv-1500": (inv_around(1500, "sigma(X1, X2)"), too_deep(3965)),
    "inv-990-sigma": (inv_around(990, "sigma(X1, X2)"), too_deep(3967)),
    "inv-989-sigma": (inv_around(989, "sigma(X1, X2)"), inv_around(989, "sigma(X1, X2)")),
    "inv-990-phi0": (inv_around(990, "phi0"), inv_around(990, "phi0()")),
    "inv-991-phi0": (inv_around(991, "phi0"), too_deep(3965)),
    "inv-990-id": (inv_around(990, "id(X1)"), too_deep(3964)),
    "vert-990": ("vert(id(X1), " * 990 + "id(X1)" + ")" * 990, too_deep(12866)),
    "horiz-990": ("horiz(" * 990 + "id(X1)" + "; id(X1))" * 990, too_deep(5944)),
}


@pytest.mark.parametrize("text, want", AT_THE_LIMIT.values(), ids=AT_THE_LIMIT)
def test_nesting_limit_matches_the_recursive_parser_on_a_fresh_thread(text, want):
    assert outcome(parse_mor, text) == want
    assert outcome_on_a_new_thread(parse_mor, text) == want


def arg_spans(tokens: list[str], i: int) -> list[tuple[int, int]]:
    """Token spans [start, end) of the arguments of the head word at
    tokens[i] (none when no argument list follows it)."""
    if i + 1 >= len(tokens) or tokens[i + 1] != "(":
        return []
    spans, start, depth = [], i + 2, 0
    for k in range(i + 2, len(tokens)):
        tok = tokens[k]
        if tok == "(":
            depth += 1
        elif depth and tok == ")":
            depth -= 1
        elif not depth and tok in (",", ";", ")"):
            if k > start:
                spans.append((start, k))
            if tok == ")":
                return spans
            start = k + 1
    return spans


def ill_typed(rng, text: str) -> tuple[list[str], int] | None:
    """text with one change that keeps it parsing but, most of the time, not
    typing: two arguments of a generator or of an object or morphism node
    swapped, a leaf label changed, a generator replaced by another of its
    arity, or a generator's parameter wrapped in Phi.  Returns the tokens
    and the index of the last one changed, or None when text has nothing
    to change."""
    tokens = _TOKEN.findall(text)
    gens = [(i, arg_spans(tokens, i)) for i, tok in enumerate(tokens) if tok in GENERATORS]
    swaps = [spans for i in range(len(tokens)) for spans in [arg_spans(tokens, i)] if len(spans) >= 2]
    labels = [i for i, tok in enumerate(tokens) if re.fullmatch(r"X\d+", tok)]
    renames = [
        (i, others)
        for i, spans in gens
        for others in [[g for g, entry in GENERATORS.items() if len(entry[0]) == len(spans) and g != tokens[i]]]
        if others
    ]
    params = [span for _, spans in gens for span in spans]
    kinds = [kind for kind, found in enumerate((swaps, labels, renames, params)) if found]
    if not kinds:
        return None
    kind = rng.choice(kinds)
    if kind == 0:
        (a, b), (c, d) = sorted(rng.sample(rng.choice(swaps), 2))
        return tokens[:a] + tokens[c:d] + tokens[b:c] + tokens[a:b] + tokens[d:], d - 1
    if kind == 1:
        k = rng.choice(labels)
        tokens[k] = rng.choice([f"X{j}" for j in range(1, 6) if f"X{j}" != tokens[k]])
        return tokens, k
    if kind == 2:
        k, others = rng.choice(renames)
        tokens[k] = rng.choice(others)
        return tokens, k
    a, b = rng.choice(params)
    return tokens[:a] + ["Phi", "("] + tokens[a:b] + [")"] + tokens[b:], b + 2


def typing_kind(message: str) -> str:
    """A TypingError message up to the objects it names, without the
    generator it names or its counts."""
    head, _, rest = message.partition(" ")
    if head in GENERATORS:
        message = rest
    return re.sub(r"\d+", "N", re.sub(r"(\bparameter | in | at ).*", r"\1", message)).strip()


def break_at(rng, tokens: list[str], k: int) -> list[str]:
    """tokens with token k deleted, swapped with the next one, or preceded by a word of VOCABULARY."""
    kind = rng.randrange(3)
    if kind == 0:
        return tokens[:k] + tokens[k + 1 :]
    if kind == 1 and k + 1 < len(tokens):
        return tokens[:k] + [tokens[k + 1], tokens[k]] + tokens[k + 2 :]
    return tokens[:k] + [rng.choice(VOCABULARY)] + tokens[k:]


def test_ill_typed_mutants_fail_alike():
    # Each mutant parses and most do not type; a third also get a one-token
    # break after the change, and a syntax error must still be reported first.
    rng = seeded_rng(34)
    kinds, syntax_first = set(), 0
    for text in random_texts(rng):
        for _ in range(8):
            changed = ill_typed(rng, text)
            if changed is None:
                break
            tokens, last = changed
            mutant = " ".join(tokens)
            want = outcome(seed_parse_mor, mutant)
            assert outcome(parse_mor, mutant) == want, mutant
            assert_summary_parse_agrees(mutant, want)
            if type(want) is not tuple or want[0] != "TypingError":
                continue
            kinds.add(typing_kind(want[1]))
            if rng.random() < 0.3 and last + 1 < len(tokens):
                mutant = " ".join(break_at(rng, tokens, rng.randrange(last + 1, len(tokens))))
                broken = outcome(seed_parse_mor, mutant)
                assert outcome(parse_mor, mutant) == broken, mutant
                assert_summary_parse_agrees(mutant, broken)
                syntax_first += type(broken) is tuple and broken[0] == "ParseError"
    assert len(kinds) >= 5, kinds
    assert syntax_first >= 10, syntax_first


def test_every_parsed_node_carries_the_types_validate_gives():
    rng = seeded_rng(35)
    for text in random_texts(rng):
        pairs = [(parse_mor(text), seed_parse_mor(text))]
        while pairs:
            f, g = pairs.pop()
            assert type(f) is type(g)
            assert f._types is not None, text
            assert f._types == g._types, text
            pairs.extend(zip(f.children(), g.children()))


def test_texts_of_odd_characters_tokenize_and_fail_alike():
    # The one-loop parser splits its tokens with str.split, the recursive one
    # found them with _TOKEN: unicode word characters, every whitespace
    # character and the separators, in random texts, make the same tokens.
    rng = seeded_rng(36)
    alphabet = list("X1M(),; \t\r\n") + ["X2", "one", "tensor", "Phi", "²", "ß", "٣", "\x0b", "\x85", "　", "é"]
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert outcome(parse_obj, text) == outcome(seed_parse_obj, text), repr(text)
        mor = "vert(id(X1), id(" + text + "))"
        assert outcome(parse_mor, mor) == outcome(seed_parse_mor, mor), repr(mor)


def test_injected_stray_characters_fail_alike():
    # The one-loop parser skips the stray-character regex for ASCII text that
    # holds nothing but allowed characters.  Random texts, spread over lines,
    # with one '=', '\x0b', '\xa0' or 'é' injected (or a comment holding them)
    # are refused, at the same line and column, or read as by the regex alone.
    rng = seeded_rng(37)
    refused = 0
    for text in random_texts(rng):
        text = "".join(c if c != " " or rng.random() < 0.7 else "\n" for c in text)
        for ch in ("", "=", "\x0b", "\xa0", "é", "# = \xa0 é\n"):
            i = rng.randrange(len(text) + 1)
            injected = text[:i] + ch + text[i:]
            want = outcome(seed_parse_mor, injected)
            assert outcome(parse_mor, injected) == want, repr(injected)
            refused += type(want) is tuple and want[1].startswith("unexpected character")
    assert refused >= 3 * 50, refused


def verdict_or_error(lhs, rhs, flavor: str):
    try:
        return check(lhs, rhs, flavor)
    except OrbibraidError as exc:
        return error_outcome(exc)


def test_check_gives_the_same_verdict_on_summaries_as_on_trees(diagram_dir):
    # Pairs of random routes from one object, under every flavor; then the
    # bundled diagrams and the horiz fixture of the CLI's report pins.
    from test_cli import WRITTEN_DIAGRAMS

    rng = seeded_rng(38)
    seen = set()
    for _ in range(60):
        f = random_mor(rng, m_typed=rng.random() < 0.5)
        lhs, rhs = mor_text(f), mor_text(random_mor(rng, obj=domain(f)))
        for flavor in FLAVORS:
            want = verdict_or_error(parse_mor(lhs), parse_mor(rhs), flavor)
            assert verdict_or_error(parse_mor(lhs, summarize), parse_mor(rhs, summarize), flavor) == want
            seen.add(want.status if type(want) is Verdict else want[0])
    assert seen == {COMMUTES, NOT_COMMUTES, NOT_PARALLEL, "FlavorError"}, seen
    texts = [path.read_text() for path in sorted(diagram_dir.glob("*.diag"))]
    assert len(texts) == 10
    for text in texts + [WRITTEN_DIAGRAMS["horiz.diag"]]:
        trees, summaries = parse_diagram(text), parse_diagram(text, summarize)
        assert check(*summaries.fields()) == check(*trees.fields()), text
