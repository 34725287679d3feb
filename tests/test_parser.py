"""Exact ParseError messages and positions, one or more cases per raise site of the parser.

The messages, lines and columns were printed by the character-loop
tokenizer that the regular-expression scan replaced; only a label with a
non-decimal digit and the positions of errors in diagram files differ.
"""

import json
import threading

import pytest

from orbibraid.cli import main
from orbibraid.dsl import obj_text, parse_diagram, parse_mor, parse_obj
from orbibraid.errors import ParseError, TypingError

ROUTE_AFTER_A_COMMENT = (
    "flavor = braided\n"
    "rhs = id(tensor(X1, X2))\n"
    "# the route\n"
    "lhs = vert(sigma(X2, X1),\n"
    "         sigma(X1, X2) X3)\n"
)

# id: (entry point, text, message, line, column)
PARSE_ERRORS = {
    "stray-after-tab": (parse_mor, "sigma(X1,\t$X2)", "unexpected character '$'", 1, 11),
    "stray-on-line-3-after-comment": (
        parse_mor,
        "vert(sigma(X1, X2),\n  # the second step\n  sigma(X2, X1) ! )",
        "unexpected character '!'",
        3,
        17,
    ),
    "stray-vertical-tab": (parse_mor, "vert(id(X1),\x0bid(X1))", "unexpected character '\\x0b'", 1, 13),
    "expected-token": (parse_mor, "vert(sigma(X1, X2) sigma(X2, X1))", "expected ',', found 'sigma'", 1, 20),
    "end-of-multi-line-input": (
        parse_mor,
        "vert(sigma(X1, X2),\n\n  sigma(X2, X1)  # unclosed\n\n",
        "expected ')', found end of input",
        3,
        1,
    ),
    "empty-input": (parse_mor, "", "expected a morphism, found end of input", 1, 1),
    "end-in-generator-parameters": (parse_mor, "sigma(X1", "expected ',' , ';' or ')', found end of input", 1, 1),
    "end-after-parameter-separator": (parse_mor, "sigma(X1,", "expected an object, found end of input", 1, 1),
    "end-in-horiz": (parse_mor, "horiz(kappa(M, X1)", "expected ';' or ')', found end of input", 1, 1),
    "unknown-object": (parse_obj, "tensor(X1, Y2)", "unknown object 'Y2'", 1, 12),
    "unlabelled-generator": (parse_obj, "act(M, X)", "unknown object 'X'", 1, 8),
    "unknown-generator": (parse_mor, "tens(id(X1), beta(X1))", "unknown generator 'beta'", 1, 14),
    "trailing-token": (parse_mor, "sigma(X1, X2) )", "unexpected trailing token ')'", 1, 15),
    "horiz-outer-separator": (parse_mor, "horiz(kappa(M, X1), id(M))", "expected ';' or ')', found ','", 1, 19),
    "horiz-inner-separator": (
        parse_mor,
        "horiz(kappa(M, X1); id(M); id(X1))",
        "expected ',' or ')', found ';'",
        1,
        26,
    ),
    "generator-parameter-separator": (parse_mor, "sigma(X1 X2)", "expected ',' or ';', found 'X2'", 1, 10),
    "duplicate-binding": (
        parse_diagram,
        "flavor = braided\nlhs = id(X1)\n\n  lhs = id(X1)\nrhs = id(X1)\n",
        "duplicate binding for lhs",
        4,
        1,
    ),
    "missing-binding": (parse_diagram, "# a comment\nflavor = braided\nlhs = id(X1)\n", "diagram file is missing rhs", 1, 1),
    "text-before-a-binding": (parse_diagram, "\n\nid(X1)\nlhs = id(X1)\n", "expected a binding, found 'id(X1)'", 3, 1),
    "unknown-flavor": (
        parse_diagram,
        "flavor = sylleptic\nlhs = id(X1)\nrhs = id(X1)\n",
        "flavor must be one of ('monoidal', 'braided', 'symmetric'), got 'sylleptic'",
        1,
        1,
    ),
    # Fixed: int() of the label raised a ValueError with no position.
    "label-with-a-non-decimal-digit": (parse_obj, "X²", "unknown object 'X²'", 1, 1),
    "label-with-a-non-decimal-digit-in-a-morphism": (parse_mor, "sigma(X1; X²)", "unknown object 'X²'", 1, 11),
    # Fixed: int() of a label past sys.get_int_max_str_digits() raised a ValueError with no position.
    "label-past-the-digit-cap": (parse_obj, "X" + "9" * 5000, "a label has at most 4300 digits, found 5000", 1, 1),
    "label-past-the-digit-cap-in-a-diagram": (
        parse_diagram,
        "flavor = braided\nlhs = id(X1)\nrhs = id(tensor(X1,\n  X" + "0" * 4301 + "))\n",
        "a label has at most 4300 digits, found 4301",
        4,
        3,
    ),
    # Fixed: these were (line 2, column 24) and (line 1, column 13), counted
    # from the start of the binding rather than of the file.
    "diagram-error-on-a-later-line": (parse_diagram, ROUTE_AFTER_A_COMMENT, "expected ')', found 'X3'", 5, 24),
    "diagram-error-on-the-binding-line": (
        parse_diagram,
        "flavor = braided\nrhs = id(tensor(X1, X2))\nlhs =   sigma(X1 X2)\n",
        "expected ',' or ';', found 'X2'",
        3,
        18,
    ),
}


@pytest.mark.parametrize("entry, text, message, line, col", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_message_and_position(entry, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        entry(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"{message} (line {line}, column {col})", line, col)


def parse_error_on_a_new_thread(text: str) -> ParseError:
    """parse_mor's error on a thread of its own, whose stack starts at the same depth
    whoever calls, so the depth at which nesting is refused does not depend on the caller."""
    caught = []

    def target():
        try:
            parse_mor(text)
        except ParseError as exc:
            caught.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return caught[0]


DEEP_INV = "inv(" * 1500 + "sigma(X1, X2)" + ")" * 1500
REFUSAL = ("expression nested too deeply (line 1, column 3965)", 1, 3965)


def test_nesting_is_refused_at_the_same_token():
    exc = parse_error_on_a_new_thread(DEEP_INV)
    assert (str(exc), exc.line, exc.col) == REFUSAL


def from_frames_deep(frames: int, call):
    """call() from about frames more interpreter frames down the stack."""
    return call() if frames == 0 else from_frames_deep(frames - 1, call)


def test_nesting_is_refused_at_the_same_token_whoever_calls():
    with pytest.raises(ParseError) as exc:
        from_frames_deep(400, lambda: parse_mor(DEEP_INV))
    assert (str(exc.value), exc.value.line, exc.value.col) == REFUSAL


def test_a_syntax_error_is_reported_before_a_typing_error():
    # the seam sigma(X1, X2) . sigma(X1, X2) is ill-typed, and only the parse sees the ')'
    text = "vert(sigma(X1, X2), sigma(X1, X2)) )"
    with pytest.raises(ParseError) as exc:
        parse_mor(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == ("unexpected trailing token ')' (line 1, column 36)", 1, 36)
    with pytest.raises(TypingError, match="vertical seam mismatch"):
        parse_mor(text[:-2])


EMPTY_BINDING = "flavor = braided\nrhs = id(X1)\n\nlhs =\n"


def test_empty_binding_is_reported_on_its_own_line(capsys, tmp_path):
    message = "expected a morphism, found end of input (line 4, column 1)"
    with pytest.raises(ParseError) as exc:
        parse_diagram(EMPTY_BINDING)
    assert (str(exc.value), exc.value.line, exc.value.col) == (message, 4, 1)
    f = tmp_path / "empty-binding.diag"
    f.write_text(EMPTY_BINDING)
    assert main(["coherence", "check", str(f), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["payload"]["error"] == f"ParseError: {message}"


def test_a_label_past_the_digit_cap_is_refused_whatever_the_int_limit(int_digit_limit):
    for key in ("label-past-the-digit-cap", "label-past-the-digit-cap-in-a-diagram"):
        test_parse_error_message_and_position(*PARSE_ERRORS[key])


def test_a_label_at_the_digit_cap_reads_and_one_past_it_is_refused_by_the_cli(capsys, tmp_path):
    label = "X" + "7" * 4300
    assert obj_text(parse_obj(f"Phi({label})")) == f"Phi({label})"
    f = tmp_path / "long-label.diag"
    f.write_text(f"flavor = monoidal\nlhs = id({label}7)\nrhs = id({label}7)\n")
    assert main(["coherence", "check", str(f), "--json"]) == 2
    error = "ParseError: a label has at most 4300 digits, found 4301 (line 2, column 10)"
    assert json.loads(capsys.readouterr().out)["payload"]["error"] == error
