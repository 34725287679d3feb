"""Recursive-descent parser for object and morphism expressions.

Grammar (whitespace-insensitive, ``#`` starts a comment):

    mor  := 'id' '(' obj ')' | 'inv' '(' mor ')' | 'vert' '(' mor ',' mor ')'
          | 'horiz' '(' mor ';' mor-list ')' | 'tens' '(' mor ',' mor ')'
          | 'act' '(' mor ',' mor ')' | 'phi' '(' mor ')'
          | genname ['(' obj-list ')']
    obj  := 'X'<digits> | 'M' | 'one' | 'oneM'
          | 'tensor' '(' obj ',' obj ')' | 'Phi' '(' obj ')' | 'act' '(' obj ',' obj ')'

Object parameters of a generator may be separated by ',' or ';'.  Each
``horiz`` is expanded as it is read (see ``morphisms.desugar_horiz``).
Nesting deeper than the interpreter's recursion limit is a ParseError.
Diagram files bind ``lhs``, ``rhs`` and ``flavor`` with ``=``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ParseError
from .morphisms import GENERATORS, KEYWORDS, Gen, Horiz, Id, MorExpr, desugar_horiz, validate
from .objects import ALeaf, Act, AUnit, MLeaf, MUnit, ObjectExpr, Phi, Tensor

_PUNCT = "(),;"


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        elif ch.isalnum() or ch == "_":
            start = i
            start_col = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Stream:
    def __init__(self, tokens: list[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", self.end_line, 1)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok


def _parse_obj(s: _Stream) -> ObjectExpr:
    tok = s.next("an object")
    name = tok.text
    if name == "one":
        return AUnit()
    if name == "oneM":
        return MUnit()
    if name == "M":
        return MLeaf()
    if name.startswith("X") and name[1:].isdigit():
        return ALeaf(int(name[1:]))
    if name == "tensor":
        s.expect("(")
        left = _parse_obj(s)
        s.expect(",")
        right = _parse_obj(s)
        s.expect(")")
        return Tensor(left, right)
    if name == "Phi":
        s.expect("(")
        child = _parse_obj(s)
        s.expect(")")
        return Phi(child)
    if name == "act":
        s.expect("(")
        module = _parse_obj(s)
        s.expect(",")
        algebra = _parse_obj(s)
        s.expect(")")
        return Act(module, algebra)
    raise ParseError(f"unknown object {name!r}", tok.line, tok.col)


_ARITY = {word: (node, len(fields(node))) for word, node in KEYWORDS.items()}


def _parse_mor(s: _Stream) -> MorExpr:
    tok = s.next("a morphism")
    name = tok.text
    if name == "id":
        s.expect("(")
        obj = _parse_obj(s)
        s.expect(")")
        return Id(obj)
    if name in _ARITY:
        node, arity = _ARITY[name]
        s.expect("(")
        args = [_parse_mor(s)]
        while len(args) < arity:
            s.expect(",")
            args.append(_parse_mor(s))
        s.expect(")")
        return node(*args)
    if name == "horiz":
        s.expect("(")
        outer = _parse_mor(s)
        inners = []
        nxt = s.next("';' or ')'")
        if nxt.text == ";":
            while True:
                inners.append(_parse_mor(s))
                nxt = s.next("',' or ')'")
                if nxt.text == ")":
                    break
                if nxt.text != ",":
                    raise ParseError(f"expected ',' or ')', found {nxt.text!r}", nxt.line, nxt.col)
        elif nxt.text != ")":
            raise ParseError(f"expected ';' or ')', found {nxt.text!r}", nxt.line, nxt.col)
        return desugar_horiz(Horiz(outer, tuple(inners)))
    if name in GENERATORS:
        params: list[ObjectExpr] = []
        nxt = s.peek()
        if nxt is not None and nxt.text == "(":
            s.expect("(")
            nxt = s.peek()
            if nxt is not None and nxt.text == ")":
                s.next(")")
            else:
                while True:
                    params.append(_parse_obj(s))
                    sep = s.next("',' , ';' or ')'")
                    if sep.text == ")":
                        break
                    if sep.text not in (",", ";"):
                        raise ParseError(
                            f"expected ',' or ';', found {sep.text!r}", sep.line, sep.col
                        )
        return Gen(name, tuple(params))
    raise ParseError(f"unknown generator {name!r}", tok.line, tok.col)


def _run(text: str, fn):
    tokens = _tokenize(text)
    end_line = tokens[-1].line if tokens else 1
    s = _Stream(tokens, end_line)
    try:
        result = fn(s)
    except RecursionError:
        reached = s.tokens[s.pos - 1]
        raise ParseError("expression nested too deeply", reached.line, reached.col) from None
    trailing = s.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing token {trailing.text!r}", trailing.line, trailing.col)
    return result


def parse_obj(text: str) -> ObjectExpr:
    return _run(text, _parse_obj)


def parse_mor(text: str) -> MorExpr:
    """Parse a morphism and type-check it."""
    mor = _run(text, _parse_mor)
    validate(mor)
    return mor


@dataclass(frozen=True)
class Diagram:
    lhs: MorExpr
    rhs: MorExpr
    flavor: str


FLAVORS = ("monoidal", "braided", "symmetric")


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram file: bindings lhs=..., rhs=..., flavor=... (any order)."""
    bindings: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        head, eq, rest = line.partition("=")
        key = head.strip()
        if eq and key in ("lhs", "rhs", "flavor"):
            if key in bindings:
                raise ParseError(f"duplicate binding for {key}", lineno, 1)
            bindings[key] = [rest]
            current = key
        elif current is not None:
            bindings[current].append(line)
        else:
            raise ParseError(f"expected a binding, found {stripped!r}", lineno, 1)
    for key in ("lhs", "rhs", "flavor"):
        if key not in bindings:
            raise ParseError(f"diagram file is missing {key}", 1, 1)
    flavor = " ".join(bindings["flavor"]).strip()
    if flavor not in FLAVORS:
        raise ParseError(f"flavor must be one of {FLAVORS}, got {flavor!r}", 1, 1)
    lhs = parse_mor("\n".join(bindings["lhs"]))
    rhs = parse_mor("\n".join(bindings["rhs"]))
    return Diagram(lhs, rhs, flavor)
