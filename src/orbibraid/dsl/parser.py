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

Tokens are plain strings, found by one regular expression.  A token's
line and column are worked out only when a ParseError names it, by
scanning the text again up to that token.  One function, ``_parse``,
reads both sorts from their head-word tables (``objects.OBJECT_WORDS``,
``morphisms.KEYWORDS``) and costs one interpreter frame per nesting
level.  The ``lhs`` and ``rhs`` of a diagram file are parsed in place, so
their errors give lines and columns in the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from ..errors import ParseError
from .morphisms import GENERATORS, KEYWORDS, Gen, Horiz, Id, MorExpr, desugar_horiz, validate
from .objects import OBJECT_WORDS, ALeaf, ObjectExpr

_TOKEN = re.compile(r"[(),;]|\w+")  # \w is exactly str.isalnum() or '_'
_COMMENT = re.compile(r"#.*")
_STRAY = re.compile(r"[^\w(),; \t\r\n]")


def _position(text: str, index: int) -> tuple[int, int]:
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


class _Error(Exception):
    """A syntax error at a token index; ``_run`` raises it as a ParseError at that token."""


class _Stream:
    """The tokens of a text and a read position.  ``next`` goes through ``peek``
    and ``expect`` through ``next``: the nesting at which the recursion limit
    is reached, and so the token reported, depends on these call depths."""

    def __init__(self, text: str):
        # A comment runs to the end of its line, so dropping it moves no other character.
        self.text = text = _COMMENT.sub("", text)
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray[0]!r}", *_position(text, stray.start()))
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def where(self, k: int) -> tuple[int, int]:
        """Line and column of token k.  Past the last token, column 1 of that
        token's line; with no token at all, column 1 of the first line that is
        not empty, which for an empty diagram binding is the binding's own line
        (its blanked key leaves spaces there)."""
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


# Head word -> (node, arity, whether its arguments are morphisms), for objects
# and for morphisms.
_HEADS = (
    {word: (node, len(node.__match_args__), False) for word, node in OBJECT_WORDS.items()},
    {"id": (Id, 1, False)} | {word: (node, len(node.__match_args__), True) for word, node in KEYWORDS.items()},
)


def _parse(s: _Stream, is_mor: bool):
    """One object or morphism.  Argument lists are read here, not in a helper,
    so that each nesting level costs one frame of the recursion limit."""
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
        return desugar_horiz(Horiz(outer, tuple(inners)))
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


def _parse_obj(s: _Stream) -> ObjectExpr:
    return _parse(s, False)


def _parse_mor(s: _Stream) -> MorExpr:
    return _parse(s, True)


def _run(text: str, parse, *args):
    """parse(stream, *args) over the whole text.  The public entry points pass
    ``_parse`` itself: one frame less is one nesting level more."""
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


def parse_obj(text: str) -> ObjectExpr:
    return _run(text, _parse, False)


def parse_mor(text: str) -> MorExpr:
    """Parse a morphism and type-check it."""
    mor = _run(text, _parse, True)
    validate(mor)
    return mor


@dataclass(frozen=True)
class Diagram:
    lhs: MorExpr
    rhs: MorExpr
    flavor: str


FLAVORS = ("monoidal", "braided", "symmetric")


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram file: bindings lhs=..., rhs=..., flavor=... (any order).

    A binding's text is blanked up to its ``=`` and keeps every line of the
    file to the next binding, so its parse errors give file positions.
    """
    bindings: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        head, eq, rest = line.partition("=")
        key = head.strip()
        if eq and key in ("lhs", "rhs", "flavor"):
            if key in bindings:
                raise ParseError(f"duplicate binding for {key}", lineno, 1)
            bindings[key] = ["\n" * (lineno - 1) + " " * (len(head) + 1) + rest]
            current = key
        elif current is not None:
            bindings[current].append(line)
        elif line.strip():
            raise ParseError(f"expected a binding, found {line.strip()!r}", lineno, 1)
    for key in ("lhs", "rhs", "flavor"):
        if key not in bindings:
            raise ParseError(f"diagram file is missing {key}", 1, 1)
    flavor = " ".join(filter(str.strip, bindings["flavor"])).strip()
    if flavor not in FLAVORS:
        raise ParseError(f"flavor must be one of {FLAVORS}, got {flavor!r}", 1, 1)
    lhs = parse_mor("\n".join(bindings["lhs"]))
    rhs = parse_mor("\n".join(bindings["rhs"]))
    return Diagram(lhs, rhs, flavor)
