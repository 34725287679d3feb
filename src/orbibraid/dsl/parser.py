"""One-loop parser for object and morphism expressions.

Grammar (whitespace-insensitive, ``#`` starts a comment):

    mor  := 'id' '(' obj ')' | 'inv' '(' mor ')' | 'vert' '(' mor ',' mor ')'
          | 'horiz' '(' mor ';' mor-list ')' | 'tens' '(' mor ',' mor ')'
          | 'act' '(' mor ',' mor ')' | 'phi' '(' mor ')'
          | genname ['(' obj-list ')']
    obj  := 'X'<digits> | 'M' | 'one' | 'oneM'
          | 'tensor' '(' obj ',' obj ')' | 'Phi' '(' obj ')' | 'act' '(' obj ',' obj ')'

Object parameters of a generator may be separated by ',' or ';'.  Each
``horiz`` is expanded as it is read (see ``morphisms.desugar_horiz``).
An expression nested inside ``MAX_DEPTH`` others is a ParseError, whoever
calls.  Diagram files bind ``lhs``, ``rhs`` and ``flavor`` with ``=``.

Tokens are plain strings: past the stray-character check, a text's
``_TOKEN`` matches are its words once each separator is spaced out, and
``str.split`` finds them faster.  A token's line and column are worked out
only when a ParseError names it, by scanning the text again up to that
token.  ``_parse`` reads both sorts in one loop over the tokens, from their
head-word tables (``objects.OBJECT_WORDS``, ``morphisms.KEYWORDS``), and
keeps the expressions still open on a stack of its own.  Objects are
shared through one table per call (a label keyed by its spelling, any
other object as ``objects.share`` keys it), and each morphism is made as it
closes by a rule, through that table: ``morphisms.build`` by default, a
node typed by its kind's rule, or ``coherence.summarize``, with which
``coherence check`` builds no tree.  The first typing error is held until
the whole text has parsed, so a syntax error is reported first (an
ill-sorted object, and the inners of a ``horiz``, are still refused as
they are read).  The ``lhs`` and ``rhs`` of a diagram file
are parsed in place, so their errors give lines and columns in the file.
"""

from __future__ import annotations

import re
from itertools import islice

from ..errors import MAX_INDEX_DIGITS, ParseError, line_and_column
from ..record import Record
from .morphisms import GENERATORS, KEYWORDS, Gen, Id, build, desugar_horiz, replay, validate
from .objects import OBJECT_WORDS, ALeaf, ObjectExpr, share

_TOKEN = re.compile(r"[(),;]|\w+")  # \w is exactly str.isalnum() or '_'
_COMMENT = re.compile(r"#.*")
_STRAY = re.compile(r"[^\w(),; \t\r\n]")
# The ASCII characters _STRAY allows, for str.translate to delete: ASCII
# text with nothing left has no stray character and needs no regex search.
_ALLOWED_ASCII = str.maketrans("", "", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_(),; \t\r\n")

# Nesting levels an expression may have around it: 991 keeps the refusal
# of 1,500 nested ``inv`` at the token where the recursive parser this one
# replaced ran out of stack when called from a fresh thread.
MAX_DEPTH = 991


class _Error(Exception):
    """A syntax error at a token index; ``_run`` raises it as a ParseError at that token."""


def _where(text: str, tokens: list[str], k: int) -> tuple[int, int]:
    """Line and column of token k.  Past the last token, column 1 of that
    token's line; with no token at all, column 1 of the first line that is
    not empty, which for an empty diagram binding is the binding's own line
    (its blanked key leaves spaces there)."""
    if k < len(tokens):
        return line_and_column(text, next(islice(_TOKEN.finditer(text), k, None)).start())
    if tokens:
        return _where(text, tokens, len(tokens) - 1)[0], 1
    return line_and_column(text, len(text) - len(text.lstrip("\r\n")))[0], 1


# Head word -> (node, arity, whether its arguments are morphisms), for objects
# and for morphisms; horiz has a list of arguments (arity None).
_HEADS = (
    {word: (node, len(node.__match_args__), False) for word, node in OBJECT_WORDS.items()},
    {"id": (Id, 1, False), "horiz": ("horiz", None, True)}
    | {word: (node, len(node.__match_args__), True) for word, node in KEYWORDS.items()},
)
_OBJECT_NODES = frozenset(OBJECT_WORDS.values())
_WHAT = ("an object", "a morphism")


def _found(tok: str | None) -> str:
    return "end of input" if tok is None else repr(tok)


def _parse(tokens: list, is_mor: bool, table: dict, held: list, rule):
    """One object or morphism, the whole token list, which ends in None.

    Each open expression is a frame ``(node, arity, of_mor, args)`` on the
    stack: a fixed-arity node type, the word ``"horiz"`` (arity None, args
    the outer morphism and the inners, handed to ``desugar_horiz`` when the
    frame closes, so no horiz node is ever built) or a generator name
    (arity None, args its parameters); of_mor is the sort of its arguments.
    The loop reads one head word: a leaf is a value at once, a head with
    arguments opens a frame.  A value goes to the frames it completes,
    innermost first, until one wants another argument.  Each morphism is
    made as it closes, by ``rule(kind, fields, table, held)``, until held takes a
    typing error; a horiz by ``build``, its expansion replayed through rule.
    """
    pos = 0
    stack: list[tuple] = []
    make, tree_depth = rule, -1  # the rule in use; the depth of the horiz read by build, if any
    heads = _HEADS[is_mor]
    get = table.get
    while True:
        word = tokens[pos]
        pos += 1
        head = heads.get(word)
        if head is not None:
            node, arity, of_mor = head
            if arity != 0:
                if tokens[pos] != "(":
                    raise _Error(f"expected '(', found {_found(tokens[pos])}", pos)
                pos += 1
                if arity is None and make is not build:  # a horiz
                    make, tree_depth = build, len(stack)
                stack.append((node, arity, of_mor, []))
                if len(stack) >= MAX_DEPTH:
                    raise _Error("expression nested too deeply", pos)
                heads = _HEADS[of_mor]
                continue
            value = get(word)  # a unit read before, under its own spelling
            if value is None:
                value = table[word] = share(table, node)
        elif word is None:
            raise _Error(f"expected {_WHAT[heads is _HEADS[True]]}, found end of input", pos - 1)
        elif heads is _HEADS[False]:
            value = get(word)  # a label read before, under its own spelling
            if value is None:
                if word[0] != "X" or not word[1:].isdecimal():
                    raise _Error(f"unknown object {word!r}", pos - 1)
                if len(word) > MAX_INDEX_DIGITS + 1:
                    raise _Error(f"a label has at most {MAX_INDEX_DIGITS} digits, found {len(word) - 1}", pos - 1)
                value = table[word] = ALeaf(int(word[1:]))
        elif word in GENERATORS:
            if tokens[pos] == "(":
                if tokens[pos + 1] != ")":
                    pos += 1
                    stack.append((word, None, False, []))
                    if len(stack) >= MAX_DEPTH:
                        raise _Error("expression nested too deeply", pos)
                    heads = _HEADS[False]
                    continue
                pos += 2
            value = make(Gen, (word, ()), table, held)
        else:
            raise _Error(f"unknown generator {word!r}", pos - 1)

        while stack:
            node, arity, of_mor, args = stack[-1]
            args.append(value)
            sep = tokens[pos]
            if arity is not None:
                if len(args) < arity:
                    if sep != ",":
                        raise _Error(f"expected ',', found {_found(sep)}", pos)
                    pos += 1
                    heads = _HEADS[of_mor]
                    break
                if sep != ")":
                    raise _Error(f"expected ')', found {_found(sep)}", pos)
                pos += 1
                stack.pop()
                if node not in _OBJECT_NODES:
                    value = make(node, args, table, held)
                    continue
                key = (node, id(args[0]), id(args[1] if arity == 2 else None))  # as share keys it
                value = get(key)
                if value is None:
                    value = table[key] = node(*args)
                continue
            # A horiz or a generator's parameter list: a separator or ')'.
            if node == "horiz":
                what = wrong = "';' or ')'" if len(args) == 1 else "',' or ')'"
                ok = sep == (";" if len(args) == 1 else ",")
            else:
                what, wrong = "',' , ';' or ')'", "',' or ';'"
                ok = sep == "," or sep == ";"
            if sep is None:
                raise _Error(f"expected {what}, found end of input", pos)
            pos += 1
            if sep == ")":
                stack.pop()
                if node != "horiz":
                    value = make(Gen, (node, tuple(args)), table, held)
                    continue
                value = desugar_horiz(args[0], args[1:], table)
                if not held:
                    validate(value, table)  # its inners are typed, its new nodes not yet
                if len(stack) == tree_depth:
                    make, tree_depth = rule, -1
                    value = replay(value, rule, table, held)
                continue
            if not ok:
                raise _Error(f"expected {wrong}, found {sep!r}", pos - 1)
            heads = _HEADS[of_mor]
            break
        else:
            if tokens[pos] is not None:
                raise _Error(f"unexpected trailing token {tokens[pos]!r}", pos)
            return value


def _run(text: str, is_mor: bool, held: list | None = None, rule=build):
    """``_parse`` over the whole text, with a syntax error raised as a
    ParseError; the first typing error, if any, is left in held."""
    # A comment runs to the end of its line, so dropping it moves no other character.
    text = _COMMENT.sub("", text)
    if not text.isascii() or text.translate(_ALLOWED_ASCII):
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray[0]!r}", *line_and_column(text, stray.start()))
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace(";", " ; ").split()
    tokens.append(None)
    try:
        return _parse(tokens, is_mor, {}, [] if held is None else held, rule)
    except _Error as exc:
        message, k = exc.args
        raise ParseError(message, *_where(text, tokens[:-1], k)) from None


def parse_obj(text: str) -> ObjectExpr:
    return _run(text, False)


def parse_mor(text: str, rule=build):
    """Parse a morphism, each node made by rule as it closes (see ``_parse``):
    by default a tree, typed as it is read.  A typing error is raised once
    the whole text has parsed."""
    held: list = []
    mor = _run(text, True, held, rule)
    if held:
        raise held[0]
    return mor


class Diagram(Record):
    __slots__ = __match_args__ = ("lhs", "rhs", "flavor")


FLAVORS = ("monoidal", "braided", "symmetric")


def parse_diagram(text: str, rule=build) -> Diagram:
    """Parse a diagram file: bindings lhs=..., rhs=..., flavor=... (any order),
    each side made by rule, as ``parse_mor`` makes it.

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
    lhs = parse_mor("\n".join(bindings["lhs"]), rule)
    rhs = parse_mor("\n".join(bindings["rhs"]), rule)
    return Diagram(lhs, rhs, flavor)
