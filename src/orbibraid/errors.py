"""Exception hierarchy shared by all subpackages, and the digit cap on the integers they read."""

MAX_INDEX_DIGITS = 4300  # of a label or index: the most int() reads by default on every supported Python


class OrbibraidError(Exception):
    """Base class for all errors raised by this package."""


class MalformedWordError(OrbibraidError):
    """A braid word refers to a generator that does not exist at this strand count."""


class ArityError(OrbibraidError):
    """Two operands live on different strand counts / arities."""


class SizeCapError(OrbibraidError):
    """An input's size or counted work passes a fixed cap; refused at once, or after work bounded by the cap."""


class ParseError(OrbibraidError):
    """Syntax error in a DSL text, with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def line_and_column(text: str, index: int) -> tuple[int, int]:  # each counted from 1
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


class TypingError(OrbibraidError):
    """An expression is not well typed; the message names the offending subterm."""


class FlavorError(OrbibraidError):
    """A diagram mentions structure its declared flavor does not have."""


class GeometryError(OrbibraidError):
    """An interval configuration is not a valid equivariant embedding."""


class DimensionError(OrbibraidError):
    """Matrix dimensions do not match the operation."""


class SingularMatrixError(OrbibraidError):
    """A matrix required to be invertible has zero determinant."""


class RelationError(OrbibraidError):
    """Candidate representation data violates a defining relation."""

    def __init__(self, relation: str):
        super().__init__(f"relation violated: {relation}")
        self.relation = relation


class UnsupportedGeneratorError(OrbibraidError):
    """A morphism uses a generator the matrix semantics cannot interpret."""
