"""Hypothesis handling and inspection aids: a propositional-logic parser
that yields the formula's truth table over the minterms, confusion-matrix
comparison of expressions, and trend grids over one or two attributes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import minterm_transform
from .logiccode import BitTensor, LogicExpressionBits

MAX_RESOLUTION = 1001  # a 2-D grid holds at most ~1e6 points


class HypothesisSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


class UnknownAttributeError(ValueError):
    pass


_KEYWORDS = {"and": "and", "or": "or", "xor": "xor", "not": "not",
             "&": "and", "|": "or", "!": "not", "~": "not"}


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&|!~":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise HypothesisSyntaxError(f"unexpected character {c!r}", len(tokens) + 1)
    return tokens


class _Parser:
    """expr := term (('or'|'xor') term)* ; term := factor ('and' factor)* ;
    factor := 'not' factor | '(' expr ')' | atom.  Keywords are
    case-insensitive; '!', '~', '&', '|' are aliases.  Each production returns
    the truth table of its subformula over all 2^n assignments."""

    def __init__(self, tokens: list[str], names: list[str]):
        self.tokens = tokens
        self.names = names
        n = len(names)
        col = np.indices((2,) * n, dtype=bool).reshape(n, 2**n)
        # a repeated name binds its last column
        self.columns = {name: col[j] for j, name in enumerate(names)}
        self.pos = 0

    def _kind(self, token: str) -> str | None:
        return _KEYWORDS.get(token.lower())

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise HypothesisSyntaxError("unexpected end of input", self.pos + 1)
        self.pos += 1
        return tok

    def parse(self) -> np.ndarray:
        truth = self.expr()
        if self.peek() is not None:
            raise HypothesisSyntaxError(
                f"unexpected token {self.peek()!r}", self.pos + 1
            )
        return truth

    def expr(self) -> np.ndarray:
        truth = self.term()
        while self.peek() is not None and self._kind(self.peek()) in ("or", "xor"):
            op = self._kind(self.take())
            rhs = self.term()
            truth = truth | rhs if op == "or" else truth ^ rhs
        return truth

    def term(self) -> np.ndarray:
        truth = self.factor()
        while self.peek() is not None and self._kind(self.peek()) == "and":
            self.take()
            truth = truth & self.factor()
        return truth

    def factor(self) -> np.ndarray:
        tok = self.peek()
        if tok is None:
            raise HypothesisSyntaxError("unexpected end of input", self.pos + 1)
        if self._kind(tok) == "not":
            self.take()
            return ~self.factor()
        if tok == "(":
            self.take()
            truth = self.expr()
            if self.peek() != ")":
                raise HypothesisSyntaxError("expected ')'", self.pos + 1)
            self.take()
            return truth
        if tok == ")" or self._kind(tok) is not None:
            raise HypothesisSyntaxError(f"unexpected token {tok!r}", self.pos + 1)
        self.take()
        if tok not in self.columns:
            raise UnknownAttributeError(
                f"unknown attribute {tok!r}; known: {', '.join(self.names)}"
            )
        return self.columns[tok]


def parse_hypothesis(text: str, names: list[str]) -> LogicExpressionBits:
    """Truth-table the formula over all 2^n assignments of the attributes
    `names` (attribute 1 on the most significant index bit)."""
    parser = _Parser(_tokenize(text), list(names))
    try:
        return LogicExpressionBits(parser.parse())
    except RecursionError:
        raise HypothesisSyntaxError("formula nests too deeply", parser.pos + 1) from None


@dataclass(frozen=True)
class ComparisonMetrics:
    v11: int
    v10: int
    v01: int
    v00: int
    accuracy: float
    precision: float
    recall: float
    precision_degenerate: bool
    recall_degenerate: bool
    implies_forward: bool
    implies_backward: bool
    equivalent: bool


def compare(e: LogicExpressionBits, h: LogicExpressionBits) -> ComparisonMetrics:
    """Confusion-matrix counts over the active/inactive minterm masks.
    v10 counts minterms active in e but not in h; forward implication
    (e implies h) holds iff v10 = 0."""
    if e.n != h.n:
        raise ValueError("attribute count mismatch")
    size = 2**e.n
    ea, ha = e.active, h.active
    v11, v10, v01, v00 = (
        int(np.count_nonzero(m)) for m in (ea & ha, ea & ~ha, ~ea & ha, ~(ea | ha))
    )
    accuracy = (v11 + v00) / size
    precision_degenerate = v11 + v01 == 0
    recall_degenerate = v11 + v10 == 0
    precision = 0.0 if precision_degenerate else v11 / (v11 + v01)
    recall = 0.0 if recall_degenerate else v11 / (v11 + v10)
    return ComparisonMetrics(
        v11, v10, v01, v00, accuracy, precision, recall,
        precision_degenerate, recall_degenerate,
        implies_forward=v10 == 0,
        implies_backward=v01 == 0,
        equivalent=accuracy == 1.0,
    )


@dataclass(frozen=True)
class TrendGrid:
    axis: tuple[float, ...]
    fixed: tuple[float, ...]
    levels: tuple[int, ...]
    values: np.ndarray  # shape (res,) for one varied attribute, (res, res) for two


def trend_grid(
    bt: BitTensor,
    vary: list[int],
    fixed: dict[int, float] | None = None,
    levels: list[int] | None = None,
    resolution: int = 21,
) -> TrendGrid:
    """Evaluate the level-restricted approximation over a uniform [0,1] grid
    of one or two varied attributes; the rest sit at fixed degrees (default
    0.5), and a varied attribute takes the grid value even if it has one.
    Degrees outside [0,1] and attribute indices outside 0..n-1 are a ValueError."""
    n = bt.n
    if not 1 <= len(vary) <= 2 or len(set(vary)) != len(vary):
        raise ValueError("vary must name one or two distinct attributes")
    if any(not 0 <= j < n for j in vary):
        raise ValueError("varied attribute index out of range")
    fixed = fixed or {}
    if any(not 0 <= j < n for j in fixed):
        raise ValueError("fixed attribute index out of range")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}")
    base = [float(fixed.get(j, 0.5)) for j in range(n)]
    if levels is None:
        levels = list(range(bt.bcl_max + 1))
    axis = np.linspace(0.0, 1.0, resolution)
    shape = (resolution,) * len(vary)
    degrees = np.tile(base, shape + (1,))
    for j, grid in zip(vary, np.meshgrid(*[axis] * len(vary), indexing="ij")):
        degrees[..., j] = grid
    coefficients = bt.reconstruction(levels)
    # one minterm expansion per grid point
    values = np.array([
        minterm_transform(d) @ coefficients for d in degrees.reshape(-1, n)
    ]).reshape(shape)
    return TrendGrid(tuple(axis), tuple(base), tuple(levels), values)
