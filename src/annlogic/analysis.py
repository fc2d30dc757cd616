"""Hypothesis handling and inspection aids: a propositional-logic parser
that yields the formula's truth table over the minterms, confusion-matrix
comparison of expressions, and trend grids over one or two attributes."""

from __future__ import annotations

import re

import numpy as np

from .encoding import MAX_ATTRIBUTES, _distinct_ints, _is_int, _is_real, _Record, minterm_transform
from .logiccode import BitTensor

MAX_RESOLUTION = 1001  # a 2-D grid holds ~1e6 points; writing them, not computing, bounds it


_TOKEN = re.compile(r"([()&|!~]|\w+)|(\S)")  # a token, or a character no token holds
_KEYWORDS = {"and": "and", "or": "or", "xor": "xor", "not": "not",
             "&": "and", "|": "or", "!": "not", "~": "not"}
_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 3}  # '(' binds 0
_APPLY = {"or": np.logical_or, "xor": np.logical_xor, "and": np.logical_and}
MAX_NESTING = 256  # parentheses and negations waiting at once


def parse_hypothesis(text: str, names: list[str]) -> BitTensor:
    """Truth-table the formula over all 2^n assignments of the attributes
    `names` (attribute 1 on the most significant index bit).  'not' binds
    tightest, then 'and', then 'or' and 'xor' alike, left to right.
    Keywords are case-insensitive; '!', '~', '&', '|' are aliases.  One
    operator-precedence pass keeps a stack of truth tables and a stack of
    waiting '(', 'not' and binary operators; the table is a one-level tensor."""
    tokens = []
    for match in _TOKEN.finditer(text):
        if match[2]:
            raise ValueError(f"unexpected character {match[2]!r} (at token {len(tokens) + 1})")
        tokens.append(match[1])
    n = len(names)
    if n > MAX_ATTRIBUTES:
        raise ValueError(f"{n} attributes exceed the maximum of {MAX_ATTRIBUTES}")
    col = np.indices((2,) * n, dtype=bool).reshape(n, 2**n)
    # a repeated name binds its last column
    columns = {name: col[j] for j, name in enumerate(names)}
    truths, waiting = [], []

    def fold(binds):  # apply the waiting operators that bind at least as tightly
        while waiting and _BINDS.get(waiting[-1], 0) >= binds:
            op, rhs = waiting.pop(), truths.pop()
            truths.append(~rhs if op == "not" else _APPLY[op](truths.pop(), rhs))

    operand = True  # the next token must start an operand
    for pos, tok in enumerate(tokens, 1):
        kind = _KEYWORDS.get(tok.lower())
        if operand and (tok == "(" or kind == "not"):
            if waiting.count("(") + waiting.count("not") == MAX_NESTING:
                raise ValueError(f"formula nests too deeply (at token {pos})")
            waiting.append(kind or tok)
        elif operand:
            if tok == ")" or kind is not None:
                raise ValueError(f"unexpected token {tok!r} (at token {pos})")
            if tok not in columns:
                raise ValueError(
                    f"unknown attribute {tok!r}; known: {', '.join(names)}"
                )
            truths.append(columns[tok])
            operand = False
        elif kind in _APPLY:
            fold(_BINDS[kind])
            waiting.append(kind)
            operand = True
        elif tok == ")" and "(" in waiting:
            fold(1)
            waiting.pop()
        else:
            why = "expected ')'" if "(" in waiting else f"unexpected token {tok!r}"
            raise ValueError(f"{why} (at token {pos})")
    if operand:
        raise ValueError(f"unexpected end of input (at token {len(tokens) + 1})")
    fold(1)
    if waiting:
        raise ValueError(f"expected ')' (at token {len(tokens) + 1})")
    return BitTensor(truths[0][None])


class ComparisonMetrics(_Record):
    __slots__ = ("v11", "v10", "v01", "v00", "accuracy", "precision", "recall",
                 "precision_degenerate", "recall_degenerate", "implies_forward",
                 "implies_backward", "equivalent")
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


def compare(e: BitTensor, h: BitTensor) -> ComparisonMetrics:
    """Confusion-matrix counts over the active/inactive minterm masks of
    two logic expressions, one-level tensors.  v10 counts minterms active
    in e but not in h; forward implication (e implies h) holds iff v10 = 0."""
    if len(e.bits) != 1 or len(h.bits) != 1:
        raise ValueError("a logic expression has one level")
    if e.n != h.n:
        raise ValueError("attribute count mismatch")
    size = 2**e.n
    ea, ha = e.bits[0].astype(bool), h.bits[0].astype(bool)
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


class TrendGrid(_Record):
    __slots__ = ("axis", "values")
    axis: tuple[float, ...]
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
    A degree must be a real number in [0,1] and an attribute index a distinct
    integer in 0..n-1 (a bool is neither), else it is a ValueError.

    The minterm expansion of a degree vector is the multilinear extension
    of the (2,)*n coefficient tensor (Owen 1972), so the grid is one
    contraction: each fixed axis j with (1-m_j, m_j), then the varied axes
    with P, the (res, 2) matrix of (1-a, a), as P @ W or P @ W @ P.T.  The
    cost is 2^n + res^2, not res^2 * 2^n; the values agree with a minterm
    expansion per grid point within 1e-12."""
    n = bt.n
    if not _distinct_ints(vary) or not 1 <= len(vary) <= 2:
        raise ValueError("vary must name one or two distinct attributes")
    if any(not 0 <= j < n for j in vary):
        raise ValueError("varied attribute index out of range")
    fixed = {} if fixed is None else fixed
    if not isinstance(fixed, dict):
        raise ValueError("fixed must be a dict of attribute index to degree")
    if not all(map(_is_int, fixed)) or any(not 0 <= j < n for j in fixed):
        raise ValueError("fixed attribute index out of range")
    if not all(map(_is_real, fixed.values())):
        raise ValueError("fixed degrees must be real numbers")
    if not _is_int(resolution):
        raise ValueError("resolution must be an integer")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}")
    base = [float(fixed.get(j, 0.5)) for j in range(n)]
    axis = np.linspace(0.0, 1.0, resolution)
    # the varied axes first, in vary's order, then the fixed ones ascending
    w = np.moveaxis(bt.reconstruction(levels).reshape((2,) * n), vary, range(len(vary)))
    for f in minterm_transform(np.delete(base, vary)[:, None])[::-1]:
        w = w @ f  # contract the last fixed axis
    p = minterm_transform(axis[:, None])
    values = p @ w if len(vary) == 1 else p @ w @ p.T
    return TrendGrid(tuple(axis.tolist()), values)
