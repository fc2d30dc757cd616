"""Binary logic trees over minterm bit vectors.

A tree is another form of an expression's active-minterm set: induced like a
decision tree from the (2,)*n boolean truth tensor, evaluated by summing, over
all paths to active leaves, the products of the degrees (solid edge) or their
complements (dashed edge).  All levels' trees share one `NodeTable`, a root each.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

from .encoding import _degrees, _Record
from .logiccode import BitTensor


class NodeTable(_Record):
    """Row v splits on `attribute[v]` (0-based) into `low[v]` (negated branch) and `high[v]`;
    `size[v]` counts its subtree's nodes, expanded.  Row 0 is the inactive leaf, row 1 the
    active one (attribute -1), a split comes after its children; `roots` has one row a level."""

    __slots__ = ("attribute", "low", "high", "size", "roots")
    attribute: np.ndarray
    low: np.ndarray
    high: np.ndarray
    size: np.ndarray
    roots: tuple[int, ...]


def build_qldt(bt: BitTensor) -> NodeTable:
    """Induce a lossless tree from each level of a bit tensor, its truth table;
    any number of levels.  Splits maximize information gain, ties go to the
    lowest attribute index; pure subtrees and splits with identical children
    collapse.  Equal subfunctions over the same attributes are one row, as in a
    reduced ordered BDD's unique table.  The unique nodes at depth d, rows of one
    (K, 2^(n-d)) truth matrix, split at once; the table fills bottom up."""
    n = bt.n
    index_bits = np.indices((2,) * n, dtype=float).reshape(n, 2**n).T
    truth, attrs, roots = _intern(bt.bits.astype(bool),
                                  np.tile(np.arange(n, dtype=np.uint8), (len(bt.bits), 1)))
    depths = []  # per depth: all-true flags, inner rows, their attributes, low then high children
    while True:
        width = truth.shape[1]
        pos = np.count_nonzero(truth, axis=1)
        inner = np.flatnonzero((pos > 0) & (pos < width))
        if not inner.size:
            depths.append((pos == width, inner, inner, inner))
            break
        rows = truth[inner]
        axis = _best_axes(rows, pos[inner], index_bits)
        k, m, half = len(inner), attrs.shape[1], width // 2
        high = index_bits[:width, -m:].T[axis] > 0  # each row's entries in its axis's 1-half
        children = np.concatenate([rows[~high], rows[high]]).reshape(2 * k, half)  # low, high
        rest = np.tile(attrs[inner][np.arange(m) != axis[:, None]].reshape(k, m - 1), (2, 1))
        depth = (pos == width, inner, attrs[inner, axis])
        truth, attrs, child = _intern(children, rest)
        depths.append((*depth, child))
    attribute, low, high, size = table = np.zeros((4, 2 + sum(len(d[1]) for d in depths)), np.int64)
    attribute[:2], size[:2] = -1, 1
    end, below = 2, np.zeros(0, dtype=np.int64)  # below: the table row of each depth row
    for full, inner, split_on, child in reversed(depths):
        lo, hi = below[child[:len(inner)]], below[child[len(inner):]]
        keep = lo != hi  # a split whose children are one node is that node
        below = full.astype(np.int64)  # a pure depth row is its leaf
        below[inner] = lo
        below[inner[keep]] = rows = np.arange(end, end + np.count_nonzero(keep))
        attribute[rows], low[rows], high[rows] = split_on[keep], lo[keep], hi[keep]
        size[rows] = 1 + size[lo[keep]] + size[hi[keep]]
        end += len(rows)
    table = table[:, :end]
    table.flags.writeable = False
    return NodeTable(*table, tuple(below[roots].tolist()))


def _intern(truth: np.ndarray, attrs: np.ndarray):
    """The unique (truth row, attributes left) rows and each row's index among
    them: lossless trees over the same attributes are equal iff their rows are."""
    key = np.concatenate([np.packbits(truth, axis=1), attrs], axis=1)
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    return truth[first], attrs[first], inverse


def _best_axes(truth: np.ndarray, pos: np.ndarray, index_bits: np.ndarray) -> np.ndarray:
    """Per row of a (K, 2^m) truth matrix, none of them constant, the axis of highest
    information gain, the first on a tie.  An axis's halves are equal in size, and binary
    entropy is strictly concave and symmetric: the gain grows with the gap |2 high - pos|."""
    m = truth.shape[1].bit_length() - 1
    # positives in each axis's 1-slice; a float64 product runs in BLAS
    high = (truth.astype(float) @ index_bits[:truth.shape[1], -m:]).astype(np.int64)
    return np.argmax(np.abs(2 * high - pos[:, None]), axis=1)


def eval_qldt(t: NodeTable, degrees) -> tuple[float, ...]:
    """Per tree, in `roots` order, the sum over its paths to the active leaf of the
    product of edge degrees (high edge: m_j, low edge: 1 - m_j) for one object's n
    degrees.  One pass in table order, where a split follows its children, values
    every row: leaves 0.0 and 1.0, a split (1 - m_a) * low + m_a * high."""
    d = _degrees(degrees).tolist()
    if (top := int(t.attribute.max())) >= len(d):
        raise ValueError(f"attribute index {top} out of range")
    value = [0.0, 1.0]
    for a, lo, hi in zip(t.attribute[2:].tolist(), t.low[2:].tolist(), t.high[2:].tolist()):
        value.append((1.0 - d[a]) * value[lo] + d[a] * value[hi])
    return tuple(map(value.__getitem__, t.roots))


def render(t: NodeTable, names: list[str] | None = None) -> Iterator[str]:
    """Deterministic DOT rendering of each tree, in `roots` order, made as it is
    yielded: nodes numbered in preorder, dashed low edges, solid high edges, low
    before high, a split's edges after its subtrees.  A label escapes \\ and " and
    writes each line end (CRLF, CR or LF) as \\n.  `names` (a1, a2, ... if None)
    must name every attribute the table splits on."""
    need = int(t.attribute.max()) + 1
    names = [f"a{a + 1}" for a in range(need)] if names is None else names
    if len(names) < need:
        raise ValueError(f"the trees need {need} attribute names, {len(names)} given")
    labels = [re.sub(r"\r\n?|\n", r"\\n", name.replace("\\", "\\\\").replace('"', '\\"'))
              for name in names]
    # a piece is a node number or the text up to the next one: row v's tail, or edges
    split_tails = [f' [label="{x}"];\n  n' for x in labels]  # rows share their attribute's
    tails = [' [label="inactive", shape=box];\n  n', ' [label="active", shape=box];\n  n',
             *map(split_tails.__getitem__, t.attribute[2:].tolist())]
    low, high = t.low.tolist(), t.high.tolist()
    ids = list(map(str, range(t.size[list(t.roots)].max())))
    for root in t.roots:
        pieces, number = ["digraph qldt {\n  n"], iter(ids).__next__

        def walk(v):
            p = number()
            pieces.append(p)
            pieces.append(tails[v])
            if v > 1:
                lo, hi = walk(low[v]), walk(high[v])
                pieces.append(f"{p} -> n{lo} [style=dashed];\n  n{p} -> n{hi} [style=solid];\n  n")
            return p
        walk(root)
        del walk
        pieces[-1] = pieces[-1][:-3] + "}\n"
        yield "".join(pieces)
