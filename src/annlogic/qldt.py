"""Binary logic trees over minterm bit vectors.

A tree is just another representation of an expression's active-minterm
set: it is induced like a decision tree from the (2,)*n boolean truth
tensor, but evaluated by summing, over all paths to active leaves, the
products of the degrees (solid edge) or their complements (dashed edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .encoding import _degrees
from .logiccode import LogicExpressionBits


@dataclass(frozen=True)
class Leaf:
    active: bool


@dataclass(frozen=True)
class Split:
    attribute: int  # 0-based
    low: "QldtNode"  # negated branch
    high: "QldtNode"  # non-negated branch


QldtNode = Union[Leaf, Split]


def _entropy(pos: int, total: int) -> float:
    if total == 0 or pos in (0, total):
        return 0.0
    p = pos / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def build_qldt(e: LogicExpressionBits) -> QldtNode:
    """The tree of one expression; see `build_qldts`."""
    return build_qldts([e])[0]


def build_qldts(exprs) -> tuple[QldtNode, ...]:
    """Induce a lossless tree from each expression's truth table, all over
    one n.  Splits maximize information gain, ties go to the lowest
    attribute index; pure subtrees and splits with identical children
    collapse.  Equal subfunctions over the same attributes are one node,
    within a tree and across the trees.  The trees grow breadth first: the
    unique nodes at depth d are the rows of one (K, 2^(n-d)) truth matrix,
    split all at once; the nodes are then built from the deepest up."""
    exprs = list(exprs)
    if not exprs:
        raise ValueError("need at least one expression")
    n = exprs[0].n
    if any(e.n != n for e in exprs):
        raise ValueError("expressions must all have the same n")
    index_bits = np.indices((2,) * n, dtype=float).reshape(n, 2**n).T
    truth, attrs, roots = _intern(np.stack([e.active for e in exprs]),
                                  np.tile(np.arange(n, dtype=np.uint8), (len(exprs), 1)))
    depths = []  # per depth: (all-true flags, (node, attribute, lo, hi) splits)
    while True:
        width = truth.shape[1]
        pos = np.count_nonzero(truth, axis=1)
        inner = np.flatnonzero((pos > 0) & (pos < width))
        depths.append(((pos == width).tolist(), []))
        if not inner.size:
            break
        axis = _best_axes(truth[inner], pos[inner], index_bits)
        k = len(inner)
        children = np.empty((2 * k, width // 2), dtype=bool)
        rest = np.empty((2 * k, attrs.shape[1] - 1), dtype=np.uint8)
        for a in np.flatnonzero(np.bincount(axis)).tolist():
            rows = np.flatnonzero(axis == a)
            t = truth[inner[rows]].reshape(len(rows), 2**a, 2, -1)
            children[rows] = np.take(t, 0, axis=2).reshape(len(rows), -1)
            children[k + rows] = np.take(t, 1, axis=2).reshape(len(rows), -1)
            rest[rows] = rest[k + rows] = np.delete(attrs[inner[rows]], a, axis=1)
        attribute = attrs[inner, axis]
        truth, attrs, child = _intern(children, rest)
        depths[-1][1].extend(zip(inner.tolist(), attribute.tolist(),
                                 child[:k].tolist(), child[k:].tolist()))
    leaves = (Leaf(False), Leaf(True))
    nodes: list[QldtNode] = []
    for full, splits in reversed(depths):
        level = [leaves[f] for f in full]
        for i, a, lo, hi in splits:
            low, high = nodes[lo], nodes[hi]
            level[i] = low if low is high else Split(a, low, high)
        nodes = level
    return tuple(nodes[r] for r in roots.tolist())


def _intern(truth: np.ndarray, attrs: np.ndarray):
    """The unique (truth row, attributes left) rows and each row's index among
    them: lossless trees over the same attributes are equal iff their rows are."""
    key = np.concatenate([np.packbits(truth, axis=1), attrs], axis=1)
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    return truth[first], attrs[first], inverse


def _best_axes(truth: np.ndarray, pos: np.ndarray, index_bits: np.ndarray) -> np.ndarray:
    """Per row of a (K, 2^m) truth matrix, none of them constant, the axis
    of highest information gain, the first one on a tie within 1e-12."""
    width, m = truth.shape[1], truth.shape[1].bit_length() - 1
    # positives in each axis's 1-slice; a float64 product runs in BLAS
    high = (truth.astype(float) @ index_bits[:width, -m:]).astype(np.int64)
    low = pos[:, None] - high
    h = _entropy_table(np.concatenate([low, high]), width // 2)
    gain = (_entropy_table(pos, width)[pos, None] - 0.5 * h[low]) - 0.5 * h[high]
    best, axis = np.full(len(truth), -1.0), np.zeros(len(truth), dtype=np.int64)
    for a in range(m):
        upd = gain[:, a] > best + 1e-12
        best[upd], axis[upd] = gain[upd, a], a
    return axis


def _entropy_table(counts: np.ndarray, total: int) -> np.ndarray:
    """_entropy(c, total) at index c, for every count c in `counts`.  Not
    np.unique: without return_index it imports numpy.ma (~19 ms a process)."""
    table = np.zeros(total + 1)
    for c in np.flatnonzero(np.bincount(counts.ravel(), minlength=total + 1)).tolist():
        table[c] = _entropy(c, total)
    return table


def eval_qldt(t: QldtNode, degrees) -> float:
    """Sum over root-to-active-leaf paths of the product of edge degrees
    (high edge: m_j, low edge: 1 - m_j) for one object's n degrees."""
    return _eval(t, _degrees(degrees))


def _eval(t: QldtNode, d: np.ndarray) -> float:
    if isinstance(t, Leaf):
        return 1.0 if t.active else 0.0
    if t.attribute >= len(d):
        raise ValueError(f"attribute index {t.attribute} out of range")
    m = d[t.attribute]
    return (1.0 - m) * _eval(t.low, d) + m * _eval(t.high, d)


def render(t: QldtNode, names: list[str] | None = None) -> str:
    """Deterministic DOT rendering: dashed low edges, solid high edges,
    low before high."""
    lines = ["digraph qldt {"]
    counter = [0]

    def emit(node) -> int:
        nid = counter[0]
        counter[0] += 1
        if isinstance(node, Leaf):
            label = "active" if node.active else "inactive"
            lines.append(f'  n{nid} [label="{label}", shape=box];')
        else:
            name = names[node.attribute] if names else f"a{node.attribute + 1}"
            lines.append(f'  n{nid} [label="{name}"];')
            low_id = emit(node.low)
            high_id = emit(node.high)
            lines.append(f"  n{nid} -> n{low_id} [style=dashed];")
            lines.append(f"  n{nid} -> n{high_id} [style=solid];")
        return nid

    emit(t)
    lines.append("}")
    return "\n".join(lines) + "\n"
