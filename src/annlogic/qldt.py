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
    """Induce a lossless tree from the expression's truth table.  Splits
    maximize information gain, ties go to the lowest attribute index;
    pure subtrees and splits with identical children collapse.  Equal
    subfunctions are built once and shared, so the tree is a DAG of
    immutable nodes."""
    truth = e.active.reshape((2,) * e.n)
    index_bits = np.indices((2,) * e.n).reshape(e.n, 2**e.n).T
    return _grow(truth, tuple(range(e.n)), {}, index_bits)


def _grow(truth: np.ndarray, attributes: tuple[int, ...], built: dict,
          index_bits: np.ndarray) -> QldtNode:
    """Tree of a boolean tensor whose axes are `attributes`, in order.
    `built` maps (tensor bytes, attributes) to the node already grown for
    them, so equal subtrees are one object and `is` decides the collapse:
    lossless trees over the same axes are equal iff their truth bytes are."""
    key = (truth.tobytes(), attributes)
    node = built.get(key)
    if node is None:
        node = built[key] = _split(truth, attributes, built, index_bits)
    return node


def _split(truth, attributes, built, index_bits) -> QldtNode:
    """A leaf for a constant tensor, else the split of highest gain."""
    total = truth.size
    pos = int(np.count_nonzero(truth))
    if pos == 0:
        return Leaf(False)
    if pos == total:
        return Leaf(True)
    base = _entropy(pos, total)
    half = total // 2
    # positives in each axis's 1-slice: the flat truth against the last
    # ndim bits of its indices
    high = truth.reshape(-1) @ index_bits[:total, -truth.ndim:]
    best_gain, best_axis = -1.0, -1
    for axis, hi in enumerate(high.tolist()):
        gain = base
        for part_pos in (pos - hi, hi):
            gain -= half / total * _entropy(part_pos, half)
        if gain > best_gain + 1e-12:
            best_gain, best_axis = gain, axis
    rest = attributes[:best_axis] + attributes[best_axis + 1:]
    lo = _grow(np.take(truth, 0, axis=best_axis), rest, built, index_bits)
    hi = _grow(np.take(truth, 1, axis=best_axis), rest, built, index_bits)
    if lo is hi:
        return lo
    return Split(attributes[best_axis], lo, hi)


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


def render(t: QldtNode, names: list[str] | None = None, format: str = "dot") -> str:
    """Deterministic text rendering; dashed (DOT) or '~'-prefixed (ASCII)
    low edges, solid/plain high edges, low before high."""
    if format == "dot":
        return _render_dot(t, names)
    if format == "ascii":
        return _render_ascii(t, names)
    raise ValueError(f"unknown render format {format!r}")


def _name(j: int, names) -> str:
    return names[j] if names else f"a{j + 1}"


def _render_dot(t: QldtNode, names) -> str:
    lines = ["digraph qldt {"]
    counter = [0]

    def emit(node) -> int:
        nid = counter[0]
        counter[0] += 1
        if isinstance(node, Leaf):
            label = "active" if node.active else "inactive"
            lines.append(f'  n{nid} [label="{label}", shape=box];')
        else:
            lines.append(f'  n{nid} [label="{_name(node.attribute, names)}"];')
            low_id = emit(node.low)
            high_id = emit(node.high)
            lines.append(f"  n{nid} -> n{low_id} [style=dashed];")
            lines.append(f"  n{nid} -> n{high_id} [style=solid];")
        return nid

    emit(t)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_ascii(t: QldtNode, names) -> str:
    lines = []

    def emit(node, prefix: str, indent: int):
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}{prefix}{'active' if node.active else 'inactive'}")
            return
        lines.append(f"{pad}{prefix}{_name(node.attribute, names)}")
        emit(node.low, "~", indent + 1)
        emit(node.high, "", indent + 1)

    emit(t, "", 0)
    return "\n".join(lines) + "\n"
