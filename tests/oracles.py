"""Scalar reference implementations that loop over minterm indices,
dataset rows or single values, and the hypothesis strategies they are
compared on.  The `*_ok` predicates are the value types' input rules,
checked one element at a time.

The package computes these on the (2,)*n weight and truth tensors and on
(N, n) and (N, 2^n) row matrices; the tests compare it against the plain
loops below.  Minterm index k holds
attribute j (0-based) on bit n-1-j, so attribute 1 is the most
significant bit.  The benchmark imports tests/conftest.py for its
banknote data, so hypothesis is imported here and not there.

Implementations the package replaced live on here too, where tests
require the same output from both: the csv-reader dataset loader, the
list-per-row weights.csv writer, the DOT renderer, the command-line
parser built from parent parsers, the evaluation of a logic expression
before it became a one-level BitTensor, the string-join cell number,
the trend grid with one minterm expansion per grid point and its
list-per-row writer, the QLDT as one `Split` object per node with its
recursive evaluator, the walk that evaluated one tree of the node table,
and the Shapley values by the Moebius transform.
"""

import argparse
import csv
import hashlib
import sys
import itertools
import math
import random
from itertools import compress
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from annlogic import cli, logiccode
from annlogic.analysis import MAX_RESOLUTION, TrendGrid
from annlogic.encoding import FUZZIFIER_KINDS, MAX_ATTRIBUTES, minterm_transform
from annlogic.network import (
    INIT_SCALE,
    SimpleAnn,
    TrainConfig,
    choose_threshold,
    forward,
)
from annlogic.partition import CellWeights
from annlogic.encoding import _degrees
from annlogic.qldt import _best_axes, _intern


def weight_vectors(max_n):
    """Finite minterm-weight tuples of length 2^n, n = 1 .. max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=2**n, max_size=2**n
        ).map(tuple)
    )


def degree_rows(max_n, max_rows):
    """(N, n) degree arrays in [0,1], n = 1 .. max_n, N = 0 .. max_rows."""
    return st.tuples(st.integers(0, max_rows), st.integers(1, max_n)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=st.floats(0, 1))
    )


def bit(k, j, n):
    return (k >> (n - 1 - j)) & 1


def minterm_bits(k, n):
    """Big-endian bit code of minterm k; entry j-1 is attribute j's bit."""
    if not 0 <= k < 2**n:
        raise ValueError(f"minterm index {k} out of range for n={n}")
    return [bit(k, j, n) for j in range(n)]


def _shape(x):
    """The shape of a nested list: () for a bare value, None if ragged."""
    if not isinstance(x, (list, tuple)):
        return ()
    inner = {_shape(v) for v in x}
    if len(inner) > 1 or None in inner:
        return None
    return (len(x),) + (inner.pop() if inner else ())


def _values(x):
    return [v for item in x for v in _values(item)] if isinstance(x, (list, tuple)) else [x]


def shape_ok(x, ndim=1):
    """The shape rule all four minterm value types share: `ndim` axes,
    none of them empty, and 2^n entries on the last."""
    shape = _shape(x)
    return (shape is not None and len(shape) == ndim and all(shape)
            and not shape[-1] & (shape[-1] - 1))


def cell_weights_ok(values):
    """CellWeights' rule, one weight at a time: 2^n finite weights."""
    return shape_ok(values) and all(math.isfinite(w) for w in _values(values))


def scaled_weights_ok(values):
    """ScaledCellWeights' rule: 2^n weights, each in [0,1]."""
    return shape_ok(values) and all(0.0 <= w <= 1.0 for w in _values(values))


def bit_tensor_ok(rows):
    """BitTensor's rule: at least one row, rows of equal length 2^n, every
    entry 0 or 1."""
    return shape_ok(rows, 2) and all(b in (0, 1) for b in _values(rows))


def expression_bits_ok(active):
    """The rule of the former LogicExpressionBits(active): 2^n entries, each
    0 or 1.  `expression(active)` must accept the same inputs."""
    return shape_ok(active) and all(b in (0, 1) for b in _values(active))


def expression(active):
    """The logic expression whose 2^n active bits are `active`: a one-level
    BitTensor, as LogicExpressionBits(active) was before it."""
    return logiccode.BitTensor([active])


def eval_expression(e, mt):
    """Arithmetic evaluation as the former `logiccode.eval_expression` did
    it: the sum of the minterm values at the active positions of the
    one-level tensor `e`, for one minterm vector or each row of a matrix."""
    coefficients = e.bits[0].astype(float)
    mt = np.asarray(mt, dtype=float)
    if mt.shape[-1] != len(coefficients):
        raise ValueError("attribute count mismatch")
    return (mt @ coefficients)[()]


# NaN, +-inf, values outside [0,1] and non-0/1 bits, mixed with valid ones
_ODD_VALUES = st.sampled_from(
    [0, 1, 0.0, 1.0, -0.0, 0.5, 2, -1, -0.25, 1.5, math.nan, math.inf, -math.inf]
) | st.floats()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0, 1)
BITS = st.sampled_from([0, 1, False, True, 0.0, 1.0])


def _vector(valid, k):
    """k values: all from `valid`, or each from `valid` or the odd values."""
    return (st.lists(valid, min_size=k, max_size=k)
            | st.lists(valid | _ODD_VALUES, min_size=k, max_size=k))


def _nest(values, shape):
    """The flat list `values` as nested lists of the given shape."""
    if len(shape) == 1:
        return values
    step = len(values) // shape[0] if shape[0] else 0
    return [_nest(values[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def _odd_array(valid, ndim, max_len):
    if ndim == 0:
        return valid | _ODD_VALUES
    lengths = st.sampled_from([1, 2, 4, 8]) | st.integers(0, max_len)
    shapes = st.tuples(*[st.integers(0, 3)] * (ndim - 1), lengths)
    shaped = shapes.flatmap(
        lambda shape: _vector(valid, math.prod(shape)).map(lambda v: _nest(v, shape)))
    if ndim == 1:
        return shaped
    return shaped | st.lists(_odd_array(valid, ndim - 1, max_len), max_size=3)


def odd_arrays(valid, ndim, other_ndims, max_len=17):
    """Nested lists with `ndim` axes, or about as often with any of
    `other_ndims` (0 is a bare value): of one shape, with any axis empty or
    of any length, or ragged; their values come from `valid` or are NaN,
    infinite, out of range or no bit."""
    return _odd_array(valid, ndim, max_len) | st.sampled_from(other_ndims).flatmap(
        lambda d: _odd_array(valid, d, max_len))


def shapley_permutation_oracle(weights, n):
    """Average marginal contribution over all n! attribute orderings."""

    def v(subset):
        k = 0
        for j in subset:
            k |= 1 << (n - 1 - j)
        return weights[k]

    totals = [0.0] * n
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        so_far = set()
        for j in perm:
            before = v(so_far)
            so_far.add(j)
            totals[j] += v(so_far) - before
    return [t / len(perms) for t in totals]


def shapley_moebius(weights):
    """Shapley values as Harsanyi dividends: Sh_i = sum over S containing i
    of m(S)/|S|, where m is the Moebius transform of the weights, taken as
    (lo, hi - lo) on each axis of the (2,)*n tensor.  Its differences can
    overflow where the Shapley values are finite."""
    w = np.asarray(weights, dtype=float)
    n = len(w).bit_length() - 1
    m = w.reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(m, 0, axis=axis), np.take(m, 1, axis=axis)
        m = np.stack((lo, hi - lo), axis=axis)
    size = np.indices((2,) * n).sum(axis=0)
    share = np.divide(m, size, out=np.zeros_like(m), where=size > 0)
    return np.array([np.take(share, 1, axis=i).sum() for i in range(n)])


def project_loop(weights, n, keep):
    """Add each minterm's weight into the minterm of its kept bits."""
    kept = sorted(keep)
    m = len(kept)
    out = [0.0] * 2**m
    for k in range(2**n):
        kappa = 0
        for pos, j in enumerate(kept):
            kappa |= bit(k, j, n) << (m - 1 - pos)
        out[kappa] += weights[k]
    return out


def bitcode_loop(weights, bcl_max):
    """bits[bcl][k] of round(w * 2^bcl_max), ties up, MSB-first."""
    quantized = [math.floor(w * 2**bcl_max + 0.5) for w in weights]
    return tuple(
        tuple((q >> (bcl_max - bcl)) & 1 for q in quantized)
        for bcl in range(bcl_max + 1)
    )


def eval_bool(tree, assignment):
    """A formula tree is an attribute name, ("not", t), or (op, l, r) with
    op one of "and", "or", "xor"."""
    if isinstance(tree, str):
        return assignment[tree]
    op, *children = tree
    values = [eval_bool(child, assignment) for child in children]
    if op == "not":
        return not values[0]
    if op == "and":
        return values[0] and values[1]
    if op == "or":
        return values[0] or values[1]
    if op == "xor":
        return values[0] != values[1]
    raise ValueError(f"not a formula tree: {tree!r}")


def truth_table_loop(tree, names):
    """One assignment dict per minterm; a repeated name keeps its last bit."""
    n = len(names)
    return tuple(
        int(eval_bool(tree, {name: bool(bit(k, j, n)) for j, name in enumerate(names)}))
        for k in range(2**n)
    )


# How tightly each operator binds; "or" and "xor" bind alike, left to right.
_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 3}
_ALIASES = {"or": ["|"], "xor": [], "and": ["&"], "not": ["!", "~"]}


def formulas(names):
    """(tree, text) pairs: a formula tree of 1 .. 12 attribute
    names and its text, with parentheses only where the grammar needs them
    and each keyword in random case or as one of its aliases."""

    @st.composite
    def draw(draw):
        def grow(leaves):
            if leaves == 1:
                tree = draw(st.sampled_from(names))
            else:
                left = draw(st.integers(1, leaves - 1))
                op = draw(st.sampled_from(["and", "or", "xor"]))
                tree = (op, grow(left), grow(leaves - left))
            while draw(st.sampled_from([False, False, False, True])):
                tree = ("not", tree)
            return tree

        def keyword(op):
            spelling = draw(st.sampled_from([op] + _ALIASES[op]))
            upper = draw(st.lists(st.booleans(), min_size=len(spelling),
                                  max_size=len(spelling)))
            return "".join(c.upper() if u else c for c, u in zip(spelling, upper))

        def render(tree, binds):
            """The text of `tree` where its context binds `binds` tightly."""
            if isinstance(tree, str):
                return tree
            op = tree[0]
            if op == "not":
                text = f"{keyword(op)} {render(tree[1], _BINDS[op])}"
            else:
                text = (f"{render(tree[1], _BINDS[op])} {keyword(op)} "
                        f"{render(tree[2], _BINDS[op] + 1)}")
            return f"({text})" if _BINDS[op] < binds else text

        tree = grow(draw(st.integers(1, 12)))
        return tree, render(tree, 0)

    return draw()


# A QLDT as it was before the trees became rows of one node table: a
# tree is a Split or a leaf, the bool True (active) or False.
@dataclass(frozen=True)
class Split:
    attribute: int  # 0-based
    low: object  # negated branch
    high: object  # non-negated branch


def qldts_split(bt):
    """`build_qldt` as one Split per unique inner node, built from the
    deepest depth up: the same breadth-first induction, a tuple of trees."""
    n = bt.n
    index_bits = np.indices((2,) * n, dtype=float).reshape(n, 2**n).T
    truth, attrs, roots = _intern(bt.bits.astype(bool),
                                  np.tile(np.arange(n, dtype=np.uint8), (len(bt.bits), 1)))
    depths = []  # per depth: (all-true flags, then nodes; (node, attribute, lo, hi) splits)
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
    nodes = []
    for level, splits in reversed(depths):
        for i, a, lo, hi in splits:
            low, high = nodes[lo], nodes[hi]
            level[i] = low if low is high else Split(a, low, high)
        nodes = level
    return tuple(nodes[r] for r in roots.tolist())


def eval_split(t, degrees):
    """Sum over root-to-active-leaf paths of the product of edge degrees,
    one recursive call per path node."""
    d = _degrees(degrees)

    def walk(t):
        if t.__class__ is bool:
            return 1.0 if t else 0.0
        if t.attribute >= len(d):
            raise ValueError(f"attribute index {t.attribute} out of range")
        m = d[t.attribute]
        return (1.0 - m) * walk(t.low) + m * walk(t.high)

    return walk(t)


def table_trees(t):
    """The trees of a node table as Split objects, one per root: one object
    per table row, so rows shared in the table are shared objects."""
    nodes = [False, True]
    for a, lo, hi in zip(t.attribute[2:].tolist(), t.low[2:].tolist(), t.high[2:].tolist()):
        nodes.append(Split(a, nodes[lo], nodes[hi]))
    return tuple(nodes[r] for r in t.roots)


# The evaluator of one tree before one pass over the table valued every root.
def eval_qldt_walk(t, degrees, level):
    """Sum over the paths from the root of tree `level` to the active leaf
    of the product of edge degrees, one call per node of the expanded tree."""
    d = _degrees(degrees).tolist()
    attribute, low, high = t.attribute.tolist(), t.low.tolist(), t.high.tolist()

    def walk(v):
        if v < 2:
            return float(v)
        a = attribute[v]
        if a >= len(d):
            raise ValueError(f"attribute index {a} out of range")
        return (1.0 - d[a]) * walk(low[v]) + d[a] * walk(high[v])
    value = walk(t.roots[level])
    del walk
    return value


def splits(trees):
    """The distinct Split objects of these trees, by identity."""
    seen, stack = {}, list(trees)
    while stack:
        t = stack.pop()
        if t.__class__ is not bool and id(t) not in seen:
            seen[id(t)] = t
            stack += [t.low, t.high]
    return list(seen.values())


def _entropy(pos, total):
    if total == 0 or pos in (0, total):
        return 0.0
    p = pos / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def qldt_rows(active, n):
    """ID3 over the list of (minterm index, active) rows."""
    return _grow([(k, active[k]) for k in range(2**n)], n, frozenset())


def _grow(rows, n, used):
    pos = sum(y for _, y in rows)
    if pos == 0:
        return False
    if pos == len(rows):
        return True
    base = _entropy(pos, len(rows))
    best_gain, best_attr = -1.0, -1
    for j in range(n):
        if j in used:
            continue
        lo = [(k, y) for k, y in rows if not bit(k, j, n)]
        hi = [(k, y) for k, y in rows if bit(k, j, n)]
        gain = base
        for part in (lo, hi):
            gain -= len(part) / len(rows) * _entropy(sum(y for _, y in part), len(part))
        if gain > best_gain + 1e-12:
            best_gain, best_attr = gain, j
    j = best_attr
    lo = _grow([(k, y) for k, y in rows if not bit(k, j, n)], n, used | {j})
    hi = _grow([(k, y) for k, y in rows if bit(k, j, n)], n, used | {j})
    if lo == hi:
        return lo
    return Split(j, lo, hi)


def qldt_recursive(e):
    """Depth-first induction of one tree: `_split_recursive` picks the
    axis of highest gain (first one on a tie within 1e-12) with one
    _entropy call per part, and `_grow_recursive` memoizes on (truth bytes,
    attributes left) so equal subfunctions are one node."""
    truth = e.bits[0].astype(bool).reshape((2,) * e.n)
    index_bits = np.indices((2,) * e.n).reshape(e.n, 2**e.n).T
    return _grow_recursive(truth, tuple(range(e.n)), {}, index_bits)


def _grow_recursive(truth, attributes, built, index_bits):
    key = (truth.tobytes(), attributes)
    node = built.get(key)
    if node is None:
        node = built[key] = _split_recursive(truth, attributes, built, index_bits)
    return node


def _split_recursive(truth, attributes, built, index_bits):
    total = truth.size
    pos = int(np.count_nonzero(truth))
    if pos == 0:
        return False
    if pos == total:
        return True
    base = _entropy(pos, total)
    half = total // 2
    high = truth.reshape(-1) @ index_bits[:total, -truth.ndim:]
    best_gain, best_axis = -1.0, -1
    for axis, hi in enumerate(high.tolist()):
        gain = base
        for part_pos in (pos - hi, hi):
            gain -= half / total * _entropy(part_pos, half)
        if gain > best_gain + 1e-12:
            best_gain, best_axis = gain, axis
    rest = attributes[:best_axis] + attributes[best_axis + 1:]
    lo = _grow_recursive(np.take(truth, 0, axis=best_axis), rest, built, index_bits)
    hi = _grow_recursive(np.take(truth, 1, axis=best_axis), rest, built, index_bits)
    if lo is hi:
        return lo
    return Split(attributes[best_axis], lo, hi)


# The energy report as it was when each level was a record of its own.
def energy_levels_loop(sw, bt):
    """(set bits, absolute, relative percent) per level, one level at a time."""
    weight_sum = float(sw.weights.sum())
    levels = []
    for bcl, count in enumerate(np.count_nonzero(bt.bits, axis=1).tolist()):
        absolute = 2.0**-bcl * count
        relative = 0.0 if weight_sum == 0.0 else absolute / weight_sum * 100.0
        levels.append((count, absolute, relative))
    return tuple(zip(*levels))


def truth_tables(max_n, max_count):
    """1 .. max_count bool truth tables over one n <= max_n.  Besides
    random tables it draws the ones whose gains tie or nearly tie: parity
    over a subset of the attributes with 0-2 bits flipped, and symmetric
    functions (active iff the number of set bits is in a drawn set).  A
    table may repeat an earlier one."""
    @st.composite
    def draw(draw):
        n = draw(st.integers(0, max_n))
        k = np.arange(2**n)
        tables = []
        for _ in range(draw(st.integers(1, max_count))):
            kind = draw(st.sampled_from(["repeat", "random", "parity", "symmetric"]))
            if kind == "repeat" and tables:
                t = draw(st.sampled_from(tables))
            elif kind == "parity":
                subset = draw(st.integers(0, 2**n - 1))
                t = np.array([bin(i & subset).count("1") % 2 == 1 for i in k.tolist()])
                for i in draw(st.lists(st.integers(0, 2**n - 1), max_size=2)):
                    t[i] = not t[i]
            elif kind == "symmetric":
                counts = draw(st.sets(st.integers(0, n)))
                t = np.array([bin(i).count("1") in counts for i in k.tolist()])
            else:
                t = np.array(draw(st.lists(st.booleans(), min_size=2**n, max_size=2**n)))
            tables.append(t)
        return n, tables

    return draw()


def minterms_kron(degrees):
    """One np.kron chain per row of an (N, n) degree array."""
    rows = []
    for row in degrees:
        mt = np.array([1.0])
        for m in row:
            mt = np.kron(mt, np.array([1.0 - m, m]))
        rows.append(mt)
    return np.array(rows).reshape(len(degrees), 2 ** degrees.shape[1])


def trend_grid_per_point(bt, vary, fixed=None, levels=None, resolution=21):
    """The package's `trend_grid` before it became one contraction: the
    same checks in the same order, then one minterm expansion per grid
    point.  A varied attribute takes the grid value even if it has a fixed
    degree, so only the other attributes' degrees are checked."""
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
    return TrendGrid(tuple(axis), values)


def cell_number(status):
    """Pack one ReLU status, its bits MSB-first, into the cell number
    through a string join."""
    bits = list(status)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("a ReLU status is a non-empty sequence of 0/1 bits")
    return int("".join(str(int(b)) for b in bits), 2)


def partition_rows(ann, mt, labels):
    """(cell number, label-1 count, label-0 count) per non-empty cell, one
    row at a time: pre-activations w @ h, status z >= 0, bits packed
    MSB-first; sorted by descending total, ties by cell number."""
    counts = {}
    for x, y in zip(mt, labels):
        h = x
        for w in ann.pre_layers:
            h = w @ h
        p = 0
        for z in h:
            p = (p << 1) | int(z >= 0.0)
        counts.setdefault(p, [0, 0])[1 - int(y)] += 1
    return sorted(
        ((p, c1, c0) for p, (c1, c0) in counts.items()),
        key=lambda r: (-(r[1] + r[2]), r[0]),
    )


def choose_threshold_loop(outputs, labels):
    """Scan the stable-sorted outputs; a split after position i needs
    o[i] != o[i+1]; the first strictly better accuracy wins."""
    order = np.argsort(outputs, kind="stable")
    o = outputs[order]
    y = labels[order]
    total_pos = int(y.sum())
    n = len(y)
    best_tau = o[0] - 1.0
    best_acc = total_pos / n
    ones_seen = 0
    for i in range(n):
        ones_seen += y[i]
        if i + 1 < n and o[i] == o[i + 1]:
            continue
        acc = ((i + 1 - ones_seen) + (total_pos - ones_seen)) / n
        if acc > best_acc:
            best_acc = acc
            best_tau = (o[i] + o[i + 1]) / 2.0 if i + 1 < n else o[i] + 1.0
    return float(best_tau), float(best_acc)


def training_sets(max_n, max_rows):
    """(N, 2^n) minterm matrices of degrees in [0,1] with N 0/1 labels
    holding both classes, n = 1 .. max_n, N = 2 .. max_rows."""

    @st.composite
    def draw(draw):
        n, rows = draw(st.integers(1, max_n)), draw(st.integers(2, max_rows))
        degrees = draw(hnp.arrays(float, (rows, n), elements=st.floats(0, 1)))
        labels = draw(hnp.arrays(int, rows - 2, elements=st.integers(0, 1)))
        return minterms_kron(degrees), np.concatenate(([0, 1], labels))

    return draw()


def seeded_training_sets(max_n, max_rows):
    """Like `training_sets`, up to larger sizes: the degrees, uniform in
    [0, 1) or rounded to crisp 0/1, and the labels come from a drawn seed."""

    @st.composite
    def draw(draw):
        n, rows = draw(st.integers(1, max_n)), draw(st.integers(2, max_rows))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        degrees = rng.random((rows, n))
        if draw(st.booleans()):
            degrees = degrees.round()
        labels = np.concatenate(([0, 1], rng.integers(0, 2, rows - 2)))
        return minterms_kron(degrees), labels

    return draw()


# The trainer's epoch loop as it was before it wrote into preallocated
# buffers: every step makes fresh arrays.
def train_temporaries(mt, labels, relu_nodes, cfg, sums=None):
    """Full-batch gradient descent on MSE for the 2^n -> relu_nodes -> 1
    network, with no input checks.  Returns (ann, training accuracy).  Each
    epoch's sum of squared residuals, overflowed or not, is appended to the
    list `sums` if one is given."""
    X = np.asarray(mt, dtype=float)
    labels = np.asarray(labels, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    w_pre = rng.normal(0.0, INIT_SCALE, size=(relu_nodes, X.shape[1]))
    w_post = rng.normal(0.0, INIT_SCALE, size=(1, relu_nodes))
    # An overflow shows as a non-finite loss, checked before each update
    # and once after the last one.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs + 1):
            pre = X @ w_pre.T
            relu = np.maximum(pre, 0.0)
            out = (relu @ w_post.T)[:, 0]
            if sums is not None:
                sums.append(float(np.sum((out - labels) ** 2)))
            loss = float(np.mean((out - labels) ** 2))
            if not math.isfinite(loss):
                raise ValueError(
                    "training diverged (non-finite loss); lower the learning rate"
                )
            if epoch == cfg.epochs:
                break
            d = (2.0 / len(labels)) * (out - labels)[:, None]
            g_post = d.T @ relu
            g_pre = ((d @ w_post) * (pre > 0)).T @ X
            w_pre = w_pre - cfg.learning_rate * g_pre
            w_post = w_post - cfg.learning_rate * g_post

    tau, acc = choose_threshold(out, labels)
    return SimpleAnn((w_pre,), (w_post,), tau), acc


def seeded_trainings(count, seed=0):
    """`count` fixed training calls (mt, labels, relu_nodes, cfg) drawn from
    one seed: n = 0 .. 12 attributes, 2 to 299 rows (39 at n >= 10), 1 to 8
    ReLU nodes, 1 to 29 epochs and a learning rate in [0, 2), or for one
    call in seven 1e150, 1e200 or 1e300."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, 13))
        rows = int(rng.integers(2, 300 if n < 10 else 40))
        mt = minterm_transform(rng.random((rows, n)))
        labels = np.concatenate(([0, 1], rng.integers(0, 2, rows - 2)))
        if rng.random() < 1 / 7:
            rate = float(rng.choice([1e150, 1e200, 1e300]))
        else:
            rate = float(rng.uniform(0, 2))
        cfg = TrainConfig(rate, int(rng.integers(1, 30)), int(rng.integers(0, 2**32)))
        yield mt, labels, int(rng.integers(1, 9)), cfg


def train_outcome(trainer, *args):
    """The SHA-256 of the bytes of a trainer's weights, threshold and
    accuracy, or its error message."""
    try:
        ann, acc = trainer(*args)
    except ValueError as exc:
        return str(exc)
    values = [ann.pre_layers[0].ravel(), ann.post_layers[0].ravel(), [ann.threshold, acc]]
    return hashlib.sha256(np.concatenate(values).tobytes()).hexdigest()


def train_layers(mt, labels, arch, cfg, relu_after=1):
    """Full-batch gradient descent on MSE through any chain of bias-free
    layers: `arch` lists the layer sizes from the 2^n inputs to the single
    output, and the ReLU sits after the `relu_after`-th weight matrix.
    Every layer is kept in a list and walked by index, forward and back.
    Returns (ann, training accuracy)."""
    X = np.asarray(mt, dtype=float)
    labels = np.asarray(labels, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    weights = [rng.normal(0.0, INIT_SCALE, size=(arch[i + 1], arch[i]))
               for i in range(len(arch) - 1)]

    def activations(layers, h):
        acts = [h]
        for w in layers:
            acts.append(acts[-1] @ w.T)
        return acts

    for _ in range(cfg.epochs):
        acts = activations(weights[:relu_after], X)
        mask = acts[-1] > 0
        acts += activations(weights[relu_after:], np.maximum(acts[-1], 0.0))
        out = acts[-1][:, 0]
        if not math.isfinite(float(np.mean((out - labels) ** 2))):
            raise ValueError("training diverged")
        grads = [None] * len(weights)
        d = (2.0 / len(labels)) * (out - labels)[:, None]
        for i in range(len(weights) - 1, relu_after - 1, -1):
            grads[i] = d.T @ acts[i + 1]
            d = d @ weights[i]
        d = d * mask
        for i in range(relu_after - 1, -1, -1):
            grads[i] = d.T @ acts[i]
            if i > 0:
                d = d @ weights[i]
        weights = [w - cfg.learning_rate * g for w, g in zip(weights, grads)]

    pre, post = tuple(weights[:relu_after]), tuple(weights[relu_after:])
    tau, acc = choose_threshold(forward(SimpleAnn(pre, post, 0.0), X), labels)
    return SimpleAnn(pre, post, tau), acc


def simple_anns(max_n, max_layers):
    """Networks over n = 1 .. max_n attributes with 1 .. max_layers layers
    on each side of the ReLU layer, hidden widths 1 .. 4, normal weights."""

    @st.composite
    def draw(draw):
        n = draw(st.integers(1, max_n))
        pre, post = draw(st.integers(1, max_layers)), draw(st.integers(1, max_layers))
        hidden = draw(st.lists(st.integers(1, 4), min_size=pre + post - 1,
                               max_size=pre + post - 1))
        widths = [2**n] + hidden + [1]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layers = [rng.normal(size=(b, a)) for a, b in zip(widths, widths[1:])]
        return SimpleAnn(tuple(layers[:pre]), tuple(layers[pre:]), 0.0)

    return draw()


def extract_cell_weights_eye(ann, p):
    """Push the identity matrix, all 2^n basis vectors at once, through
    the pre layers, the status bits of cell p and the post layers."""
    h = np.eye(ann.input_size)
    for w in ann.pre_layers:
        h = w @ h
    bits = [int(b) for b in format(p, f"0{ann.relu_count}b")]
    h = np.asarray(bits, dtype=float)[:, None] * h
    for w in ann.post_layers:
        h = w @ h
    return h[0]


def compose_cell_weights(singles, p):
    """Cell p's weights as the sum of the single-active-node cells whose
    node is active in p; `singles` maps each such cell number, a power of
    two, to its CellWeights.  Cell 0 is the zero map."""
    if any(bin(q).count("1") != 1 for q in singles):
        raise ValueError("singles must be keyed by single-active-node cell numbers")
    total = np.zeros(len(next(iter(singles.values())).weights))
    for k in range(p.bit_length()):
        if p >> k & 1:
            if 1 << k not in singles:
                raise ValueError(f"missing single-node cell {1 << k}")
            total = total + singles[1 << k].weights
    return CellWeights(total)


# The dataset reader as it was before the body was split on line ends and
# commas: every row goes through the csv reader.
def load_dataset_csv(path, label_column):
    """Read a CSV with a header row; returns (attribute names, X, y): the
    (N, n) float attribute values and the (N,) 0/1 int labels.  A row is
    numbered by the file line it starts on, the header's first line being 1;
    blank rows are skipped.  The csv reader parses every unquoted field as a
    number."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"dataset file not found: {path}")
    with open(p, newline="", encoding="utf-8") as fh:
        head = csv.reader(fh)
        try:
            header = next(head)
        except StopIteration:
            raise ValueError(f"dataset file is empty: {path}") from None
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValueError(f"row 1: {exc}") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        if len(header) - 1 > MAX_ATTRIBUTES:
            raise ValueError(
                f"{len(header) - 1} attributes exceed the maximum of {MAX_ATTRIBUTES}"
            )
        reader = csv.reader(fh, quoting=csv.QUOTE_NONNUMERIC)
        records, starts, start = [], [], head.line_num + 1
        try:
            for record in reader:
                records.append(record)
                starts.append(start)
                start = head.line_num + reader.line_num + 1
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"row {start}: {exc}") from None
    width = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    filled = width > 0
    row_no = np.array(starts, dtype=np.intp)[filled]  # file row of each non-blank record
    _reject_rows(width[filled] != len(header), row_no,
                 f"has a column count other than the header's {len(header)}")
    records = list(compress(records, filled))
    try:
        table = np.array(records, dtype=float)
    except ValueError:
        # a quoted or empty field that the reader kept as text: name its row
        for no, record in zip(row_no, records):
            try:
                np.array(record, dtype=float)
            except ValueError as exc:
                raise ValueError(f"row {no}: {exc}") from None
        raise
    table = table.reshape(-1, len(header))
    _reject_rows(~np.isfinite(table).all(axis=1), row_no, "holds a value that is not finite")
    label_idx = header.index(label_column)
    labels = table[:, label_idx]
    _reject_rows(~np.isin(labels, (0.0, 1.0)), row_no, "has a label other than 0 or 1")
    names = header[:label_idx] + header[label_idx + 1:]
    return names, np.delete(table, label_idx, axis=1), labels.astype(int)


def _reject_rows(bad, row_no, what):
    if bad.any():
        raise ValueError(f"row {row_no[np.argmax(bad)]} {what}")


# Fields that are not a plain valid number, each a defect the csv reader
# and a faster reader could read apart: a quoted number, quoted text, a
# quoted comma and a quoted newline, an empty field, float()'s underscore,
# space and Unicode digit rules, a separator float() does not strip, values
# that are not finite, near-numbers made of number characters, a long valid
# number and a field past the csv module's 131,072-character limit.
ODD_FIELDS = ('"0.5"', '"x"', '""', '"1,5"', '"1\n2"', "", " 1", "1 ", "1_0", "\u0661",
              "\x1c1", "nan", "-inf", "1e400", "1e", "+-1", "1.2.3", ".", "e5", "1e+", "--0",
              "0." + "3" * 2000, "0" * 131_072 + "1")
# Lines other than a valid row: blank, whitespace only, one field too
# many or too few, a label other than 0 or 1.
ODD_LINES = ("blank", "spaces", "wider", "narrower", "label-2")


@st.composite
def dataset_texts(draw):
    """The text of a dataset CSV with a "label" column: runs of valid rows
    (repr floats, 0/1 labels) mixed with odd fields, odd lines and odd line
    ends (a lone CR, an LF line in a CRLF file), LF or CRLF throughout and
    maybe no final newline.  A long run of rows (1,000 to 1,100 rows of 1
    to 4 fields, 2 to 75 KB) may span two of cli.load_dataset's 64 KiB
    chunks; the tests also read each text in chunks of a few characters."""
    width = draw(st.integers(1, 4))
    header = [f"a{j}" for j in range(1, width)]
    header.insert(draw(st.integers(0, width - 1)), "label")
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    end = draw(st.sampled_from(["\n", "\r\n"]))

    def row():
        return [str(rng.randint(0, 1)) if name == "label" else repr(rng.uniform(-5.0, 5.0))
                for name in header]

    lines = [",".join(header) + end]
    runs = st.one_of(st.integers(1, 8), st.integers(1000, 1100))
    odd = st.one_of(st.sampled_from(ODD_FIELDS), st.sampled_from(ODD_LINES),
                    st.sampled_from(["\r", "\n"]))
    for part in draw(st.lists(st.one_of(runs, odd), max_size=6)):
        if isinstance(part, int):
            lines += [",".join(row()) + end for _ in range(part)]
            continue
        fields, line_end = row(), end
        if part in ("\r", "\n"):
            line_end = part
        elif part in ODD_LINES:
            fields = {"blank": [""], "spaces": ["  "], "wider": fields + ["0.5"],
                      "narrower": fields[1:],
                      "label-2": [f if name != "label" else "2"
                                  for f, name in zip(fields, header)]}[part]
        else:
            fields[rng.randrange(width)] = part
        lines.append(",".join(fields) + line_end)
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


# explain's weights.csv as it was written before each body line was joined
# from whole columns: one list per row through the csv writer.
def weights_csv_lists(path, names, cw, scaled, bt):
    """Write weights.csv for a cell, its scaled weights and bit tensor."""
    n = cw.n
    header = (
        ["k"] + names + ["weight", "scaled"]
        + [f"bit_2^-{b}" for b in range(bt.bcl_max + 1)] + ["reconstruction"]
    )
    codes = np.indices((2,) * n).reshape(n, 2**n).T.tolist()
    columns = zip(codes, cw.weights.tolist(), scaled.weights.tolist(),
                  bt.bits.T.tolist(), bt.reconstruction().tolist())
    rows = [
        [k] + a_bits + [repr(w), repr(s)] + bits + [repr(r)]
        for k, (a_bits, w, s, bits, r) in enumerate(columns)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# trend's writer as it was before the body was joined from whole columns:
# one list per grid point through the csv writer, each axis degree's repr
# taken again in every row.
def trend_csv_lists(path, varied, level_tag, grid):
    """Write the grid's rows to `path` (CRLF), or to stdout (LF)."""
    header = [*varied, "level_set", "value"]
    points = itertools.product(map(float, grid.axis), repeat=len(varied))
    rows = [
        [*map(repr, point), level_tag, repr(v)]
        for point, v in zip(points, grid.values.ravel().tolist())
    ]
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:  # the file's quoting (a lone CR too), each row's CRLF terminator cut to LF
        out = SimpleNamespace(write=lambda row: sys.stdout.write(row[:-2] + "\n"))
        csv.writer(out).writerows([header, *rows])


# Characters a column name may hold that the csv writer must quote or that
# are not ASCII.
NAME_CHARS = st.sampled_from(["a", "Z", "1", ",", '"', " ", "\t", "\r", "\n", "é", "µ", "名", "😀"])


def column_names(n):
    """n column names, each 0-6 characters from NAME_CHARS."""
    return st.lists(st.text(NAME_CHARS, max_size=6), min_size=n, max_size=n)


def dot_label_loop(name):
    """`name` as the inside of a DOT quoted string, one character at a time:
    a backslash and a double quote escaped, each CRLF, CR or LF as \\n."""
    out = []
    for i, c in enumerate(name):
        if c == "\n" and name[i - 1:i] == "\r":
            continue  # the LF of a CRLF, written with its CR
        out.append({"\\": "\\\\", '"': '\\"', "\r": "\\n", "\n": "\\n"}.get(c, c))
    return "".join(out)


# The DOT renderer as it was before the node test became a class check and
# a split's two edge lines one string.  It writes names as they are.
def render_lines(t, names=None):
    """Deterministic DOT rendering: dashed low edges, solid high edges,
    low before high."""
    lines = ["digraph qldt {"]
    counter = [0]

    def emit(node) -> int:
        nid = counter[0]
        counter[0] += 1
        if isinstance(node, bool):
            label = "active" if node else "inactive"
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


# The command-line parser as it was before one table drove it: every
# subcommand built on each call, the shared options as parent parsers.
def build_parser_parents():
    parser = argparse.ArgumentParser(
        prog="annlogic",
        description="Interpret a simple ReLU network as weighted logic expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--model", required=True)
    rows.add_argument("--data", required=True)
    rows.add_argument("--label", default="label")

    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--model", help="model JSON file")
    cell.add_argument("--cell", type=int, help="partition cell number")
    cell.add_argument("--weights-override",
                      help="file of raw minterm weights, bypassing extraction")
    cell.add_argument("--data", help="CSV dataset (for attribute names/accuracy)")
    cell.add_argument("--label", default="label", help="label column name")

    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument("--threshold", type=float,
                           help="classifier threshold when using --weights-override")

    coded = argparse.ArgumentParser(add_help=False)
    coded.add_argument("--bcl-max", type=int,
                       help=f"finest bit level, 0..{logiccode.MAX_BCL} "
                            f"(default {logiccode.DEFAULT_BCL_MAX})")

    p = sub.add_parser("train", help="train a minterm-input network")
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--relu-nodes", type=int, default=3)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuzzifier", choices=list(FUZZIFIER_KINDS), default="minmax")
    p.set_defaults(func=cli.cmd_train)

    p = sub.add_parser("partition", parents=[rows], help="partition a dataset into ReLU cells")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cli.cmd_partition)

    p = sub.add_parser("explain", parents=[cell, threshold, coded],
                       help="scale, bit-code, and render one cell")
    p.add_argument("--out-dir", default="explain_out")
    p.set_defaults(func=cli.cmd_explain)

    p = sub.add_parser("shapley", parents=[cell], help="attribute Shapley values of a cell")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cli.cmd_shapley)

    p = sub.add_parser("project", parents=[cell, coded], help="marginalize a cell onto attributes")
    p.add_argument("--keep", required=True, help="comma-separated attributes")
    p.set_defaults(func=cli.cmd_project)

    p = sub.add_parser("hypothesis", parents=[cell, coded],
                       help="compare a formula with a level expression")
    p.add_argument("--level", type=int, help="bit level of the cell expression (default 0)")
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--hypothesis2",
                   help="compare two formulas instead of using a model")
    p.add_argument("--names", help="comma-separated attribute names")
    p.set_defaults(func=cli.cmd_hypothesis)

    p = sub.add_parser("trend", parents=[cell, coded], help="trend grid over one or two attributes")
    p.add_argument("--vary", required=True, help="one or two attributes")
    p.add_argument("--fixed", help="fixed degrees, e.g. 'c=0.3,e=0.7'")
    p.add_argument("--levels", help="comma-separated level subset")
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cli.cmd_trend)

    p = sub.add_parser("classify", parents=[rows], help="classify dataset rows with a model")
    p.set_defaults(func=cli.cmd_classify)

    return parser
