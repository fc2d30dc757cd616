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
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from annlogic.network import (
    INIT_SCALE,
    SimpleAnn,
    TrainingDivergedError,
    choose_threshold,
    forward,
)
from annlogic.partition import CellWeights
from annlogic.qldt import Leaf, Split


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
    """LogicExpressionBits' rule: 2^n entries, each 0 or 1."""
    return shape_ok(active) and all(b in (0, 1) for b in _values(active))


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
        return Leaf(False)
    if pos == len(rows):
        return Leaf(True)
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
    truth = e.active.reshape((2,) * e.n)
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
        return Leaf(False)
    if pos == total:
        return Leaf(True)
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
            raise TrainingDivergedError("training diverged")
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


def extract_cell_weights_eye(ann, cell):
    """Push the identity matrix, all 2^n basis vectors at once, through
    the pre layers, the status bits and the post layers."""
    h = np.eye(ann.input_size)
    for w in ann.pre_layers:
        h = w @ h
    h = np.asarray(cell.bits, dtype=float)[:, None] * h
    for w in ann.post_layers:
        h = w @ h
    return h[0]


def compose_cell_weights(singles, cell):
    """A cell's weights as the sum of the single-active-node cells whose
    node is active in `cell`; cell 0 is the zero map."""
    by_cell = {}
    for cw in singles:
        if cw.cell is None or bin(cw.cell.p).count("1") != 1:
            raise ValueError("singles must carry single-active-node cell ids")
        by_cell[cw.cell.p] = cw
    total = np.zeros(len(singles[0].weights))
    for m in range(cell.l):
        if cell.bits[m]:
            p = 1 << (cell.l - 1 - m)
            if p not in by_cell:
                raise ValueError(f"missing single-node cell {p}")
            total = total + by_cell[p].weights
    return CellWeights(total, cell)
