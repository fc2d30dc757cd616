"""Output checks for the benchmark, written against numpy and the standard
library only.

Nothing here imports annlogic: every reference value is recomputed from
the model JSON and the CSV inputs, so a defect in the package cannot hide
itself by breaking the check in the same way.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

TIE = 1e-9  # values this close to a decision boundary are excused
TOL = 1e-9  # float agreement required where the program writes full precision
PRINTED = 5e-4 + 1e-12  # half a unit in the last place of a 3-decimal print


def read_dataset(path, label="label"):
    """(names, X, y) of a CSV with a header row and a 0/1 label column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    li = header.index(label)
    names = [h for i, h in enumerate(header) if i != li]
    X = np.array([[float(v) for i, v in enumerate(r) if i != li] for r in body])
    y = np.array([int(float(r[li])) for r in body])
    return names, X, y


def minterms(D):
    """(N, n) degrees -> (N, 2^n) minterm values, attribute 1 on the most
    significant index bit."""
    M = np.ones((D.shape[0], 1))
    for j in range(D.shape[1]):
        pair = np.stack([1.0 - D[:, j], D[:, j]], axis=1)
        M = (M[:, :, None] * pair[:, None, :]).reshape(D.shape[0], -1)
    return M


def index_bits(n):
    """(2^n, n) matrix: row k holds the big-endian bits of minterm k."""
    k = np.arange(2**n)
    return (k[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


def scale(w, threshold):
    """Per-cell min-max scaling: (scaled weights, scaled threshold)."""
    lo, hi = float(w.min()), float(w.max())
    if hi == lo:
        return np.ones_like(w), 1.0
    return np.clip((w - lo) / (hi - lo), 0.0, 1.0), (threshold - lo) / (hi - lo)


def quantize(s, bcl_max):
    """(bits[bcl, k], near_tie[k]) of round-half-up to multiples of 2^-bcl_max."""
    x = s * 2**bcl_max + 0.5
    q = np.floor(x).astype(np.int64)
    bits = np.array([(q >> (bcl_max - b)) & 1 for b in range(bcl_max + 1)])
    near_tie = np.abs(x - np.round(x)) <= TIE
    return bits, near_tie


def reconstruction(bits):
    return (2.0 ** -np.arange(len(bits))) @ bits


def shapley(w, n):
    """Shapley values from the Harsanyi dividends (fast Moebius transform)
    of v(S) = w[minterm whose non-negated attributes are S]."""
    m = np.array(w, dtype=float).reshape((2,) * n)
    for j in range(n):
        hi = [slice(None)] * n
        lo = [slice(None)] * n
        hi[j], lo[j] = 1, 0
        m[tuple(hi)] -= m[tuple(lo)]
    size = index_bits(n).sum(axis=1).reshape((2,) * n)
    share = np.divide(m, size, out=np.zeros_like(m), where=size > 0)
    return np.array([share.take(1, axis=i).sum() for i in range(n)])


class Model:
    """Reference reading of a model JSON file."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        self.pre = [np.asarray(w, dtype=float) for w in doc["pre_layers"]]
        self.post = [np.asarray(w, dtype=float) for w in doc["post_layers"]]
        self.threshold = float(doc["threshold"])
        self.fuzzifier = doc.get("fuzzifier")
        self.relu = self.pre[-1].shape[0]
        self.n = self.pre[0].shape[1].bit_length() - 1

    def degrees(self, X):
        if self.fuzzifier is None or self.fuzzifier["kind"] != "minmax":
            raise ValueError("reference handles min-max fuzzifiers only")
        lo = np.asarray(self.fuzzifier["lo"], dtype=float)
        hi = np.asarray(self.fuzzifier["hi"], dtype=float)
        span = hi - lo
        d = np.where(span > 0, (X - lo) / np.where(span > 0, span, 1.0), 1.0)
        return np.clip(d, 0.0, 1.0)

    def pre_activations(self, M):
        h = M
        for w in self.pre:
            h = h @ w.T
        return h

    def forward(self, M):
        h = np.maximum(self.pre_activations(M), 0.0)
        for w in self.post:
            h = h @ w.T
        return h[:, 0]

    def cells(self, M):
        """(cell number per row, rows with a pre-activation at the boundary)."""
        pre = self.pre_activations(M)
        p = (pre >= 0).astype(np.int64) @ (1 << np.arange(self.relu - 1, -1, -1))
        return p, (np.abs(pre) <= TIE).any(axis=1)

    def cell_weights(self, p):
        h = np.eye(2**self.n)
        for w in self.pre:
            h = w @ h
        bits = (p >> np.arange(self.relu - 1, -1, -1)) & 1
        h = bits[:, None] * h
        for w in self.post:
            h = w @ h
        return h[0]


class Data:
    """A dataset as the program reads it, with its reference minterms."""

    def __init__(self, path):
        self.names, self.X, self.y = read_dataset(path)

    def minterms(self, model):
        return minterms(model.degrees(self.X))


# ---------------------------------------------------------------- helpers


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _printed(stdout, key):
    """Float after 'key=' in the program's text output, or None."""
    m = re.search(rf"^{re.escape(key)}=(\S+)", stdout, re.MULTILINE)
    return float(m.group(1)) if m else None


def _guard(fn):
    """Turn a parse error in the program's output into a reported problem."""

    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{fn.__name__}: unreadable output ({type(exc).__name__}: {exc})"]

    checked.__name__ = fn.__name__
    return checked


def most_populated_cell(model, data):
    p, _ = model.cells(data.minterms(model))
    return int(np.argmax(np.bincount(p, minlength=2**model.relu)))


def level_accuracies(model, data, s_threshold, bits):
    """Cumulative level accuracies over all rows, and the share of rows
    whose approximation sits at the threshold."""
    M = data.minterms(model)
    out, tied = [], []
    approx = np.zeros(len(M))
    for b in range(len(bits)):
        approx = approx + 2.0**-b * (M @ bits[b])
        out.append(float(np.mean((approx > s_threshold) == (data.y == 1))))
        tied.append(float(np.mean(np.abs(approx - s_threshold) <= TIE)))
    return out, tied


# ----------------------------------------------------------------- checks


@_guard
def check_train(model_path, data, relu, stdout):
    problems = []
    model = Model(model_path)
    if model.pre[0].shape != (relu, 2 ** data.X.shape[1]):
        problems.append(f"train: pre-layer shape {model.pre[0].shape}")
    fz = model.fuzzifier or {}
    if fz.get("lo") != data.X.min(axis=0).tolist() or fz.get("hi") != data.X.max(axis=0).tolist():
        problems.append("train: fuzzifier is not the min-max of the data")
    if problems:
        return problems
    score = model.forward(data.minterms(model))
    acc = float(np.mean((score > model.threshold) == (data.y == 1)))
    tied = float(np.mean(np.abs(score - model.threshold) <= TIE))
    printed = _printed(stdout, "training_accuracy")
    if printed is None or abs(printed - acc) > PRINTED + tied:
        problems.append(f"train: training_accuracy={printed}, reference {acc:.6f}")
    return problems


@_guard
def check_partition(out_csv, model, data):
    rows = _csv_rows(out_csv)
    if rows[0] != ["cell_id", "relu_bits", "count_label1", "count_label0"]:
        return [f"partition: header {rows[0]}"]
    p, tied = model.cells(data.minterms(model))
    size = 2**model.relu
    ref = np.stack([np.bincount(p[data.y == 1], minlength=size),
                    np.bincount(p[data.y == 0], minlength=size)], axis=1)
    got = np.zeros_like(ref)
    problems = []
    for cell, bits, c1, c0 in rows[1:]:
        cell = int(cell)
        if bits != format(cell, f"0{model.relu}b"):
            problems.append(f"partition: cell {cell} has relu bits {bits}")
        got[cell] = (int(c1), int(c0))
    if got.sum() != len(data.y):
        problems.append(f"partition: counts sum to {got.sum()}, not N={len(data.y)}")
    if np.abs(got - ref).max() > tied.sum():
        problems.append("partition: counts differ from the reference bincount")
    return problems


@_guard
def check_classify(stdout, model, data):
    preds = [line for line in stdout.splitlines() if line]
    if len(preds) != len(data.y) or any(p not in ("0", "1") for p in preds):
        return [f"classify: {len(preds)} prediction lines for {len(data.y)} rows"]
    score = model.forward(data.minterms(model))
    wrong = (np.array(preds) == "1") != (score > model.threshold)
    wrong &= np.abs(score - model.threshold) > TIE
    return [f"classify: {int(wrong.sum())} predictions differ"] if wrong.any() else []


def parse_dot(text, names):
    """({node id: attribute index, or a bool for a leaf}, {id: low child},
    {id: high child}) of a rendered tree; the root is node 0."""
    nodes, low, high = {}, {}, {}
    for line in text.splitlines():
        m = re.match(r'\s*n(\d+) \[label="([^"]*)"', line)
        if m:
            label = m.group(2)
            nodes[int(m.group(1))] = (
                label == "active" if label in ("active", "inactive")
                else names.index(label)
            )
            continue
        m = re.match(r"\s*n(\d+) -> n(\d+) \[style=(dashed|solid)\]", line)
        if m:
            (low if m.group(3) == "dashed" else high)[int(m.group(1))] = int(m.group(2))
    return nodes, low, high


def dot_truth_table(text, names):
    """Active minterms of a rendered tree, evaluated on all 2^n assignments."""
    nodes, low, high = parse_dot(text, names)
    K = index_bits(len(names)).astype(bool)

    def ev(nid):
        node = nodes[nid]
        if isinstance(node, bool):
            return np.full(len(K), node)
        return np.where(K[:, node], ev(high[nid]), ev(low[nid]))

    return ev(0).astype(int)


@_guard
def check_explain(out_dir, stdout, weights, threshold, names, bcl_max, accuracy=None):
    """weights.csv, energy.csv, the level trees and the printed sums.
    `accuracy` is (reference cumulative accuracies, tied shares) when the
    call had --data."""
    out_dir = Path(out_dir)
    n = len(names)
    rows = _csv_rows(out_dir / "weights.csv")
    head = ["k"] + names + ["weight", "scaled"]
    head += [f"bit_2^-{b}" for b in range(bcl_max + 1)] + ["reconstruction"]
    if rows[0] != head:
        return [f"explain: weights.csv header {rows[0][:4]}..."]
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    if body.shape != (2**n, len(head)):
        return [f"explain: weights.csv has shape {body.shape}"]
    problems = []
    if not (body[:, 0] == np.arange(2**n)).all() or not (body[:, 1:n + 1] == index_bits(n)).all():
        problems.append("explain: minterm index or attribute bits wrong")
    w, s = body[:, n + 1], body[:, n + 2]
    bits = body[:, n + 3:n + 4 + bcl_max].T.astype(np.int64)
    recon = body[:, -1]
    if np.abs(w - weights).max() > TOL * max(1.0, np.abs(weights).max()):
        problems.append("explain: weight column differs from the model's cell map")
    ref_s, _ = scale(weights, threshold)
    if np.abs(s - ref_s).max() > TOL:
        problems.append("explain: scaled column differs from min-max scaling")
    if not (bits == quantize(s, bcl_max)[0]).all():
        problems.append("explain: bits are not the digits of floor(scaled*2^b+0.5)")
    if np.abs(recon - reconstruction(bits)).max() > 1e-12:
        problems.append("explain: reconstruction is not the sum of weighted bits")
    if np.abs(s - recon).max() > 2.0 ** -(bcl_max + 1):
        problems.append("explain: |scaled - reconstruction| exceeds 2^-(bcl_max+1)")

    energy = _csv_rows(out_dir / "energy.csv")[1:]
    set_bits = np.array([int(r[1]) for r in energy])
    absolute = np.array([float(r[2]) for r in energy])
    if len(energy) != bcl_max + 1 or not (set_bits == bits.sum(axis=1)).all():
        problems.append("explain: energy set_bits differ from the bit columns")
    elif abs(absolute.sum() - recon.sum()) > TOL:
        problems.append("explain: energy rows do not sum to the bit-code sum")
    printed = _printed(stdout, "bitcode_sum")
    if printed is None or abs(printed - recon.sum()) > PRINTED:
        problems.append(f"explain: printed bitcode_sum={printed}")

    for b in range(bcl_max + 1):
        tree = dot_truth_table((out_dir / f"level_{b}.dot").read_text(), names)
        if not (tree == bits[b]).all():
            problems.append(f"explain: tree of level {b} differs from its bit column")

    if accuracy is not None:
        ref, tied = accuracy
        got = [float(v) for v in re.findall(r"^accuracy levels 0\.\.\d+: (\S+)", stdout, re.M)]
        off = [abs(g - r) > PRINTED + t for g, r, t in zip(got, ref, tied)]
        if len(got) != len(ref) or any(off):
            rounded = [round(r, 4) for r in ref]
            problems.append(f"explain: level accuracies {got}, reference {rounded}")
    return problems


@_guard
def check_shapley(out_csv, weights, names):
    rows = _csv_rows(out_csv)[1:]
    if [r[0] for r in rows] != names:
        return ["shapley: attribute rows do not match the names"]
    values = np.array([float(r[1]) for r in rows])
    problems = []
    if abs(values.sum() - (weights[-1] - weights[0])) > TOL:
        problems.append("shapley: values do not sum to w[1...1] - w[0...0]")
    if np.abs(values - shapley(weights, len(names))).max() > TOL:
        problems.append("shapley: values differ from the Harsanyi-dividend reference")
    return problems


@_guard
def check_project(stdout, weights, threshold, names, keep, bcl_max):
    n = len(names)
    drop = tuple(j for j in range(n) if j not in keep)
    ref = weights.reshape((2,) * n).sum(axis=drop).reshape(-1)
    m = len(keep)
    lines = re.findall(r"^minterm ([01]+): raw=(\S+) scaled=(\S+) bits=([01]+)", stdout, re.M)
    if f"kept={','.join(names[j] for j in keep)}\n" not in stdout:
        return ["project: kept attributes not printed"]
    if [c for c, *_ in lines] != [format(k, f"0{m}b") for k in range(2**m)]:
        return [f"project: {len(lines)} minterm lines for {2**m} minterms"]
    raw = np.array([float(r) for _, r, _, _ in lines])
    problems = []
    if np.abs(raw - ref).max() > PRINTED:
        problems.append("project: raw weights differ from the marginal sums")
    if abs(raw.sum() - weights.sum()) > 2**m * PRINTED:
        problems.append("project: projected weights do not keep the weight sum")
    s, _ = scale(ref, threshold)
    bits, tied = quantize(s, bcl_max)
    got = np.array([[int(c) for c in code] for *_, code in lines]).T
    if ((got != bits).any(axis=0) & ~tied).any():
        problems.append("project: bit codes differ from the reference")
    printed = _printed(stdout, "weight_sum")
    if printed is None or abs(printed - s.sum()) > PRINTED:
        problems.append(f"project: printed weight_sum={printed}")
    return problems


@_guard
def check_hypothesis(stdout, weights, threshold, level, bcl_max, truth):
    """`truth` is the hypothesis as a numpy truth table over all minterms."""
    got = {k: _printed(stdout, k) for k in ("v11", "v10", "v01", "v00")}
    if None in got.values():
        return ["hypothesis: confusion counts not printed"]
    if sum(got.values()) != len(truth):
        return [f"hypothesis: counts sum to {sum(got.values())}, not {len(truth)}"]
    s, _ = scale(weights, threshold)
    bits, tied = quantize(s, bcl_max)
    e, h = bits[level].astype(bool), truth.astype(bool)
    ref = {"v11": e & h, "v10": e & ~h, "v01": ~e & h, "v00": ~e & ~h}
    if any(abs(got[k] - int(v.sum())) > tied.sum() for k, v in ref.items()):
        return [f"hypothesis: counts {got} differ from the truth table"]
    return []


@_guard
def check_trend(out_csv, weights, threshold, names, vary, resolution, bcl_max, rng):
    """Grid axes, and 16 points sampled with `rng` against the reference."""
    rows = _csv_rows(out_csv)
    if rows[0] != [names[j] for j in vary] + ["level_set", "value"]:
        return [f"trend: header {rows[0]}"]
    body = rows[1:]
    if len(body) != resolution ** len(vary):
        return [f"trend: {len(body)} grid points"]
    axis = np.linspace(0.0, 1.0, resolution)
    s, _ = scale(weights, threshold)
    recon = reconstruction(quantize(s, bcl_max)[0])
    problems = []
    for i in rng.choice(len(body), size=min(16, len(body)), replace=False):
        row = body[i]
        at = np.unravel_index(i, (resolution,) * len(vary))
        d = np.full(len(names), 0.5)
        for j, a, text in zip(vary, at, row):
            d[j] = axis[a]
            if abs(float(text) - axis[a]) > 1e-12:
                problems.append(f"trend: grid point {i} has axis value {text}")
        expect = float(minterms(d[None, :])[0] @ recon)
        if abs(float(row[-1]) - expect) > TOL:
            problems.append(f"trend: point {i} is {row[-1]}, reference {expect!r}")
    return problems[:3]

