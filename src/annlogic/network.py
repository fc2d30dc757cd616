"""The simple ANN: stacked bias-free linear layers around one ReLU layer,
a single output node, and a threshold classifier.  Includes a small
full-batch gradient-descent trainer for the 2^n -> l -> 1 form and JSON
persistence."""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .encoding import MAX_ATTRIBUTES, FuzzifierSpec, _is_int, _is_real, _Record

MAX_RELU_NODES = 1024  # at 2^12 inputs the pre layer holds 32 MB
MAX_EPOCHS = 1_000_000
INIT_SCALE = 0.5  # standard deviation of the initial weights


class SimpleAnn(_Record):
    """Bias-free network: pre_layers feed 2^n minterm inputs into the ReLU
    layer, post_layers map the ReLU outputs to the single output node."""

    __slots__ = ("pre_layers", "post_layers", "threshold")
    pre_layers: tuple[np.ndarray, ...]
    post_layers: tuple[np.ndarray, ...]
    threshold: float

    def __post_init__(self):
        pre = tuple(np.asarray(w, dtype=float) for w in self.pre_layers)
        post = tuple(np.asarray(w, dtype=float) for w in self.post_layers)
        object.__setattr__(self, "pre_layers", pre)
        object.__setattr__(self, "post_layers", post)
        if not pre or not post:
            raise ValueError("need at least one layer before and after ReLU")
        chain = list(pre) + list(post)
        if any(w.ndim != 2 for w in chain):
            raise ValueError("every weight matrix must be 2-D")
        for a, b in zip(chain, chain[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValueError(
                    f"layer shapes do not chain: {a.shape} then {b.shape}"
                )
        if post[-1].shape[0] != 1:
            raise ValueError("final layer must have exactly one output row")
        if not all(np.isfinite(w).all() for w in chain):
            raise ValueError("weights must be finite")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    @property
    def input_size(self) -> int:
        return self.pre_layers[0].shape[1]

    @property
    def relu_count(self) -> int:
        return self.pre_layers[-1].shape[0]


class TrainConfig(_Record):
    __slots__ = ("learning_rate", "epochs", "seed")
    learning_rate: float
    epochs: int
    seed: int

    def __init__(self, learning_rate: float = 0.5, epochs: int = 2000, seed: int = 0):
        super().__init__(learning_rate, epochs, seed)

    def __post_init__(self):
        rate = self.learning_rate
        if not _is_real(rate):
            raise ValueError("learning rate must be a real number")
        if rate < 0:
            raise ValueError("learning rate must be non-negative")
        if not math.isfinite(rate):
            raise ValueError("learning rate must be finite")
        if not _is_int(self.epochs):
            raise ValueError("epochs must be an integer")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be at most {MAX_EPOCHS}")
        seed = self.seed
        if not _is_int(seed) or seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _apply_layers(layers, h) -> np.ndarray:
    """h's image after the bias-free layers, rows in, rows out."""
    for w in layers:
        h = h @ w.T
    return h


def _pre_activations(ann: SimpleAnn, mt) -> np.ndarray:
    x = np.asarray(mt, dtype=float)
    if x.shape[-1] != ann.input_size:
        raise ValueError(
            f"input length {x.shape[-1]} does not match network input size "
            f"{ann.input_size}"
        )
    return _apply_layers(ann.pre_layers, x)


def forward(ann: SimpleAnn, mt) -> float | np.ndarray:
    """Output score w_post . ReLU(w_pre . mt) of one minterm vector, or
    the (N,) scores of the rows of an (N, 2^n) minterm matrix."""
    relu = np.maximum(_pre_activations(ann, mt), 0.0)
    return _apply_layers(ann.post_layers, relu)[..., 0][()]


def classify(ann: SimpleAnn, mt) -> int | np.ndarray:
    """1 iff the output score strictly exceeds the threshold, per row."""
    return (forward(ann, mt) > ann.threshold).astype(int)[()]


def relu_status(ann: SimpleAnn, mt) -> np.ndarray:
    """Status bits, shape (..., l): active (1) iff a ReLU node's
    pre-activation is >= 0; zero counts as active so that cell assignment
    is deterministic on boundaries."""
    return (_pre_activations(ann, mt) >= 0.0).astype(int)


def choose_threshold(outputs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Threshold maximizing accuracy of `o > tau`, as the midpoint of the
    best split of the sorted outputs.  Returns (tau, accuracy).  A split
    falls between two distinct sorted outputs or after the last; the
    first best split wins, and none wins unless it beats classifying
    every row 1."""
    order = np.argsort(outputs, kind="stable")
    o = outputs[order]
    y = labels[order]
    n = len(y)
    total_pos = int(y.sum())
    ones_seen = np.cumsum(y)
    # split after position i: everything up to i classified 0
    correct = (np.arange(1, n + 1) - ones_seen) + (total_pos - ones_seen)
    splits = np.flatnonzero(np.append(o[:-1] != o[1:], True))
    i = splits[np.argmax(correct[splits])]
    if correct[i] / n > total_pos / n:
        tau = (o[i] + o[i + 1]) / 2.0 if i + 1 < n else o[i] + 1.0
        return float(tau), float(correct[i] / n)
    return float(o[0] - 1.0), float(total_pos / n)


def train(
    mt: np.ndarray,
    labels: np.ndarray,
    relu_nodes: int,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[SimpleAnn, float]:
    """Full-batch gradient descent on MSE over the rows of the (N, 2^n)
    minterm matrix `mt` and their 0/1 labels, for the network 2^n inputs
    -> `relu_nodes` ReLU nodes (at most MAX_RELU_NODES) -> one output.
    Returns (ann, training accuracy).  Every per-epoch array is allocated
    once: (3l + 3)·N float64 values and an (N, l) bool mask."""
    X = np.asarray(mt, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(X) == 0:
        raise ValueError("no training samples")
    if X.ndim != 2 or labels.shape != (len(X),):
        raise ValueError("need an (N, 2^n) minterm matrix and N labels")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not 0 < labels.sum() < len(labels):
        raise ValueError("need at least one sample of each class")
    if not _is_int(relu_nodes):
        raise ValueError("relu nodes must be an integer")
    if min(X.shape[1], relu_nodes) < 1:
        raise ValueError("every layer needs at least one node")
    if relu_nodes > MAX_RELU_NODES:
        raise ValueError(f"{relu_nodes} ReLU nodes exceed the maximum of {MAX_RELU_NODES}")
    # min and max carry a NaN through, and an infinity is one of them
    if not np.isfinite([X.min(), X.max()]).all():
        raise ValueError("minterm values must be finite")

    rng = np.random.default_rng(cfg.seed)
    nodes = int(relu_nodes)  # a numpy unsigned integer would wrap at -nodes
    # Both layers in one buffer, w_pre's draws then w_post's, and both
    # gradients in another, so that an update is one call.
    w = rng.normal(0.0, INIT_SCALE, size=nodes * (X.shape[1] + 1))
    g = np.empty_like(w)
    w_pre, w_post = w[:-nodes].reshape(nodes, -1), w[-nodes:].reshape(1, nodes)
    g_pre, g_post = g[:-nodes].reshape(nodes, -1), g[-nodes:].reshape(1, nodes)
    pre = np.empty((len(X), nodes))
    relu = np.empty_like(pre)
    out = np.empty((len(X), 1))
    d = np.empty(len(X))  # the residual, then the output gradient
    sq = np.empty_like(d)
    d_relu = np.empty_like(pre)
    active = np.empty(pre.shape, dtype=bool)
    w_pre_t, w_post_t, d_relu_t = w_pre.T, w_post.T, d_relu.T
    out_col, d_row = out[:, 0], d[None, :]
    scale, rate, epochs = 2.0 / len(labels), cfg.learning_rate, cfg.epochs
    # Each step writes into a buffer above.  The bits of a BLAS product follow
    # its operands' memory layouts, so the four products keep theirs:
    # X @ w_pre.T, relu @ w_post.T, d[None, :] @ relu and d_relu.T @ X.  The
    # mirrored first product, w_pre @ X.T into an (l, N) C-order array, takes
    # 11 µs instead of 26 at N, 2^n, l = 1220, 16, 3, but it keeps the bits on
    # a SkylakeX kernel only: under Haswell or Prescott it trains to other
    # bits for about one call in three.  (Into pre.T, numpy turns it back
    # into the product above.)
    #
    # An overflow shows as a non-finite loss, checked before each update and
    # once after the last one; a sum of squares is finite iff its mean is.
    # A BLAS dot screens it first.  Any order of summing N non-negative terms,
    # or of their products, lands within a factor 1 ± γ_N of the exact sum,
    # γ_N = Nu/(1 − Nu) (Higham, Accuracy and Stability of Numerical
    # Algorithms, §3.1 and §4.2).  So a dot below 1e300 means the pairwise sum
    # is finite for any N < 2^50, and only a NaN, an infinity or a large dot
    # runs the exact check.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            np.matmul(X, w_pre_t, out=pre)
            np.maximum(pre, 0.0, out=relu)
            np.matmul(relu, w_post_t, out=out)
            np.subtract(out_col, labels, out=d)
            if not np.dot(d, d) < 1e300 and not math.isfinite(
                np.add.reduce(np.square(d, out=sq))
            ):
                raise ValueError(
                    "training diverged (non-finite loss); lower the learning rate"
                )
            if epoch == epochs:
                break
            np.multiply(scale, d, out=d)
            np.matmul(d_row, relu, out=g_post)
            # d @ w_post has inner size 1: one multiply per entry, here run
            # node by node ("C" order over the transposed view) for long loops
            np.multiply(w_post_t, d, out=d_relu_t, order="C")
            np.multiply(d_relu, np.greater(pre, 0.0, out=active), out=d_relu)
            np.matmul(d_relu_t, X, out=g_pre)
            w -= np.multiply(rate, g, out=g)

    tau, acc = choose_threshold(out_col, labels)
    return SimpleAnn((w_pre,), (w_post,), tau), acc


def save_model(path, ann: SimpleAnn, fuzzifier: FuzzifierSpec | None = None) -> None:
    doc = {
        "input_size": ann.input_size,
        "relu_count": ann.relu_count,
        "pre_layers": [w.tolist() for w in ann.pre_layers],
        "post_layers": [w.tolist() for w in ann.post_layers],
        "threshold": ann.threshold,
        "fuzzifier": fuzzifier.to_dict() if fuzzifier else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)


def load_model(path) -> tuple[SimpleAnn, FuzzifierSpec | None]:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_nonfinite)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"malformed model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    for field_name in ("input_size", "relu_count", "pre_layers", "post_layers",
                       "threshold"):
        if field_name not in doc:
            raise ValueError(f"model file missing field {field_name!r}")
    if "biases" in doc or "bias" in doc:
        raise ValueError("model format is bias-free; bias fields rejected")
    if type(doc["threshold"]) not in (int, float):  # type(), as a bool is an int
        raise ValueError("threshold must be a JSON number")
    try:
        pre = tuple(np.array(w, dtype=float) for w in doc["pre_layers"])
        post = tuple(np.array(w, dtype=float) for w in doc["post_layers"])
        threshold = float(doc["threshold"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad weight matrix or threshold: {exc}") from exc
    ann = SimpleAnn(pre, post, threshold)
    # every layer is 2-D now: a list of rows of scalars
    rows = chain.from_iterable((*doc["pre_layers"], *doc["post_layers"]))
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError("weights must be JSON numbers")
    sizes = [doc["input_size"], doc["relu_count"]]
    if sizes != [ann.input_size, ann.relu_count] or set(map(type, sizes)) != {int}:
        raise ValueError("declared sizes do not match matrix shapes")
    if ann.input_size.bit_count() != 1:
        raise ValueError(f"input size {ann.input_size} is not a power of two")
    if ann.input_size > 2**MAX_ATTRIBUTES:
        raise ValueError(
            f"input size {ann.input_size} exceeds 2^{MAX_ATTRIBUTES} minterms"
        )
    fz = doc.get("fuzzifier")
    if fz is None:
        return ann, None
    if not isinstance(fz, dict):
        raise ValueError("fuzzifier must be a JSON object or null")
    try:
        spec = FuzzifierSpec.from_dict(fz)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad fuzzifier: {exc}") from exc
    if 2**spec.arity != ann.input_size:
        raise ValueError(
            f"fuzzifier over {spec.arity} attributes does not match input size "
            f"{ann.input_size}"
        )
    return ann, spec


def _reject_nonfinite(token):
    raise ValueError(f"non-finite number {token!r} in model file")
