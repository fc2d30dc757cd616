"""The simple ANN: stacked bias-free linear layers around one ReLU layer,
a single output node, and a threshold classifier.  Includes a small
full-batch gradient-descent trainer for the 2^n -> l -> 1 form and JSON
persistence."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .encoding import MAX_ATTRIBUTES, FuzzifierSpec

MAX_RELU_NODES = 1024  # at 2^12 inputs the pre layer holds 32 MB
MAX_EPOCHS = 1_000_000
INIT_SCALE = 0.5  # standard deviation of the initial weights


class ModelFormatError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimpleAnn:
    """Bias-free network: pre_layers feed 2^n minterm inputs into the ReLU
    layer, post_layers map the ReLU outputs to the single output node."""

    pre_layers: tuple[np.ndarray, ...]
    post_layers: tuple[np.ndarray, ...]
    threshold: float

    def __post_init__(self):
        pre = tuple(np.asarray(w, dtype=float) for w in self.pre_layers)
        post = tuple(np.asarray(w, dtype=float) for w in self.post_layers)
        object.__setattr__(self, "pre_layers", pre)
        object.__setattr__(self, "post_layers", post)
        if not pre or not post:
            raise ModelFormatError("need at least one layer before and after ReLU")
        chain = list(pre) + list(post)
        if any(w.ndim != 2 for w in chain):
            raise ModelFormatError("every weight matrix must be 2-D")
        for a, b in zip(chain, chain[1:]):
            if b.shape[1] != a.shape[0]:
                raise ModelFormatError(
                    f"layer shapes do not chain: {a.shape} then {b.shape}"
                )
        if post[-1].shape[0] != 1:
            raise ModelFormatError("final layer must have exactly one output row")
        if not all(np.isfinite(w).all() for w in chain):
            raise ModelFormatError("weights must be finite")
        if not math.isfinite(self.threshold):
            raise ModelFormatError("threshold must be finite")

    @property
    def input_size(self) -> int:
        return self.pre_layers[0].shape[1]

    @property
    def relu_count(self) -> int:
        return self.pre_layers[-1].shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning rate must be finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be at most {MAX_EPOCHS}")


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
    Returns (ann, training accuracy)."""
    X = np.asarray(mt, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(X) == 0:
        raise ValueError("no training samples")
    if X.ndim != 2 or labels.shape != (len(X),):
        raise ValueError("need an (N, 2^n) minterm matrix and N labels")
    # with return_counts, np.unique does not import numpy.ma
    if len(np.unique(labels, return_counts=True)[0]) < 2:
        raise ValueError("need at least one sample of each class")
    if min(X.shape[1], relu_nodes) < 1:
        raise ValueError("every layer needs at least one node")
    if relu_nodes > MAX_RELU_NODES:
        raise ValueError(f"{relu_nodes} ReLU nodes exceed the maximum of {MAX_RELU_NODES}")

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
            loss = float(np.mean((out - labels) ** 2))
            if not math.isfinite(loss):
                raise TrainingDivergedError(
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


def save_model(path, ann: SimpleAnn, fuzzifier: FuzzifierSpec | None = None) -> None:
    doc = {
        "input_size": ann.input_size,
        "relu_count": ann.relu_count,
        "pre_layers": [w.tolist() for w in ann.pre_layers],
        "post_layers": [w.tolist() for w in ann.post_layers],
        "threshold": ann.threshold,
        "fuzzifier": fuzzifier.to_dict() if fuzzifier else None,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)


def load_model(path) -> tuple[SimpleAnn, FuzzifierSpec | None]:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_nonfinite)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ModelFormatError(f"malformed model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")
    for field_name in ("input_size", "relu_count", "pre_layers", "post_layers",
                       "threshold"):
        if field_name not in doc:
            raise ModelFormatError(f"model file missing field {field_name!r}")
    if "biases" in doc or "bias" in doc:
        raise ModelFormatError("model format is bias-free; bias fields rejected")
    try:
        pre = tuple(np.array(w, dtype=float) for w in doc["pre_layers"])
        post = tuple(np.array(w, dtype=float) for w in doc["post_layers"])
        threshold = float(doc["threshold"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"bad weight matrix or threshold: {exc}") from exc
    ann = SimpleAnn(pre, post, threshold)
    if ann.input_size != doc["input_size"] or ann.relu_count != doc["relu_count"]:
        raise ModelFormatError("declared sizes do not match matrix shapes")
    if ann.input_size > 2**MAX_ATTRIBUTES:
        raise ModelFormatError(
            f"input size {ann.input_size} exceeds 2^{MAX_ATTRIBUTES} minterms"
        )
    fz = doc.get("fuzzifier")
    if fz is None:
        return ann, None
    if not isinstance(fz, dict):
        raise ModelFormatError("fuzzifier must be a JSON object or null")
    try:
        spec = FuzzifierSpec.from_dict(fz)
    except ValueError as exc:
        raise ModelFormatError(f"bad fuzzifier: {exc}") from exc
    if 2**spec.arity != ann.input_size:
        raise ModelFormatError(
            f"fuzzifier over {spec.arity} attributes does not match input size "
            f"{ann.input_size}"
        )
    return ann, spec


def _reject_nonfinite(token):
    raise ModelFormatError(f"non-finite number {token!r} in model file")
