"""Partition cells of the network: a cell is a number p < 2^l whose bit m,
MSB-first, is the status of ReLU node m.  Dataset partition reports, exact
per-cell linear minterm-weight maps and Shapley attribution."""

from __future__ import annotations

import math

import numpy as np

from .encoding import _is_int, _Record
from .network import SimpleAnn, relu_status


class CellWeights(_Record):
    """The 2^n real minterm weights of one cell's exact linear map, a
    read-only float64 array of shape (2^n,)."""

    __slots__ = ("weights",)
    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self, "weights", np.array(self.weights, dtype=float))
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")

    @property
    def n(self) -> int:
        return _arity(self.weights)


def _freeze(obj, name: str, a: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Store `a`, made read-only, as field `name` of the frozen `obj` if it has
    the minterm shape: `ndim` axes, none empty, and 2^n entries on the last."""
    if a.ndim != ndim or 0 in a.shape or a.shape[-1] & (a.shape[-1] - 1):
        raise ValueError(f"{name}: need a {ndim}-D array, no axis empty, 2^n entries on the last")
    a.flags.writeable = False
    object.__setattr__(obj, name, a)
    return a


def _arity(a: np.ndarray) -> int:
    """n of an array with 2^n entries on its last axis."""
    return a.shape[-1].bit_length() - 1


def partition_dataset(
    ann: SimpleAnn, samples: np.ndarray, labels: np.ndarray
) -> list[tuple[int, int, int]]:
    """Assign every row of the (N, 2^n) minterm matrix `samples` to its
    cell; returns (cell number, label-1 count, label-0 count) per non-empty
    cell, sorted by descending total count (ties by cell number).  Rows are
    grouped by one key per row, its status bits packed into bytes, so the
    cell number is only formed once per non-empty cell, from its first key."""
    l = ann.relu_count
    key = np.packbits(relu_status(ann, samples), axis=1)
    _, first, slot, total = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                      return_index=True, return_inverse=True,
                                      return_counts=True)
    ones = np.bincount(slot, weights=labels, minlength=len(first))
    rows = [
        (int.from_bytes(key[i].tobytes(), "big") >> (-l % 8), int(c1), int(t - c1))
        for i, c1, t in zip(first, ones, total)
    ]
    rows.sort(key=lambda r: (-r[1] - r[2], r[0]))
    return rows


def extract_cell_weights(ann: SimpleAnn, p: int) -> CellWeights:
    """Exact linear map of the reduced network in cell p: ReLU node m becomes
    multiplication by bit m of p, MSB-first.  The single output row is
    composed from the output side, so every product is one row times a layer."""
    l = ann.relu_count
    if not _is_int(p):
        raise ValueError("cell number must be an integer")
    if not 0 <= p < 2**l:
        raise ValueError(f"cell number {p} out of range for l={l}")
    p = int(p)  # a numpy integer has no to_bytes
    h = np.ones((1, 1))
    for w in reversed(ann.post_layers):
        h = h @ w
    h = h * np.unpackbits(np.frombuffer(p.to_bytes(-(-l // 8), "big"), np.uint8))[-l:]
    for w in reversed(ann.pre_layers):
        h = h @ w
    return CellWeights(h[0])


def shapley(cw: CellWeights) -> np.ndarray:
    """Exact (n,) Shapley values (Shapley 1953) under the coalition value v(S)
    = weight of the minterm whose non-negated attributes are S: Sh_i sums
    g(q) w[..1..] - g(q) w[..0..] over the cofactor pairs along axis i, where q
    counts the other axes at 1 and g(q) = q! (n-1-q)! / n! = 1 / (n C(n-1, q)).
    Each half is scaled first; only a value or partial sum past float64 is a ValueError."""
    n = cw.n
    w = cw.weights.reshape((2,) * n)
    g = np.array([1 / (n * math.comb(n - 1, q)) for q in range(n)] + [0.0])
    g = g[np.indices((2,) * (n - 1)).sum(axis=0)]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([(g * np.take(w, 1, i) - g * np.take(w, 0, i)).sum()
                           for i in range(n)])
    if not np.isfinite(values).all():
        raise ValueError("Shapley values overflow float64")
    return values
