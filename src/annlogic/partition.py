"""Partition cells of the network: cell numbering from ReLU status,
dataset partition reports, exact per-cell linear minterm-weight maps
and Shapley attribution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import SimpleAnn, relu_status


@dataclass(frozen=True)
class CellId:
    """Cell number p in [0, 2^l); bit m of p (MSB-first) is the status of
    ReLU node m."""

    p: int
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("need at least one ReLU node")
        if not 0 <= self.p < 2**self.l:
            raise ValueError(f"cell number {self.p} out of range for l={self.l}")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.p >> (self.l - 1 - m)) & 1 for m in range(self.l))

    def __str__(self):
        return f"ANN_{self.p}"


@dataclass(frozen=True, eq=False)
class CellWeights:
    """The 2^n real minterm weights of one cell's exact linear map, a
    read-only float64 array of shape (2^n,)."""

    weights: np.ndarray
    cell: CellId | None = None

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


@dataclass(frozen=True)
class CellReportRow:
    cell: CellId
    count_label1: int
    count_label0: int

    @property
    def total(self) -> int:
        return self.count_label1 + self.count_label0


def cell_number(status) -> CellId:
    """Pack one ReLU status, its bits MSB-first, into the cell number."""
    bits = list(status)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("a ReLU status is a non-empty sequence of 0/1 bits")
    return CellId(int("".join(str(int(b)) for b in bits), 2), len(bits))


def partition_dataset(
    ann: SimpleAnn, samples: np.ndarray, labels: np.ndarray
) -> tuple[CellReportRow, ...]:
    """Assign every row of the (N, 2^n) minterm matrix `samples` to its
    cell; returns one row per non-empty cell, sorted by descending total
    count (ties by cell number).  Rows are grouped by one key per row, its
    status bits packed into bytes, so the cell number is only formed once
    per non-empty cell, from the status of the cell's first row."""
    status = relu_status(ann, samples)
    key = np.packbits(status, axis=1)
    _, first, slot, total = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                      return_index=True, return_inverse=True,
                                      return_counts=True)
    ones = np.bincount(slot, weights=labels, minlength=len(first))
    rows = [
        CellReportRow(cell_number(status[i]), int(c1), int(t - c1))
        for i, c1, t in zip(first, ones, total)
    ]
    rows.sort(key=lambda r: (-r.total, r.cell.p))
    return tuple(rows)


def extract_cell_weights(ann: SimpleAnn, cell: CellId) -> CellWeights:
    """Exact linear map of the reduced network: ReLU node m becomes
    multiplication by status bit m.  The single output row is composed
    from the output side, so every product is one row times a layer."""
    if cell.l != ann.relu_count:
        raise ValueError(
            f"cell width {cell.l} does not match ReLU count {ann.relu_count}"
        )
    h = np.ones((1, 1))
    for w in reversed(ann.post_layers):
        h = h @ w
    h = h * np.asarray(cell.bits, dtype=float)
    for w in reversed(ann.pre_layers):
        h = h @ w
    return CellWeights(h[0], cell)


def shapley(cw: CellWeights) -> np.ndarray:
    """Exact Shapley values of the attributes under the coalition value
    v(S) = weight of the minterm whose non-negated attributes are S, as
    Harsanyi dividends: Sh_i = sum over S containing i of m(S)/|S|, where
    m is the Moebius transform of v, taken as (lo, hi - lo) on each axis
    of the (2,)*n weight tensor.  Returns the (n,) values; values past the
    float64 range are a ValueError."""
    n = cw.n
    m = cw.weights.reshape((2,) * n)
    size = np.indices((2,) * n).sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in range(n):
            lo, hi = np.take(m, 0, axis=axis), np.take(m, 1, axis=axis)
            m = np.stack((lo, hi - lo), axis=axis)
        share = np.divide(m, size, out=np.zeros_like(m), where=size > 0)
        values = np.array([np.take(share, 1, axis=i).sum() for i in range(n)])
    if not np.isfinite(values).all():
        raise ValueError("Shapley values overflow float64")
    return values
