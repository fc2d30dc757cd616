"""From cell weights to logic: scaling onto [0,1], fixed-depth binary
codes, per-level logic expressions, arithmetic expression evaluation,
energy accounting, level-restricted accuracy, and attribute projection."""

from __future__ import annotations

import numpy as np

from .encoding import _distinct_ints, _is_int, _Record
from .partition import CellWeights, _arity, _freeze

DEFAULT_BCL_MAX = 3
MAX_BCL = 52


class ScaledCellWeights(_Record):
    """Minterm weights scaled onto [0,1], a read-only float64 array of
    shape (2^n,), and the classifier threshold on the same scale."""

    __slots__ = ("weights", "threshold")
    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        w = _freeze(self, "weights", np.array(self.weights, dtype=float))
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError("scaled weights must lie in [0,1]")


class BitTensor(_Record):
    """bits[bcl, k]: the 2^-bcl digit of the rounded scaled weight of
    minterm k, for bcl = 0 .. bcl_max; a read-only uint8 array of shape
    (bcl_max+1, 2^n).  A one-level tensor is a logic expression: its row
    marks the active minterms."""

    __slots__ = ("bits",)
    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)  # ragged rows are a ValueError here
        if not ((b == 0) | (b == 1)).all():
            raise ValueError("bits must be 0 or 1")
        _freeze(self, "bits", b.astype(np.uint8), 2)

    @property
    def bcl_max(self) -> int:
        return len(self.bits) - 1

    @property
    def n(self) -> int:
        return _arity(self.bits)

    def reconstruction(self, levels: list[int] | None = None) -> np.ndarray:
        """Sum over the chosen levels (all by default), distinct integers, of
        2^-bcl * bits[bcl], one coefficient per minterm."""
        if levels is not None and not _distinct_ints(levels):
            raise ValueError("levels must be distinct integers")
        levels = np.arange(len(self.bits)) if levels is None else np.asarray(levels, dtype=int)
        if ((levels < 0) | (levels > self.bcl_max)).any():
            raise ValueError("level outside 0..bcl_max")
        return (2.0 ** -levels) @ self.bits[levels]


class EnergyReport(_Record):
    """Per level bcl = 0 .. bcl_max, at index bcl: its set bits, absolute
    energy and relative energy in percent."""

    __slots__ = ("weight_sum", "set_bits", "absolute", "relative_percent", "bitcode_sum")
    weight_sum: float
    set_bits: tuple[int, ...]
    absolute: tuple[float, ...]
    relative_percent: tuple[float, ...]
    bitcode_sum: float


def scale_weights(cw: CellWeights, threshold: float) -> ScaledCellWeights:
    """Scale a cell's minterm weights onto [0,1] by its own min and max,
    and the threshold by the same affine map."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    lo, hi = float(cw.weights.min()), float(cw.weights.max())
    if not np.isfinite(hi - lo):
        raise ValueError("weight range overflows float64")
    # a constant cell scales to all ones, so every evaluation is
    # sum(minterms) = 1 up to rounding: put the threshold halfway off 1
    # on the side the constant decides
    if lo == hi:
        return ScaledCellWeights(np.ones_like(cw.weights), 0.5 if lo > threshold else 1.5)
    scaled = (cw.weights - lo) / (hi - lo)
    return ScaledCellWeights(np.clip(scaled, 0.0, 1.0), (threshold - lo) / (hi - lo))


def bitcode(sw: ScaledCellWeights, bcl_max: int = DEFAULT_BCL_MAX) -> BitTensor:
    """Round each weight to the nearest multiple of 2^-bcl_max (ties up)
    and expand it MSB-first over levels 2^0 .. 2^-bcl_max.  bcl_max is
    bounded by the 52-bit float mantissa, so the integer codes are exact."""
    if not _is_int(bcl_max):
        raise ValueError("bcl_max must be an integer")
    if not 0 <= bcl_max <= MAX_BCL:
        raise ValueError(f"bcl_max must lie in 0..{MAX_BCL}, got {bcl_max}")
    bcl_max = int(bcl_max)  # a numpy uint8 would wrap in 2**bcl_max
    q = np.floor(sw.weights * 2**bcl_max + 0.5).astype(np.int64)
    shifts = np.arange(bcl_max, -1, -1)
    return BitTensor((q >> shifts[:, None]) & 1)


def level_expression(bt: BitTensor, bcl: int) -> BitTensor:
    """The logic expression of one bit-code level: its slice of the tensor."""
    if not _is_int(bcl):
        raise ValueError("level must be an integer")
    if not 0 <= bcl <= bt.bcl_max:
        raise ValueError(f"level {bcl} out of range 0..{bt.bcl_max}")
    return BitTensor(bt.bits[bcl:bcl + 1])


def approx_forward(bt: BitTensor, mt, levels: list[int] | None = None) -> float | np.ndarray:
    """Sum over the chosen levels of 2^-bcl times the level expression's
    evaluation, all levels by default: one product of `mt`, one minterm
    vector or each row of an (N, 2^n) matrix, with the coefficients
    `bt.reconstruction(levels)`.  On a one-level tensor, a logic
    expression, it is the arithmetic evaluation: the sum of the minterm
    values at active positions (disjunction of mutually exclusive events)."""
    coefficients = bt.reconstruction(levels)
    mt = np.asarray(mt, dtype=float)
    if mt.shape[-1] != len(coefficients):
        raise ValueError("attribute count mismatch")
    return (mt @ coefficients)[()]


def energy_report(sw: ScaledCellWeights, bt: BitTensor) -> EnergyReport:
    """Per-level energy of a bit tensor.  Level bcl carries the absolute
    energy 2^-bcl * set_bits and the relative energy absolute / sum(scaled
    weights) * 100, a share of the weight sum, not of the bit-code sum.
    When the weight sum is 0 every relative share is 0."""
    if sw.weights.size != bt.bits.shape[1]:
        raise ValueError("weight/bit tensor length mismatch")
    weight_sum = float(sw.weights.sum())
    set_bits = np.count_nonzero(bt.bits, axis=1)
    absolute = np.ldexp(set_bits, -np.arange(len(set_bits)))
    relative = np.zeros_like(absolute) if weight_sum == 0.0 else absolute / weight_sum * 100.0
    bitcode_sum = float(bt.reconstruction().sum())
    return EnergyReport(weight_sum, tuple(set_bits.tolist()), tuple(absolute.tolist()),
                        tuple(relative.tolist()), bitcode_sum)


def level_accuracy(bt: BitTensor, threshold: float, samples: np.ndarray, labels: np.ndarray,
                   levels: list[int] | None = None) -> float:
    """Fraction of the rows of the (N, 2^n) minterm matrix `samples` whose
    level-restricted evaluation, compared with the scaled `threshold`,
    matches the 0/1 label."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    predicted = approx_forward(bt, samples, levels) > threshold
    return np.count_nonzero(predicted == np.asarray(labels, dtype=bool)) / len(samples)


def project(cw: CellWeights, keep: list[int]) -> CellWeights:
    """Marginalize the minterm weights onto the kept attributes (distinct 0-based
    integers) by summing over the dropped attributes' bit combinations.
    Callers typically rescale afterwards."""
    n = cw.n
    if not _distinct_ints(keep) or any(not 0 <= j < n for j in keep):
        raise ValueError("keep must be distinct attribute indices below n")
    if len(keep) == 0:
        raise ValueError("keep set must be non-empty")
    dropped = tuple(j for j in range(n) if j not in keep)
    with np.errstate(over="ignore"):
        projected = cw.weights.reshape((2,) * n).sum(axis=dropped).ravel()
    if not np.isfinite(projected).all():
        raise ValueError("projected weights overflow float64")
    return CellWeights(projected)
