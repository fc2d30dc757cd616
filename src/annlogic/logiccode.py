"""From cell weights to logic: scaling onto [0,1], fixed-depth binary
codes, per-level logic expressions, arithmetic expression evaluation,
energy accounting, level-restricted accuracy, and attribute projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import CellWeights, _arity, _freeze

DEFAULT_BCL_MAX = 3
MAX_BCL = 52


@dataclass(frozen=True, eq=False)
class ScaledCellWeights:
    """Minterm weights scaled onto [0,1], a read-only float64 array of
    shape (2^n,), and the classifier threshold on the same scale."""

    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        w = _freeze(self, "weights", np.array(self.weights, dtype=float))
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError("scaled weights must lie in [0,1]")


@dataclass(frozen=True, eq=False)
class BitTensor:
    """bits[bcl, k]: the 2^-bcl digit of the rounded scaled weight of
    minterm k, for bcl = 0 .. bcl_max; a read-only uint8 array of shape
    (bcl_max+1, 2^n)."""

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
        """Sum over the chosen levels (all by default) of 2^-bcl * bits[bcl],
        one coefficient per minterm."""
        levels = np.arange(len(self.bits)) if levels is None else np.asarray(levels, dtype=int)
        if ((levels < 0) | (levels > self.bcl_max)).any():
            raise ValueError("level outside 0..bcl_max")
        return (2.0 ** -levels) @ self.bits[levels]


@dataclass(frozen=True, eq=False)
class LogicExpressionBits:
    """A logic expression as the read-only bool array of shape (2^n,)
    that marks its active minterms."""

    active: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.active)
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("bits must be 0 or 1")
        _freeze(self, "active", a.astype(bool))

    @property
    def n(self) -> int:
        return _arity(self.active)


@dataclass(frozen=True)
class LevelEnergy:
    bcl: int
    set_bits: int
    absolute: float
    relative_percent: float


@dataclass(frozen=True)
class EnergyReport:
    weight_sum: float
    levels: tuple[LevelEnergy, ...]
    bitcode_sum: float
    degenerate: bool = False


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
    if not 0 <= bcl_max <= MAX_BCL:
        raise ValueError(f"bcl_max must lie in 0..{MAX_BCL}, got {bcl_max}")
    q = np.floor(sw.weights * 2**bcl_max + 0.5).astype(np.int64)
    shifts = np.arange(bcl_max, -1, -1)
    return BitTensor((q >> shifts[:, None]) & 1)


def level_expression(bt: BitTensor, bcl: int) -> LogicExpressionBits:
    """The logic expression of one bit-code level: its slice of the tensor."""
    if not 0 <= bcl <= bt.bcl_max:
        raise ValueError(f"level {bcl} out of range 0..{bt.bcl_max}")
    return LogicExpressionBits(bt.bits[bcl])


def _minterm_sum(mt, coefficients: np.ndarray):
    """mt @ coefficients for one minterm vector or each row of a matrix."""
    mt = np.asarray(mt, dtype=float)
    if mt.shape[-1] != len(coefficients):
        raise ValueError("attribute count mismatch")
    return (mt @ coefficients)[()]


def eval_expression(e: LogicExpressionBits, mt) -> float | np.ndarray:
    """Arithmetic evaluation: the sum of the minterm values at active
    positions (disjunction of mutually exclusive events), for one minterm
    vector or each row of an (N, 2^n) matrix."""
    return _minterm_sum(mt, e.active.astype(float))


def approx_forward(
    bt: BitTensor, mt, levels: list[int] | None = None
) -> float | np.ndarray:
    """Sum over the chosen levels of 2^-bcl times the level expression's
    evaluation, all levels by default: one product of `mt` with the
    coefficients `bt.reconstruction(levels)`."""
    return _minterm_sum(mt, bt.reconstruction(levels))


def energy_report(sw: ScaledCellWeights, bt: BitTensor) -> EnergyReport:
    """Per-level energy of a bit tensor.  Level bcl carries the absolute
    energy 2^-bcl * set_bits and the relative energy absolute / sum(scaled
    weights) * 100, a share of the weight sum, not of the bit-code sum.
    When the weight sum is 0 the report is `degenerate` and every relative
    share is 0."""
    if sw.weights.size != bt.bits.shape[1]:
        raise ValueError("weight/bit tensor length mismatch")
    weight_sum = float(sw.weights.sum())
    degenerate = weight_sum == 0.0
    levels = []
    for bcl, count in enumerate(np.count_nonzero(bt.bits, axis=1).tolist()):
        absolute = 2.0**-bcl * count
        relative = 0.0 if degenerate else absolute / weight_sum * 100.0
        levels.append(LevelEnergy(bcl, count, absolute, relative))
    bitcode_sum = float(bt.reconstruction().sum())
    return EnergyReport(weight_sum, tuple(levels), bitcode_sum, degenerate)


def level_accuracy(
    bt: BitTensor,
    threshold: float,
    samples: np.ndarray,
    labels: np.ndarray,
    levels: list[int] | None = None,
) -> float:
    """Fraction of the rows of the (N, 2^n) minterm matrix `samples` whose
    level-restricted evaluation, compared with the scaled `threshold`,
    matches the 0/1 label."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    predicted = approx_forward(bt, samples, levels) > threshold
    return np.count_nonzero(predicted == np.asarray(labels, dtype=bool)) / len(samples)


def project(cw: CellWeights, keep: list[int]) -> CellWeights:
    """Marginalize the minterm weights onto the kept attributes (0-based
    indices) by summing over the dropped attributes' bit combinations.
    Callers typically rescale afterwards."""
    n = cw.n
    if not keep:
        raise ValueError("keep set must be non-empty")
    if len(set(keep)) != len(keep) or any(not 0 <= j < n for j in keep):
        raise ValueError("keep must be distinct attribute indices below n")
    dropped = tuple(j for j in range(n) if j not in keep)
    with np.errstate(over="ignore"):  # CellWeights rejects an overflowed sum
        return CellWeights(cw.weights.reshape((2,) * n).sum(axis=dropped).ravel())
