"""Fuzzification of raw attributes and the minterm transform.

Raw attribute values are mapped into [0,1] degrees by a per-attribute
monotone function, then expanded into the 2^n minterm values that feed
the network.  Attribute 1 sits on the most significant bit of the
minterm index throughout the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_ATTRIBUTES = 12  # 2^12 = 4096 minterms
_BLOCK_VALUES = 2**16  # minterm values expanded per block: 512 KB of float64


class ArityMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class FuzzifierSpec:
    """Per-attribute monotone maps onto [0,1].

    kind 'minmax': m(x) = (x - lo) / (hi - lo), clamped; a degenerate
    attribute (lo == hi) maps to the constant 1.
    kind 'logistic': m(x) = 1 / (1 + exp(-steepness * (x - midpoint))).
    """

    kind: str
    lo: tuple[float, ...] = field(default=())
    hi: tuple[float, ...] = field(default=())
    midpoint: tuple[float, ...] = field(default=())
    steepness: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("minmax", "logistic"):
            raise ValueError(f"unknown fuzzifier kind {self.kind!r}")
        if self.kind == "minmax":
            if len(self.lo) != len(self.hi):
                raise ValueError("lo/hi length mismatch")
            if any(l > h for l, h in zip(self.lo, self.hi)):
                raise ValueError("lo must not exceed hi")
        else:
            if len(self.midpoint) != len(self.steepness):
                raise ValueError("midpoint/steepness length mismatch")
        if not np.isfinite([*self.lo, *self.hi, *self.midpoint, *self.steepness]).all():
            raise ValueError("fuzzifier fields must be finite")

    @property
    def arity(self) -> int:
        return len(self.lo) if self.kind == "minmax" else len(self.midpoint)

    def to_dict(self) -> dict:
        if self.kind == "minmax":
            return {"kind": "minmax", "lo": list(self.lo), "hi": list(self.hi)}
        return {
            "kind": "logistic",
            "midpoint": list(self.midpoint),
            "steepness": list(self.steepness),
        }

    @staticmethod
    def from_dict(d: dict) -> "FuzzifierSpec":
        """Inverse of `to_dict`; a missing or non-numeric field is a ValueError."""
        kind = d.get("kind")
        fields = {"minmax": ("lo", "hi"), "logistic": ("midpoint", "steepness")}
        if kind not in fields:
            raise ValueError(f"unknown fuzzifier kind {kind!r}")
        for name in fields[kind]:
            if name not in d:
                raise ValueError(f"fuzzifier missing field {name!r}")
        try:
            values = {name: tuple(map(float, d[name])) for name in fields[kind]}
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"fuzzifier fields must be lists of numbers: {exc}") from exc
        return FuzzifierSpec(kind, **values)


def fit_fuzzifier(X: np.ndarray, kind: str = "minmax") -> FuzzifierSpec:
    """Fit per-attribute monotone maps on the (N, n) raw values X.

    min-max uses the per-attribute dataset min/max; logistic centres at
    the mean with steepness 1/std (std 0 falls back to steepness 1).
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise ValueError("cannot fit a fuzzifier on an empty dataset")
    if X.ndim != 2:
        raise ArityMismatchError(f"expected an (N, n) array of rows, got shape {X.shape}")
    if kind == "minmax":
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        for j in np.nonzero(lo == hi)[0]:
            warnings.warn(
                f"attribute {j + 1} is constant ({lo[j]}); degree fixed at 1",
                stacklevel=2,
            )
        return FuzzifierSpec("minmax", lo=tuple(lo), hi=tuple(hi))
    if kind == "logistic":
        mid = X.mean(axis=0)
        std = X.std(axis=0)
        steep = np.where(std > 0, 1.0 / np.where(std > 0, std, 1.0), 1.0)
        return FuzzifierSpec("logistic", midpoint=tuple(mid), steepness=tuple(steep))
    raise ValueError(f"unknown fuzzifier kind {kind!r}")


def fuzzify(X: np.ndarray, spec: FuzzifierSpec) -> np.ndarray:
    """Map raw values of shape (..., n) to degrees in [0,1] of the same
    shape; out-of-range values clamp."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (spec.arity,):
        raise ArityMismatchError(
            f"raw values of shape {X.shape}, fuzzifier expects {spec.arity} attributes"
        )
    if spec.kind == "minmax":
        lo = np.asarray(spec.lo)
        hi = np.asarray(spec.hi)
        span = hi - lo
        degrees = np.where(span > 0, (X - lo) / np.where(span > 0, span, 1.0), 1.0)
    else:
        mid = np.asarray(spec.midpoint)
        steep = np.asarray(spec.steepness)
        degrees = 1.0 / (1.0 + np.exp(-steep * (X - mid)))
    return np.clip(degrees, 0.0, 1.0)


def _degrees(degrees) -> np.ndarray:
    """Degrees as a float array; NaN and values outside [0,1] are rejected."""
    d = np.asarray(degrees, dtype=float)
    if not ((d >= 0.0) & (d <= 1.0)).all():
        raise ValueError("degrees must be finite and lie in [0,1]")
    return d


def minterm_transform(degrees: np.ndarray) -> np.ndarray:
    """Expand degrees of shape (..., n) into the minterm values of shape
    (..., 2^n): products of degrees and complements, attribute 1 on the
    most significant index bit.  Rows are expanded in blocks of at most
    _BLOCK_VALUES minterm values, so the work stays in cache: within a
    block, level j+1 (attributes 1..j+1) is written from level j with two
    strided products, level * (1 - m_j) and level * m_j, alternating
    between a scratch block and the output so the last level lands in it."""
    n = np.shape(degrees)[-1]
    if n > MAX_ATTRIBUTES:
        raise ValueError(f"{n} attributes exceed the maximum of {MAX_ATTRIBUTES}")
    d = _degrees(degrees)
    rows = d.reshape(math.prod(d.shape[:-1]), n)
    complements = 1.0 - rows
    out = np.empty((len(rows), 2**n))
    step = max(1, _BLOCK_VALUES >> n)
    scratch = np.empty((min(step, len(rows)), max(1, 2**n // 2)))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        buffers = (out[block], scratch[: len(out[block])])
        level = buffers[n % 2][:, :1]
        level[...] = 1.0
        for j in range(n):
            nxt = buffers[(n - 1 - j) % 2][:, : 2 * level.shape[1]]
            np.multiply(level, complements[block, j, None], out=nxt[:, 0::2])
            np.multiply(level, rows[block, j, None], out=nxt[:, 1::2])
            level = nxt
    return out.reshape(d.shape[:-1] + (2**n,))
