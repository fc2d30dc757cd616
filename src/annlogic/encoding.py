"""Fuzzification of raw attributes and the minterm transform.

Raw attribute values are mapped into [0,1] degrees by a per-attribute
monotone function, then expanded into the 2^n minterm values that feed
the network.  Attribute 1 sits on the most significant bit of the
minterm index throughout the package.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

MAX_ATTRIBUTES = 12  # 2^12 = 4096 minterms
# each fuzzifier kind's two per-attribute parameters, in model-file key order
FUZZIFIER_KINDS = {"minmax": ("lo", "hi"), "logistic": ("midpoint", "steepness")}
_BLOCK_VALUES = 2**16  # minterm values expanded per block: 512 KB of float64


class _Record:
    """A read-only record whose fields are its class's `__slots__`, set from
    positional or keyword arguments, then checked by `__post_init__`.
    Records compare and hash by identity."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() - set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)} once each")
        values = dict(zip(names, args), **kwargs)
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__} missing field {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()


class FuzzifierSpec(_Record):
    """Per-attribute monotone maps onto [0,1]; `params` holds the kind's two
    parameter tuples, named in FUZZIFIER_KINDS, one entry per attribute.

    kind 'minmax', params (lo, hi): m(x) = (x - lo) / (hi - lo), clamped; a
    degenerate attribute (lo == hi) maps to the constant 1.
    kind 'logistic', params (midpoint, steepness):
    m(x) = 1 / (1 + exp(-steepness * (x - midpoint))).
    """

    __slots__ = ("kind", "params")
    kind: str
    params: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self):
        if self.kind not in FUZZIFIER_KINDS:
            raise ValueError(f"unknown fuzzifier kind {self.kind!r}")
        first, second = self.params
        if len(first) != len(second):
            raise ValueError("/".join(FUZZIFIER_KINDS[self.kind]) + " length mismatch")
        if self.kind == "minmax" and any(l > h for l, h in zip(first, second)):
            raise ValueError("lo must not exceed hi")
        if not np.isfinite([first, second]).all():
            raise ValueError("fuzzifier fields must be finite")

    @property
    def arity(self) -> int:
        return len(self.params[0])

    def to_dict(self) -> dict:
        params = (list(map(float, p)) for p in self.params)
        return {"kind": self.kind, **dict(zip(FUZZIFIER_KINDS[self.kind], params))}

    @staticmethod
    def from_dict(d: dict) -> "FuzzifierSpec":
        """Inverse of `to_dict`.  A missing field, one that is not a list of
        JSON numbers (a bool or a numeric string is not one), or a field the
        kind does not read is a ValueError; an integer past the float range
        is an OverflowError."""
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in FUZZIFIER_KINDS:
            raise ValueError(f"unknown fuzzifier kind {kind!r}")
        for name in FUZZIFIER_KINDS[kind]:
            if name not in d:
                raise ValueError(f"fuzzifier missing field {name!r}")
            if not isinstance(d[name], list) or not set(map(type, d[name])) <= {int, float}:
                raise ValueError(f"fuzzifier field {name!r} must be a list of JSON numbers")
        unread = sorted(map(repr, d.keys() - {"kind", *FUZZIFIER_KINDS[kind]}))
        if unread:
            raise ValueError(f"fuzzifier kind {kind!r} takes no field " + ", ".join(unread))
        return FuzzifierSpec(kind, tuple(tuple(map(float, d[n])) for n in FUZZIFIER_KINDS[kind]))


def fit_fuzzifier(X: np.ndarray, kind: str = "minmax") -> FuzzifierSpec:
    """Fit per-attribute monotone maps on the (N, n) raw values X.

    min-max uses the per-attribute dataset min/max; logistic centres at
    the mean with steepness 1/std (std 0 falls back to steepness 1).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2 and len(X) and not X.shape[1]:
        raise ValueError("cannot fit a fuzzifier on zero attributes")
    if X.size == 0:
        raise ValueError("cannot fit a fuzzifier on an empty dataset")
    if X.ndim != 2:
        raise ValueError(f"expected an (N, n) array of rows, got shape {X.shape}")
    if kind == "minmax":
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        for j in np.nonzero(lo == hi)[0]:
            warnings.warn(
                f"attribute {j + 1} is constant ({lo[j]}); degree fixed at 1",
                stacklevel=2,
            )
        return FuzzifierSpec("minmax", (tuple(lo), tuple(hi)))
    if kind == "logistic":
        mid = X.mean(axis=0)
        std = X.std(axis=0)
        steep = np.where(std > 0, 1.0 / np.where(std > 0, std, 1.0), 1.0)
        return FuzzifierSpec("logistic", (tuple(mid), tuple(steep)))
    raise ValueError(f"unknown fuzzifier kind {kind!r}")


def fuzzify(X: np.ndarray, spec: FuzzifierSpec) -> np.ndarray:
    """Map raw values of shape (..., n) to degrees in [0,1] of the same
    shape; out-of-range values clamp."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (spec.arity,):
        raise ValueError(
            f"raw values of shape {X.shape}, fuzzifier expects {spec.arity} attributes"
        )
    if spec.kind == "minmax":
        lo, hi = map(np.asarray, spec.params)
        span = hi - lo
        degrees = np.where(span > 0, (X - lo) / np.where(span > 0, span, 1.0), 1.0)
    else:
        mid, steep = map(np.asarray, spec.params)
        degrees = 1.0 / (1.0 + np.exp(-steep * (X - mid)))
    return np.clip(degrees, 0.0, 1.0)


def _is_int(x) -> bool:
    """A Python or numpy integer and not a bool, which would read as 0 or 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A Python or numpy integer or float and not a bool; a string is not a number."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _distinct_ints(xs) -> bool:
    """A list, tuple, range or 1-D array of indices under the integer rule, each once."""
    return (isinstance(xs, (list, tuple, range, np.ndarray)) and getattr(xs, "ndim", 1) == 1
            and all(map(_is_int, xs)) and len(set(xs)) == len(xs))


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
    _BLOCK_VALUES minterm values: within a block, level j+1 (attributes
    1..j+1) is made from level j with two strided products, level * (1 - m_j)
    and level * m_j, into a fresh array, and the last level into the output.
    Besides the output and the complements, at most two levels are alive."""
    n = np.shape(degrees)[-1]
    if n > MAX_ATTRIBUTES:
        raise ValueError(f"{n} attributes exceed the maximum of {MAX_ATTRIBUTES}")
    d = _degrees(degrees)
    rows = d.reshape(math.prod(d.shape[:-1]), n)
    complements = 1.0 - rows
    out = np.empty((len(rows), 2**n)) if n else np.ones((len(rows), 1))
    step = max(1, _BLOCK_VALUES >> n)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        level = np.ones((len(rows[block]), 1))
        for j in range(n):
            nxt = out[block] if j == n - 1 else np.empty((len(level), 2 * level.shape[1]))
            np.multiply(level, complements[block, j, None], out=nxt[:, 0::2])
            np.multiply(level, rows[block, j, None], out=nxt[:, 1::2])
            level = nxt
    return out.reshape(d.shape[:-1] + (2**n,))
