import csv
from pathlib import Path

import numpy as np
import pytest

# Reference weights used across golden tests (already in [0,1],
# with 0 and 1 attained, so min-max rescaling is the identity on them).
REF16_WEIGHTS = (
    1.0, 0.918, 0.688, 0.751, 0.625, 0.546, 0.660, 0.431,
    0.783, 0.731, 0.291, 0.635, 0.525, 0.613, 0.0, 0.259,
)

TWO_ATTR_WEIGHTS = (0.9, 0.4, 0.7, 0.8)


def synthetic_banknote(path: Path, rows: int = 1220, seed: int = 7) -> Path:
    """Deterministic 4-attribute stand-in for the banknote CSV: the label
    is a thresholded multilinear function of the min-max degrees, so a
    minterm-input network can separate it."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-5.0, 5.0, size=(rows, 4))
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    deg = (data - lo) / (hi - lo)
    score = (1 - deg[:, 0]) * (1 - deg[:, 1]) + 0.5 * deg[:, 2] * (1 - deg[:, 3])
    labels = (score > 0.45).astype(int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "s", "c", "e", "label"])
        for row, y in zip(data, labels):
            writer.writerow([f"{x:.6f}" for x in row] + [y])
    return path


@pytest.fixture(scope="session")
def banknote_csv(tmp_path_factory):
    """The real banknote CSV if one is dropped at tests/data/banknote.csv,
    else the deterministic synthetic stand-in."""
    local = Path(__file__).parent / "data" / "banknote.csv"
    if local.exists():
        return local
    return synthetic_banknote(tmp_path_factory.mktemp("data") / "banknote.csv")


def random_simple_ann(rng, n, l, extra_pre=False, extra_post=False):
    from annlogic.network import SimpleAnn

    size = 2**n
    pre = [rng.normal(size=(l, size))]
    if extra_pre:
        mid = rng.integers(2, 6)
        pre = [rng.normal(size=(mid, size)), rng.normal(size=(l, mid))]
    post = [rng.normal(size=(1, l))]
    if extra_post:
        mid = rng.integers(2, 4)
        post = [rng.normal(size=(mid, l)), rng.normal(size=(1, mid))]
    return SimpleAnn(tuple(pre), tuple(post), threshold=float(rng.normal()))


def random_minterm(rng, n):
    from annlogic.encoding import minterm_transform

    return minterm_transform(rng.uniform(0, 1, n))
