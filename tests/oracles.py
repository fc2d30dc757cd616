"""Scalar reference implementations that loop over minterm indices, and
the hypothesis strategy for the weight vectors they are compared on.

The package computes these on the (2,)*n weight and truth tensors; the
tests compare it against the plain loops below.  Minterm index k holds
attribute j (0-based) on bit n-1-j, so attribute 1 is the most
significant bit.  The benchmark imports tests/conftest.py for its
banknote data, so hypothesis is imported here and not there.
"""

import itertools
import math

from hypothesis import strategies as st

from annlogic.analysis import And, Atom, Not, Or, Xor
from annlogic.qldt import Leaf, Split


def weight_vectors(max_n):
    """Finite minterm-weight tuples of length 2^n, n = 1 .. max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=2**n, max_size=2**n
        ).map(tuple)
    )


def bit(k, j, n):
    return (k >> (n - 1 - j)) & 1


def shapley_permutation_oracle(weights, n):
    """Average marginal contribution over all n! attribute orderings."""

    def v(subset):
        k = 0
        for j in subset:
            k |= 1 << (n - 1 - j)
        return weights[k]

    totals = [0.0] * n
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        so_far = set()
        for j in perm:
            before = v(so_far)
            so_far.add(j)
            totals[j] += v(so_far) - before
    return [t / len(perms) for t in totals]


def project_loop(weights, n, keep):
    """Add each minterm's weight into the minterm of its kept bits."""
    kept = sorted(keep)
    m = len(kept)
    out = [0.0] * 2**m
    for k in range(2**n):
        kappa = 0
        for pos, j in enumerate(kept):
            kappa |= bit(k, j, n) << (m - 1 - pos)
        out[kappa] += weights[k]
    return out


def bitcode_loop(weights, bcl_max):
    """bits[bcl][k] of round(w * 2^bcl_max), ties up, MSB-first."""
    quantized = [math.floor(w * 2**bcl_max + 0.5) for w in weights]
    return tuple(
        tuple((q >> (bcl_max - bcl)) & 1 for q in quantized)
        for bcl in range(bcl_max + 1)
    )


def eval_bool(ast, assignment):
    if isinstance(ast, Atom):
        return assignment[ast.name]
    if isinstance(ast, Not):
        return not eval_bool(ast.child, assignment)
    if isinstance(ast, And):
        return eval_bool(ast.left, assignment) and eval_bool(ast.right, assignment)
    if isinstance(ast, Or):
        return eval_bool(ast.left, assignment) or eval_bool(ast.right, assignment)
    if isinstance(ast, Xor):
        return eval_bool(ast.left, assignment) != eval_bool(ast.right, assignment)
    raise TypeError(f"not an AST node: {ast!r}")


def truth_table_loop(ast, names):
    """One assignment dict per minterm; a repeated name keeps its last bit."""
    n = len(names)
    return tuple(
        int(eval_bool(ast, {name: bool(bit(k, j, n)) for j, name in enumerate(names)}))
        for k in range(2**n)
    )


def _entropy(pos, total):
    if total == 0 or pos in (0, total):
        return 0.0
    p = pos / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def qldt_rows(active, n):
    """ID3 over the list of (minterm index, active) rows."""
    return _grow([(k, active[k]) for k in range(2**n)], n, frozenset())


def _grow(rows, n, used):
    pos = sum(y for _, y in rows)
    if pos == 0:
        return Leaf(False)
    if pos == len(rows):
        return Leaf(True)
    base = _entropy(pos, len(rows))
    best_gain, best_attr = -1.0, -1
    for j in range(n):
        if j in used:
            continue
        lo = [(k, y) for k, y in rows if not bit(k, j, n)]
        hi = [(k, y) for k, y in rows if bit(k, j, n)]
        gain = base
        for part in (lo, hi):
            gain -= len(part) / len(rows) * _entropy(sum(y for _, y in part), len(part))
        if gain > best_gain + 1e-12:
            best_gain, best_attr = gain, j
    j = best_attr
    lo = _grow([(k, y) for k, y in rows if not bit(k, j, n)], n, used | {j})
    hi = _grow([(k, y) for k, y in rows if bit(k, j, n)], n, used | {j})
    if lo == hi:
        return lo
    return Split(j, lo, hi)
