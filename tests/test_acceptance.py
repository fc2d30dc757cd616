"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import itertools
import math
from contextlib import contextmanager

import numpy as np

import annlogic as al
from annlogic.cli import load_dataset
from annlogic.encoding import fit_fuzzifier, fuzzify, minterm_transform
from annlogic.logiccode import BitTensor, ScaledCellWeights
from annlogic.network import TrainConfig
from conftest import (
    REF16_WEIGHTS,
    TWO_ATTR_WEIGHTS,
    random_minterm,
    random_simple_ann,
)
from oracles import compose_cell_weights, shapley_permutation_oracle

# Reference bit codes for the 16-weight golden test, MSB first.
REF16_BITS = (
    (1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 0), (0, 1, 1, 0),
    (0, 1, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1),
    (0, 1, 1, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 1, 0, 1),
    (0, 1, 0, 0), (0, 1, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0),
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {title}")


def identity_scaled(weights, tau=0.5):
    return ScaledCellWeights(tuple(weights), tau)


def test_criterion_01_reference_weight_table():
    with criterion(1, "16-weight golden table: bits, counts, energies"):
        sw = identity_scaled(REF16_WEIGHTS)
        bt = al.bitcode(sw, 3)
        for k in range(16):
            got = tuple(bt.bits[b][k] for b in range(4))
            assert got == REF16_BITS[k], f"bit code mismatch at minterm {k}"
        report = al.energy_report(sw, bt)
        assert abs(report.weight_sum - 9.46) <= 0.005
        assert [l.set_bits for l in report.levels] == [1, 11, 8, 6]
        assert report.bitcode_sum == 9.25
        # Reference row, rounded to whole percent.  Each entry is
        # 2^-bcl * set_bits / weight_sum * 100: the first three (11, 58, 21)
        # fit within +-0.5 only for a denominator in [9.402, 9.524], which
        # holds the weight sum 9.456 and not the bit-code sum 9.25.  The
        # 2^-3 entry is then 0.125 * 6 / 9.456 * 100 = 7.93, i.e. 8.
        expected_rel = (11.0, 58.0, 21.0, 8.0)
        table_sum = math.fsum(REF16_WEIGHTS)
        for bcl, (level, want, count) in enumerate(
            zip(report.levels, expected_rel, (1, 11, 8, 6))
        ):
            assert abs(level.relative_percent - want) <= 0.5, (
                f"level {level.bcl} relative energy {level.relative_percent:.2f}%"
                f" vs reference {want}%"
            )
            exact = 2.0**-bcl * count / table_sum * 100.0
            assert abs(level.relative_percent - exact) <= 1e-9, (
                f"level {bcl} relative energy {level.relative_percent!r}%"
                f" vs table formula {exact!r}%"
            )
        total = math.fsum(l.relative_percent for l in report.levels)
        assert abs(total - 9.25 / table_sum * 100.0) <= 1e-9


def test_criterion_02_projection_table():
    with criterion(2, "two-attribute projection golden table"):
        projected = al.project(al.CellWeights(REF16_WEIGHTS), [0, 1])
        sw = al.scale_weights(projected, 0.5)
        for got, want in zip(sw.weights, (1.0, 0.44, 0.53, 0.0)):
            assert abs(got - want) <= 0.005
        bt = al.bitcode(sw, 3)
        codes = [tuple(bt.bits[b][k] for b in range(4)) for k in range(4)]
        assert codes == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)]
        report = al.energy_report(sw, bt)
        for level, want in zip(report.levels, (51.0, 51.0, 0.0, 0.0)):
            assert abs(level.relative_percent - want) <= 1.0


def test_criterion_03_two_attribute_bitcodes_and_level_forms():
    with criterion(3, "two-attribute bit codes and level closed forms"):
        sw = identity_scaled(TWO_ATTR_WEIGHTS)
        bt = al.bitcode(sw, 3)
        assert tuple(bt.bits[b][1] for b in range(4)) == (0, 0, 1, 1)  # 0.4
        assert tuple(bt.bits[b][3] for b in range(4)) == (0, 1, 1, 0)  # 0.8
        # documented deviations: nearest rounding of 0.9 and 0.7
        assert bt.reconstruction()[0] == 0.875
        assert bt.reconstruction()[2] == 0.75
        # the reference example tensor and its four closed forms
        reference = BitTensor(
            ((1, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
        )
        forms = [
            lambda a, b: (1 - a) * (1 - b),
            lambda a, b: a,
            lambda a, b: b,
            lambda a, b: (1 - a) * b + a * (1 - b),
        ]
        grid = np.linspace(0, 1, 5)
        for bcl, form in enumerate(forms):
            e = al.level_expression(reference, bcl)
            for a in grid:
                for b in grid:
                    mt = minterm_transform([a, b])
                    assert math.isclose(
                        al.eval_expression(e, mt), form(a, b), abs_tol=1e-9
                    )


def test_criterion_04_shapley():
    with criterion(4, "Shapley golden values, efficiency, oracle agreement"):
        result = al.shapley(al.CellWeights(TWO_ATTR_WEIGHTS))
        assert result.shape == (2,)
        assert math.isclose(result[0], 0.1, abs_tol=1e-12)
        assert math.isclose(result[1], -0.2, abs_tol=1e-12)
        rng = np.random.default_rng(42)
        for _ in range(100):
            w = tuple(rng.normal(size=8))
            r = al.shapley(al.CellWeights(w))
            assert math.isclose(r.sum(), w[7] - w[0], abs_tol=1e-9)
        for n in (2, 3, 4):
            for _ in range(5):
                w = tuple(rng.normal(size=2**n))
                got = al.shapley(al.CellWeights(w))
                want = shapley_permutation_oracle(w, n)
                assert all(
                    math.isclose(g, x, abs_tol=1e-9) for g, x in zip(got, want)
                )


def test_criterion_05_cell_map_equivalence():
    with criterion(5, "cell linear maps match the network; composition"):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            l = int(rng.integers(1, 4))
            ann = random_simple_ann(
                rng, n, l,
                extra_pre=bool(rng.integers(2)), extra_post=bool(rng.integers(2)),
            )
            singles = [
                al.extract_cell_weights(ann, al.CellId(1 << m, l))
                for m in range(l)
            ]
            for _ in range(50):
                mt = random_minterm(rng, n)
                cell = al.cell_number(al.relu_status(ann, mt))
                cw = al.extract_cell_weights(ann, cell)
                assert abs(
                    float(np.dot(cw.weights, mt))
                    - al.forward(ann, mt)
                ) < 1e-9
            for p in range(2**l):
                composed = compose_cell_weights(singles, al.CellId(p, l))
                direct = al.extract_cell_weights(ann, al.CellId(p, l))
                assert np.allclose(
                    composed.weights, direct.weights, atol=1e-9
                )
        # two-node identity: cell 11 weights = cell 10 + cell 01
        ann = random_simple_ann(rng, 2, 2)
        w11 = al.extract_cell_weights(ann, al.CellId(3, 2)).weights
        w10 = al.extract_cell_weights(ann, al.CellId(2, 2)).weights
        w01 = al.extract_cell_weights(ann, al.CellId(1, 2)).weights
        assert np.allclose(w11, w10 + w01, atol=1e-9)


def test_criterion_06_minterm_normalization():
    with criterion(6, "minterm values sum to 1"):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            mt = minterm_transform(rng.uniform(0, 1, n))
            assert math.isclose(mt.sum(), 1.0, abs_tol=1e-9)


def test_criterion_07_bit_approximation_bound():
    with criterion(7, "bit-approximation worst-case error bound"):
        rng = np.random.default_rng(45)
        for bcl_max in (1, 2, 3, 4):
            for _ in range(250):
                n = int(rng.integers(1, 4))
                w = tuple(rng.uniform(0, 1, 2**n))
                bt = al.bitcode(identity_scaled(w), bcl_max)
                mt = random_minterm(rng, n)
                exact = float(np.dot(w, mt))
                err = abs(al.approx_forward(bt, mt) - exact)
                assert err <= 2 ** -(bcl_max + 1) + 1e-9


def test_criterion_08_qldt_equivalence():
    with criterion(8, "tree evaluation equals expression evaluation"):
        grid2 = [0.0, 0.3, 0.5, 0.8, 1.0]
        for bits in itertools.product((0, 1), repeat=4):
            e = al.LogicExpressionBits(bits)
            tree = al.build_qldt(e)
            for a in grid2:
                for b in grid2:
                    f = (a, b)
                    want = al.eval_expression(e, minterm_transform(f))
                    assert abs(al.eval_qldt(tree, f) - want) < 1e-9
        rng = np.random.default_rng(46)
        for n in (3, 4):
            for _ in range(100):
                bits = tuple(int(b) for b in rng.integers(0, 2, 2**n))
                e = al.LogicExpressionBits(bits)
                tree = al.build_qldt(e)
                for _ in range(4):
                    f = rng.uniform(0, 1, n)
                    want = al.eval_expression(e, minterm_transform(f))
                    assert abs(al.eval_qldt(tree, f) - want) < 1e-9
        # the worked two-attribute tree formula
        tree = al.build_qldt(al.LogicExpressionBits((0, 1, 1, 1)))
        for m1, m2 in [(0.2, 0.7), (0.0, 1.0), (0.5, 0.5), (0.9, 0.1)]:
            want = m2 + (1 - m2) * m1
            got = al.eval_qldt(tree, (m1, m2))
            assert math.isclose(got, want, abs_tol=1e-9)


def test_criterion_09_hypothesis_metrics():
    with criterion(9, "hypothesis comparison metrics"):
        names = ["a", "b"]
        e = al.parse_hypothesis("a", names)
        h = al.parse_hypothesis("a or b", names)
        m = al.compare(e, e)
        assert m.accuracy == 1.0 and m.equivalent
        m = al.compare(e, h)
        assert (m.v11, m.v10, m.v01, m.v00) == (2, 0, 1, 1)
        assert m.accuracy == 0.75
        assert m.implies_forward
        rng = np.random.default_rng(47)
        for _ in range(50):
            x = al.LogicExpressionBits(rng.integers(0, 2, 8))
            y = al.LogicExpressionBits(rng.integers(0, 2, 8))
            m = al.compare(x, y)
            assert m.v11 + m.v10 + m.v01 + m.v00 == 8


def test_criterion_10_end_to_end(banknote_csv):
    with criterion(10, "end-to-end: train, partition, level accuracy"):
        names, X, y = load_dataset(banknote_csv, "label")
        mts = minterm_transform(fuzzify(X, fit_fuzzifier(X)))
        ann, acc = al.train(
            mts, y, 3, TrainConfig(learning_rate=1.0, epochs=2000, seed=0)
        )
        print(f"  training accuracy: {acc:.4f}")
        assert acc >= 0.95
        rows = al.partition_dataset(ann, mts, y)
        print(f"  non-empty cells: {len(rows)}")
        for row in rows:
            print(f"    {row.cell}: label1={row.count_label1} label0={row.count_label0}")
        assert 2 <= len(rows) <= 8
        # most class-1-pure non-empty cell
        best = max(rows, key=lambda r: (r.count_label1 / r.total, r.total))
        cw = al.extract_cell_weights(ann, best.cell)
        sw = al.scale_weights(cw, ann.threshold)
        bt = al.bitcode(sw, 3)
        members = (al.relu_status(ann, mts) == best.cell.bits).all(axis=1)
        tau = sw.threshold
        exact = (mts[members] @ sw.weights > tau) == y[members].astype(bool)
        exact_acc = np.count_nonzero(exact) / np.count_nonzero(members)
        cumulative = []
        for bcl in range(4):
            cumulative.append(bcl)
            lvl_acc = al.level_accuracy(bt, sw.threshold, mts[members], y[members], cumulative)
            print(f"  cell {best.cell} accuracy levels 0..{bcl}: {lvl_acc:.4f}")
        assert abs(lvl_acc - exact_acc) <= 0.03
