import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from annlogic.network import ReluStatus, SimpleAnn, forward, relu_status
from annlogic.partition import (
    CellId,
    CellWeights,
    cell_number,
    compose_cell_weights,
    extract_cell_weights,
    partition_dataset,
    shapley,
)
from conftest import random_minterm, random_simple_ann
from oracles import shapley_permutation_oracle, weight_vectors


class TestCellNumber:
    def test_table_row(self):
        assert cell_number(ReluStatus((0, 1, 0))).p == 2

    def test_all_active(self):
        assert cell_number(ReluStatus((1, 1, 1))).p == 7

    def test_all_inactive(self):
        assert cell_number(ReluStatus((0, 0, 0))).p == 0

    def test_empty(self):
        with pytest.raises(ValueError):
            cell_number(ReluStatus(()))

    def test_bijection(self):
        seen = set()
        for bits in itertools.product((0, 1), repeat=4):
            cell = cell_number(ReluStatus(bits))
            assert cell.bits == bits
            seen.add(cell.p)
        assert seen == set(range(16))


class TestPartitionDataset:
    def test_all_active_single_cell(self):
        ann = SimpleAnn((np.eye(4),), (np.ones((1, 4)),), 0.5)
        rng = np.random.default_rng(0)
        samples = [(random_minterm(rng, 2), int(rng.integers(2))) for _ in range(20)]
        report = partition_dataset(ann, samples)
        assert len(report.rows) == 1
        assert report.rows[0].cell.p == 2**4 - 1
        assert report.rows[0].total == 20

    def test_empty_dataset(self):
        ann = SimpleAnn((np.eye(4),), (np.ones((1, 4)),), 0.5)
        assert partition_dataset(ann, []).rows == ()

    def test_class_counts_conserved(self):
        rng = np.random.default_rng(1)
        ann = random_simple_ann(rng, 2, 3)
        samples = [(random_minterm(rng, 2), int(rng.integers(2))) for _ in range(60)]
        report = partition_dataset(ann, samples)
        assert sum(r.count_label1 for r in report.rows) == sum(
            y for _, y in samples
        )
        assert report.total == 60
        totals = [r.total for r in report.rows]
        assert totals == sorted(totals, reverse=True)


class TestExtractCellWeights:
    def test_cell_zero_is_zero_map(self):
        rng = np.random.default_rng(2)
        ann = random_simple_ann(rng, 2, 2)
        cw = extract_cell_weights(ann, CellId(0, 2))
        assert cw.weights == (0.0, 0.0, 0.0, 0.0)

    def test_single_node_cell_is_weight_product(self):
        w_in = np.array([[0.3, -0.2, 0.5, 0.1], [0.4, 0.6, -0.1, 0.2]])
        w_out = np.array([[2.0, 3.0]])
        ann = SimpleAnn((w_in,), (w_out,), 0.0)
        # node 2 active only: cell 01
        cw = extract_cell_weights(ann, CellId(1, 2))
        assert cw.weights == pytest.approx(tuple(3.0 * w_in[1]), abs=1e-12)

    def test_matches_forward_in_cell(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ann = random_simple_ann(rng, 2, 2, extra_pre=True, extra_post=True)
            mt = random_minterm(rng, 2)
            cell = cell_number(relu_status(ann, mt))
            cw = extract_cell_weights(ann, cell)
            assert math.isclose(
                float(np.dot(cw.as_array(), mt.as_array())),
                forward(ann, mt),
                abs_tol=1e-9,
            )

    def test_width_mismatch(self):
        rng = np.random.default_rng(4)
        ann = random_simple_ann(rng, 2, 2)
        with pytest.raises(ValueError):
            extract_cell_weights(ann, CellId(1, 3))


class TestComposeCellWeights:
    def singles(self, ann, l):
        return [
            extract_cell_weights(ann, CellId(1 << m, l)) for m in range(l)
        ]

    def test_two_node_sum(self):
        rng = np.random.default_rng(5)
        ann = random_simple_ann(rng, 2, 2)
        singles = self.singles(ann, 2)
        composed = compose_cell_weights(singles, CellId(3, 2))
        direct = extract_cell_weights(ann, CellId(3, 2))
        assert composed.weights == pytest.approx(direct.weights, abs=1e-9)

    def test_single_node_identity(self):
        rng = np.random.default_rng(6)
        ann = random_simple_ann(rng, 2, 3)
        singles = self.singles(ann, 3)
        composed = compose_cell_weights(singles, CellId(4, 3))
        assert composed.weights == pytest.approx(
            extract_cell_weights(ann, CellId(4, 3)).weights, abs=1e-12
        )

    def test_all_cells_match_extraction(self):
        rng = np.random.default_rng(7)
        ann = random_simple_ann(rng, 2, 3, extra_post=True)
        singles = self.singles(ann, 3)
        for p in range(8):
            composed = compose_cell_weights(singles, CellId(p, 3))
            direct = extract_cell_weights(ann, CellId(p, 3))
            assert composed.weights == pytest.approx(direct.weights, abs=1e-9)

    def test_missing_single(self):
        rng = np.random.default_rng(8)
        ann = random_simple_ann(rng, 2, 3)
        singles = self.singles(ann, 3)[:1]
        with pytest.raises(ValueError, match="missing"):
            compose_cell_weights(singles, CellId(7, 3))


class TestShapley:
    def test_worked_example(self):
        result = shapley(CellWeights((0.9, 0.4, 0.7, 0.8)))
        assert result.values[0] == pytest.approx(0.1, abs=1e-12)
        assert result.values[1] == pytest.approx(-0.2, abs=1e-12)

    def test_constant_weights(self):
        result = shapley(CellWeights((0.4,) * 8))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in result.values)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            for _ in range(10):
                w = tuple(rng.normal(size=2**n))
                got = shapley(CellWeights(w)).values
                want = shapley_permutation_oracle(w, n)
                assert got == pytest.approx(want, abs=1e-9)

    def test_efficiency(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            w = tuple(rng.normal(size=8))
            result = shapley(CellWeights(w))
            assert math.isclose(sum(result.values), w[7] - w[0], abs_tol=1e-9)

    @settings(deadline=None)
    @given(weight_vectors(5))
    def test_dividends_match_permutation_oracle(self, w):
        values = shapley(CellWeights(w)).values
        n = len(values)
        assert math.isclose(sum(values), w[-1] - w[0], abs_tol=1e-9)
        assert values == pytest.approx(shapley_permutation_oracle(w, n), abs=1e-9)
