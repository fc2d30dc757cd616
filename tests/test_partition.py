import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.encoding import minterm_transform
from annlogic.network import SimpleAnn, forward, relu_status
from annlogic.partition import (
    CellWeights,
    extract_cell_weights,
    partition_dataset,
    shapley,
)
from conftest import random_minterm, random_simple_ann
from oracles import (
    cell_number,
    compose_cell_weights,
    extract_cell_weights_eye,
    partition_rows,
    shapley_moebius,
    shapley_permutation_oracle,
    simple_anns,
    weight_vectors,
)


def random_rows(rng, n, count):
    """A (count, 2^n) minterm matrix and count random 0/1 labels."""
    return minterm_transform(rng.uniform(0, 1, (count, n))), rng.integers(0, 2, count)


@st.composite
def nets_and_rows(draw):
    """A small random network, with up to 12 ReLU nodes so that a packed
    status key can span two bytes, and up to 40 minterm rows with labels."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, l, count = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(0, 40))
    rng = np.random.default_rng(seed)
    ann = random_simple_ann(rng, n, l, extra_pre=draw(st.booleans()),
                            extra_post=draw(st.booleans()))
    return (ann,) + random_rows(rng, n, count)


@st.composite
def wide_nets_and_cells(draw):
    """A random network with up to 70 ReLU nodes, 1 to 30 minterm rows, and
    a cell number: either the oracle cell of one of the rows or any p < 2^l."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, l, count = draw(st.integers(1, 4)), draw(st.integers(1, 70)), draw(st.integers(1, 30))
    rng = np.random.default_rng(seed)
    ann = random_simple_ann(rng, n, l, extra_pre=draw(st.booleans()),
                            extra_post=draw(st.booleans()))
    mt, _ = random_rows(rng, n, count)
    cells = [cell_number(s) for s in relu_status(ann, mt)]
    p = draw(st.sampled_from(cells) | st.integers(0, 2**l - 1))
    return ann, mt, cells, p


def status_net(bits):
    """A network over n = 2 whose ReLU status on every minterm row is `bits`:
    node m's pre-activation is +1 or -1, since the minterm values sum to 1."""
    pre = np.array([[1.0 if b else -1.0] * 4 for b in bits])
    return SimpleAnn((pre,), (np.ones((1, len(bits))),), 0.5)


def cell_of(bits):
    """The one cell that partition_dataset reports for a row under status_net."""
    mt = minterm_transform(np.array([[0.3, 0.6]]))
    (p, _, _), = partition_dataset(status_net(bits), mt, np.array([1]))
    return p


class TestCellNumber:
    def test_table_row(self):
        assert cell_of((0, 1, 0)) == 2

    def test_all_active(self):
        assert cell_of((1, 1, 1)) == 7

    def test_all_inactive(self):
        assert cell_of((0, 0, 0)) == 0

    def test_bijection(self):
        seen = set()
        for bits in itertools.product((0, 1), repeat=4):
            p = cell_of(bits)
            assert format(p, "04b") == "".join(map(str, bits))
            seen.add(p)
        assert seen == set(range(16))

    @settings(deadline=None)
    @given(wide_nets_and_cells())
    def test_int_cell_matches_oracles(self, case):
        ann, mt, cells, p = case
        got = extract_cell_weights(ann, p).weights
        want = extract_cell_weights_eye(ann, p)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        rows = mt[[c == p for c in cells]]
        assert np.allclose(rows @ got, forward(ann, rows), atol=1e-9)

    def test_out_of_range(self):
        ann = random_simple_ann(np.random.default_rng(4), 2, 3)
        for p in (-1, 8, 2**70):
            with pytest.raises(ValueError, match=f"^cell number {p} out of range for l=3$"):
                extract_cell_weights(ann, p)

    @pytest.mark.parametrize("p", [True, np.bool_(True), 1.0, np.float64(2.0), "1", None])
    def test_cell_not_an_integer_rejected(self, p):
        ann = random_simple_ann(np.random.default_rng(4), 2, 3)
        with pytest.raises(ValueError, match="^cell number must be an integer$"):
            extract_cell_weights(ann, p)

    @pytest.mark.parametrize("l", [3, 300])
    def test_cell_takes_numpy_integers(self, l):
        # at l = 300 a uint8 cell's bits are read by shifts of up to 299
        ann = random_simple_ann(np.random.default_rng(4), 2, l)
        for p in (np.uint8(5), np.int64(7), np.uint64(6)):
            got = extract_cell_weights(ann, p).weights
            assert np.array_equal(got, extract_cell_weights(ann, int(p)).weights)


class TestPartitionDataset:
    def test_all_active_single_cell(self):
        ann = SimpleAnn((np.eye(4),), (np.ones((1, 4)),), 0.5)
        rng = np.random.default_rng(0)
        rows = partition_dataset(ann, *random_rows(rng, 2, 20))
        assert len(rows) == 1
        p, ones, zeros = rows[0]
        assert p == 2**4 - 1
        assert ones + zeros == 20

    def test_empty_dataset(self):
        ann = SimpleAnn((np.eye(4),), (np.ones((1, 4)),), 0.5)
        assert partition_dataset(ann, np.empty((0, 4)), np.empty(0, int)) == []

    def test_class_counts_conserved(self):
        rng = np.random.default_rng(1)
        ann = random_simple_ann(rng, 2, 3)
        mt, labels = random_rows(rng, 2, 60)
        rows = partition_dataset(ann, mt, labels)
        assert sum(ones for _, ones, _ in rows) == labels.sum()
        assert sum(ones + zeros for _, ones, zeros in rows) == 60
        totals = [ones + zeros for _, ones, zeros in rows]
        assert totals == sorted(totals, reverse=True)

    @settings(deadline=None)
    @given(nets_and_rows())
    def test_matches_row_loop(self, case):
        ann, mt, labels = case
        assert partition_dataset(ann, mt, labels) == partition_rows(ann, mt, labels)

    def test_more_than_64_status_bits(self):
        rng = np.random.default_rng(8)
        ann = random_simple_ann(rng, 3, 70)
        mt, labels = random_rows(rng, 3, 400)
        rows = partition_dataset(ann, mt, labels)
        assert rows == partition_rows(ann, mt, labels)
        assert len(rows) > 1 and max(p for p, _, _ in rows) >= 2**64
        assert {type(x) for row in rows for x in row} == {int}


class TestExtractCellWeights:
    def test_cell_zero_is_zero_map(self):
        rng = np.random.default_rng(2)
        ann = random_simple_ann(rng, 2, 2)
        cw = extract_cell_weights(ann, 0)
        assert np.array_equal(cw.weights, (0.0, 0.0, 0.0, 0.0))

    def test_single_node_cell_is_weight_product(self):
        w_in = np.array([[0.3, -0.2, 0.5, 0.1], [0.4, 0.6, -0.1, 0.2]])
        w_out = np.array([[2.0, 3.0]])
        ann = SimpleAnn((w_in,), (w_out,), 0.0)
        # node 2 active only: cell 01
        cw = extract_cell_weights(ann, 1)
        assert cw.weights == pytest.approx(tuple(3.0 * w_in[1]), abs=1e-12)

    def test_matches_forward_in_cell(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ann = random_simple_ann(rng, 2, 2, extra_pre=True, extra_post=True)
            mt = random_minterm(rng, 2)
            cell = cell_number(relu_status(ann, mt))
            cw = extract_cell_weights(ann, cell)
            assert math.isclose(
                float(np.dot(cw.weights, mt)),
                forward(ann, mt),
                abs_tol=1e-9,
            )

    @settings(deadline=None)
    @given(nets_and_rows())
    def test_cell_map_is_forward_on_cell_rows(self, case):
        ann, mt, _ = case
        status = relu_status(ann, mt)
        for bits in {tuple(row) for row in status.tolist()}:
            rows = mt[(status == bits).all(axis=1)]
            cw = extract_cell_weights(ann, cell_number(bits))
            assert np.allclose(rows @ cw.weights, forward(ann, rows), atol=1e-9)


    @settings(deadline=None)
    @given(simple_anns(max_n=4, max_layers=3))
    def test_matches_identity_matrix_oracle(self, ann):
        for p in range(2**ann.relu_count):
            want = extract_cell_weights_eye(ann, p)
            got = extract_cell_weights(ann, p).weights
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestComposeCellWeights:
    def singles(self, ann, l):
        return {1 << m: extract_cell_weights(ann, 1 << m) for m in range(l)}

    def test_two_node_sum(self):
        rng = np.random.default_rng(5)
        ann = random_simple_ann(rng, 2, 2)
        singles = self.singles(ann, 2)
        composed = compose_cell_weights(singles, 3)
        direct = extract_cell_weights(ann, 3)
        assert composed.weights == pytest.approx(direct.weights, abs=1e-9)

    def test_single_node_identity(self):
        rng = np.random.default_rng(6)
        ann = random_simple_ann(rng, 2, 3)
        singles = self.singles(ann, 3)
        composed = compose_cell_weights(singles, 4)
        assert composed.weights == pytest.approx(
            extract_cell_weights(ann, 4).weights, abs=1e-12
        )

    def test_all_cells_match_extraction(self):
        rng = np.random.default_rng(7)
        ann = random_simple_ann(rng, 2, 3, extra_post=True)
        singles = self.singles(ann, 3)
        for p in range(8):
            composed = compose_cell_weights(singles, p)
            direct = extract_cell_weights(ann, p)
            assert composed.weights == pytest.approx(direct.weights, abs=1e-9)

    @pytest.mark.parametrize("l", [8, 16])
    def test_whole_bytes_of_nodes(self, l):
        # l status bits fill whole bytes: no pad bit may become a node's bit
        rng = np.random.default_rng(l)
        ann = random_simple_ann(rng, 2, l, extra_post=True)
        singles = self.singles(ann, l)
        for p in (0, 1, 2**(l - 1), 2**l - 1, *map(int, rng.integers(0, 2**l, 20))):
            composed = compose_cell_weights(singles, p)
            direct = extract_cell_weights(ann, p)
            assert composed.weights == pytest.approx(direct.weights, abs=1e-9)

    def test_missing_single(self):
        rng = np.random.default_rng(8)
        ann = random_simple_ann(rng, 2, 3)
        singles = {1: self.singles(ann, 3)[1]}
        with pytest.raises(ValueError, match="missing"):
            compose_cell_weights(singles, 7)


class TestShapley:
    def test_worked_example(self):
        result = shapley(CellWeights((0.9, 0.4, 0.7, 0.8)))
        assert result.shape == (2,)
        assert result[0] == pytest.approx(0.1, abs=1e-12)
        assert result[1] == pytest.approx(-0.2, abs=1e-12)

    def test_constant_weights(self):
        result = shapley(CellWeights((0.4,) * 8))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in result)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            for _ in range(10):
                w = tuple(rng.normal(size=2**n))
                got = shapley(CellWeights(w))
                want = shapley_permutation_oracle(w, n)
                assert got == pytest.approx(want, abs=1e-9)

    def test_efficiency(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            w = tuple(rng.normal(size=8))
            result = shapley(CellWeights(w))
            assert math.isclose(result.sum(), w[7] - w[0], abs_tol=1e-9)

    @settings(deadline=None)
    @given(weight_vectors(5))
    def test_dividends_match_permutation_oracle(self, w):
        values = shapley(CellWeights(w))
        n = len(values)
        assert math.isclose(values.sum(), w[-1] - w[0], abs_tol=1e-9)
        assert values == pytest.approx(shapley_permutation_oracle(w, n), abs=1e-9)

    @settings(deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.floats(-1e5, 1e5), min_size=2**n, max_size=2**n)))
    def test_matches_moebius_oracle(self, w):
        tol = 1e-12 * max(1.0, max(map(abs, w)))
        assert shapley(CellWeights(w)) == pytest.approx(shapley_moebius(w), abs=tol)

    def test_no_attributes(self):
        values = shapley(CellWeights((0.5,)))
        assert values.shape == (0,)

    def test_finite_values_with_overflowing_differences(self):
        # every cofactor difference is +-2e308, but each value is 0
        values = shapley(CellWeights((-1e308, 1e308, 1e308, -1e308)))
        assert values.tolist() == [0.0, 0.0]

    def test_finite_values_with_overflowing_span(self):
        w = (1e308, -1e308, 0.0, 1.0)
        values = shapley(CellWeights(w))
        assert np.isfinite(values).all()
        assert math.isclose(values.sum(), w[3] - w[0], rel_tol=1e-12)
