import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.encoding import minterm_transform
from annlogic.logiccode import (
    BitTensor,
    LogicExpressionBits,
    ScaledCellWeights,
    approx_forward,
    bitcode,
    energy_report,
    eval_expression,
    level_accuracy,
    level_expression,
    project,
    scale_weights,
)
from annlogic.partition import CellWeights
from conftest import REF16_WEIGHTS, random_minterm
from oracles import (
    BITS,
    FINITE,
    UNIT,
    bit_tensor_ok,
    bitcode_loop,
    cell_weights_ok,
    expression_bits_ok,
    odd_arrays,
    project_loop,
    scaled_weights_ok,
    weight_vectors,
)


def scaled(weights, tau=0.5):
    return ScaledCellWeights(tuple(weights), tau)


class TestScaleWeights:
    def test_degenerate_all_equal(self):
        sw = scale_weights(CellWeights((2.5, 2.5, 2.5, 2.5)), 1.0)
        assert np.array_equal(sw.weights, (1.0, 1.0, 1.0, 1.0))

    def test_projected_reference_weights(self):
        sw = scale_weights(CellWeights((3.357, 2.262, 2.440, 1.397)), 0.5)
        assert sw.weights == pytest.approx((1.0, 0.441, 0.532, 0.0), abs=5e-4)

    def test_order_preserving(self):
        rng = np.random.default_rng(0)
        w = tuple(rng.normal(size=8))
        sw = scale_weights(CellWeights(w), 0.0)
        for i in range(8):
            for j in range(8):
                if w[i] < w[j]:
                    assert sw.weights[i] < sw.weights[j]

    def test_sign_preservation_vs_threshold(self):
        # scaled comparison against the scaled threshold matches unscaled
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = tuple(rng.normal(size=4))
            tau = float(rng.normal())
            sw = scale_weights(CellWeights(w), tau)
            mt = random_minterm(rng, 2)
            raw = float(np.dot(w, mt))
            scl = float(np.dot(sw.weights, mt))
            assert (raw > tau) == (scl > sw.threshold) or (
                math.isclose(raw, tau, abs_tol=1e-12)
            )
        # constant cells (cell 0 is the zero map): the scaled evaluation is
        # sum(minterms) = 1 up to rounding, on either side of 1
        rows = minterm_transform(rng.uniform(0, 1, (200, 3)))
        for c, tau in ((0.0, -0.4), (0.0, 0.4), (-1.3, -2.0), (0.7, 1.1), (2.0, 0.0)):
            sw = scale_weights(CellWeights((c,) * 8), tau)
            scl = rows @ sw.weights
            assert ((scl > sw.threshold) == (c > tau)).all()


class TestBitcode:
    @pytest.mark.parametrize(
        "weight,bits",
        [
            (0.918, (0, 1, 1, 1)),
            (0.291, (0, 0, 1, 0)),
            (1.0, (1, 0, 0, 0)),
            (0.4, (0, 0, 1, 1)),
            (0.8, (0, 1, 1, 0)),
        ],
    )
    def test_reference_rows(self, weight, bits):
        bt = bitcode(scaled((weight, 0.0)), 3)
        assert tuple(bt.bits[b][0] for b in range(4)) == bits

    def test_ties_round_up(self):
        # exactly halfway: 5.5/8 -> 6/8 and 4.5/8 -> 5/8 (half to even gives 4/8)
        for w, bits in ((0.6875, (0, 1, 1, 0)), (0.5625, (0, 1, 0, 1))):
            bt = bitcode(scaled((w, 0.0)), 3)
            assert tuple(bt.bits[b][0] for b in range(4)) == bits

    def test_full_table(self):
        sw = scaled(REF16_WEIGHTS)
        bt = bitcode(sw, 3)
        recon = bt.reconstruction()
        for w, r in zip(REF16_WEIGHTS, recon):
            assert abs(r - w) <= 2 ** -4 + 1e-12

    def test_reconstruction_error_bound(self):
        rng = np.random.default_rng(2)
        for bcl_max in (0, 1, 2, 3, 4):
            w = tuple(rng.uniform(0, 1, 16))
            bt = bitcode(scaled(w), bcl_max)
            recon = bt.reconstruction()
            assert np.all(np.abs(recon - np.array(w)) <= 2 ** -(bcl_max + 1) + 1e-12)

    def test_out_of_range_weight(self):
        with pytest.raises(ValueError):
            ScaledCellWeights((1.2, 0.0), 0.5)

    @pytest.mark.parametrize("bcl_max", [-1, 53, 2000])
    def test_bcl_max_out_of_range(self, bcl_max):
        with pytest.raises(ValueError, match="0..52"):
            bitcode(scaled((0.3, 1.0)), bcl_max)

    @settings(deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(st.floats(0, 1), min_size=2**n, max_size=2**n)
        ),
        st.integers(0, 52),
    )
    def test_matches_loop_within_error_bound(self, w, bcl_max):
        bt = bitcode(scaled(w), bcl_max)
        assert np.array_equal(bt.bits, bitcode_loop(w, bcl_max))
        assert np.all(np.abs(bt.reconstruction() - w) <= 2.0 ** -(bcl_max + 1))


class TestLevelExpression:
    # the reference two-attribute example tensor (codes 1000/0011/0101/0110)
    EXAMPLE = BitTensor(((1, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)))

    def test_top_level(self):
        assert np.flatnonzero(level_expression(self.EXAMPLE, 0).active).tolist() == [0]

    def test_xor_level(self):
        assert np.flatnonzero(level_expression(self.EXAMPLE, 3).active).tolist() == [1, 2]

    def test_empty_slice(self):
        bt = BitTensor(((0, 0, 0, 0),))
        assert not level_expression(bt, 0).active.any()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            level_expression(self.EXAMPLE, 4)


class TestEvalExpression:
    def test_all_active_sums_to_one(self):
        rng = np.random.default_rng(3)
        mt = random_minterm(rng, 3)
        e = level_expression(BitTensor(((1,) * 8,)), 0)
        assert eval_expression(e, mt) == pytest.approx(1.0, abs=1e-12)

    def test_conjunction(self):
        m1, m2 = 0.7, 0.2
        mt = minterm_transform([m1, m2])
        e = level_expression(BitTensor(((0, 0, 1, 0),)), 0)  # a and not b
        assert eval_expression(e, mt) == pytest.approx(m1 * (1 - m2), abs=1e-12)

    def test_equivalent_to_atom(self):
        mt = minterm_transform([0.2, 0.5])
        e = level_expression(BitTensor(((0, 1, 0, 1),)), 0)  # {ab-, ab} == b
        assert eval_expression(e, mt) == pytest.approx(0.5, abs=1e-12)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, 8))
            e = level_expression(BitTensor((bits,)), 0)
            mt = random_minterm(rng, 3)
            total = eval_expression(e, mt) + eval_expression(LogicExpressionBits(~e.active), mt)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(11)
        e = level_expression(BitTensor((tuple(int(b) for b in rng.integers(0, 2, 8)),)), 0)
        mt = minterm_transform(rng.uniform(0, 1, (30, 3)))
        got = eval_expression(e, mt)
        assert got.shape == (30,)
        assert got == pytest.approx([eval_expression(e, row) for row in mt], abs=1e-12)

    def test_length_mismatch(self):
        e = level_expression(BitTensor(((0, 1, 0, 1),)), 0)
        with pytest.raises(ValueError):
            eval_expression(e, minterm_transform([0.2, 0.5, 0.5]))


class TestApproxForward:
    def test_equals_reconstruction_dot(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = tuple(rng.uniform(0, 1, 8))
            bt = bitcode(scaled(w), 3)
            mt = random_minterm(rng, 3)
            want = float(np.dot(bt.reconstruction(), mt))
            assert approx_forward(bt, mt) == pytest.approx(want, abs=1e-12)

    def test_error_bound_vs_exact(self):
        rng = np.random.default_rng(6)
        for bcl_max in (1, 2, 3, 4):
            for _ in range(25):
                w = tuple(rng.uniform(0, 1, 8))
                bt = bitcode(scaled(w), bcl_max)
                mt = random_minterm(rng, 3)
                exact = float(np.dot(w, mt))
                err = abs(approx_forward(bt, mt) - exact)
                assert err <= 2 ** -(bcl_max + 1) + 1e-9

    def test_empty_level_set(self):
        bt = bitcode(scaled((0.5, 0.5)), 2)
        rng = np.random.default_rng(7)
        assert approx_forward(bt, random_minterm(rng, 1), []) == 0.0

    def test_level_out_of_range(self):
        bt = bitcode(scaled((0.5, 0.5)), 2)
        with pytest.raises(ValueError):
            approx_forward(bt, minterm_transform([0.5]), [0, 3])

    def test_batch_is_sum_of_level_evaluations(self):
        rng = np.random.default_rng(12)
        bt = bitcode(scaled(tuple(rng.uniform(0, 1, 8))), 3)
        mt = minterm_transform(rng.uniform(0, 1, (30, 3)))
        for levels in ([0], [1, 3], [0, 1, 2, 3]):
            want = sum(2.0**-b * eval_expression(level_expression(bt, b), mt) for b in levels)
            assert approx_forward(bt, mt, levels) == pytest.approx(want, abs=1e-12)


class TestEnergyReport:
    def test_reference_table(self):
        sw = scaled(REF16_WEIGHTS)
        report = energy_report(sw, bitcode(sw, 3))
        assert report.weight_sum == pytest.approx(9.456, abs=1e-9)
        assert [l.set_bits for l in report.levels] == [1, 11, 8, 6]
        assert report.bitcode_sum == 9.25
        rel = [l.relative_percent for l in report.levels]
        assert rel[0] == pytest.approx(10.58, abs=0.005)
        assert rel[1] == pytest.approx(58.16, abs=0.005)
        assert rel[2] == pytest.approx(21.15, abs=0.005)
        assert rel[3] == pytest.approx(7.93, abs=0.005)

    def test_degenerate_zero_weights(self):
        sw = scaled((0.0, 0.0, 0.0, 0.0))
        report = energy_report(sw, bitcode(sw, 3))
        assert report.degenerate
        assert report.weight_sum == 0.0
        assert all(l.relative_percent == 0.0 for l in report.levels)

    def test_single_full_weight(self):
        sw = scaled((1.0,) + (0.0,) * 3)
        report = energy_report(sw, bitcode(sw, 3))
        assert report.levels[0].relative_percent == pytest.approx(100.0)


class TestLevelAccuracy:
    def test_exact_weights_match_exact_classifier(self):
        # weights representable exactly at bcl_max=3
        w = (0.875, 0.25, 0.5, 0.0)
        sw = scaled(w, tau=0.4)
        bt = bitcode(sw, 3)
        rng = np.random.default_rng(8)
        mt = minterm_transform(rng.uniform(0, 1, (50, 2)))
        labels = (mt @ np.array(w) > 0.4).astype(int)
        assert level_accuracy(bt, sw.threshold, mt, labels) == 1.0

    def test_single_attribute_toy(self):
        w = (0.0, 1.0)
        sw = scaled(w, tau=0.5)
        bt = bitcode(sw, 3)
        d = np.linspace(0, 1, 21)
        mt = minterm_transform(d[:, None])
        assert level_accuracy(bt, sw.threshold, mt, (d > 0.5).astype(int), [0]) == 1.0

    def test_empty_samples(self):
        sw = scaled((0.5, 0.5))
        with pytest.raises(ValueError):
            level_accuracy(bitcode(sw, 3), sw.threshold, np.empty((0, 2)), [])


class TestProject:
    def test_reference_projection(self):
        cw = CellWeights(REF16_WEIGHTS)
        projected = project(cw, [0, 1])
        assert projected.weights == pytest.approx(
            (3.357, 2.262, 2.440, 1.397), abs=1e-9
        )
        sw = scale_weights(projected, 0.5)
        assert sw.weights == pytest.approx((1.0, 0.44, 0.53, 0.0), abs=5e-3)

    def test_keep_all_identity(self):
        rng = np.random.default_rng(9)
        w = tuple(rng.normal(size=8))
        assert project(CellWeights(w), [0, 1, 2]).weights == pytest.approx(w)

    def test_keep_first_of_two(self):
        w = (1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(project(CellWeights(w), [0]).weights, (3.0, 7.0))

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            project(CellWeights((1.0, 2.0)), [])

    def test_marginal_consistency(self):
        # projecting weights then evaluating on the reduced minterms equals
        # evaluating the original weights on the full minterms
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = tuple(rng.normal(size=8))
            keep = [0, 2]
            projected = project(CellWeights(w), keep)
            degrees = tuple(rng.uniform(0, 1, 3))
            full = minterm_transform(degrees)
            reduced = minterm_transform([degrees[j] for j in keep])
            # dropped attribute marginalized at its actual degree on both sides
            # requires summing full products over the dropped attribute; with
            # the dropped degree free this holds only for weights constant in
            # that attribute, so make them so:
            wc = list(w)
            n = 3
            for k in range(8):
                if (k >> (n - 1 - 1)) & 1:
                    wc[k] = wc[k & ~(1 << (n - 1 - 1))]
            projected_c = project(CellWeights(tuple(wc)), keep)
            lhs = float(np.dot(projected_c.weights / 2.0, reduced))
            rhs = float(np.dot(wc, full))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @settings(deadline=None)
    @given(weight_vectors(5), st.data())
    def test_matches_loop_and_keeps_weight_sum(self, w, data):
        n = len(w).bit_length() - 1
        keep = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        projected = project(CellWeights(w), keep).weights
        assert projected == pytest.approx(project_loop(w, n, keep), abs=1e-9)
        assert math.isclose(sum(projected), sum(w), abs_tol=1e-9)


class TestArrayValueTypes:
    """Each value type checks its array with one vector test; the scalar
    predicates in tests/oracles.py decide the same inputs element by
    element."""

    @staticmethod
    def accepts(make, *args):
        try:
            make(*args)
        except ValueError:
            return False
        return True

    @given(odd_arrays(FINITE, 1, (0, 2)))
    def test_cell_weights_rule(self, values):
        assert self.accepts(CellWeights, values) == cell_weights_ok(values)

    @given(odd_arrays(UNIT, 1, (0, 2)))
    def test_scaled_weights_rule(self, values):
        assert self.accepts(ScaledCellWeights, values, 0.5) == scaled_weights_ok(values)

    @given(odd_arrays(BITS, 2, (1, 3), max_len=9))
    def test_bit_tensor_rule(self, rows):
        assert self.accepts(BitTensor, rows) == bit_tensor_ok(rows)

    @given(odd_arrays(BITS, 1, (0, 2)))
    def test_expression_bits_rule(self, active):
        assert self.accepts(LogicExpressionBits, active) == expression_bits_ok(active)

    def test_arrays_are_read_only_copies(self):
        source = np.array([0.0, 0.25, 1.0, 0.5])
        cw = CellWeights(source)
        sw = ScaledCellWeights(source, 0.5)
        bt = bitcode(sw, 2)
        e = level_expression(bt, 0)
        source[0] = 0.75
        assert cw.weights[0] == sw.weights[0] == 0.0
        assert (cw.weights.dtype, sw.weights.dtype) == (np.float64, np.float64)
        assert (bt.bits.dtype, bt.bits.shape) == (np.uint8, (3, 4))
        assert (e.active.dtype, e.active.shape) == (np.bool_, (4,))
        for array in (cw.weights, sw.weights, bt.bits, e.active):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
