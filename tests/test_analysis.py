import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.analysis import (
    HypothesisSyntaxError,
    UnknownAttributeError,
    compare,
    parse_hypothesis,
    trend_grid,
)
from annlogic.cli import main
from annlogic.encoding import minterm_transform
from annlogic.logiccode import BitTensor, LogicExpressionBits, approx_forward
from oracles import formulas, truth_table_loop

AB = ["a", "b"]
ABC = ["a", "b", "c"]


def active(text, names):
    return parse_hypothesis(text, names).active


class TestParser:
    """Precedence and associativity, pinned as truth tables over the
    minterms (attribute 1 on the most significant index bit)."""

    def test_not_parenthesized(self):
        assert np.array_equal(active("not (a and b)", AB), (1, 1, 1, 0))

    def test_double_operator(self):
        with pytest.raises(HypothesisSyntaxError) as exc:
            parse_hypothesis("a and and b", AB)
        assert exc.value.position == 3

    def test_aliases_and_case(self):
        assert np.array_equal(active("!a & b", AB), active("NOT a AND b", AB))

    def test_precedence(self):
        # (not a and b) or a; not binds tightest, then and
        assert np.array_equal(active("not a and b or a", AB), (0, 1, 1, 1))

    def test_and_binds_tighter_than_or(self):
        # a or (b and c)
        assert np.array_equal(active("a or b and c", ABC), (0, 0, 0, 1, 1, 1, 1, 1))

    def test_xor_binds_like_or_left_to_right(self):
        # (a or b) xor c, and (a xor b) or c
        assert np.array_equal(active("a or b xor c", ABC), (0, 1, 1, 0, 1, 0, 1, 0))
        assert np.array_equal(active("a xor b or c", ABC), (0, 1, 1, 1, 1, 1, 0, 1))

    def test_double_negation(self):
        assert np.array_equal(active("not not a", AB), (0, 0, 1, 1))

    def test_repeated_name_binds_last_column(self):
        assert np.array_equal(active("a", ["a", "b", "a"]), (0, 1) * 4)

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttributeError):
            parse_hypothesis("a or q", AB)

    def test_known_names_listed_as_given(self, capsys):
        argv = ["hypothesis", "--names", "a,b,a", "--hypothesis", "a or q",
                "--hypothesis2", "a"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown attribute 'q'; known: a, b, a\n"

    def test_unbalanced_paren(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_hypothesis("(a or b", AB)

    def test_empty(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_hypothesis("", AB)

    def test_nests_too_deeply(self):
        with pytest.raises(HypothesisSyntaxError, match="formula nests too deeply"):
            parse_hypothesis("(" * 2000 + "a" + ")" * 2000, AB)


class TestAstToMinterms:
    def test_or_truth_table(self):
        assert np.array_equal(active("a or b", AB), (0, 1, 1, 1))

    def test_idempotence(self):
        assert np.array_equal(active("a and a", AB), active("a", AB))

    def test_contradiction(self):
        assert np.array_equal(active("a and not a", AB), (0, 0, 0, 0))

    def test_xor_is_symmetric_difference(self):
        x = parse_hypothesis("a xor b", AB)
        a = active("a", AB)
        b = active("b", AB)
        assert np.array_equal(x.active, a ^ b)

    def test_boolean_laws_random(self):
        names = ["a", "b", "c"]
        pairs = [
            ("not (a and b)", "not a or not b"),
            ("not (a or b)", "not a and not b"),
            ("not not c", "c"),
            ("a and (b or c)", "a and b or a and c"),
            ("a or (b and c)", "(a or b) and (a or c)"),
        ]
        for lhs, rhs in pairs:
            assert np.array_equal(active(lhs, names), active(rhs, names))

    @settings(deadline=None)
    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6), st.data())
    def test_matches_per_assignment_oracle(self, names, data):
        # Names may repeat; a repeated name binds its last column.
        tree, text = data.draw(formulas(names))
        got = parse_hypothesis(text, names)
        assert got.n == len(names)
        assert np.array_equal(got.active, truth_table_loop(tree, names))


class TestCompare:
    def test_self_comparison(self):
        e = parse_hypothesis("a and b", AB)
        m = compare(e, e)
        assert m.accuracy == 1.0
        assert m.equivalent
        assert m.implies_forward and m.implies_backward

    def test_complement(self):
        e = parse_hypothesis("a", AB)
        m = compare(e, LogicExpressionBits(~e.active))
        assert m.accuracy == 0.0
        assert m.v11 == 0 and m.v00 == 0

    def test_worked_example(self):
        e = parse_hypothesis("a", AB)
        h = parse_hypothesis("a or b", AB)
        m = compare(e, h)
        assert (m.v11, m.v10, m.v01, m.v00) == (2, 0, 1, 1)
        assert m.accuracy == 0.75
        assert m.implies_forward
        assert not m.implies_backward

    def test_counts_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = LogicExpressionBits(tuple(int(b) for b in rng.integers(0, 2, 8)))
            h = LogicExpressionBits(tuple(int(b) for b in rng.integers(0, 2, 8)))
            m = compare(e, h)
            assert m.v11 + m.v10 + m.v01 + m.v00 == 8

    def test_swap_symmetry(self):
        e = parse_hypothesis("a", AB)
        h = parse_hypothesis("b", AB)
        m1 = compare(e, h)
        m2 = compare(h, e)
        assert (m1.v10, m1.v01) == (m2.v01, m2.v10)
        assert m1.accuracy == m2.accuracy

    def test_degenerate_precision(self):
        empty = LogicExpressionBits((0, 0, 0, 0))
        m = compare(empty, empty)
        assert m.precision == 0.0 and m.precision_degenerate
        assert m.recall == 0.0 and m.recall_degenerate

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compare(parse_hypothesis("a", AB), parse_hypothesis("a", ["a", "b", "c"]))


class TestTrendGrid:
    def tensor(self, rows):
        return BitTensor(tuple(rows))

    def test_level0_corner_values(self):
        bt = self.tensor([(1, 0, 0, 0)])  # active {a-b-}
        grid = trend_grid(bt, vary=[0, 1], resolution=3)
        assert grid.values[0, 0] == pytest.approx(1.0)
        assert grid.values[2, 2] == pytest.approx(0.0)

    def test_half_level_value(self):
        # level 2^-1 active {ab-, ab} == a; value at a=1 is 0.5
        bt = self.tensor([(0, 0, 0, 0), (0, 0, 1, 1)])
        grid = trend_grid(bt, vary=[0, 1], levels=[1], resolution=3)
        assert np.allclose(grid.values[2, :], 0.5)

    def test_constant_expression(self):
        bt = self.tensor([(1, 1, 1, 1), (0, 0, 0, 0)])
        grid = trend_grid(bt, vary=[0], levels=[0], resolution=5)
        assert np.allclose(grid.values, 1.0)

    def test_monotone_in_monotone_bit(self):
        # active {ab-, ab}: monotone in attribute a
        bt = self.tensor([(0, 0, 1, 1)])
        grid = trend_grid(bt, vary=[0], resolution=11)
        assert np.all(np.diff(grid.values) >= -1e-12)

    def test_too_many_varied(self):
        bt = self.tensor([(0, 0, 0, 0, 0, 0, 1, 1)])
        with pytest.raises(ValueError):
            trend_grid(bt, vary=[0, 1, 2])

    def test_fixed_degrees(self):
        # n=3, expression c (attribute 3): value equals fixed degree of c
        bt = self.tensor([(0, 1, 0, 1, 0, 1, 0, 1)])
        grid = trend_grid(bt, vary=[0], fixed={2: 0.3}, resolution=3)
        assert np.allclose(grid.values, 0.3)

    def test_fixed_degree_out_of_range(self):
        bt = self.tensor([(0, 1, 0, 1, 0, 1, 0, 1)])
        for bad in (1.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                trend_grid(bt, vary=[0], fixed={2: bad}, resolution=3)

    def test_fixed_index_out_of_range(self):
        bt = self.tensor([(0, 1, 1, 0)])
        for fixed in ({7: 0.3, 9: 5.0}, {2: 0.5}, {-1: 0.5}):
            with pytest.raises(ValueError, match="fixed attribute index"):
                trend_grid(bt, [0], fixed, None, 3)

    def test_two_varied_axes_order(self):
        # expression a and not b: values[ia, ib] = a * (1 - b)
        bt = self.tensor([(0, 0, 1, 0)])
        grid = trend_grid(bt, vary=[0, 1], resolution=4)
        a = np.asarray(grid.axis)
        assert np.allclose(grid.values, np.outer(a, 1 - a), atol=1e-12)

    def test_equals_per_point_approx_forward(self):
        # reference: one approx_forward call, which converts the whole bit
        # tensor, on each grid point's minterm expansion
        rng = np.random.default_rng(5)
        bt = self.tensor([tuple(rng.integers(0, 2, 2**5)) for _ in range(4)])
        for vary, levels in (([1], None), ([3, 0], [1, 3]), ([2, 4], [])):
            grid = trend_grid(bt, vary=vary, fixed={1: 0.2, 4: 0.7},
                              levels=levels, resolution=6)
            points = np.array(np.meshgrid(*[grid.axis] * len(vary), indexing="ij"))
            want = np.empty(points.shape[1:])
            for index in np.ndindex(want.shape):
                d = np.array(grid.fixed)
                d[vary] = points[(slice(None),) + index]
                want[index] = approx_forward(bt, minterm_transform(d), grid.levels)
            assert np.array_equal(grid.values, want)
