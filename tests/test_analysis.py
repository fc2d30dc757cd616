import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.analysis import (
    MAX_NESTING,
    MAX_RESOLUTION,
    TrendGrid,
    compare,
    parse_hypothesis,
    trend_grid,
)
from annlogic.encoding import MAX_ATTRIBUTES, minterm_transform
from annlogic.logiccode import BitTensor, approx_forward, level_accuracy, project
from annlogic.partition import CellWeights
from oracles import expression, formulas, trend_grid_per_point, truth_table_loop

AB = ["a", "b"]
ABC = ["a", "b", "c"]


def active(text, names):
    return parse_hypothesis(text, names).bits[0]


def nested(depth, heads=("(",)):
    """`depth` heads taken in turn from `heads`, around the atom 'a'.  Each
    head ends in its one opener, '(' or a negation, so all `depth` openers
    wait at once.  Returns the formula and the position of the last opener."""
    chosen = [heads[i % len(heads)] for i in range(depth)]
    closers = sum(h.endswith("(") for h in chosen)
    return " ".join(chosen + ["a"] + [")"] * closers), len(" ".join(chosen).split())


class TestParser:
    """Precedence and associativity, pinned as truth tables over the
    minterms (attribute 1 on the most significant index bit)."""

    def test_not_parenthesized(self):
        assert np.array_equal(active("not (a and b)", AB), (1, 1, 1, 0))

    def test_double_operator(self):
        with pytest.raises(ValueError, match=r"^unexpected token 'and' \(at token 3\)$"):
            parse_hypothesis("a and and b", AB)

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
        with pytest.raises(ValueError, match="^unknown attribute 'q'; known: a, b$"):
            parse_hypothesis("a or q", AB)

    def test_too_many_names(self):
        # 13 names would truth-table 8,192 assignments; minterm_transform's bound and wording
        names = [f"x{j}" for j in range(MAX_ATTRIBUTES + 1)]
        with pytest.raises(ValueError, match="^13 attributes exceed the maximum of 12$"):
            parse_hypothesis("x0", names)
        assert active("x0", names[:-1]).shape == (2**MAX_ATTRIBUTES,)

    def test_known_names_listed_as_given(self):
        # the CLI rejects a repeated name before it parses; the library keeps it
        with pytest.raises(ValueError) as raised:
            parse_hypothesis("a or q", ["a", "b", "a"])
        assert str(raised.value) == "unknown attribute 'q'; known: a, b, a"

    def test_unbalanced_paren(self):
        with pytest.raises(ValueError):
            parse_hypothesis("(a or b", AB)

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_hypothesis("", AB)

    def test_nests_too_deeply(self):
        with pytest.raises(ValueError, match="formula nests too deeply"):
            parse_hypothesis("(" * 2000 + "a" + ")" * 2000, AB)

    @pytest.mark.parametrize("text,message,position", [
        ("", "unexpected end of input", 1),
        ("not", "unexpected end of input", 2),
        ("NOT", "unexpected end of input", 2),
        ("not not", "unexpected end of input", 3),
        ("a and", "unexpected end of input", 3),
        ("a xor", "unexpected end of input", 3),
        ("(a b)", "expected ')'", 3),
        ("((a)", "expected ')'", 5),
        ("(a", "expected ')'", 3),
        ("~(a", "expected ')'", 4),
        ("(not (a) b)", "expected ')'", 6),
        ("(a or b) and (b", "expected ')'", 9),
        ("a )", "unexpected token ')'", 2),
        (")", "unexpected token ')'", 1),
        ("( )", "unexpected token ')'", 2),
        ("a|b)", "unexpected token ')'", 4),
        ("a or (b and not)", "unexpected token ')'", 7),
        ("a or or b", "unexpected token 'or'", 3),
        ("a & & b", "unexpected token '&'", 3),
        ("and a", "unexpected token 'and'", 1),
        ("a b", "unexpected token 'b'", 2),
        ("(a) b", "unexpected token 'b'", 4),
        ("(a or b) c)", "unexpected token 'c'", 6),
        ("a ! b", "unexpected token '!'", 2),
        ("a ( b", "unexpected token '('", 2),
        ("a and b NOT", "unexpected token 'NOT'", 4),
        ("a $ b", "unexpected character '$'", 2),
        ("$", "unexpected character '$'", 1),
    ])
    def test_malformed_formula_message(self, text, message, position):
        with pytest.raises(ValueError) as exc:
            parse_hypothesis(text, AB)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{message} (at token {position})"

    @pytest.mark.parametrize("text,name", [("q and (", "q"), ("b or é", "é")])
    def test_unknown_attribute_raised_when_read(self, text, name):
        with pytest.raises(ValueError) as exc:
            parse_hypothesis(text, AB)
        assert str(exc.value) == f"unknown attribute {name!r}; known: a, b"

    @pytest.mark.parametrize("heads", [("(",), ("not",), ("NOT", "("), ("a and (",),
                                       ("~", "(", "b xor (", "a or ! b and (")])
    def test_nests_up_to_max_nesting(self, heads):
        text, _ = nested(MAX_NESTING, heads)
        assert parse_hypothesis(text, AB).n == 2
        text, position = nested(MAX_NESTING + 1, heads)
        with pytest.raises(ValueError) as exc:
            parse_hypothesis(text, AB)
        assert str(exc.value) == f"formula nests too deeply (at token {position})"

    def test_only_waiting_openers_count(self):
        # each negation and parenthesis is done before the next one opens
        assert np.array_equal(active(" and ".join(["not (not a)"] * 300), AB), (0, 0, 1, 1))

    def test_nesting_bound_does_not_depend_on_the_stack(self):
        text, _ = nested(250)

        def deeper(frames):
            return deeper(frames - 1) if frames else active(text, AB)

        assert np.array_equal(active(text, AB), (0, 0, 1, 1))
        assert np.array_equal(deeper(300), (0, 0, 1, 1))


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
        assert np.array_equal(x.bits, [a ^ b])

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
        assert np.array_equal(got.bits, [truth_table_loop(tree, names)])


class TestCompare:
    def test_self_comparison(self):
        e = parse_hypothesis("a and b", AB)
        m = compare(e, e)
        assert m.accuracy == 1.0
        assert m.equivalent
        assert m.implies_forward and m.implies_backward

    def test_complement(self):
        e = parse_hypothesis("a", AB)
        m = compare(e, BitTensor(1 - e.bits))
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
            e = expression(tuple(int(b) for b in rng.integers(0, 2, 8)))
            h = expression(tuple(int(b) for b in rng.integers(0, 2, 8)))
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
        empty = expression((0, 0, 0, 0))
        m = compare(empty, empty)
        assert m.precision == 0.0 and m.precision_degenerate
        assert m.recall == 0.0 and m.recall_degenerate

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compare(parse_hypothesis("a", AB), parse_hypothesis("a", ["a", "b", "c"]))

    def test_two_levels_are_not_an_expression(self):
        e = parse_hypothesis("a", AB)
        two = BitTensor([e.bits[0], e.bits[0]])
        for args in ((two, e), (e, two)):
            with pytest.raises(ValueError, match="^a logic expression has one level$"):
                compare(*args)

    def test_parse_returns_one_level(self):
        e = parse_hypothesis("a or not b", AB)
        assert (e.bits.dtype, e.bits.shape, e.bcl_max) == (np.uint8, (1, 4), 0)


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

    def test_holds_only_the_axis_and_the_values(self):
        # the fixed degrees and the level set are the caller's own inputs
        assert TrendGrid.__slots__ == ("axis", "values")

    def test_compares_and_hashes_by_identity(self):
        bt = self.tensor([(0, 0, 1, 1)])
        grid, twin = (trend_grid(bt, vary=[0], resolution=3) for _ in range(2))
        assert grid == grid
        assert grid != twin
        assert len({grid, twin, grid}) == 2

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

    def test_varied_index_out_of_range(self):
        bt = self.tensor([(0, 1, 1, 0)])
        for vary in ([2], [0, 2], [-1]):
            with pytest.raises(ValueError, match="^varied attribute index out of range$"):
                trend_grid(bt, vary, resolution=3)

    def test_fixed_index_out_of_range(self):
        bt = self.tensor([(0, 1, 1, 0)])
        for fixed in ({7: 0.3, 9: 5.0}, {2: 0.5}, {-1: 0.5}):
            with pytest.raises(ValueError, match="fixed attribute index"):
                trend_grid(bt, [0], fixed, None, 3)

    @pytest.mark.parametrize("vary, fixed, levels, message", [
        ([True], None, None, "^vary must name one or two distinct attributes$"),
        ([0.0], None, None, "^vary must name one or two distinct attributes$"),
        ([0, np.True_], None, None, "^vary must name one or two distinct attributes$"),
        ([0], {True: 0.2}, None, "^fixed attribute index out of range$"),
        ([0], {1.0: 0.2}, None, "^fixed attribute index out of range$"),
        ([0], None, [True], "^levels must be distinct integers$"),
        ([0], None, [0.0], "^levels must be distinct integers$"),
        ([0], None, [0, 0], "^levels must be distinct integers$"),
    ])
    def test_indices_are_integers_given_once(self, vary, fixed, levels, message):
        # a bool or a float is no index, and a repeated level is no coefficient of 2
        bt = self.tensor([(0, 1, 1, 0), (1, 0, 0, 1)])
        with pytest.raises(ValueError, match=message):
            trend_grid(bt, vary, fixed, levels, 3)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda bt, mt: bt.reconstruction(1), "^levels must be distinct integers$",
                     id="reconstruction-int"),
        pytest.param(lambda bt, mt: bt.reconstruction(np.array(1)),
                     "^levels must be distinct integers$", id="reconstruction-0d-array"),
        pytest.param(lambda bt, mt: approx_forward(bt, mt, 1),
                     "^levels must be distinct integers$", id="approx-forward-int"),
        pytest.param(lambda bt, mt: level_accuracy(bt, 0.5, mt[None], [1], 1),
                     "^levels must be distinct integers$", id="level-accuracy-int"),
        pytest.param(lambda bt, mt: project(CellWeights((1.0, 2.0, 3.0, 4.0)), 0),
                     "^keep must be distinct attribute indices below n$", id="project-int"),
        pytest.param(lambda bt, mt: trend_grid(bt, 0),
                     "^vary must name one or two distinct attributes$", id="trend-vary-int"),
        pytest.param(lambda bt, mt: trend_grid(bt, [0], [1]),
                     "^fixed must be a dict of attribute index to degree$",
                     id="trend-fixed-list"),
    ])
    def test_a_bare_index_or_a_fixed_list_is_a_value_error(self, call, message):
        # an index list is a list, tuple, range or 1-D array, and fixed is a dict
        bt = self.tensor([(0, 1, 1, 0), (1, 0, 0, 1)])
        with pytest.raises(ValueError, match=message):
            call(bt, minterm_transform([0.5, 0.5]))

    def test_indices_take_numpy_integers(self):
        bt = self.tensor([(0, 1, 1, 0), (1, 0, 0, 1)])
        got = trend_grid(bt, [np.int64(0)], {np.uint8(1): 0.2}, [np.int8(1)], 3)
        want = trend_grid(bt, [0], {1: 0.2}, [1], 3)
        assert got.axis == want.axis and np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("degree", ["0.5", True, np.True_, None, [0.5], 1j])
    def test_fixed_degrees_are_real_numbers(self, degree):
        # a string or a bool is no degree, even where float() would read one
        bt = self.tensor([(0, 1, 1, 0)])
        with pytest.raises(ValueError, match="^fixed degrees must be real numbers$"):
            trend_grid(bt, [0], {1: degree}, None, 3)

    def test_fixed_degrees_take_numpy_and_integer_numbers(self):
        bt = self.tensor([(0, 1, 1, 0)])
        want = trend_grid(bt, [0], {1: 1.0}, None, 3).values
        for degree in (1, np.int64(1), np.float32(1.0)):
            assert np.array_equal(trend_grid(bt, [0], {1: degree}, None, 3).values, want)

    @pytest.mark.parametrize("resolution", [True, 3.0, np.float64(5.0), "3", None])
    def test_resolution_not_an_integer_rejected(self, resolution):
        bt = self.tensor([(0, 1, 1, 0)])
        with pytest.raises(ValueError, match="^resolution must be an integer$"):
            trend_grid(bt, [0], resolution=resolution)

    def test_resolution_takes_numpy_integers(self):
        bt = self.tensor([(0, 1, 1, 0)])
        got = trend_grid(bt, [0, 1], resolution=np.uint16(300))
        want = trend_grid(bt, [0, 1], resolution=300)
        assert got.axis == want.axis and np.array_equal(got.values, want.values)

    def test_two_varied_axes_order(self):
        # expression a and not b: values[ia, ib] = a * (1 - b)
        bt = self.tensor([(0, 0, 1, 0)])
        grid = trend_grid(bt, vary=[0, 1], resolution=4)
        a = np.asarray(grid.axis)
        assert np.allclose(grid.values, np.outer(a, 1 - a), atol=1e-12)

    @settings(deadline=None)
    @given(st.data())
    def test_equals_per_point_approx_forward(self, data):
        # one or two varied axes in either order, any fixed degrees (0 and 1
        # included), any level subset (empty included), n = 1 .. 12
        n = data.draw(st.integers(1, 12), label="n")
        depth = data.draw(st.integers(1, 4), label="levels in the tensor")
        seed = data.draw(st.integers(0, 2**32 - 1), label="bits seed")
        bt = BitTensor(np.random.default_rng(seed).integers(0, 2, (depth, 2**n)))
        vary = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=min(2, n), unique=True), label="vary")
        degree = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
        fixed = data.draw(st.dictionaries(st.integers(0, n - 1), degree), label="fixed")
        levels = data.draw(st.none() | st.lists(st.integers(0, depth - 1), unique=True),
                           label="levels")
        resolution = data.draw(st.integers(2, 8), label="resolution")
        grid = trend_grid(bt, vary, fixed, levels, resolution)
        want = trend_grid_per_point(bt, vary, fixed, levels, resolution)
        assert grid.axis == want.axis == tuple(np.linspace(0.0, 1.0, resolution).tolist())
        assert {type(v) for v in grid.axis} == {float}
        assert grid.values.shape == want.values.shape
        assert np.abs(grid.values - want.values).max() <= 1e-12

    def test_varied_attribute_ignores_its_fixed_degree(self):
        bt = self.tensor([(0, 1, 1, 0, 0, 1, 1, 1)])
        for bad in (1.5, -0.2, float("nan")):
            grid = trend_grid(bt, vary=[0], fixed={0: bad, 2: 0.3}, resolution=5)
            want = trend_grid_per_point(bt, [0], {0: bad, 2: 0.3}, None, 5)
            assert np.abs(grid.values - want.values).max() <= 1e-12

    def test_max_resolution_grid_at_n12(self):
        # a full 1001 x 1001 grid; 64 sampled points against one
        # approx_forward call each
        rng = np.random.default_rng(22)
        bt = BitTensor(rng.integers(0, 2, (4, 2**12)))
        vary, levels, fixed = [9, 2], [0, 2, 3], {4: 0.0, 5: 1.0, 6: 0.8}
        grid = trend_grid(bt, vary, fixed, levels, MAX_RESOLUTION)
        assert grid.values.shape == (MAX_RESOLUTION, MAX_RESOLUTION)
        for i, k in rng.integers(0, MAX_RESOLUTION, (64, 2)):
            d = np.array([fixed.get(j, 0.5) for j in range(12)])
            d[vary] = grid.axis[i], grid.axis[k]
            want = approx_forward(bt, minterm_transform(d), levels)
            assert abs(grid.values[i, k] - want) <= 1e-12
