import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.encoding import minterm_transform
from annlogic.logiccode import LogicExpressionBits, eval_expression
from annlogic.qldt import Leaf, Split, build_qldt, build_qldts, eval_qldt, render
from oracles import minterm_bits, qldt_recursive, qldt_rows, truth_tables


def expr(bits):
    return LogicExpressionBits(tuple(bits))


def all_paths_valid(node, seen=frozenset()):
    if isinstance(node, Leaf):
        return True
    assert node.attribute not in seen
    assert node.low != node.high
    return all_paths_valid(node.low, seen | {node.attribute}) and all_paths_valid(
        node.high, seen | {node.attribute}
    )


class TestBuildQldt:
    def test_or_expression(self):
        tree = build_qldt(expr((0, 1, 1, 1)))
        # semantics must equal a1 or a2 regardless of split order
        for k in range(4):
            degrees = tuple(float(b) for b in minterm_bits(k, 2))
            assert eval_qldt(tree, degrees) == float(k > 0)

    def test_all_zero(self):
        assert build_qldt(expr((0, 0, 0, 0))) == Leaf(False)

    def test_all_one(self):
        assert build_qldt(expr((1, 1, 1, 1))) == Leaf(True)

    def test_nor_expression(self):
        tree = build_qldt(expr((1, 0, 0, 0)))
        for k in range(4):
            degrees = tuple(float(b) for b in minterm_bits(k, 2))
            assert eval_qldt(tree, degrees) == float(k == 0)

    def test_structure_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits = tuple(int(b) for b in rng.integers(0, 2, 16))
            assert all_paths_valid(build_qldt(expr(bits)))

    def test_redundant_split_collapses(self):
        # expression depends only on a2: tree must not mention a1
        tree = build_qldt(expr((0, 1, 0, 1)))
        assert tree == Split(1, Leaf(False), Leaf(True))

    def test_tie_breaks_to_lowest_attribute(self):
        # xor: zero gain for both attributes, lowest index splits first
        tree = build_qldt(expr((0, 1, 1, 0)))
        assert isinstance(tree, Split) and tree.attribute == 0

    @settings(deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n)
        )
    )
    def test_matches_row_list_oracle(self, bits):
        e = expr(bits)
        assert build_qldt(e) == qldt_rows(e.active, e.n)

    def test_equal_subfunctions_are_one_node(self):
        # parity a ^ b ^ c: every gain is 0, so the splits go a, b, c in
        # order; (a, b) = (0, 0) and (1, 1) leave the same function of c
        tree = build_qldt(expr([0, 1, 1, 0, 1, 0, 0, 1]))
        assert tree.low.low is tree.high.high
        assert tree.low.high is tree.high.low
        assert tree.low.low != tree.low.high
        assert render(tree).count("label=\"a3\"") == 4


class TestBuildQldts:
    @settings(deadline=None, max_examples=60)
    @given(truth_tables(8, 5))
    def test_matches_recursive_induction(self, drawn):
        _, tables = drawn
        exprs = [LogicExpressionBits(t) for t in tables]
        trees = build_qldts(exprs)
        assert len(trees) == len(exprs)
        for e, tree in zip(exprs, trees):
            assert render(tree) == render(qldt_recursive(e))

    def test_repeated_expression_is_one_tree(self):
        e = expr([0, 1, 1, 0, 1, 0, 0, 1])
        first, other, again = build_qldts([e, LogicExpressionBits(~e.active), e])
        assert first is again
        # both parities leave the same functions of a3 after two splits
        assert first.low.low is other.low.high

    def test_empty_list(self):
        with pytest.raises(ValueError, match="at least one expression"):
            build_qldts([])

    def test_mixed_n(self):
        with pytest.raises(ValueError, match="same n"):
            build_qldts([expr((0, 1, 1, 0)), expr((0, 1))])


class TestEvalQldt:
    def test_example_tree_formula(self):
        tree = Split(1, Split(0, Leaf(False), Leaf(True)), Leaf(True))
        for m1, m2 in [(0.3, 0.9), (0.0, 0.0), (1.0, 0.5), (0.42, 0.17)]:
            got = eval_qldt(tree, (m1, m2))
            assert got == pytest.approx(m2 + (1 - m2) * m1, abs=1e-12)

    def test_boolean_degrees_classical(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, 8))
            tree = build_qldt(expr(bits))
            for k in range(8):
                degrees = tuple(float(b) for b in minterm_bits(k, 3))
                assert eval_qldt(tree, degrees) == float(bits[k])

    def test_constant_true(self):
        assert eval_qldt(Leaf(True), (0.3,)) == 1.0

    def test_index_out_of_range(self):
        tree = Split(2, Leaf(False), Leaf(True))
        with pytest.raises(ValueError):
            eval_qldt(tree, (0.5, 0.5))

    def test_degree_out_of_range(self):
        tree = Split(0, Leaf(False), Leaf(True))
        for bad in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                eval_qldt(tree, (bad,))

    def test_equivalence_exhaustive_n2(self):
        grid = [0.0, 0.25, 0.6, 1.0]
        for bits in itertools.product((0, 1), repeat=4):
            e = expr(bits)
            tree = build_qldt(e)
            for a in grid:
                for b in grid:
                    f = (a, b)
                    want = eval_expression(e, minterm_transform(f))
                    assert eval_qldt(tree, f) == pytest.approx(want, abs=1e-9)

    def test_equivalence_random_n3_n4(self):
        rng = np.random.default_rng(2)
        for n in (3, 4):
            for _ in range(30):
                bits = tuple(int(b) for b in rng.integers(0, 2, 2**n))
                e = expr(bits)
                tree = build_qldt(e)
                for _ in range(5):
                    f = rng.uniform(0, 1, n)
                    want = eval_expression(e, minterm_transform(f))
                    assert eval_qldt(tree, f) == pytest.approx(want, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(truth_tables(6, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.floats(0, 1), min_size=d[0], max_size=d[0]))))
    def test_equals_expression_evaluation(self, drawn):
        (_, tables), degrees = drawn
        exprs = [LogicExpressionBits(t) for t in tables]
        m = minterm_transform(degrees)
        for e, tree in zip(exprs, build_qldts(exprs)):
            assert abs(eval_qldt(tree, degrees) - m @ e.active) <= 1e-12

    def test_complementarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, 8))
            e = expr(bits)
            t1 = build_qldt(e)
            t2 = build_qldt(LogicExpressionBits(~e.active))
            f = rng.uniform(0, 1, 3)
            assert eval_qldt(t1, f) + eval_qldt(t2, f) == pytest.approx(
                1.0, abs=1e-9
            )


class TestRender:
    def test_dot_edges(self):
        tree = Split(1, Split(0, Leaf(False), Leaf(True)), Leaf(True))
        dot = render(tree, names=["a1", "a2"])
        assert dot.count("style=dashed") == 2
        assert dot.count("style=solid") == 2
        assert '"a2"' in dot and '"a1"' in dot

    def test_single_leaf(self):
        dot = render(Leaf(True))
        assert "->" not in dot
        assert "active" in dot

    def test_deterministic(self):
        tree = build_qldt(expr((0, 1, 1, 0, 1, 0, 0, 1)))
        assert render(tree) == render(tree)
