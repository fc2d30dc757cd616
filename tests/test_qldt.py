import gc
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.encoding import minterm_transform
from annlogic.logiccode import BitTensor, approx_forward, level_expression
from annlogic.qldt import build_qldt, eval_qldt, render
from oracles import (Split, _entropy, column_names, dot_label_loop, eval_qldt_walk, eval_split,
                     expression, minterm_bits, qldt_recursive, qldt_rows, qldts_split, render_lines,
                     splits, table_trees, truth_tables)


def as_split(t, level=0):
    return table_trees(t)[level]


def all_paths_valid(node, seen=frozenset()):
    if isinstance(node, bool):
        return True
    assert node.attribute not in seen
    assert node.low != node.high
    return all_paths_valid(node.low, seen | {node.attribute}) and all_paths_valid(
        node.high, seen | {node.attribute}
    )


class TestBuildQldt:
    def test_or_expression(self):
        tree = build_qldt(expression((0, 1, 1, 1)))
        # semantics must equal a1 or a2 regardless of split order
        for k in range(4):
            degrees = tuple(float(b) for b in minterm_bits(k, 2))
            assert eval_qldt(tree, degrees) == (float(k > 0),)

    def test_all_zero(self):
        assert build_qldt(expression((0, 0, 0, 0))).roots == (0,)

    def test_all_one(self):
        assert build_qldt(expression((1, 1, 1, 1))).roots == (1,)

    def test_nor_expression(self):
        tree = build_qldt(expression((1, 0, 0, 0)))
        for k in range(4):
            degrees = tuple(float(b) for b in minterm_bits(k, 2))
            assert eval_qldt(tree, degrees) == (float(k == 0),)

    def test_structure_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits = tuple(int(b) for b in rng.integers(0, 2, 16))
            assert all_paths_valid(as_split(build_qldt(expression(bits))))

    def test_redundant_split_collapses(self):
        # expression depends only on a2: tree must not mention a1
        assert as_split(build_qldt(expression((0, 1, 0, 1)))) == Split(1, False, True)

    def test_tie_breaks_to_lowest_attribute(self):
        # xor: zero gain for both attributes, lowest index splits first
        t = build_qldt(expression((0, 1, 1, 0)))
        assert t.attribute[t.roots[0]] == 0

    @settings(deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n)
        )
    )
    def test_matches_row_list_oracle(self, bits):
        e = expression(bits)
        assert as_split(build_qldt(e)) == qldt_rows(e.bits[0].tolist(), e.n)

    def test_equal_subfunctions_are_one_node(self):
        # parity a ^ b ^ c: every gain is 0, so the splits go a, b, c in
        # order; (a, b) = (0, 0) and (1, 1) leave the same function of c
        t = build_qldt(expression([0, 1, 1, 0, 1, 0, 0, 1]))
        root = as_split(t)
        assert root.low.low is root.high.high
        assert root.low.high is root.high.low
        assert root.low.low != root.low.high
        assert len(t.attribute) == 2 + 1 + 2 + 2
        [dot] = render(t)
        assert dot.count("label=\"a3\"") == 4


class TestBuildQldts:
    @settings(deadline=None, max_examples=60)
    @given(truth_tables(8, 5))
    def test_matches_recursive_induction(self, drawn):
        _, tables = drawn
        trees = build_qldt(BitTensor(tables))
        assert len(trees.roots) == len(tables)
        assert list(render(trees)) == [render_lines(qldt_recursive(expression(t))) for t in tables]

    @settings(deadline=None, max_examples=60)
    @given(truth_tables(8, 5))
    def test_equals_one_tree_per_level(self, drawn):
        _, tables = drawn
        bt = BitTensor(tables)
        levels = range(bt.bcl_max + 1)
        trees = build_qldt(bt)
        alone = [build_qldt(level_expression(bt, b)) for b in levels]
        assert [as_split(trees, b) for b in levels] == [as_split(t) for t in alone]
        assert list(render(trees)) == [render_lines(as_split(t)) for t in alone]

    @pytest.mark.parametrize("n", range(4))
    def test_every_truth_table_matches_recursive_induction(self, n):
        # all 2^(2^n) tables, each as its own tree and all as the levels of one tensor
        tables = (np.arange(2 ** 2**n)[:, None] >> np.arange(2**n)) & 1
        want = [render_lines(qldt_recursive(expression(t))) for t in tables]
        assert [dot for t in tables for dot in render(build_qldt(expression(t)))] == want
        assert list(render(build_qldt(BitTensor(tables)))) == want

    def test_gain_orders_splits_as_the_count_gap_does(self):
        # the premise of _best_axes: the halves of an axis hold `half` entries
        # each, so ID3's gain, as the oracle computes it and with its 1e-12 tie
        # rule, ranks the axes as |2 high - pos| does, ties exactly where the
        # unordered pairs {low, high} match
        for half in 2 ** np.arange(12):
            h = np.array([_entropy(c, half) for c in range(half + 1)])
            for pos in range(2 * half + 1):
                high = np.arange(max(pos - half, (pos + 1) // 2), min(pos, half) + 1)  # gap rises
                low, base = pos - high, _entropy(pos, 2 * half)
                gain = (base - 0.5 * h[low]) - 0.5 * h[high]
                mirror = (base - 0.5 * h[high]) - 0.5 * h[low]  # the split with the halves swapped
                assert (np.abs(gain - mirror) <= 1e-12).all()
                assert (np.minimum(gain, mirror)[1:] > np.maximum(gain, mirror)[:-1] + 1e-12).all()

    def test_repeated_expression_is_one_tree(self):
        e = expression([0, 1, 1, 0, 1, 0, 0, 1])
        trees = build_qldt(BitTensor([e.bits[0], 1 - e.bits[0], e.bits[0]]))
        assert trees.roots[0] == trees.roots[2]
        first, other, again = table_trees(trees)
        assert first is again
        # both parities leave the same functions of a3 after two splits
        assert first.low.low is other.low.high

    def test_empty_list(self):
        # a bit tensor has at least one level, so there is always a tree
        with pytest.raises(ValueError, match="no axis empty"):
            build_qldt(BitTensor(np.empty((0, 4))))


class TestEvalQldt:
    def test_example_tree_formula(self):
        t = build_qldt(expression((0, 1, 1, 1)))
        assert as_split(t) == Split(0, Split(1, False, True), True)
        for m1, m2 in [(0.3, 0.9), (0.0, 0.0), (1.0, 0.5), (0.42, 0.17)]:
            [got] = eval_qldt(t, (m1, m2))
            assert got == pytest.approx(m2 + (1 - m2) * m1, abs=1e-12)

    def test_boolean_degrees_classical(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, 8))
            t = build_qldt(expression(bits))
            for k in range(8):
                degrees = tuple(float(b) for b in minterm_bits(k, 3))
                assert eval_qldt(t, degrees) == (float(bits[k]),)

    def test_constant_true(self):
        assert eval_qldt(build_qldt(expression((1, 1))), (0.3,)) == (1.0,)

    def test_index_out_of_range(self):
        t = build_qldt(expression((0, 1, 0, 1, 0, 1, 0, 1)))  # the split on a3
        with pytest.raises(ValueError, match="^attribute index 2 out of range$"):
            eval_qldt(t, (0.5, 0.5))

    def test_checks_every_split_of_the_table(self):
        # level 0 splits on a1 only, level 1 on a2: the one pass values both
        t = build_qldt(BitTensor([(0, 0, 1, 1), (0, 1, 0, 1)]))
        with pytest.raises(ValueError, match="^attribute index 1 out of range$"):
            eval_qldt(t, (0.5,))

    def test_level_takes_numpy_integers(self):
        # one value per root, in roots order; a level picks it by any integer
        t = build_qldt(BitTensor([(0, 1), (1, 0), (1, 1)]))
        values = eval_qldt(t, (0.3,))
        assert values == (0.3, 0.7, 1.0)
        assert [values[np.uint8(b)] for b in (0, 1)] == [0.3, 0.7]

    def test_degree_out_of_range(self):
        t = build_qldt(expression((0, 1)))
        for bad in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                eval_qldt(t, (bad,))

    def test_equivalence_exhaustive_n2(self):
        grid = [0.0, 0.25, 0.6, 1.0]
        for bits in itertools.product((0, 1), repeat=4):
            e = expression(bits)
            tree = build_qldt(e)
            for a in grid:
                for b in grid:
                    f = (a, b)
                    want = approx_forward(e, minterm_transform(f))
                    assert eval_qldt(tree, f)[0] == pytest.approx(want, abs=1e-9)

    def test_equivalence_random_n3_n4(self):
        rng = np.random.default_rng(2)
        for n in (3, 4):
            for _ in range(30):
                bits = tuple(int(b) for b in rng.integers(0, 2, 2**n))
                e = expression(bits)
                tree = build_qldt(e)
                for _ in range(5):
                    f = rng.uniform(0, 1, n)
                    want = approx_forward(e, minterm_transform(f))
                    assert eval_qldt(tree, f)[0] == pytest.approx(want, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(truth_tables(6, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.floats(0, 1), min_size=d[0], max_size=d[0]))))
    def test_equals_expression_evaluation(self, drawn):
        (_, tables), degrees = drawn
        m = minterm_transform(degrees)
        values = eval_qldt(build_qldt(BitTensor(tables)), degrees)
        for value, t in zip(values, tables, strict=True):
            assert abs(value - m @ t) <= 1e-12

    def test_complementarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bits = tuple(int(b) for b in rng.integers(0, 2, 8))
            e = expression(bits)
            t1 = build_qldt(e)
            t2 = build_qldt(BitTensor(1 - e.bits))
            f = rng.uniform(0, 1, 3)
            assert eval_qldt(t1, f)[0] + eval_qldt(t2, f)[0] == pytest.approx(
                1.0, abs=1e-9
            )


class TestRender:
    def test_dot_edges(self):
        [dot] = render(build_qldt(expression((0, 1, 1, 1))), names=["a1", "a2"])
        assert dot.count("style=dashed") == 2
        assert dot.count("style=solid") == 2
        assert '"a2"' in dot and '"a1"' in dot

    def test_single_leaf(self):
        [dot] = render(build_qldt(expression((1, 1, 1, 1))))
        assert "->" not in dot
        assert "active" in dot

    def test_names_must_cover_every_split_attribute(self):
        t = build_qldt(expression((0, 1, 1, 1)))  # splits on a1 and a2
        for names in ([], ["x"]):
            want = f"^the trees need 2 attribute names, {len(names)} given$"
            with pytest.raises(ValueError, match=want):
                list(render(t, names))
        [dot] = render(t, ["x", "y", "unused"])
        assert '"x"' in dot and '"y"' in dot and "unused" not in dot
        # a table that splits on nothing needs no names
        leaf = build_qldt(expression((1, 1)))
        assert list(render(leaf, [])) == list(render(leaf))

    def test_deterministic(self):
        t = build_qldt(expression((0, 1, 1, 0, 1, 0, 0, 1)))
        assert list(render(t)) == list(render(t))

    @settings(max_examples=100, deadline=None)
    @given(truth_tables(7, 4), st.data())
    def test_equals_isinstance_renderer(self, drawn, data):
        # the old renderer wrote names as they are: give it the escaped ones
        n, tables = drawn
        names = data.draw(st.none() | column_names(n))
        labels = names and [dot_label_loop(name) for name in names]
        trees = build_qldt(BitTensor(tables))
        assert list(render(trees, names)) == [render_lines(tree, labels)
                                              for tree in table_trees(trees)]

    @settings(max_examples=100, deadline=None)
    @given(truth_tables(6, 1), st.data())
    def test_labels_are_dot_strings_that_unescape_to_the_names(self, drawn, data):
        n, tables = drawn
        chars = st.sampled_from(["a", "n", " ", '"', "\\", "\r", "\n", ",", "é"]) | st.characters()
        names = data.draw(st.lists(st.text(chars, max_size=8), min_size=n, max_size=n))
        t = build_qldt(expression(tables[0]))
        want = []  # each node's label in the renderer's order: node, low, high

        def walk(node):
            if node.__class__ is bool:
                want.append("active" if node else "inactive")
            else:
                want.append(re.sub(r"\r\n?", "\n", names[node.attribute]))
                walk(node.low)
                walk(node.high)

        walk(as_split(t))
        got = []
        [dot] = render(t, names)
        for line in dot.split("\n"):
            # a DOT quoted string: no bare double quote, each backslash opens a pair
            node = re.fullmatch(r'  n\d+ \[label="((?:[^"\\\r\n]|\\.)*)"(, shape=box)?\];', line)
            if node:
                got.append(re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], node[1]))
            else:
                assert re.fullmatch(r"digraph qldt \{|\}|  n\d+ -> n\d+ \[style=\w+\];|", line)
        assert got == want


@st.composite
def bit_tensors(draw, max_levels=4):
    """1..max_levels levels over n = 0..8 attributes, any of them made constant."""
    n, tables = draw(truth_tables(8, max_levels))
    for i in range(len(tables)):
        constant = draw(st.sampled_from([None, None, False, True]))
        if constant is not None:
            tables[i] = np.full(2**n, constant)
    return n, BitTensor(tables)


@st.composite
def growing_tensors(draw):
    """bit_tensors over n >= 1 whose level 0 is a leaf or, for n >= 2, one split,
    and whose last level, the parity of all n attributes, is a tree of 2^(n+1) - 1
    nodes: what render makes once per table must cover trees larger than the first."""
    n, bt = draw(bit_tensors().filter(lambda d: d[0] > 0))
    k = np.arange(2**n)
    first = draw(st.sampled_from([k < 0, k >= 0] + [k >> j & 1 for j in range(n) if n > 1]))
    return n, BitTensor([first, *bt.bits, np.bitwise_count(k) & 1])


class TestNodeTable:
    """The table against the trees of one Split object per node."""

    @settings(max_examples=150, deadline=None)
    @given(bit_tensors(), st.data())
    def test_equals_split_oracle(self, drawn, data):
        n, bt = drawn
        t, want = build_qldt(bt), qldts_split(bt)
        assert table_trees(t) == want
        # one row per distinct Split object: sharing is kept, and no more
        assert len(t.attribute) - 2 == len(splits(want))
        names = data.draw(st.none() | column_names(n))
        labels = names and [dot_label_loop(name) for name in names]
        degrees = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        values = eval_qldt(t, degrees)
        for level, (tree, dot, value) in enumerate(zip(want, render(t, names), values, strict=True)):
            assert dot == render_lines(tree, labels)
            nodes = re.findall(r"^  n\d+ \[label=", dot, flags=re.M)
            assert t.size[t.roots[level]] == len(nodes)
            assert abs(value - eval_split(tree, degrees)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(bit_tensors(5), st.data())
    def test_equals_walk_on_every_level_bit_for_bit(self, drawn, data):
        # interior degrees and 0/1; each level's value has the one-tree walk's bits
        n, bt = drawn
        t = build_qldt(bt)
        degree = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
        degrees = data.draw(st.lists(degree, min_size=n, max_size=n))
        want = [eval_qldt_walk(t, degrees, level).hex() for level in range(len(t.roots))]
        assert [value.hex() for value in eval_qldt(t, degrees)] == want

    @settings(max_examples=100, deadline=None)
    @given(growing_tensors(), st.data())
    def test_renders_later_trees_larger_than_the_first(self, drawn, data):
        n, bt = drawn
        t = build_qldt(bt)
        assert t.size[t.roots[0]] < t.size[t.roots[-1]]
        names = data.draw(st.none() | column_names(n))
        labels = names and [dot_label_loop(name) for name in names]
        assert list(render(t, names)) == [render_lines(tree, labels) for tree in qldts_split(bt)]

    def test_renders_one_tree_at_a_time(self):
        # 100 levels that take turns between two random functions of 8 attributes:
        # the table holds two trees, the texts are 100 trees; taking each text as
        # it comes peaks far below what all of them take together
        pair = np.random.default_rng(0).integers(0, 2, (2, 256))
        t = build_qldt(BitTensor(np.tile(pair, (50, 1))))
        total = sum(map(len, render(t)))
        tracemalloc.start()
        try:
            sum(map(len, render(t)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < total / 4

    def test_walks_leave_nothing_for_the_collector(self):
        # each walk is a closure that calls itself, a reference cycle: with the
        # collector off, a cycle left in place keeps what its walk made (a tree's
        # text pieces, the table's columns as lists) allocated after the call
        t = build_qldt(BitTensor(np.random.default_rng(0).integers(0, 2, (4, 4096))))
        degrees = np.random.default_rng(1).uniform(0, 1, 12)
        gc.disable()
        tracemalloc.start()
        try:
            sum(map(len, render(t)))
            rendered = tracemalloc.get_traced_memory()[0]
            eval_qldt(t, degrees)
            evaluated = tracemalloc.get_traced_memory()[0] - rendered
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rendered < 64 * 1024
        assert evaluated < 64 * 1024

    def test_layout(self):
        t = build_qldt(BitTensor([(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 1)]))
        assert t.roots[:2] == (0, 1)
        assert t.attribute[:2].tolist() == [-1, -1] and t.size[:2].tolist() == [1, 1]
        # children first: every split's children are rows before it
        rows = np.arange(2, len(t.attribute))
        assert (t.low[2:] < rows).all() and (t.high[2:] < rows).all()
        assert (t.low[2:] != t.high[2:]).all()
        assert (t.size[2:] == 1 + t.size[t.low[2:]] + t.size[t.high[2:]]).all()
        with pytest.raises(ValueError):
            t.low[2] = 0
