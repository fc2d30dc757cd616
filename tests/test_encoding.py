import copy
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic import encoding
from annlogic.analysis import ComparisonMetrics, TrendGrid
from annlogic.encoding import (
    FUZZIFIER_KINDS,
    FuzzifierSpec,
    fit_fuzzifier,
    fuzzify,
    minterm_transform,
)
from annlogic.logiccode import BitTensor, EnergyReport, ScaledCellWeights
from annlogic.network import SimpleAnn, TrainConfig
from annlogic.partition import CellWeights
from annlogic.qldt import NodeTable
from oracles import degree_rows, minterm_bits, minterms_kron


def make_samples(columns):
    """The (N, n) raw-value array whose columns are `columns`."""
    return np.array(columns, dtype=float).T


class TestFitFuzzifier:
    def test_minmax_bounds(self):
        spec = fit_fuzzifier(make_samples([[1, 3, 5]]))
        assert spec.params == ((1,), (5,))

    def test_constant_column_degenerate(self):
        with pytest.warns(UserWarning, match="constant"):
            spec = fit_fuzzifier(make_samples([[2, 2]]))
        assert fuzzify([2.0], spec).tolist() == [1.0]

    def test_midpoint(self):
        spec = fit_fuzzifier(make_samples([[0, 10]]))
        assert fuzzify([5.0], spec).tolist() == [0.5]

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            fit_fuzzifier([])

    def test_zero_attributes(self):
        # rows with no attribute are not an empty dataset
        with pytest.raises(ValueError, match="^cannot fit a fuzzifier on zero attributes$"):
            fit_fuzzifier(np.empty((2, 0)))
        with pytest.raises(ValueError, match="empty dataset"):
            fit_fuzzifier(np.empty((0, 0)))

    def test_inconsistent_arity(self):
        # rows of one object each are an (N, n) array; a flat vector is not
        message = r"^expected an \(N, n\) array of rows, got shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            fit_fuzzifier(np.array([1.0, 2.0]))

    def test_logistic_monotone(self):
        spec = fit_fuzzifier(make_samples([[0, 1, 2, 3, 4]]), kind="logistic")
        lows, highs = fuzzify([[0.0], [4.0]], spec)[:, 0]
        assert lows < 0.5 < highs

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown fuzzifier kind 'gauss'$"):
            fit_fuzzifier(make_samples([[0, 1, 2]]), "gauss")
        with pytest.raises(ValueError, match="^unknown fuzzifier kind 'gauss'$"):
            FuzzifierSpec("gauss", ((0.0,), (1.0,)))


# each kind's parameter names in model-file order, written out
FIELDS = {"minmax": ("lo", "hi"), "logistic": ("midpoint", "steepness")}


@st.composite
def specs(draw):
    """A FuzzifierSpec of either kind over 0..12 attributes; minmax gets
    lo <= hi per attribute."""
    kind = draw(st.sampled_from(sorted(FUZZIFIER_KINDS)))
    n = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pairs = draw(st.lists(st.tuples(finite, finite), min_size=n, max_size=n))
    if kind == "minmax":
        pairs = [tuple(sorted(pair)) for pair in pairs]
    first, second = (tuple(p[i] for p in pairs) for i in (0, 1))
    return FuzzifierSpec(kind, (first, second))


class TestFuzzifierTable:
    @given(specs())
    def test_dict_round_trip(self, spec):
        again = FuzzifierSpec.from_dict(spec.to_dict())
        assert (again.kind, again.params) == (spec.kind, spec.params)

    @given(specs())
    def test_json_text_keeps_the_key_order(self, spec):
        first, second = FIELDS[spec.kind]
        expected = {"kind": spec.kind, first: list(spec.params[0]),
                    second: list(spec.params[1])}
        assert json.dumps(spec.to_dict()) == json.dumps(expected)

    @given(specs(), st.integers(0, 1))
    def test_length_mismatch_names_the_fields(self, spec, side):
        d = spec.to_dict()
        d[FIELDS[spec.kind][side]].append(0.0)
        message = "/".join(FIELDS[spec.kind]) + " length mismatch"
        with pytest.raises(ValueError, match=f"^{message}$"):
            FuzzifierSpec.from_dict(d)

    def test_minmax_lo_above_hi_rejected(self):
        with pytest.raises(ValueError, match="^lo must not exceed hi$"):
            FuzzifierSpec("minmax", ((0.0, 2.0), (1.0, 1.0)))
        assert FuzzifierSpec("logistic", ((0.0, 2.0), (1.0, 1.0))).arity == 2

    @pytest.mark.parametrize("lo", ["00", ["0", "0"], [True, False], [0.0, None], 0.0])
    def test_from_dict_takes_only_lists_of_json_numbers(self, lo):
        with pytest.raises(ValueError, match="^fuzzifier field 'lo' must be a list of"):
            FuzzifierSpec.from_dict({"kind": "minmax", "lo": lo, "hi": [1.0, 1.0]})

    @given(specs(), st.sampled_from(["lo", "hi", "midpoint", "steepness", "bias", ""]))
    def test_field_the_kind_does_not_read_rejected(self, spec, extra):
        d = spec.to_dict()
        if extra in d:
            return
        d[extra] = [5.0] * spec.arity
        message = f"fuzzifier kind {spec.kind!r} takes no field {extra!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            FuzzifierSpec.from_dict(d)

    def test_every_unread_field_named(self):
        d = {"kind": "minmax", "lo": [0.0], "hi": [1.0], "steepness": [1.0], "midpoint": [5.0]}
        with pytest.raises(ValueError, match="^fuzzifier kind 'minmax' takes no field "
                                             "'midpoint', 'steepness'$"):
            FuzzifierSpec.from_dict(d)

    @pytest.mark.parametrize("kind", [None, "gauss", ["minmax"], {"minmax": 1}])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown fuzzifier kind"):
            FuzzifierSpec.from_dict({"kind": kind, "lo": [0.0], "hi": [1.0]})


class TestFuzzify:
    def test_endpoints(self):
        spec = FuzzifierSpec("minmax", ((0.0,), (4.0,)))
        assert fuzzify([[0.0], [4.0]], spec).tolist() == [[0.0], [1.0]]

    def test_interior(self):
        spec = FuzzifierSpec("minmax", ((0.0,), (4.0,)))
        assert fuzzify([1.0], spec).tolist() == [0.25]

    def test_clamping(self):
        spec = FuzzifierSpec("minmax", ((0.0,), (4.0,)))
        assert fuzzify([[-3.0], [9.0]], spec).tolist() == [[0.0], [1.0]]

    def test_arity_mismatch(self):
        spec = FuzzifierSpec("minmax", ((0.0,), (4.0,)))
        message = r"^raw values of shape \(2,\), fuzzifier expects 1 attributes$"
        with pytest.raises(ValueError, match=message):
            fuzzify([1.0, 2.0], spec)

    def test_monotone(self):
        spec = FuzzifierSpec("minmax", ((0.0, -1.0), (4.0, 1.0)))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-2, 6, 2)
            bumped = x.copy()
            bumped[0] += rng.uniform(0, 1)
            a, b = fuzzify([x, bumped], spec)
            assert b[0] >= a[0]


class TestMintermTransform:
    def test_crisp_corner(self):
        assert minterm_transform([1.0, 1.0]).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_symmetric(self):
        assert minterm_transform([0.5, 0.5]).tolist() == [0.25] * 4

    def test_direct_product(self):
        mt = minterm_transform([0.2, 0.5])
        assert mt.tolist() == pytest.approx([0.4, 0.4, 0.1, 0.1], abs=1e-12)

    def test_normalization_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(1, 7)
            mt = minterm_transform(rng.uniform(0, 1, n))
            assert mt.sum() == pytest.approx(1.0, abs=1e-9)
            assert ((0.0 <= mt) & (mt <= 1.0)).all()

    def test_outer_product_structure(self):
        a, b = 0.3, 0.8
        mt1 = minterm_transform([a])
        mt2 = minterm_transform([b])
        mt12 = minterm_transform([a, b])
        assert np.allclose(mt12, np.kron(mt1, mt2))

    def test_boolean_degrees_one_hot(self):
        for k in range(8):
            degrees = tuple(float(b) for b in minterm_bits(k, 3))
            mt = minterm_transform(degrees)
            assert mt[k] == 1.0
            assert mt.sum() == 1.0

    def test_cap(self):
        with pytest.raises(ValueError):
            minterm_transform([0.5] * 13)

    def test_degree_out_of_range(self):
        for bad in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                minterm_transform([[0.5, 0.5], [0.5, bad]])

    def test_cap_checked_before_allocating(self):
        # 2^40 minterms per row would not fit; the count is refused first
        with pytest.raises(ValueError, match="maximum of 12"):
            minterm_transform(np.full((1000, 40), 0.5))

    def test_batch_shape(self):
        degrees = np.random.default_rng(2).uniform(0, 1, (2, 3, 4))
        mt = minterm_transform(degrees)
        assert mt.shape == (2, 3, 16)
        assert np.array_equal(mt[1, 2], minterm_transform(degrees[1, 2]))

    @settings(deadline=None)
    @given(degree_rows(max_n=6, max_rows=20))
    def test_matches_kron_per_row(self, degrees):
        mt = minterm_transform(degrees)
        assert mt.shape == (len(degrees), 2 ** degrees.shape[1])
        assert np.array_equal(mt, minterms_kron(degrees))
        assert np.allclose(mt.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(13))
    def test_matches_kron_across_block_edges(self, n):
        # two full blocks and one row of a third
        rows = 2 * max(1, encoding._BLOCK_VALUES >> n) + 1
        degrees = np.random.default_rng(n).uniform(0, 1, (rows, n))
        if n:
            degrees[::5, 0] = 1.0
            degrees[::7, -1] = 0.0
        assert np.array_equal(minterm_transform(degrees), minterms_kron(degrees))

    @pytest.mark.parametrize("shape", [(0, 5), (2, 3, 5), (5,)], ids=["empty", "batch", "row"])
    def test_matches_kron_for_any_batch_shape(self, shape):
        degrees = np.random.default_rng(3).uniform(0, 1, shape)
        mt = minterm_transform(degrees)
        assert mt.shape == shape[:-1] + (32,)
        assert np.array_equal(mt.reshape(-1, 32), minterms_kron(degrees.reshape(-1, 5)))

    def test_peak_memory_is_the_output_plus_one_block(self):
        # 3,000 rows of 4,096 minterms: 93.75 MiB of output, and at most
        # 1 MiB more while expanding
        degrees = np.full((3000, 12), 0.25)
        tracemalloc.start()
        try:
            mt = minterm_transform(degrees)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mt.nbytes + 2**20


class TestMintermBits:
    def test_worked_example(self):
        assert minterm_bits(1, 2) == [0, 1]

    def test_zero(self):
        assert minterm_bits(0, 3) == [0, 0, 0]

    def test_binary_expansion(self):
        assert minterm_bits(5, 3) == [1, 0, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            minterm_bits(8, 3)


# One record of each type, built positionally; every record compares and
# hashes by identity.
RECORDS = {
    "FuzzifierSpec": lambda: FuzzifierSpec("minmax", ((0.0, 1.0), (2.0, 3.0))),
    "TrainConfig": lambda: TrainConfig(0.1, 5, 1),
    "EnergyReport": lambda: EnergyReport(1.5, (1, 2), (0.5, 0.25), (33.3, 16.7), 0.75),
    "ComparisonMetrics": lambda: ComparisonMetrics(
        1, 0, 0, 3, 1.0, 1.0, 1.0, False, False, True, True, True),
    "SimpleAnn": lambda: SimpleAnn((np.ones((2, 4)),), (np.ones((1, 2)),), 0.5),
    "CellWeights": lambda: CellWeights([0.9, 0.4, 0.7, 0.8]),
    "ScaledCellWeights": lambda: ScaledCellWeights([1.0, 0.0, 0.6, 0.8], 0.5),
    "BitTensor": lambda: BitTensor([[0, 1, 1, 0]]),
    "NodeTable": lambda: NodeTable(np.array([-1, -1]), np.array([-1, -1]),
                                   np.array([-1, -1]), np.array([1, 1]), (1,)),
    "TrendGrid": lambda: TrendGrid((0.0, 1.0), np.zeros(2)),
}


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
class TestRecord:
    def test_fields_are_slots_in_annotation_order(self, make):
        cls = type(make())
        assert cls.__slots__ == tuple(cls.__annotations__)
        assert not hasattr(make(), "__dict__")

    def test_fields_cannot_be_assigned_or_deleted(self, make):
        record = make()
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields(record) == fields(record)  # still set

    def test_keyword_construction(self, make):
        record = make()
        cls = type(record)
        again = cls(**dict(zip(cls.__slots__, fields(record))))
        assert repr(again) == repr(record)

    def test_missing_or_unknown_argument_is_a_type_error(self, make):
        record = make()
        cls, values = type(record), fields(record)
        if cls is not TrainConfig:  # whose every field has a default
            with pytest.raises(TypeError):
                cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, unknown=None)
        with pytest.raises(TypeError):
            cls(*values, **{cls.__slots__[0]: values[0]})

    def test_repr_names_every_field(self, make):
        record = make()
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(type(record).__slots__, fields(record)))
        assert repr(record) == f"{type(record).__name__}({inner})"

    def test_equality(self, make):
        record, twin = make(), make()
        cls = type(record)
        # a record type of the same fields that is not this one
        other = type("Other", (encoding._Record,), {"__slots__": cls.__slots__})
        assert record == record and not record != record
        assert record != fields(record)
        assert record != other(*fields(record)) and other(*fields(record)) != record
        assert repr(twin) == repr(record)  # equal fields, yet another record
        assert record != twin and not record == twin
        assert hash(record) == object.__hash__(record)

    def test_copy_and_pickle_rebuild_the_record(self, make):
        record = make()
        for again in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(again) is type(record) and repr(again) == repr(record)


def test_train_config_defaults():
    assert fields(TrainConfig()) == (0.5, 2000, 0)
    assert fields(TrainConfig(epochs=7)) == fields(TrainConfig(0.5, 7, 0))
