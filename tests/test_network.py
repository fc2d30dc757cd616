import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annlogic
from annlogic.encoding import FuzzifierSpec, minterm_transform
from annlogic.network import (
    INIT_SCALE,
    SimpleAnn,
    TrainConfig,
    choose_threshold,
    classify,
    forward,
    load_model,
    relu_status,
    save_model,
    train,
)
from conftest import random_minterm, random_simple_ann
from oracles import (
    choose_threshold_loop,
    seeded_training_sets,
    train_layers,
    train_outcome,
    train_temporaries,
    training_sets,
)

DIVERGED_MESSAGE = "training diverged (non-finite loss); lower the learning rate"
DIVERGED = "^" + re.escape(DIVERGED_MESSAGE) + "$"


def test_simple_ann_compares_and_hashes_by_identity():
    ann = random_simple_ann(np.random.default_rng(0), 2, 2)
    twin = SimpleAnn(ann.pre_layers, ann.post_layers, ann.threshold)
    assert ann == ann
    assert ann != twin
    assert len({ann, twin, ann}) == 2


def identity_ann(threshold=0.5):
    return SimpleAnn((np.eye(2),), (np.array([[1.0, 1.0]]),), threshold)


def mixing_ann(threshold=0.0):
    return SimpleAnn(
        (np.array([[1.0, -1.0], [-1.0, 1.0]]),),
        (np.array([[1.0, 1.0]]),),
        threshold,
    )


class TestForward:
    def test_passthrough_sum(self):
        assert forward(identity_ann(), [0.3, 0.7]) == pytest.approx(1.0)

    def test_relu_zeroes_negative(self):
        assert forward(mixing_ann(), [0.7, 0.3]) == pytest.approx(0.4)

    def test_zero_input(self):
        assert forward(mixing_ann(), [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(identity_ann(), [0.1, 0.2, 0.7])

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(2)
        ann = random_simple_ann(rng, 3, 4, extra_pre=True, extra_post=True)
        mt = minterm_transform(rng.uniform(0, 1, (25, 3)))
        scores = forward(ann, mt)
        assert scores.shape == (25,)
        assert scores == pytest.approx([forward(ann, row) for row in mt], abs=1e-12)
        assert np.array_equal(classify(ann, mt), [classify(ann, row) for row in mt])
        assert np.array_equal(relu_status(ann, mt), [relu_status(ann, row) for row in mt])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ann = random_simple_ann(rng, 2, 2)
            mt = random_minterm(rng, 2)
            c = rng.uniform(0, 3)
            assert forward(ann, c * mt) == pytest.approx(
                c * forward(ann, mt), abs=1e-9
            )


class TestClassify:
    def test_boundary_is_class_zero(self):
        ann = identity_ann(threshold=1.0)
        assert classify(ann, [0.3, 0.7]) == 0

    def test_strictly_above(self):
        ann = identity_ann(threshold=1.0)
        assert classify(ann, [0.3, 0.7 + 1e-6]) == 1

    def test_zero_input(self):
        ann = identity_ann(threshold=-0.5)
        assert classify(ann, [0.0, 0.0]) == 1


class TestReluStatus:
    def test_mixed(self):
        assert relu_status(mixing_ann(), [0.7, 0.3]).tolist() == [1, 0]

    def test_zero_preactivation_is_active(self):
        assert relu_status(mixing_ann(), [0.0, 0.0]).tolist() == [1, 1]

    def test_all_negative(self):
        ann = SimpleAnn(
            (-np.eye(3),), (np.array([[1.0, 1.0, 1.0]]),), 0.0
        )
        assert relu_status(ann, [1.0, 2.0, 3.0]).tolist() == [0, 0, 0]

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ann = random_simple_ann(rng, 2, 3)
            mt = random_minterm(rng, 2)
            c = rng.uniform(0.1, 5)
            assert np.array_equal(relu_status(ann, mt), relu_status(ann, c * mt))


class TestTrain:
    def toy_samples(self):
        d = np.linspace(0, 1, 21)
        return minterm_transform(d[:, None]), (d > 0.5).astype(int)

    def test_separable_toy(self):
        ann, acc = train(
            *self.toy_samples(), 2, TrainConfig(epochs=500, seed=1)
        )
        assert acc == 1.0

    def test_zero_lr_keeps_init(self):
        samples = self.toy_samples()
        cfg0 = TrainConfig(learning_rate=0.0, epochs=1, seed=5)
        ann0, _ = train(*samples, 2, cfg0)
        rng = np.random.default_rng(5)
        init = [
            rng.normal(0.0, INIT_SCALE, size=(2, 2)),
            rng.normal(0.0, INIT_SCALE, size=(1, 2)),
        ]
        assert np.array_equal(ann0.pre_layers[0], init[0])
        assert np.array_equal(ann0.post_layers[0], init[1])

    def test_deterministic(self):
        samples = self.toy_samples()
        a1, _ = train(*samples, 2, TrainConfig(epochs=50, seed=9))
        a2, _ = train(*samples, 2, TrainConfig(epochs=50, seed=9))
        assert np.array_equal(a1.pre_layers[0], a2.pre_layers[0])
        assert a1.threshold == a2.threshold

    @pytest.mark.parametrize("lr,epochs", [(1e300, 1), (1e150, 1), (1e200, 5)])
    def test_divergence_is_checked_after_the_last_update(self, lr, epochs):
        # with one epoch the only loss before an update is finite; the
        # weights after it overflow the outputs (1e300) or their squares
        # (1e150).  No overflow reaches the user as a numpy warning.
        cfg = TrainConfig(learning_rate=lr, epochs=epochs, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=DIVERGED):
                train(*self.toy_samples(), 2, cfg)

    # The loss check screens each epoch with a BLAS dot, and sums the
    # squares exactly only when the dot is not below 1e300.  Minterms near
    # 1e152 put the oracle's first sums of squares in [1e300, 1.8e308): in
    # the first case training goes on, in the second the next sum overflows.
    @pytest.mark.parametrize("scale,lr,seed,diverges", [
        (1e152, 1e-303, 1, False),
        (1e151, 1e-298, 0, True),
    ], ids=["goes-on", "overflows"])
    def test_loss_past_the_screen_is_checked_exactly(self, scale, lr, seed, diverges):
        mt, labels = self.toy_samples()
        args = (mt * scale, labels, 2, TrainConfig(learning_rate=lr, epochs=8, seed=seed))
        sums = []
        want = train_outcome(lambda *a: train_temporaries(*a, sums=sums), *args)
        assert any(1e300 <= s < 1.8e308 for s in sums)
        assert (sums[-1] == math.inf) is diverges
        assert (want == DIVERGED_MESSAGE) is diverges
        assert train_outcome(train, *args) == want

    @pytest.mark.parametrize("nodes", [True, np.bool_(True), 2.5, np.float64(2.0), "3", None])
    def test_relu_nodes_not_an_integer_rejected(self, nodes):
        with pytest.raises(ValueError, match="^relu nodes must be an integer$"):
            train(*self.toy_samples(), nodes)

    @pytest.mark.parametrize("nodes", [np.int64(2), np.uint8(2), np.uint64(2)])
    def test_relu_nodes_take_numpy_integers(self, nodes):
        cfg = TrainConfig(epochs=3)
        assert (train_outcome(train, *self.toy_samples(), nodes, cfg)
                == train_outcome(train, *self.toy_samples(), 2, cfg))

    @pytest.mark.parametrize("fields,message", [
        (dict(epochs=2.5), "epochs must be an integer"),
        (dict(epochs=True), "epochs must be an integer"),
        (dict(epochs=0), "epochs must be at least 1"),
        (dict(seed=1.5), "seed must be a non-negative integer"),
        (dict(seed=True), "seed must be a non-negative integer"),
        (dict(seed=-1), "seed must be a non-negative integer"),
        (dict(learning_rate=True), "learning rate must be a real number"),
        (dict(learning_rate=np.bool_(True)), "learning rate must be a real number"),
        (dict(learning_rate="0.5"), "learning rate must be a real number"),
        (dict(learning_rate=None), "learning rate must be a real number"),
        (dict(learning_rate=-0.5), "learning rate must be non-negative"),
    ])
    def test_config_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**fields)

    def test_config_takes_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(3), seed=np.uint32(0))
        ann, _ = train(*self.toy_samples(), 2, cfg)
        want, _ = train(*self.toy_samples(), 2, TrainConfig(epochs=3, seed=0))
        assert np.array_equal(ann.pre_layers[0], want.pre_layers[0])

    @pytest.mark.parametrize("rate", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
    def test_config_takes_a_real_learning_rate(self, rate):
        ann, _ = train(*self.toy_samples(), 2, TrainConfig(learning_rate=rate, epochs=3))
        want, _ = train(*self.toy_samples(), 2, TrainConfig(learning_rate=1.0, epochs=3))
        assert np.array_equal(ann.pre_layers[0], want.pre_layers[0])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="^no training samples$"):
            train(np.empty((0, 2)), [], 2)

    @pytest.mark.parametrize("labels", [[0, 1], [[0, 1, 0]]], ids=["too-few", "2-d"])
    def test_labels_not_one_per_row_rejected(self, labels):
        mt = minterm_transform([[0.1], [0.5], [0.9]])
        with pytest.raises(ValueError, match=r"^need an \(N, 2\^n\) minterm matrix and N labels$"):
            train(mt, labels, 2)

    def test_single_class_rejected(self):
        mt = minterm_transform([[0.5], [0.5]])
        with pytest.raises(ValueError):
            train(mt, [1, 1], 2)

    @pytest.mark.parametrize("row,value", [(0, np.nan), (3, np.inf), (20, -np.inf)])
    def test_non_finite_minterm_rejected(self, row, value):
        mt, labels = self.toy_samples()
        mt[row, 1] = value
        with pytest.raises(ValueError, match="^minterm values must be finite$"):
            train(mt, labels, 2)

    @pytest.mark.parametrize("bad", [np.nan, 2, -1, 0.5])
    def test_label_other_than_0_or_1_rejected(self, bad):
        mt, labels = self.toy_samples()
        labels = labels.astype(float)
        labels[labels == 1] = bad
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            train(mt, labels, 2)

    @settings(deadline=None, max_examples=100)
    @given(seeded_training_sets(6, 300), st.integers(1, 8), st.integers(1, 30),
           st.one_of(st.floats(0, 4), st.sampled_from([1e150, 1e200, 1e300])),
           st.integers(0, 2**32 - 1))
    def test_equals_trainer_with_temporaries(self, data, relu_nodes, epochs, lr, seed):
        # the same floats, and the same inputs diverge, as the loop that
        # made fresh arrays every step
        args = (*data, relu_nodes, TrainConfig(learning_rate=lr, epochs=epochs, seed=seed))
        assert train_outcome(train, *args) == train_outcome(train_temporaries, *args)

    @settings(deadline=None, max_examples=50)
    @given(training_sets(3, 12), st.integers(1, 5), st.integers(1, 20),
           st.floats(0, 2), st.integers(0, 2**32 - 1))
    def test_equals_layer_list_trainer(self, data, relu_nodes, epochs, lr, seed):
        # same floats as the generic trainer on the [2^n, l, 1] chain
        mt, labels = data
        cfg = TrainConfig(learning_rate=lr, epochs=epochs, seed=seed)
        arch = [mt.shape[1], relu_nodes, 1]
        try:
            want, want_acc = train_layers(mt, labels, arch, cfg)
        except ValueError:
            with pytest.raises(ValueError, match=DIVERGED):
                train(mt, labels, relu_nodes, cfg)
            return
        got, acc = train(mt, labels, relu_nodes, cfg)
        assert np.array_equal(got.pre_layers[0], want.pre_layers[0])
        assert np.array_equal(got.post_layers[0], want.post_layers[0])
        assert len(got.pre_layers) == len(got.post_layers) == 1
        assert got.threshold == want.threshold
        assert acc == want_acc


# OpenBLAS, built with DYNAMIC_ARCH, reads its kernel and thread count when
# it loads, so each setting runs in a fresh interpreter; the variables are
# set on the child only.  The trainer and the oracle must give the same
# bytes, or the same error, on every seeded call under every setting.
SWEEP = ("import json; from annlogic.network import train; "
         "from oracles import seeded_trainings, train_outcome, train_temporaries; "
         "print(json.dumps([[train_outcome(t, *call) for t in (train, train_temporaries)] "
         "for call in seeded_trainings(120)]))")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
def test_equals_temporaries_on_every_blas_kernel(core, threads):
    paths = (Path(annlogic.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-c", SWEEP], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    pairs = json.loads(done.stdout)
    assert [i for i, (got, want) in enumerate(pairs) if got != want] == []
    # both the trained and the diverged paths ran
    assert 0 < sum(got == DIVERGED_MESSAGE for got, _ in pairs) < len(pairs)


class TestChooseThreshold:
    def test_separable(self):
        tau, acc = choose_threshold(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1]))
        assert (tau, acc) == (0.5, 1.0)

    def test_all_one_wins_ties(self):
        # no split beats classifying every row 1, so tau sits below the outputs
        tau, acc = choose_threshold(np.array([0.3, 0.3]), np.array([1, 1]))
        assert (tau, acc) == (0.3 - 1.0, 1.0)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=1, max_size=30))
    def test_matches_loop_with_ties(self, pairs):
        outputs = np.array([o / 2 for o, _ in pairs], dtype=float)
        labels = np.array([y for _, y in pairs], dtype=float)
        assert choose_threshold(outputs, labels) == choose_threshold_loop(outputs, labels)


# model files as save_model wrote them before FuzzifierSpec held its
# parameters as one `params` pair, one per fuzzifier kind
SAVED_MODELS = {
    "minmax": """{
 "input_size": 4,
 "relu_count": 1,
 "pre_layers": [
  [
   [
    0.05593380354115308,
    -0.07005545138296437,
    0.30127095900415723,
    0.0015834925632548617
   ]
  ]
 ],
 "post_layers": [
  [
   [
    -0.2371701499292833
   ]
  ]
 ],
 "threshold": -0.03747690206106175,
 "fuzzifier": {
  "kind": "minmax",
  "lo": [
   -2.0,
   -1.25
  ],
  "hi": [
   3.0,
   2.5
  ]
 }
}""",
    "logistic": """{
 "input_size": 4,
 "relu_count": 1,
 "pre_layers": [
  [
   [
    0.05185642224269174,
    -0.08009539105004834,
    0.29954516006754267,
    0.017551188765774123
   ]
  ]
 ],
 "post_layers": [
  [
   [
    -0.23854998985831277
   ]
  ]
 ],
 "threshold": -0.027950126926275236,
 "fuzzifier": {
  "kind": "logistic",
  "midpoint": [
   0.8125,
   0.625
  ],
  "steepness": [
   0.5408987230262506,
   0.7396002616336388
  ]
 }
}""",
}


class TestPersistence:
    @pytest.mark.parametrize("kind", SAVED_MODELS)
    def test_saved_model_loads_and_saves_to_the_same_bytes(self, tmp_path, kind):
        (tmp_path / "old.json").write_text(SAVED_MODELS[kind])
        ann, spec = load_model(tmp_path / "old.json")
        assert spec.kind == kind
        save_model(tmp_path / "new.json", ann, spec)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ann = random_simple_ann(rng, 2, 3, extra_pre=True, extra_post=True)
        spec = FuzzifierSpec("minmax", ((0.0, -1.0), (2.0, 3.0)))
        path = tmp_path / "model.json"
        save_model(path, ann, spec)
        loaded, spec2 = load_model(path)
        assert len(loaded.pre_layers) == len(ann.pre_layers)
        for a, b in zip(
            loaded.pre_layers + loaded.post_layers,
            ann.pre_layers + ann.post_layers,
        ):
            assert np.array_equal(a, b)
        assert loaded.threshold == ann.threshold
        assert (spec2.kind, spec2.params) == (spec.kind, spec.params)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "input_size": 4,
            "relu_count": 2,
            "pre_layers": [[[1, 0], [0, 1]]],  # 2x2 against declared 4 inputs
            "post_layers": [[[1, 1]]],
            "threshold": 0.0,
            "fuzzifier": None,
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^declared sizes do not match matrix shapes$"):
            load_model(path)

    def test_missing_threshold(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "input_size": 2,
            "relu_count": 2,
            "pre_layers": [[[1, 0], [0, 1]]],
            "post_layers": [[[1, 1]]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^model file missing field 'threshold'$"):
            load_model(path)

    def test_bias_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "input_size": 2,
            "relu_count": 2,
            "pre_layers": [[[1, 0], [0, 1]]],
            "post_layers": [[[1, 1]]],
            "threshold": 0.0,
            "biases": [[0.1, 0.2]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^model format is bias-free; bias fields rejected$"):
            load_model(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"input_size": 2, "relu_count": 2, '
            '"pre_layers": [[[NaN, 0], [0, 1]]], '
            '"post_layers": [[[1, 1]]], "threshold": 0.0}'
        )
        with pytest.raises(ValueError, match="^non-finite number 'NaN' in model file$"):
            load_model(path)
