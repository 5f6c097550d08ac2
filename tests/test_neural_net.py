"""Dense classifier: activations, gradients, training, persistence.

The separability oracle is a plain least-squares linear discriminant; the
network only has to match what a linear model already achieves on the
blob fixtures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient_check
from flowsel.dataset import Dataset
from flowsel.errors import DataError, NumericError
from flowsel.neural_net import (
    PRESET_FUNNEL,
    MlpConfig,
    MlpModel,
    _forward_full,
    forward,
    init_model,
    load_model,
    predict,
    relu,
    save_loss_trace,
    save_model,
    sigmoid,
    softmax,
    train,
)


def blob_dataset(rows=240, n_features=4, n_classes=3, seed=0, sep=3.0):
    # features live in [0, 1] like every post-normalization dataset here
    rng = np.random.default_rng(seed)
    labels = np.arange(rows) % n_classes
    centers = rng.normal(size=(n_classes, n_features)) * sep
    feats = centers[labels] + rng.normal(size=(rows, n_features)) * 0.4
    feats = (feats - feats.min(axis=0)) / (feats.max(axis=0) - feats.min(axis=0))
    return Dataset(
        features=feats,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        labels_cat=labels.astype(np.int64),
        labels_bin=labels != 0,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )


def linear_oracle_accuracy(data):
    """Least-squares one-vs-rest discriminant, solved in closed form."""
    X = np.column_stack([data.features, np.ones(data.n_rows)])
    targets = np.eye(len(data.class_names))[data.labels_cat]
    coef, *_ = np.linalg.lstsq(X, targets, rcond=None)
    preds = (X @ coef).argmax(axis=1)
    return float(np.mean(preds == data.labels_cat))


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0, 0, 3])

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(
            softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15
        )

    def test_softmax_hand_value(self):
        # logits (0, ln 2) -> probabilities (1/3, 2/3)
        np.testing.assert_allclose(
            softmax(np.array([[0.0, math.log(2.0)]])),
            [[1 / 3, 2 / 3]],
            rtol=0,
            atol=1e-15,
        )

    def test_softmax_huge_logits_stay_finite(self):
        p = softmax(np.array([[1000.0, 999.0, -1000.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid_values_and_stability(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        z = np.array([-1000.0, 1000.0])
        out = sigmoid(z)
        assert out[0] == 0.0 and out[1] == 1.0
        assert np.isfinite(out).all()


class TestInitModel:
    def test_layer_dims(self):
        model = init_model(7, (5, 3), 4, "categorical", seed=0)
        assert model.layer_dims == (7, 5, 3, 4)
        assert model.n_features == 7

    def test_binary_head_has_one_output(self):
        model = init_model(6, (4,), 2, "binary", seed=0)
        assert model.layer_dims == (6, 4, 1)

    def test_fan_in_bounds(self):
        model = init_model(9, (16, 8), 3, "categorical", seed=2)
        dims = model.layer_dims
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            bound = 1.0 / math.sqrt(dims[i])
            assert np.all(np.abs(w) < bound)
            assert np.all(np.abs(b) < bound)

    def test_deterministic(self):
        a = init_model(5, (4,), 3, "categorical", seed=9)
        b = init_model(5, (4,), 3, "categorical", seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_model(5, (4,), 3, "quantum", seed=0)
        with pytest.raises(ValueError):
            init_model(5, (4,), 1, "categorical", seed=0)


class TestForwardPredict:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        model = init_model(6, (10, 5), 4, "categorical", seed=1)
        for _ in range(50):
            X = rng.normal(size=(int(rng.integers(1, 30)), 6)) * 10
            probs = forward(model, X)
            np.testing.assert_allclose(
                probs.sum(axis=1), 1.0, rtol=0, atol=1e-9
            )
            assert np.all(probs >= 0)

    def test_zero_model_is_uniform(self):
        model = init_model(3, (4,), 5, "categorical", seed=0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        probs = forward(model, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_allclose(probs, np.full((1, 5), 0.2), atol=1e-15)
        # uniform rows tie; argmax must take class 0
        assert predict(model, np.array([[1.0, -2.0, 3.0]]))[0] == 0

    def test_binary_midpoint_counts_as_positive(self):
        model = init_model(2, (3,), 2, "binary", seed=0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        # zero logit -> sigmoid exactly 0.5 -> attack
        assert predict(model, np.zeros((1, 2)))[0] == 1

    def test_width_mismatch(self):
        model = init_model(4, (3,), 2, "categorical", seed=0)
        with pytest.raises(DataError, match="features"):
            forward(model, np.zeros((2, 7)))

    def test_nonfinite_input_reports_layer(self):
        model = init_model(2, (3,), 2, "categorical", seed=0)
        with pytest.raises(NumericError, match="layer 0"):
            forward(model, np.array([[np.inf, 1.0]]))


def reference_forward(model, X):
    """Class probabilities from every layer at once, as ``forward`` computed
    them before it kept two layers: the reference for its bits."""
    pre_acts, _ = _forward_full(model, X)
    z_out = pre_acts[-1]
    if model.head == "binary":
        return sigmoid(z_out[:, 0])
    return softmax(z_out)


class TestForwardOneLayerAtATime:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_every_layer_at_once(self, data):
        n_features = data.draw(st.integers(1, 9), label="features")
        hidden = tuple(data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3),
                                 label="hidden"))
        head = data.draw(st.sampled_from(["categorical", "binary"]), label="head")
        n_classes = data.draw(st.integers(2, 9), label="classes")
        rows = data.draw(st.integers(1, 70), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        model = init_model(n_features, hidden, n_classes, head, seed=seed % 1000)
        X = np.random.default_rng(seed).normal(size=(rows, n_features)) * 4
        if data.draw(st.booleans(), label="fortran"):
            X = np.asfortranarray(X)
        assert forward(model, X).tobytes() == reference_forward(model, X).tobytes()

    def test_predict_allocates_under_four_tables(self, traced_peak):
        """Scoring 20,000 rows through (50, 25) holds the two widest
        consecutive layers, not every layer's activations."""
        X = np.random.default_rng(1).random((20000, 30))
        model = init_model(30, PRESET_FUNNEL, 5, "categorical", seed=2)
        peak, labels = traced_peak(lambda: predict(model, X))
        assert peak <= 4 * X.nbytes, peak / X.nbytes
        np.testing.assert_array_equal(labels, reference_forward(model, X).argmax(axis=1))


class TestGradientCheck:
    def test_fresh_model_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_model(4, (3,), 3, "categorical", seed=5)
        X = rng.normal(size=(4, 4))
        y = np.array([0, 1, 2, 0])
        err = gradient_check(model, X, y, n_samples=64, seed=1)
        assert err < 1e-5

    def test_binary_head_too(self):
        rng = np.random.default_rng(8)
        model = init_model(5, (4,), 2, "binary", seed=3)
        X = rng.normal(size=(6, 5))
        y = np.array([0, 1, 1, 0, 1, 0])
        assert gradient_check(model, X, y, n_samples=64, seed=2) < 1e-5

    def test_deeper_model(self):
        rng = np.random.default_rng(9)
        model = init_model(6, (8, 4), 3, "categorical", seed=11)
        X = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, 8)
        assert gradient_check(model, X, y, n_samples=128, seed=3) < 1e-5

    def test_batch_cap(self):
        model = init_model(3, (2,), 2, "categorical", seed=0)
        with pytest.raises(ValueError, match="at most 8"):
            gradient_check(model, np.zeros((9, 3)), np.zeros(9, dtype=np.int64))


class TestTrain:
    def test_loss_decreases_and_fits_blobs(self):
        data = blob_dataset(seed=0)
        assert linear_oracle_accuracy(data) >= 0.98  # blobs really separable
        cfg = MlpConfig(hidden_sizes=(16, 8), epochs=10, learning_rate=0.1, seed=0)
        model = train(data, cfg)
        losses = [entry[2] for entry in model.loss_trace]
        first_epoch = np.mean([l for (e, _, l) in model.loss_trace if e == 0])
        last_epoch = np.mean([l for (e, _, l) in model.loss_trace if e == 9])
        assert last_epoch < first_epoch
        assert all(math.isfinite(l) for l in losses)
        acc = float(np.mean(predict(model, data.features) == data.labels_cat))
        assert acc >= 0.98

    def test_trace_is_per_batch_with_epoch_numbers(self):
        data = blob_dataset(rows=100, seed=2)
        cfg = MlpConfig(hidden_sizes=(6,), epochs=3, batch_size=32, seed=0)
        model = train(data, cfg)
        batches_per_epoch = math.ceil(100 / 32)
        assert len(model.loss_trace) == 3 * batches_per_epoch
        for epoch in range(3):
            rows = [(e, b) for (e, b, _) in model.loss_trace if e == epoch]
            assert [b for _, b in rows] == list(range(batches_per_epoch))

    def test_zero_learning_rate_is_a_null_step(self):
        data = blob_dataset(rows=60, seed=3)
        cfg = MlpConfig(hidden_sizes=(5,), epochs=2, learning_rate=0.0, seed=4)
        model = train(data, cfg)
        fresh = init_model(4, (5,), 3, "categorical", seed=4)
        for w, f in zip(model.weights, fresh.weights):
            np.testing.assert_array_equal(w, f)
        for b, f in zip(model.biases, fresh.biases):
            np.testing.assert_array_equal(b, f)

    def test_deterministic(self):
        data = blob_dataset(rows=90, seed=5)
        cfg = MlpConfig(hidden_sizes=(7,), epochs=4, seed=6)
        a = train(data, cfg)
        b = train(data, cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.loss_trace == b.loss_trace

    def test_binary_head_fits_the_indicator(self):
        data = blob_dataset(rows=150, seed=7)
        cfg = MlpConfig(hidden_sizes=(10,), epochs=12, learning_rate=0.1, seed=0)
        model = train(data, cfg, head="binary")
        preds = predict(model, data.features)
        assert float(np.mean(preds == data.labels_bin)) >= 0.95

    def test_adam_also_fits(self):
        data = blob_dataset(rows=120, seed=8)
        cfg = MlpConfig(hidden_sizes=(8,), epochs=6, optimizer="adam", seed=1)
        model = train(data, cfg)
        acc = float(np.mean(predict(model, data.features) == data.labels_cat))
        assert acc >= 0.95

    def test_missing_class_rejected(self):
        data = blob_dataset(rows=60, seed=9)
        gap = Dataset(
            features=data.features,
            feature_names=data.feature_names,
            labels_cat=np.where(data.labels_cat == 2, 0, data.labels_cat),
            labels_bin=data.labels_bin,
            class_names=data.class_names,  # still claims 3 classes
        )
        with pytest.raises(DataError, match="covers 2 of 3"):
            train(gap, MlpConfig(hidden_sizes=(4,), epochs=1))

    def test_binary_single_class_rejected(self):
        data = blob_dataset(rows=40, seed=10)
        flat = Dataset(
            features=data.features,
            feature_names=data.feature_names,
            labels_cat=data.labels_cat,
            labels_bin=np.ones(40, dtype=bool),
            class_names=data.class_names,
        )
        with pytest.raises(DataError, match="single class"):
            train(flat, MlpConfig(hidden_sizes=(4,), epochs=1), head="binary")

    def test_explosion_aborts_with_numeric_error(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(64, 4)) * 1e150
        labels = (np.arange(64) % 2).astype(np.int64)
        huge = Dataset(feats, ("a", "b", "c", "d"), labels, labels != 0,
                       ("x", "y"))
        with pytest.raises(NumericError):
            with np.errstate(over="ignore"):
                train(huge, MlpConfig(hidden_sizes=(8,), epochs=3, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(hidden_sizes=())
        with pytest.raises(ValueError):
            MlpConfig(batch_size=0)
        with pytest.raises(ValueError):
            MlpConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            MlpConfig(optimizer="momentum")
        with pytest.raises(ValueError):
            train(blob_dataset(rows=30), MlpConfig(hidden_sizes=(3,)), head="h")


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        data = blob_dataset(rows=80, seed=12)
        model = train(data, MlpConfig(hidden_sizes=(6, 4), epochs=2, seed=3))
        path = str(tmp_path / "model.nn")
        save_model(model, path)
        back = load_model(path)
        assert back.head == model.head
        assert back.class_names == model.class_names
        assert back.layer_dims == model.layer_dims
        for w, v in zip(back.weights, model.weights):
            np.testing.assert_array_equal(w, v)
        for b, v in zip(back.biases, model.biases):
            np.testing.assert_array_equal(b, v)
        X = data.features[:10]
        np.testing.assert_array_equal(predict(back, X), predict(model, X))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.nn")
        with open(path, "wb") as fh:
            fh.write(b"WRONGMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_model(str(tmp_path / "gone.nn"))

    def test_loss_trace_file(self, tmp_path):
        data = blob_dataset(rows=64, seed=13)
        model = train(data, MlpConfig(hidden_sizes=(4,), epochs=2, seed=0))
        path = str(tmp_path / "loss.csv")
        save_loss_trace(model, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,batch,loss"
        assert len(lines) == len(model.loss_trace) + 1
        epoch, batch, loss = lines[1].split(",")
        assert (int(epoch), int(batch), float(loss)) == model.loss_trace[0]
