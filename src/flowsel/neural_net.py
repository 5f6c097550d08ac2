"""Small dense classifier trained with mini-batch gradient descent.

Hidden layers are ReLU.  The output head is either softmax over the
classes (categorical) or a single sigmoid unit (binary), both trained on
cross-entropy.  Weights and biases start uniform in +-1/sqrt(fan_in); the
biases are random too, so a gradient check on an all-zero input still
exercises the bias path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .dataset import Dataset
from .errors import DataError, NumericError


# The default layout: a funnel.
PRESET_FUNNEL = (50, 25)


def relu(z):
    return np.maximum(z, 0.0)


def softmax(z):
    """Row-wise softmax, shifted by the row max so large logits stay finite."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = PRESET_FUNNEL
    batch_size: int = 32
    epochs: int = 10
    learning_rate: float = 0.01
    optimizer: str = "sgd"  # or "adam"
    seed: int = 0

    def __post_init__(self):
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str  # "categorical" or "binary"
    class_names: tuple[str, ...] = ()
    build_seconds: float = 0.0
    loss_trace: tuple = ()

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]


def init_model(n_features: int, hidden_sizes, n_classes: int, head: str, seed: int) -> MlpModel:
    """Fresh model with uniform +-1/sqrt(fan_in) weights and biases."""
    if head not in ("categorical", "binary"):
        raise ValueError("head must be 'categorical' or 'binary'")
    if head == "categorical" and n_classes < 2:
        raise ValueError("categorical head needs at least 2 classes")
    out_dim = 1 if head == "binary" else n_classes
    dims = [n_features, *hidden_sizes, out_dim]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, fan_out))
    return MlpModel(weights, biases, head)


def _checked_input(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(f"expected (rows, {model.n_features}) features, got {X.shape}")
    return X


def _forward_full(model: MlpModel, X):
    """All layer pre-activations and activations, input included."""
    X = _checked_input(model, X)
    activations = [X]
    pre_acts = []
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation at layer {i}")
        pre_acts.append(z)
        a = z if i == last else relu(z)
        activations.append(a)
    return pre_acts, activations


def forward(model: MlpModel, X) -> np.ndarray:
    """Class probabilities: (rows, classes) for softmax, (rows,) for sigmoid.

    Layers are computed one at a time, and each takes its bias and ReLU in
    place, so at most two consecutive layers are held at once.  The
    operations are ``_forward_full``'s, so the bits are too."""
    a = _checked_input(model, X)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation at layer {i}")
        if i < last:
            np.maximum(z, 0.0, out=z)
        a = z
    if model.head == "binary":
        return sigmoid(a[:, 0])
    return softmax(a)


def predict(model: MlpModel, X) -> np.ndarray:
    """Hard labels; softmax argmax ties go to the lower class index and a
    sigmoid output of exactly 0.5 counts as positive."""
    probs = forward(model, X)
    if model.head == "binary":
        return (probs >= 0.5).astype(np.int64)
    return probs.argmax(axis=1)


def _loss_and_grads(model: MlpModel, X, y):
    """Mean cross-entropy on the batch and gradients for every parameter."""
    pre_acts, activations = _forward_full(model, X)
    n = X.shape[0]
    z_out = pre_acts[-1]
    y = np.asarray(y, dtype=np.int64)

    if model.head == "binary":
        z = z_out[:, 0]
        t = y.astype(np.float64)
        # stable binary cross-entropy straight from the logits
        loss = float(np.mean(np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))))
        delta = ((sigmoid(z) - t) / n).reshape(-1, 1)
    else:
        shifted = z_out - z_out.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-np.mean(log_probs[np.arange(n), y]))
        probs = np.exp(log_probs)
        probs[np.arange(n), y] -= 1.0
        delta = probs / n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre_acts[i - 1] > 0)
    return loss, grads_w, grads_b


def train(train_data: Dataset, config: MlpConfig, head: str = "categorical") -> MlpModel:
    """Mini-batch training with a fresh shuffle each epoch.

    Categorical mode fits labels_cat over every class; binary mode fits the
    attack indicator with a single sigmoid unit.  A non-finite batch loss
    aborts immediately with the epoch and batch index.
    """
    X = np.asarray(train_data.features, dtype=np.float64)
    if head == "binary":
        y = train_data.labels_bin.astype(np.int64)
        if np.unique(y).size < 2:
            raise DataError("binary training data contains a single class")
        n_classes = 2
    elif head == "categorical":
        y = np.asarray(train_data.labels_cat, dtype=np.int64)
        n_classes = len(train_data.class_names)
        present = np.unique(y)
        if present.size < n_classes:
            raise DataError(
                f"training data covers {present.size} of {n_classes} classes"
            )
    else:
        raise ValueError("head must be 'categorical' or 'binary'")

    rng = np.random.default_rng(config.seed)
    model = init_model(X.shape[1], config.hidden_sizes, n_classes, head, seed=config.seed)
    model.class_names = tuple(train_data.class_names)

    if config.optimizer == "adam":
        m_w = [np.zeros_like(w) for w in model.weights]
        v_w = [np.zeros_like(w) for w in model.weights]
        m_b = [np.zeros_like(b) for b in model.biases]
        v_b = [np.zeros_like(b) for b in model.biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

    trace = []
    start = time.perf_counter()
    n = X.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for batch_no, lo in enumerate(range(0, n, config.batch_size)):
            rows = order[lo : lo + config.batch_size]
            loss, grads_w, grads_b = _loss_and_grads(model, X[rows], y[rows])
            if not math.isfinite(loss):
                raise NumericError(
                    f"training diverged at epoch {epoch} batch {batch_no}: loss={loss}"
                )
            trace.append((epoch, batch_no, loss))
            if config.optimizer == "sgd":
                for i in range(len(model.weights)):
                    model.weights[i] -= config.learning_rate * grads_w[i]
                    model.biases[i] -= config.learning_rate * grads_b[i]
            else:
                step += 1
                for i in range(len(model.weights)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    mw_hat = m_w[i] / (1 - beta1**step)
                    vw_hat = v_w[i] / (1 - beta2**step)
                    mb_hat = m_b[i] / (1 - beta1**step)
                    vb_hat = v_b[i] / (1 - beta2**step)
                    model.weights[i] -= config.learning_rate * mw_hat / (np.sqrt(vw_hat) + eps)
                    model.biases[i] -= config.learning_rate * mb_hat / (np.sqrt(vb_hat) + eps)
    model.build_seconds = time.perf_counter() - start
    model.loss_trace = tuple(trace)
    return model


def save_loss_trace(model: MlpModel, path: str) -> None:
    """Write the per-batch loss trace as (epoch, batch, loss) CSV."""
    rows = "".join(f"{epoch},{batch},{loss!r}\n" for epoch, batch, loss in model.loss_trace)
    artifacts.write_atomic(path, "epoch,batch,loss\n" + rows)


def save_model(model: MlpModel, path: str) -> None:
    """An MLP container: weights ``w<i>`` and biases ``b<i>`` per layer."""
    arrays = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    artifacts.save(path, "mlp", arrays, head=model.head,
                   class_names=list(model.class_names), build_seconds=model.build_seconds)


def _model_from_arrays(header: dict, arrays: dict) -> MlpModel:
    layers = range(len(arrays) // 2)
    return MlpModel([arrays[f"w{i}"] for i in layers], [arrays[f"b{i}"] for i in layers],
                    head=header["head"], class_names=tuple(header["class_names"]),
                    build_seconds=float(header["build_seconds"]))


def load_model(path: str) -> MlpModel:
    return artifacts.load(path, "mlp", _model_from_arrays)


def load_model_header(path: str) -> dict:
    """The ``build_seconds`` of the MLP at ``path``, from its header alone."""
    return artifacts.load_header(path, "mlp", lambda header: {
        "build_seconds": float(header["build_seconds"])})
