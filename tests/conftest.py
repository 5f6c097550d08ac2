"""Shared fixtures for the test suite.

The selection fixture (12 features, 3 informative) and its oracle are
session-scoped because several suites lean on the same 20 seeded
optimizer runs, and those runs are the expensive part.
"""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from flowsel import artifacts
from flowsel.correlation import spearman_matrix
from flowsel.dataset import one_hot
from flowsel.errors import NumericError
from flowsel.neural_net import MlpModel, _forward_full, _loss_and_grads
from flowsel.subset_search import (
    AquilaConfig,
    BatConfig,
    aquila_run,
    bat_run,
    brute_force_best,
)
from flowsel.synth import make_dataset

# One line per acceptance gate, printed in the terminal summary so the
# verdicts survive pytest's output capture.
GATE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.write_sep("-", "acceptance gates")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


def frame(header: dict, body: list) -> list:
    """The chunks of a container whose header is ``header``, with the
    body's checksum added, and whose body is the ``body`` chunks, nothing
    padded.  Tests write containers of other layouts or versions, or with
    edited headers, with it."""
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    blob = json.dumps({**header, "body_crc": crc}).encode("utf-8")
    return [artifacts.MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob)), blob, *body]


def gradient_check(model: MlpModel, X, y, n_samples: int = 64, step: float = 1e-5,
                   seed: int = 0, kink_tol: float = 1e-4) -> float:
    """Max relative error between backprop and central-difference gradients.

    Samples parameter coordinates with a seeded stream.  A coordinate is
    skipped when the perturbed passes disagree on any ReLU activation mask
    or when a base pre-activation sits within ``kink_tol`` of zero: the
    quadratic error model does not hold across a kink.  Batches are capped
    at 8 rows to keep the sweep honest and fast.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] > 8:
        raise ValueError("gradient check expects a batch of at most 8 rows")
    _, grads_w, grads_b = _loss_and_grads(model, X, y)
    base_pre, _ = _forward_full(model, X)

    params = []
    for i, w in enumerate(model.weights):
        params.extend(("w", i, j) for j in range(w.size))
    for i, b in enumerate(model.biases):
        params.extend(("b", i, j) for j in range(b.size))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(params), size=min(n_samples, len(params)), replace=False)

    def perturbed(kind, layer, flat, delta):
        target = model.weights[layer] if kind == "w" else model.biases[layer]
        flat_view = target.reshape(-1)
        old = flat_view[flat]
        flat_view[flat] = old + delta
        try:
            pre, _ = _forward_full(model, X)
            loss, _, _ = _loss_and_grads(model, X, y)
        finally:
            flat_view[flat] = old
        hidden = pre[:-1]
        masks = [p > 0 for p in hidden]
        near_kink = any(np.any(np.abs(p) < kink_tol) for p in hidden)
        return loss, masks, near_kink

    base_masks = [p > 0 for p in base_pre[:-1]]
    max_rel = 0.0
    checked = 0
    for pick in picks:
        kind, layer, flat = params[int(pick)]
        loss_plus, masks_plus, kink_plus = perturbed(kind, layer, flat, +step)
        loss_minus, masks_minus, kink_minus = perturbed(kind, layer, flat, -step)
        masks_stable = all(
            np.array_equal(a, b) and np.array_equal(a, c)
            for a, b, c in zip(base_masks, masks_plus, masks_minus)
        )
        if kink_plus or kink_minus or not masks_stable:
            continue
        numeric = (loss_plus - loss_minus) / (2 * step)
        analytic = grads_w[layer].reshape(-1)[flat] if kind == "w" else grads_b[layer].reshape(-1)[flat]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        max_rel = max(max_rel, rel)
        checked += 1
    if checked == 0:
        raise NumericError(
            "every sampled coordinate sat on a ReLU kink; nothing was checked"
        )
    return max_rel


@pytest.fixture
def traced_peak():
    """A function of ``call`` giving the bytes ``call()`` allocates at its
    peak, beyond what it started with, and its result.  Memory bounds taken
    with it are multiples of array sizes, so they hold on any machine."""

    def traced(call):
        call()  # warm: first calls import modules and fill caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base, result

    return traced


@pytest.fixture(scope="session")
def selection_fixture():
    """800-row labeled dataset: 3 informative features among 9 noise."""
    return make_dataset(3, 9, 800, seed=4)


@pytest.fixture(scope="session")
def selection_corr(selection_fixture):
    data, _ = selection_fixture
    indicators = one_hot(data.labels_cat, data.class_names)
    return spearman_matrix(
        data.features, indicators, data.feature_names, data.class_names
    )


@pytest.fixture(scope="session")
def selection_oracle(selection_corr):
    return brute_force_best(selection_corr)


@pytest.fixture(scope="session")
def ba_results(selection_corr):
    """Twenty full-length bat searches, seeds 0..19."""
    return tuple(
        bat_run(selection_corr, BatConfig(seed=s)) for s in range(20)
    )


@pytest.fixture(scope="session")
def ao_results(selection_corr):
    """Twenty full-length aquila searches, seeds 0..19."""
    return tuple(
        aquila_run(selection_corr, AquilaConfig(seed=s)) for s in range(20)
    )


@pytest.fixture(scope="session")
def blob_fixture():
    """Well-separated blobs: every feature informative, three classes."""
    return make_dataset(6, 0, 600, seed=5)
