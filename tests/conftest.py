"""Shared fixtures for the test suite.

The selection fixture (12 features, 3 informative) and its oracle are
session-scoped because several suites lean on the same 20 seeded
optimizer runs, and those runs are the expensive part.
"""

import json
import struct
import tracemalloc
import zlib

import pytest

from flowsel import artifacts
from flowsel.correlation import spearman_matrix
from flowsel.dataset import one_hot
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
