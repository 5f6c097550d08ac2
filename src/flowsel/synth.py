"""Synthetic labeled fixtures with known-informative features.

Each informative feature is tied to one class: rows of that class draw
from a high band, everything else from a low band, so the feature alone
nearly separates its class.  Distinct informative features carry distinct
class information, which keeps them useful together rather than
redundant.  Noise features are label-independent uniforms.  Column order
is shuffled so nothing can cheat by position; the ground truth travels in
a sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .dataset import Dataset
from .errors import DataError

_HIGH_MEAN = 0.8
_LOW_MEAN = 0.25
_BAND_SD = 0.07


@dataclass(frozen=True)
class FixtureTruth:
    informative: tuple[int, ...]  # column indices after shuffling
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    params: dict


def make_dataset(
    n_informative: int,
    n_noise: int,
    rows: int,
    seed: int,
    n_classes: int = 3,
) -> tuple[Dataset, FixtureTruth]:
    """Generate a model-ready dataset plus its ground truth.

    Classes are balanced.  Class 0 is benign; the rest are attack types.
    Informative feature j targets class j mod n_classes.
    """
    if n_informative < 1:
        raise DataError("need at least one informative feature")
    if n_noise < 0:
        raise DataError("noise feature count cannot be negative")
    if n_classes < 2:
        raise DataError("need at least two classes")
    if rows < 2 * n_classes:
        raise DataError("too few rows for the requested class count")

    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(rows) % n_classes)
    total = n_informative + n_noise
    values = rng.uniform(0.0, 1.0, (rows, total))
    for j in range(n_informative):
        target = j % n_classes
        means = np.where(labels == target, _HIGH_MEAN, _LOW_MEAN)
        values[:, j] = np.clip(rng.normal(means, _BAND_SD), 0.0, 1.0)

    # scatter the informative columns among the noise
    column_order = rng.permutation(total)
    values = values[:, column_order]
    informative = tuple(sorted(int(np.flatnonzero(column_order == j)[0])
                               for j in range(n_informative)))

    width = len(str(total - 1))
    feature_names = tuple(f"feat_{i:0{width}d}" for i in range(total))
    class_names = ("Benign",) + tuple(f"Attack{chr(ord('A') + i)}"
                                      for i in range(n_classes - 1))
    data = Dataset(
        features=values,
        feature_names=feature_names,
        labels_cat=labels.astype(np.int64),
        labels_bin=labels != 0,
        class_names=class_names,
    )
    truth = FixtureTruth(
        informative=informative,
        feature_names=feature_names,
        class_names=class_names,
        params={
            "n_informative": n_informative,
            "n_noise": n_noise,
            "rows": rows,
            "seed": seed,
            "n_classes": n_classes,
            "high_mean": _HIGH_MEAN,
            "low_mean": _LOW_MEAN,
            "band_sd": _BAND_SD,
        },
    )
    return data, truth


def write_fixture(
    directory: str,
    stem: str,
    n_informative: int,
    n_noise: int,
    rows: int,
    seed: int,
    n_classes: int = 3,
) -> tuple[str, str]:
    """Write the fixture as CSV (Label column last) plus a truth sidecar.

    Regenerating with the same arguments produces identical bytes.
    Returns (csv_path, sidecar_path).
    """
    import os

    data, truth = make_dataset(n_informative, n_noise, rows, seed, n_classes)
    csv_path = os.path.join(directory, f"{stem}.csv")
    sidecar_path = os.path.join(directory, f"{stem}.truth.json")
    rows = "".join(",".join([*(repr(float(v)) for v in data.features[i]),
                             data.class_names[data.labels_cat[i]]]) + "\n"
                   for i in range(data.n_rows))
    artifacts.write_atomic(csv_path, ",".join(data.feature_names) + ",Label\n" + rows)
    sidecar = {
        "informative_indices": list(truth.informative),
        "informative_names": [truth.feature_names[i] for i in truth.informative],
        "feature_names": list(truth.feature_names),
        "class_names": list(truth.class_names),
        "params": truth.params,
    }
    artifacts.write_atomic(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return csv_path, sidecar_path
