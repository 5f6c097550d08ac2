"""Seeded input generators and the set-up entry point of each workload.

Every generator is a pure function of its seed: the same seed writes the
same bytes.  ``python3 perfbench/fixtures.py <workload> <seed> <dir>`` runs
one set-up in a fresh interpreter, so the benchmark process that times the
workload never holds the set-up's memory.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

# The corpus-shaped fixture behind grid-cold and grid-warm.
CORPUS_ROWS = 6000
CORPUS_FEATURES = 63
CORPUS_INFORMATIVE = 12
CORPUS_SPREAD = 0.6
CORPUS_FLIP = 0.10
CORPUS_CLASSES = ("Benign", "Bot", "BruteForce", "DDoS", "DoS")
CORPUS_CLASS_SHARES = (0.4, 0.15, 0.15, 0.15, 0.15)

# The day files behind ingest.
DAY_FILES = 4
DAY_ROWS = 2500
DAY_FEATURES = 60
DAY_NONFINITE_ROWS = 5  # per file
DAY_BENIGN_SHARE = 0.6
# Identifier columns, all numeric: load_csv rejects text in any column
# before the pipeline drops these by name.
DAY_ID_COLUMNS = ("Flow ID", "Src IP", "Src Port", "Dst IP", "Timestamp")
DAY_CONSTANT_COLUMN = "Bwd URG Flags"
DAY_NONFINITE_COLUMN = "Flow Byts/s"


def _write_csv(path: str, header, columns, labels) -> None:
    """Write text columns side by side; ``columns`` holds one list of cell
    strings per header entry except the trailing label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns, labels):
            fh.write(",".join(row) + "\n")


def _cells(values: np.ndarray, integer: bool) -> list[str]:
    if integer:
        return [str(v) for v in values.astype(np.int64).tolist()]
    return [repr(v) for v in np.round(values, 6).tolist()]


def write_search_fixture(directory: str) -> str:
    """The 12-feature fixture of acceptance criterion 3, as an .npz file."""
    from flowsel.synth import make_dataset

    data, _ = make_dataset(3, 9, 800, seed=4)
    path = os.path.join(directory, "search.npz")
    np.savez(path, features=data.features, labels=data.labels_cat,
             feature_names=np.array(data.feature_names),
             class_names=np.array(data.class_names))
    return path


def write_corpus(directory: str, seed: int, rows: int = CORPUS_ROWS) -> str:
    """A corpus-shaped CSV with CORPUS_FLIP of its labels redrawn uniformly,
    so trees grow deep.  Informative column j is shifted up by one in class
    j mod 5; the other columns are noise, and every third column holds
    integer counts.  The seed draws the rows, the noise and the column
    order but not this structure, so the work a grid does varies little
    from seed to seed.  A truth sidecar records how many redrawn labels
    changed class."""
    rng = np.random.default_rng([seed, 1])
    n_classes = len(CORPUS_CLASSES)
    y = rng.choice(n_classes, size=rows, p=CORPUS_CLASS_SHARES)
    j = np.arange(CORPUS_FEATURES)
    shift = (j[None, :] % n_classes == np.arange(n_classes)[:, None]) & (j < CORPUS_INFORMATIVE)
    X = shift[y] + rng.normal(0.0, CORPUS_SPREAD, (rows, CORPUS_FEATURES))
    integer = j % 3 == 0
    X[:, integer] = np.round(np.exp(X[:, integer]) * 100.0)
    redrawn = rng.random(rows) < CORPUS_FLIP
    noisy = y.copy()
    noisy[redrawn] = rng.integers(0, n_classes, int(redrawn.sum()))
    order = rng.permutation(CORPUS_FEATURES)
    X, integer = X[:, order], integer[order]

    path = os.path.join(directory, "corpus.csv")
    header = [f"f{i:02d}" for i in range(CORPUS_FEATURES)] + ["Label"]
    columns = [_cells(X[:, i], integer[i]) for i in range(CORPUS_FEATURES)]
    _write_csv(path, header, columns, [CORPUS_CLASSES[c] for c in noisy])
    truth = {
        "rows": rows,
        "features": CORPUS_FEATURES,
        "classes": list(CORPUS_CLASSES),
        "redrawn": int(redrawn.sum()),
        "changed_class": int(np.count_nonzero(noisy != y)),
    }
    with open(os.path.join(directory, "corpus.truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return path


def day_labels(grouping: dict) -> list[list[str]]:
    """Raw attack labels dealt round-robin over the day files."""
    attacks = sorted(label for label, family in grouping.items() if family != "Benign")
    return [attacks[d::DAY_FILES] for d in range(DAY_FILES)]


def write_day_files(directory: str, seed: int) -> list[str]:
    """Day files that share columns: numeric identifier columns, a constant
    column, DAY_NONFINITE_ROWS rows per file with NaN or Infinity in one
    column, and raw CIC-IDS2018 labels from the bundled grouping."""
    from flowsel.pipeline import load_grouping

    grouping = load_grouping("default")
    families = sorted(set(grouping.values()))
    rng = np.random.default_rng([seed, 2])
    family_means = rng.uniform(0.0, 1.0, (len(families), DAY_FEATURES))
    integer = np.arange(DAY_FEATURES) % 2 == 0
    feature_names = [DAY_NONFINITE_COLUMN] + [f"Flow Stat {j:02d}" for j in range(1, DAY_FEATURES)]
    header = list(DAY_ID_COLUMNS) + ["Dst Port"] + feature_names + [DAY_CONSTANT_COLUMN, "Label"]
    paths = []
    for day, attacks in enumerate(day_labels(grouping)):
        benign = rng.random(DAY_ROWS) < DAY_BENIGN_SHARE
        raw = np.where(benign, "Benign", np.array(attacks)[rng.integers(0, len(attacks), DAY_ROWS)])
        fam = np.array([families.index(grouping[label]) for label in raw])
        X = family_means[fam] + rng.normal(0.0, 0.5, (DAY_ROWS, DAY_FEATURES))
        X[:, integer] = np.round(np.exp(X[:, integer]) * 50.0)
        ids = [
            rng.integers(1, 2**40, DAY_ROWS),           # Flow ID
            rng.integers(2**24, 2**32, DAY_ROWS),       # Src IP as an integer
            rng.integers(1024, 65536, DAY_ROWS),        # Src Port
            rng.integers(2**24, 2**32, DAY_ROWS),       # Dst IP
            1_518_000_000 + day * 86_400 + np.sort(rng.integers(0, 86_400, DAY_ROWS)),
        ]
        columns = [_cells(v, True) for v in ids]
        columns.append(_cells(rng.choice([21, 22, 53, 80, 443, 3389], DAY_ROWS), True))
        columns.extend(_cells(X[:, j], integer[j]) for j in range(DAY_FEATURES))
        columns.append(["0"] * DAY_ROWS)
        bad = rng.choice(DAY_ROWS, DAY_NONFINITE_ROWS, replace=False)
        for i, row in enumerate(sorted(bad.tolist())):
            columns[len(DAY_ID_COLUMNS) + 1][row] = "NaN" if i % 2 else "Infinity"
        path = os.path.join(directory, f"day{day + 1}.csv")
        _write_csv(path, header, columns, raw.tolist())
        paths.append(path)
    return paths


def prepare(workload: str, seed: int, directory: str) -> None:
    """Generate one workload's inputs (and, for grid-warm, its warm cache)."""
    os.makedirs(directory, exist_ok=True)
    if workload == "search-seeds":
        write_search_fixture(directory)
    elif workload in ("grid-cold", "grid-warm"):
        csv_path = write_corpus(directory, seed)
        if workload == "grid-warm":
            import workloads

            out = os.path.join(directory, "grid")
            if workloads.run_grid(csv_path, out):
                raise SystemExit("the cold grid failed during set-up")
            shutil.copyfile(os.path.join(out, "report.csv"),
                            os.path.join(directory, "report.cold.csv"))
    elif workload == "ingest":
        write_day_files(directory, seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
