"""Correctness checks on each workload's outputs.

Every check recomputes from the program's saved outputs with code of its
own (tie-averaged ranks fed to ``np.corrcoef``, the CFS formula, exact
fractions over confusion counts) or tests a property the output must have.
Nothing is compared with a stored copy.  Each check returns a list of
messages; an empty list means the output passed.
"""

from __future__ import annotations

import glob
import json
import math
import os
from fractions import Fraction

import numpy as np

SPEARMAN_ATOL = 1e-12
MERIT_RTOL = 1e-12  # vectorised enumeration against the per-mask merit
ACCURACY_SLACK = 0.02  # sampling slack on the label-noise accuracy ceiling


# ---------------------------------------------------------------------------
# references


def average_ranks(values) -> np.ndarray:
    """1-based ranks; a run of ties shares the mean of the ranks it spans."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + (counts + 1) / 2.0)[inverse]


def spearman_reference(features, class_columns) -> np.ndarray:
    """Rank every column, then np.corrcoef; constant columns correlate 0."""
    stacked = np.hstack([np.asarray(features, float), np.asarray(class_columns, float)])
    ranks = np.column_stack([average_ranks(c) for c in stacked.T])
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.corrcoef(ranks, rowvar=False)
    rho = np.nan_to_num(rho, nan=0.0)
    np.fill_diagonal(rho, 1.0)
    return rho


def cfs_merit(values, boundary: int, indices) -> float:
    """k r_cf / sqrt(k + k (k - 1) r_ff) from the matrix, |rho| throughout.

    The sums are taken in the order flowsel takes them (a 0/1 vector
    dotted with row sums and with the zero-diagonal block), so an exact
    comparison holds.
    """
    a = np.abs(np.asarray(values, float))
    fc_rowsum = a[:boundary, boundary:].sum(axis=1)
    ff = a[:boundary, :boundary].copy()
    np.fill_diagonal(ff, 0.0)
    m = np.zeros(boundary)
    m[list(indices)] = 1.0
    k = len(indices)
    if k == 0:
        return 0.0
    r_cf = float(m @ fc_rowsum) / (k * (a.shape[0] - boundary))
    r_ff = 0.0 if k == 1 else float(m @ ff @ m) / (k * (k - 1))
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def exhaustive_optimum(values, boundary: int) -> tuple[float, tuple[int, ...]]:
    """Best merit over every non-empty subset, enumerated as one matrix."""
    a = np.abs(np.asarray(values, float))
    fc_rowsum = a[:boundary, boundary:].sum(axis=1)
    ff = a[:boundary, :boundary].copy()
    np.fill_diagonal(ff, 0.0)
    codes = np.arange(1, 1 << boundary)
    masks = ((codes[:, None] >> np.arange(boundary)) & 1).astype(float)
    k = masks.sum(axis=1)
    r_cf = masks @ fc_rowsum / (k * (a.shape[0] - boundary))
    pairs = np.maximum(k * (k - 1), 1)
    r_ff = np.einsum("ij,jk,ik->i", masks, ff, masks) / pairs
    merit = k * r_cf / np.sqrt(k + k * (k - 1) * r_ff)
    best = int(np.argmax(merit))
    return float(merit[best]), tuple(int(i) for i in np.flatnonzero(masks[best]))


def _multiclass_macro(counts) -> dict:
    """Macro one-vs-rest accuracy, precision, FAR and F1 as exact fractions;
    a per-class score with a zero denominator is left out of its mean."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    per = {"precision": [], "far": [], "f1": []}
    for c in range(counts.shape[0]):
        tp = int(counts[c, c])
        fn = int(counts[c].sum()) - tp
        fp = int(counts[:, c].sum()) - tp
        tn = total - tp - fn - fp
        p = Fraction(tp, tp + fp) if tp + fp else None
        r = Fraction(tp, tp + fn) if tp + fn else None
        per["precision"].append(p)
        per["far"].append(Fraction(fp, fp + tn) if fp + tn else None)
        per["f1"].append(2 * p * r / (p + r) if p and r else None)
    out = {"accuracy": float(Fraction(int(np.trace(counts)), total))}
    for name, values in per.items():
        defined = [v for v in values if v is not None]
        out[name] = float(sum(defined) / len(defined)) if defined else None
    return out


# ---------------------------------------------------------------------------
# file readers


def read_records(out_dir: str) -> list[tuple[str, dict]]:
    """Every run record in a directory, with its path."""
    out = []
    for path in sorted(glob.glob(os.path.join(out_dir, "run_*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            out.append((path, json.load(fh)))
    return out


def read_csv_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh if line.strip()]


def read_confusion(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return np.array([[int(v) for v in line.rstrip("\n").split(",")[1:]] for line in fh])


def read_heatmap(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")[1:]
        values = np.array([[float(v) for v in line.rstrip("\n").split(",")[1:]] for line in fh])
    return names, values


def read_importance(path: str) -> dict[str, float]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "feature,importance":
                continue
            name, _, value = line.partition(",")
            out[name] = float(value)
    return out


def _float_or_none(text: str):
    return float(text) if text != "" else None


# ---------------------------------------------------------------------------
# search-seeds


def check_spearman(matrix, features, class_columns, label: str) -> list[str]:
    expected = spearman_reference(features, class_columns)
    values = np.asarray(matrix)
    if values.shape != expected.shape:
        return [f"{label}: matrix is {values.shape}, expected {expected.shape}"]
    err = float(np.max(np.abs(values - expected)))
    if not err <= SPEARMAN_ATOL:
        return [f"{label}: Spearman matrix differs from rank-then-corrcoef by {err:.3g}"]
    return []


def check_search(result, corr, optimum: float, n: int, t_max: int) -> list[str]:
    """A bat or aquila result: exact merit, bounded by the optimum,
    a non-decreasing trace ending at the merit, n (t_max + 1) evaluations."""
    name = f"{result.method} seed {result.seed}"
    errors = []
    merit = cfs_merit(corr.values, corr.class_boundary, result.best.indices)
    if result.best_merit != merit:
        errors.append(f"{name}: merit {result.best_merit!r} but the CFS formula "
                      f"gives {merit!r} for subset {result.best.indices}")
    if result.best_merit > optimum * (1 + MERIT_RTOL):
        errors.append(f"{name}: merit {result.best_merit!r} exceeds the optimum {optimum!r}")
    trace = np.asarray(result.merit_trace)
    if trace.size != t_max + 1 or np.any(np.diff(trace) < 0):
        errors.append(f"{name}: trace of {trace.size} epochs is not {t_max + 1} "
                      "non-decreasing values")
    elif trace[-1] != result.best_merit:
        errors.append(f"{name}: trace ends at {trace[-1]!r}, not at the merit")
    if result.evaluations != n * (t_max + 1):
        errors.append(f"{name}: {result.evaluations} evaluations, expected {n * (t_max + 1)}")
    return errors


def check_brute(result, corr) -> list[str]:
    optimum, subset = exhaustive_optimum(corr.values, corr.class_boundary)
    errors = []
    if abs(result.best_merit - optimum) > MERIT_RTOL * optimum:
        errors.append(f"brute: merit {result.best_merit!r}, enumeration gives {optimum!r}")
    if result.best.indices != subset:
        errors.append(f"brute: subset {result.best.indices}, enumeration gives {subset}")
    if result.evaluations != (1 << corr.class_boundary) - 1:
        errors.append(f"brute: {result.evaluations} evaluations for "
                      f"{corr.class_boundary} features")
    return errors


def check_search_round(out: dict, features, indicators, bat_n, bat_t, ao_n, ao_t) -> list[str]:
    corr = out.get("corr")
    if corr is None:
        return ["search round has no correlation matrix"]
    errors = check_spearman(corr.values, features, indicators, "search fixture")
    optimum, _ = exhaustive_optimum(corr.values, corr.class_boundary)
    if "ba" in out:
        errors += check_search(out["ba"], corr, optimum, bat_n, bat_t)
    if "ao" in out:
        errors += check_search(out["ao"], corr, optimum, ao_n, ao_t)
    if "brute" in out:
        errors += check_brute(out["brute"], corr)
    return errors


# ---------------------------------------------------------------------------
# grid-cold and grid-warm


def check_grid(out_dir: str, truth: dict, expected_runs: int, k: int) -> list[str]:
    """Report rows against their confusion matrices, the rf-ig subset against
    the saved importances, forest accuracy against the label noise."""
    records = [record for _, record in read_records(out_dir)]
    report_path = os.path.join(out_dir, "report.csv")
    if not os.path.exists(report_path):
        return [f"{out_dir}: no report.csv"]
    rows = read_csv_rows(report_path)
    errors = []
    if len(records) != expected_runs or len(rows) != expected_runs:
        errors.append(f"{out_dir}: {len(records)} run records and {len(rows)} report rows "
                      f"for {expected_runs} runs")
    by_method = {r["methodology"]: r for r in rows}
    ceiling = 1.0 - truth["changed_class"] / truth["rows"] + ACCURACY_SLACK
    for record in records:
        method = record["methodology"]
        row = by_method.get(method)
        if row is None:
            errors.append(f"{method}: no report row")
            continue
        counts = read_confusion(record["artifacts"]["confusion"])
        expected = _multiclass_macro(counts)
        for name, value in expected.items():
            if _float_or_none(row[name]) != value:
                errors.append(f"{method}: report {name} {row[name]} but its confusion "
                              f"matrix gives {value!r}")
        if int(row["K"]) != len(record["subset"]["indices"]):
            errors.append(f"{method}: report K {row['K']} but the subset has "
                          f"{len(record['subset']['indices'])} features")
        if record["model"] == "rf":
            majority = counts.sum(axis=1).max() / counts.sum()
            if not majority < expected["accuracy"] <= ceiling:
                errors.append(f"{method}: accuracy {expected['accuracy']:.4f} outside "
                              f"({majority:.4f}, {ceiling:.4f}]")
        if record["method"] == "rf-ig":
            importance = read_importance(record["artifacts"]["importance"])
            names = record["feature_names"]
            order = sorted(range(len(names)), key=lambda i: (-importance[names[i]], i))
            if sorted(order[:k]) != record["subset"]["indices"]:
                errors.append(f"{method}: subset {record['subset']['indices']} is not "
                              f"the top {k} of the saved importances")
    return errors


def check_warm_report(warm_text: str, cold_text: str) -> list[str]:
    """Every warm report row equals the cold row, time_s aside."""
    def rows(text):
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        return [{c: v for c, v in zip(header, line.split(",")) if c != "time_s"}
                for line in lines[1:]]

    warm, cold = rows(warm_text), rows(cold_text)
    if len(warm) != len(cold):
        return [f"warm report has {len(warm)} rows, the cold one {len(cold)}"]
    return [f"warm row {w} differs from cold row {c}" for w, c in zip(warm, cold) if w != c]


# ---------------------------------------------------------------------------
# ingest


def check_ingest(out_dir: str, expected_rows: int, dropped_columns, n_features: int) -> list[str]:
    """Row and column cleaning, [0, 1] training features, and both
    Spearman matrices against the saved training split."""
    from flowsel.dataset import load_dataset

    reports = glob.glob(os.path.join(out_dir, "preprocess_*.json"))
    trains = glob.glob(os.path.join(out_dir, "clean_*.train.ds"))
    heatmaps = sorted(glob.glob(os.path.join(out_dir, "corr_*.csv")))
    if len(reports) != 1 or len(trains) != 1 or len(heatmaps) != 2:
        return [f"{out_dir}: expected one preprocess report, one training split and "
                f"two heatmaps, found {len(reports)}, {len(trains)}, {len(heatmaps)}"]
    with open(reports[0], "r", encoding="utf-8") as fh:
        report = json.load(fh)
    errors = []
    if report["rows_total"] != expected_rows:
        errors.append(f"{report['rows_total']} rows after cleaning, expected {expected_rows}")
    if report["rows_train"] + report["rows_test"] != report["rows_total"]:
        errors.append("train and test rows do not add up to the cleaned rows")
    train = load_dataset(trains[0])
    kept = set(train.feature_names) & set(dropped_columns)
    if kept:
        errors.append(f"columns that should be dropped survived: {sorted(kept)}")
    if train.n_features != n_features:
        errors.append(f"{train.n_features} training features, expected {n_features}")
    lo, hi = train.features.min(axis=0), train.features.max(axis=0)
    if np.any(lo != 0.0) or np.any(hi != 1.0):
        errors.append("training features do not span [0, 1] column by column")
    for path in heatmaps:
        names, values = read_heatmap(path)
        binary = names[train.n_features:] == ["attack"]
        if binary:
            classes = train.labels_bin.astype(float).reshape(-1, 1)
        else:
            classes = (train.labels_cat[:, None] == np.arange(len(train.class_names)))
        label = os.path.basename(path) + (" (binary)" if binary else " (categorical)")
        errors += check_spearman(values, train.features, classes, label)
    return errors
