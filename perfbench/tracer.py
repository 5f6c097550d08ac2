"""Per-layer timings, taken by wrapping flowsel's public functions.

Inside ``with tracer:`` each listed function is replaced on its module (or
class) by a wrapper that adds its call count and inclusive wall time to
the tracer; leaving the block restores the originals.  Callers inside
flowsel look these names up on the module at call time, so the wrappers
see every call the pipeline and the command line make.  The kernel
wrappers (``merit_of_mask``, ``best_split``) add cost to every call, which
is why end-to-end figures are never taken with the tracer installed.
"""

from __future__ import annotations

import os
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

from flowsel import correlation, dataset, metrics, neural_net, pipeline, random_forest, subset_search

# Stages with a cache, and the functions whose call means the stage missed
# it: computing the artifact or, for the `full` method, which computes
# nothing, writing the subset file.
CACHED_STAGES = ("preprocess_stage", "correlate_stage", "importance_stage",
                 "select_stage", "train_stage")
COMPUTE = (
    (dataset, "prepare_splits"),
    (correlation, "spearman_matrix"),
    (random_forest, "train_forest"),
    (random_forest, "select_top_k"),
    (subset_search, "bat_run"),
    (subset_search, "aquila_run"),
    (subset_search, "brute_force_best"),
    (subset_search, "save_subset"),
    (neural_net, "train"),
)

# (owner, function, timer) for every other wrapped function; functions
# sharing a timer add up.
TIMED = (
    (pipeline, "preprocess_stage", "pipeline.preprocess"),
    (pipeline, "correlate_stage", "pipeline.correlate"),
    (pipeline, "importance_stage", "pipeline.importance"),
    (pipeline, "select_stage", "pipeline.select"),
    (pipeline, "train_stage", "pipeline.train"),
    (pipeline, "evaluate_stage", "pipeline.evaluate"),
    (pipeline, "load_records", "pipeline.report"),
    (pipeline, "compare", "pipeline.report"),
    (pipeline, "write_report_csv", "pipeline.report"),
    (pipeline, "write_overlap_csv", "pipeline.report"),
    (dataset, "load_csv", "dataset.load_csv"),
    (dataset, "prepare_splits", "dataset.prepare_splits"),
    (dataset, "save_dataset", "dataset.save_dataset"),
    (dataset, "load_dataset", "dataset.load_dataset"),
    (correlation, "spearman_matrix", "correlation.spearman"),
    (correlation, "export_heatmap", "correlation.heatmap_io"),
    (correlation, "load_heatmap", "correlation.heatmap_io"),
    (subset_search, "bat_run", "subset_search.bat"),
    (subset_search, "aquila_run", "subset_search.aquila"),
    (subset_search, "brute_force_best", "subset_search.brute"),
    (random_forest, "train_forest", "random_forest.train"),
    (random_forest, "best_split", "random_forest.best_split"),
    (random_forest, "predict", "random_forest.predict"),
    (random_forest, "save_forest", "random_forest.model_io"),
    (random_forest, "load_forest", "random_forest.model_io"),
    (neural_net, "train", "neural_net.train"),
    (metrics, "confusion", "metrics.score"),
    (metrics, "binary_metrics", "metrics.score"),
    (metrics, "multiclass_metrics", "metrics.score"),
    (metrics, "collapse_to_binary", "metrics.score"),
    (metrics, "save_confusion", "metrics.score"),
)

SEARCHES = ("subset_search.bat", "subset_search.aquila", "subset_search.brute")

# Per-layer metric names, units and better directions, in report order.
PER_LAYER = (
    ("pipeline.preprocess_s", "s", "lower"),
    ("pipeline.correlate_s", "s", "lower"),
    ("pipeline.importance_s", "s", "lower"),
    ("pipeline.select_s", "s", "lower"),
    ("pipeline.train_s", "s", "lower"),
    ("pipeline.evaluate_s", "s", "lower"),
    ("pipeline.report_s", "s", "lower"),
    ("pipeline.cache_hits", "count", "higher"),
    ("pipeline.cache_misses", "count", "lower"),
    ("pipeline.artifact_mb", "MB", "lower"),
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.cells_per_s", "1/s", "higher"),
    ("dataset.prepare_splits_s", "s", "lower"),
    ("dataset.save_dataset_s", "s", "lower"),
    ("dataset.load_dataset_s", "s", "lower"),
    ("correlation.spearman_s", "s", "lower"),
    ("correlation.heatmap_io_s", "s", "lower"),
    ("correlation.merit_evals", "count", "lower"),
    ("correlation.merit_us", "us", "lower"),
    ("correlation.distinct_ratio", "ratio", "higher"),
    ("subset_search.bat_s", "s", "lower"),
    ("subset_search.aquila_s", "s", "lower"),
    ("subset_search.brute_s", "s", "lower"),
    ("subset_search.evals_per_s", "1/s", "higher"),
    ("random_forest.train_s", "s", "lower"),
    ("random_forest.best_split_s", "s", "lower"),
    ("random_forest.best_split_calls", "count", "lower"),
    ("random_forest.nodes", "count", "lower"),
    ("random_forest.predict_s", "s", "lower"),
    ("random_forest.predict_rows_per_s", "1/s", "higher"),
    ("random_forest.model_io_s", "s", "lower"),
    ("random_forest.model_mb", "MB", "lower"),
    ("neural_net.train_s", "s", "lower"),
    ("neural_net.samples_per_s", "1/s", "higher"),
    ("metrics.score_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

MB = 1024.0 * 1024.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    """Accumulates calls, seconds and counts over every traced round."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.rounds = 0
        self._compute_calls = 0
        self._distinct = weakref.WeakKeyDictionary()  # evaluator -> masks seen
        self._saved = []

    # -- installing -------------------------------------------------------

    def __enter__(self):
        for owner, name in COMPUTE:
            self._patch(owner, name, self._counting(getattr(owner, name)))
        for owner, name, timer in TIMED:
            self._patch(owner, name, self._timing(getattr(owner, name), timer))
        for name in CACHED_STAGES:
            self._patch(pipeline, name, self._stage(getattr(pipeline, name)))
        self._patch(correlation.MeritEvaluator, "merit_of_mask",
                    self._merit(correlation.MeritEvaluator.merit_of_mask))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        self.rounds += 1
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            self._compute_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timing(self, fn, timer):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[timer] += perf_counter() - start
                self.calls[timer] += 1
            self._count(timer, args, result)
            return result
        return wrapper

    def _stage(self, fn):
        def wrapper(*args, **kwargs):
            before = self._compute_calls
            result = fn(*args, **kwargs)
            self.counts["misses" if self._compute_calls > before else "hits"] += 1
            return result
        return wrapper

    def _merit(self, fn):
        def merit_of_mask(evaluator, mask):
            start = perf_counter()
            merit = fn(evaluator, mask)
            self.seconds["merit"] += perf_counter() - start
            self.calls["merit"] += 1
            seen = self._distinct.setdefault(evaluator, set())
            key = np.packbits(np.asarray(mask, dtype=bool)).tobytes()
            if key not in seen:
                seen.add(key)
                self.counts["distinct"] += 1
            return merit
        return merit_of_mask

    def _count(self, timer, args, result):
        """Work counts taken from a wrapped call's arguments and result."""
        if timer == "dataset.load_csv":
            self.counts["cells"] += result.n_rows * (result.n_columns + 1)
        elif timer == "random_forest.train":
            self.counts["nodes"] += args[1].n_trees  # roots; splits add the rest
        elif timer == "random_forest.best_split" and result is not None:
            self.counts["nodes"] += 2
        elif timer == "random_forest.predict":
            self.counts["predict_rows"] += np.shape(args[1])[0]
        elif timer == "random_forest.model_io":
            path = args[1] if len(args) > 1 else args[0]
            self.counts["model_bytes"] += os.path.getsize(path)
        elif timer == "neural_net.train":
            self.counts["samples"] += args[0].n_rows * args[1].epochs

    # -- report -----------------------------------------------------------

    def metrics(self, artifact_bytes: float, overhead_s: float) -> dict:
        """Per-layer metrics, each a per-round mean over the traced rounds."""
        n = max(self.rounds, 1)
        s, c, k = self.seconds, self.calls, self.counts
        search_s = sum(s[t] for t in SEARCHES)
        values = {
            "pipeline.preprocess_s": s["pipeline.preprocess"] / n,
            "pipeline.correlate_s": s["pipeline.correlate"] / n,
            "pipeline.importance_s": s["pipeline.importance"] / n,
            "pipeline.select_s": s["pipeline.select"] / n,
            "pipeline.train_s": s["pipeline.train"] / n,
            "pipeline.evaluate_s": s["pipeline.evaluate"] / n,
            "pipeline.report_s": s["pipeline.report"] / n,
            "pipeline.cache_hits": k["hits"] / n,
            "pipeline.cache_misses": k["misses"] / n,
            "pipeline.artifact_mb": artifact_bytes / n / MB,
            "dataset.load_csv_s": s["dataset.load_csv"] / n,
            "dataset.cells_per_s": _rate(k["cells"], s["dataset.load_csv"]),
            "dataset.prepare_splits_s": s["dataset.prepare_splits"] / n,
            "dataset.save_dataset_s": s["dataset.save_dataset"] / n,
            "dataset.load_dataset_s": s["dataset.load_dataset"] / n,
            "correlation.spearman_s": s["correlation.spearman"] / n,
            "correlation.heatmap_io_s": s["correlation.heatmap_io"] / n,
            "correlation.merit_evals": c["merit"] / n,
            "correlation.merit_us": 1e6 * s["merit"] / c["merit"] if c["merit"] else 0.0,
            "correlation.distinct_ratio": k["distinct"] / c["merit"] if c["merit"] else 0.0,
            "subset_search.bat_s": s["subset_search.bat"] / n,
            "subset_search.aquila_s": s["subset_search.aquila"] / n,
            "subset_search.brute_s": s["subset_search.brute"] / n,
            "subset_search.evals_per_s": _rate(c["merit"], search_s),
            "random_forest.train_s": s["random_forest.train"] / n,
            "random_forest.best_split_s": s["random_forest.best_split"] / n,
            "random_forest.best_split_calls": c["random_forest.best_split"] / n,
            "random_forest.nodes": k["nodes"] / n,
            "random_forest.predict_s": s["random_forest.predict"] / n,
            "random_forest.predict_rows_per_s": _rate(k["predict_rows"], s["random_forest.predict"]),
            "random_forest.model_io_s": s["random_forest.model_io"] / n,
            "random_forest.model_mb": k["model_bytes"] / n / MB,
            "neural_net.train_s": s["neural_net.train"] / n,
            "neural_net.samples_per_s": _rate(k["samples"], s["neural_net.train"]),
            "metrics.score_s": s["metrics.score"] / n,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
