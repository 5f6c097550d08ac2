"""Spearman rank correlation and correlation-based subset scoring.

The correlation matrix covers the feature columns plus the class indicator
columns, which is exactly what the subset searchers consume.  Merit of a
subset follows the classic correlation-based feature selection form

    merit = k * r_cf / sqrt(k + k (k - 1) * r_ff)

with r_cf the mean |rho| between selected features and class columns, and
r_ff the mean |rho| over distinct selected-feature pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DataError


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Spearman matrix over [features | class columns].

    ``class_boundary`` is the index of the first class column; everything
    before it is a feature.
    """

    values: np.ndarray
    names: tuple[str, ...]
    class_boundary: int

    @property
    def n_features(self) -> int:
        return self.class_boundary

    @property
    def n_class_columns(self) -> int:
        return len(self.names) - self.class_boundary

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.names[: self.class_boundary]


@dataclass(frozen=True)
class CfsScore:
    merit: float
    k: int
    r_cf: float
    r_ff: float


def average_ranks(values) -> np.ndarray:
    """1-based fractional ranks; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("average_ranks expects a 1-d array")
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # A tie group holds the ranks ends - counts + 1 .. ends; their mean is a
    # half-integer, so it is exact.
    ends = np.cumsum(counts)
    return ((ends - counts + ends + 1) / 2)[inverse]


def spearman_matrix(features, class_columns, feature_names, class_names) -> CorrelationMatrix:
    """Spearman correlation over all feature and class columns.

    A constant feature column is an error (it should have been pruned);
    a constant class column (a class absent from this partition) gets
    correlation 0 against everything, by convention.
    """
    features = np.asarray(features, dtype=np.float64)
    class_columns = np.asarray(class_columns, dtype=np.float64)
    if features.ndim != 2 or class_columns.ndim != 2:
        raise DataError("feature and class columns must be 2-d")
    if features.shape[0] != class_columns.shape[0]:
        raise DataError("feature and class columns disagree on row count")
    if features.shape[0] < 2:
        raise DataError("need at least 2 rows for rank correlation")
    if features.shape[1] != len(feature_names) or class_columns.shape[1] != len(class_names):
        raise DataError("column name counts do not match the matrices")

    constant_feats = [
        feature_names[j]
        for j in range(features.shape[1])
        if np.all(features[:, j] == features[0, j])
    ]
    if constant_feats:
        raise DataError(f"constant feature column(s): {constant_feats}")

    # One (rows, columns) array holds the ranks, is centred in place, and
    # is squared in place once its Gram matrix is taken.
    p = features.shape[1]
    ranked = np.empty((features.shape[0], p + class_columns.shape[1]))
    for j in range(p):
        ranked[:, j] = average_ranks(features[:, j])
    for j in range(class_columns.shape[1]):
        ranked[:, p + j] = average_ranks(class_columns[:, j])
    ranked -= ranked.mean(axis=0)
    gram = ranked.T @ ranked
    np.square(ranked, out=ranked)
    norms = np.sqrt(ranked.sum(axis=0))
    safe = np.where(norms == 0, 1.0, norms)
    corr = gram / np.outer(safe, safe)
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    corr = (corr + corr.T) / 2.0  # kill floating-point asymmetry exactly
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    names = tuple(feature_names) + tuple(class_names)
    return CorrelationMatrix(corr, names, features.shape[1])


def merit_formula(k: int, r_cf: float, r_ff: float) -> float:
    """The bare merit expression; k = 0 is 0 by convention."""
    if k == 0:
        return 0.0
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def _merit_parts(fc_rowsum, ff, n_class_cols, mask):
    """Shared arithmetic so every merit caller produces identical floats."""
    m = mask.astype(np.float64)
    k = int(m.sum())
    if k == 0:
        return 0.0, 0, 0.0, 0.0
    r_cf = float(m @ fc_rowsum) / (k * n_class_cols)
    if k == 1:
        r_ff = 0.0
    else:
        r_ff = float(m @ ff @ m) / (k * (k - 1))
    return merit_formula(k, r_cf, r_ff), k, r_cf, r_ff


def _abs_blocks(corr: CorrelationMatrix):
    b = corr.class_boundary
    a = np.abs(corr.values)
    fc_rowsum = a[:b, b:].sum(axis=1)
    ff = a[:b, :b].copy()
    np.fill_diagonal(ff, 0.0)
    return fc_rowsum, ff


def cfs_merit(corr: CorrelationMatrix, indices) -> CfsScore:
    """Score a feature subset given by indices into the matrix's features.

    Order and duplicates in ``indices`` do not matter.  The empty subset
    scores 0.
    """
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= corr.class_boundary):
        raise DataError(f"subset index out of feature range: {idx}")
    if corr.n_class_columns < 1:
        raise DataError("correlation matrix has no class columns")
    mask = np.zeros(corr.class_boundary, dtype=bool)
    mask[idx] = True
    fc_rowsum, ff = _abs_blocks(corr)
    merit, k, r_cf, r_ff = _merit_parts(fc_rowsum, ff, corr.n_class_columns, mask)
    return CfsScore(merit, k, r_cf, r_ff)


class MeritEvaluator:
    """Precomputed merit scorer for the subset searchers.

    Holds the absolute feature-class row sums and the zero-diagonal
    absolute feature-feature block so a mask scores in a few vector ops.
    Both paths share ``cfs_merit``'s arithmetic, so they give the same
    floats.  ``merit_of_mask`` scores one mask and counts the call in
    ``evaluations``.  ``merits_of_masks`` scores a block of masks, each
    distinct mask once: its merit is remembered under the mask's packed
    bits for the evaluator's lifetime.  It counts nothing, so callers that
    score speculative moves in bulk count only the moves they keep.
    """

    def __init__(self, corr: CorrelationMatrix):
        if corr.class_boundary < 1:
            raise DataError("correlation matrix has no feature columns")
        if corr.n_class_columns < 1:
            raise DataError("correlation matrix has no class columns")
        self._fc_rowsum, self._ff = _abs_blocks(corr)
        self._n_class_cols = corr.n_class_columns
        self._memo: dict[bytes, float] = {}
        self.n_features = corr.class_boundary
        self.evaluations = 0

    def _merit(self, mask: np.ndarray) -> float:
        merit, _, _, _ = _merit_parts(self._fc_rowsum, self._ff, self._n_class_cols, mask)
        return merit

    def merit_of_mask(self, mask) -> float:
        self.evaluations += 1
        return self._merit(np.asarray(mask))

    def merits_of_masks(self, masks) -> np.ndarray:
        """Merits of the rows of a 2-d boolean array, through the memo;
        not counted."""
        masks = np.asarray(masks, dtype=bool)
        width = (masks.shape[1] + 7) // 8
        packed = np.packbits(masks, axis=1).tobytes()
        memo = self._memo
        merits = []
        for i in range(len(masks)):
            key = packed[i * width:(i + 1) * width]
            merit = memo.get(key)
            if merit is None:
                merit = memo[key] = self._merit(masks[i])
            merits.append(merit)
        return np.array(merits, dtype=np.float64)


def ig_sum(importances, indices) -> float:
    """Total normalized importance captured by a subset."""
    imp = np.asarray(importances, dtype=np.float64)
    if imp.ndim != 1:
        raise DataError("importances must be a vector")
    if (imp < 0).any():
        raise DataError("importances must be nonnegative")
    if abs(float(imp.sum()) - 1.0) > 1e-9:
        raise DataError(f"importances must sum to 1, got {imp.sum()!r}")
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= imp.size):
        raise DataError("subset index out of range for the importance vector")
    return float(imp[idx].sum())


def export_heatmap(corr: CorrelationMatrix, path: str) -> None:
    """Write the matrix as a CSV at ``path``, floats in repr, and as the
    container ``<stem>.bin`` beside it, which load_heatmap reads."""
    rows = "".join(f"{name}," + ",".join(repr(float(v)) for v in corr.values[i]) + "\n"
                   for i, name in enumerate(corr.names))
    artifacts.write_atomic(path, "name," + ",".join(corr.names) + "\n" + rows)
    artifacts.save(artifacts.container_for(path), "heatmap", {"values": corr.values},
                   names=list(corr.names), class_boundary=corr.class_boundary)


def _heatmap_from_arrays(header: dict, arrays: dict) -> CorrelationMatrix:
    names, values = tuple(header["names"]), arrays["values"]
    boundary = header["class_boundary"]
    if values.shape != (len(names), len(names)) or not 0 <= boundary <= len(names):
        raise ValueError(f"header names {len(names)} columns and boundary {boundary} "
                         f"for a {values.shape} matrix")
    return CorrelationMatrix(values, names, boundary)


def load_heatmap(path: str) -> CorrelationMatrix:
    """Read back the matrix export_heatmap wrote for ``path``."""
    return artifacts.load(artifacts.container_for(path), "heatmap", _heatmap_from_arrays)
