"""Random forest with gini splits and entropy-based feature importance.

Trees split on the gini criterion over midpoint thresholds, while each
accepted split also records its entropy gain and the fraction of the
tree's training rows that reached it; importance is the per-tree sum of
gain * fraction per feature, averaged over trees and normalized.  Tree
construction is deterministic per (seed, tree index), so results do not
depend on how many worker threads build the forest.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericError
from .subset_search import FeatureSubset

_MODEL_MAGIC = b"FLOWRF01"


def gini(counts) -> float:
    """Gini impurity of a class histogram: sum of p * (1 - p)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        raise ValueError("gini needs a non-empty histogram")
    if (counts < 0).any():
        raise ValueError("negative class count")
    p = counts / total
    return float(np.sum(p * (1.0 - p)))


def entropy(counts) -> float:
    """Shannon entropy in nats; empty classes contribute nothing."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        raise ValueError("entropy needs a non-empty histogram")
    if (counts < 0).any():
        raise ValueError("negative class count")
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 20
    min_node_size: int = 2
    features_per_split: int | str = "sqrt"  # "sqrt", "all", or a count
    bootstrap: bool = True
    weighted_importance: bool = True
    n_workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"need at least one tree, got n_trees={self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")
        if self.min_node_size < 1:
            raise ValueError(f"min_node_size must be positive, got {self.min_node_size}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if isinstance(self.features_per_split, str):
            if self.features_per_split not in ("sqrt", "all"):
                raise ValueError("features_per_split must be 'sqrt', 'all', or an int, "
                                 f"got {self.features_per_split!r}")
        elif self.features_per_split < 1:
            raise ValueError(
                f"features_per_split must be positive, got {self.features_per_split}")


@dataclass
class TreeNode:
    """One node; a leaf has no split feature.

    Internal nodes carry the split bookkeeping used for importance:
    ``entropy_gain`` (parent entropy minus size-weighted child entropy) and
    ``sample_fraction`` (node rows over root rows).
    """

    counts: np.ndarray
    majority: int
    sample_fraction: float = 1.0
    feature: int | None = None
    threshold: float = 0.0
    gini_decrease: float = 0.0
    entropy_gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


# Cells (candidates x rows x classes) that best_split scores in one block.
# A block is at least one candidate wide, so a temporary array holds at most
# max(BLOCK_CELLS, rows x classes) float64 cells: 8 MB at 1 << 20, more on a
# node with over 2^20 rows x classes.
BLOCK_CELLS = 1 << 20


def best_split(X, y, n_classes: int, candidates):
    """Best (feature, threshold) by size-weighted child gini.

    Thresholds are midpoints between consecutive distinct sorted values.
    Candidates are scored in ascending feature order and thresholds in
    ascending value order, a block of candidates at a time, so exact ties
    already sit on the winner when later ones only match.  Returns
    (feature, threshold, weighted_gini) or None when nothing beats the
    node's own impurity strictly.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = y.size
    parent = gini(np.bincount(y, minlength=n_classes))
    cand = sorted({int(c) for c in candidates})
    if n < 2 or not cand:
        return None
    nl = np.arange(1, n, dtype=np.float64)  # left-side size at each cut
    nr = n - nl
    width = max(1, BLOCK_CELLS // (n * n_classes))
    best = None
    for start in range(0, len(cand), width):
        block = cand[start:start + width]
        cols = X[:, block]
        order = np.argsort(cols, axis=0, kind="stable")
        sc = cols[order, np.arange(len(block))]
        onehot = y[order.T][:, :, None] == np.arange(n_classes)  # (block, n, C)
        cum = onehot.cumsum(axis=1, dtype=np.float64)
        left = cum[:, :-1]
        right = cum[:, -1:] - left
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=-1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=-1)
        weighted = (nl * gini_l + nr * gini_r) / n
        weighted[(sc[1:] == sc[:-1]).T] = np.inf  # no threshold between ties
        # first minimum: lowest feature of the block, then lowest threshold
        f, j = divmod(int(np.argmin(weighted)), n - 1)
        score = weighted[f, j]
        if score == np.inf or (best is not None and score >= best[0]):
            continue
        a, b = sc[j, f], sc[j + 1, f]
        thr = a + (b - a) / 2.0
        if not (a <= thr < b):
            thr = a  # adjacent floats can round the midpoint onto b
        best = (float(score), block[f], float(thr))
    if best is None or best[0] >= parent:
        return None
    weighted_gini, feature, threshold = best
    return feature, threshold, weighted_gini


def _resolve_m(setting, n_features: int) -> int:
    if setting == "sqrt":
        return max(1, int(math.floor(math.sqrt(n_features))))
    if setting == "all":
        return n_features
    return min(int(setting), n_features)


def grow_tree(X, y, n_classes: int, config: ForestConfig, rng: np.random.Generator,
              depth: int = 0, root_size: int | None = None) -> TreeNode:
    """Recursively grow one tree on the given rows.

    Stops at purity, configured depth, or nodes smaller than
    min_node_size.  Each split must strictly reduce the size-weighted
    gini, otherwise the node stays a leaf.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("cannot grow a tree on zero rows")
    if root_size is None:
        root_size = y.size
    counts = np.bincount(y, minlength=n_classes)
    node = TreeNode(
        counts=counts,
        majority=int(np.argmax(counts)),
        sample_fraction=y.size / root_size,
    )
    pure = counts.max() == y.size
    if pure or depth >= config.max_depth or y.size < config.min_node_size:
        return node

    p = X.shape[1]
    m = _resolve_m(config.features_per_split, p)
    candidates = rng.choice(p, size=m, replace=False) if m < p else np.arange(p)
    found = best_split(X, y, n_classes, candidates)
    if found is None:
        return node
    feature, threshold, weighted_gini = found
    mask = X[:, feature] <= threshold

    node.feature = feature
    node.threshold = threshold
    node.gini_decrease = gini(counts) - weighted_gini
    left_counts = np.bincount(y[mask], minlength=n_classes)
    right_counts = counts - left_counts
    nl, nr = int(mask.sum()), int(y.size - mask.sum())
    child_entropy = (nl * entropy(left_counts) + nr * entropy(right_counts)) / y.size
    node.entropy_gain = entropy(counts) - child_entropy
    node.left = grow_tree(X[mask], y[mask], n_classes, config, rng, depth + 1, root_size)
    node.right = grow_tree(X[~mask], y[~mask], n_classes, config, rng, depth + 1, root_size)
    return node


def _tree_importance_sums(root: TreeNode, n_features: int, weighted: bool) -> np.ndarray:
    sums = np.zeros(n_features)
    counts = np.zeros(n_features)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if weighted:
            sums[node.feature] += node.entropy_gain * node.sample_fraction
        else:
            sums[node.feature] += node.entropy_gain
            counts[node.feature] += 1
        stack.append(node.left)
        stack.append(node.right)
    if not weighted:
        with np.errstate(invalid="ignore"):
            sums = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return sums


@dataclass
class TrainedForest:
    trees: list[TreeNode]
    in_bag: np.ndarray  # (n_trees, n_rows) bool
    importances: np.ndarray
    oob_accuracy: float  # nan when undefined (bootstrap disabled)
    oob_skipped: int
    build_seconds: float
    n_features: int
    n_classes: int
    class_names: tuple[str, ...] = ()
    config: ForestConfig = field(default_factory=ForestConfig)


def tree_predict(root: TreeNode, X) -> np.ndarray:
    """Route rows down one tree; rows at or below a threshold go left."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.majority
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def train_forest(train: Dataset, config: ForestConfig) -> TrainedForest:
    """Fit the forest; trees may build in parallel threads, results do not
    change with the worker count because every tree owns stream (seed, index)."""
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels_cat, dtype=np.int64)
    n_classes = len(train.class_names)
    if np.unique(y).size < 2:
        raise DataError("training data contains a single class")
    n, p = X.shape

    def build(tree_idx: int):
        rng = np.random.default_rng([config.seed, tree_idx])
        if config.bootstrap:
            idx = rng.integers(0, n, n)
        else:
            idx = np.arange(n)
        bag = np.zeros(n, dtype=bool)
        bag[idx] = True
        tree = grow_tree(X[idx], y[idx], n_classes, config, rng)
        return tree, bag

    start = time.perf_counter()
    if config.n_workers > 1:
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            built = list(pool.map(build, range(config.n_trees)))
    else:
        built = [build(i) for i in range(config.n_trees)]
    trees = [t for t, _ in built]
    in_bag = np.array([b for _, b in built])
    importances = feature_importance(trees, p, config.weighted_importance)
    build_seconds = time.perf_counter() - start

    forest = TrainedForest(
        trees=trees,
        in_bag=in_bag,
        importances=importances,
        oob_accuracy=math.nan,
        oob_skipped=n,
        build_seconds=build_seconds,
        n_features=p,
        n_classes=n_classes,
        class_names=tuple(train.class_names),
        config=config,
    )
    if config.bootstrap:
        acc, skipped = oob_score(forest, X, y)
        forest.oob_accuracy = acc
        forest.oob_skipped = skipped
    return forest


def feature_importance(trees, n_features: int, weighted: bool = True) -> np.ndarray:
    """Entropy-gain importance, averaged over trees and normalized to sum 1.

    ``weighted`` scales each split's gain by its sample fraction; the
    unweighted mode averages each feature's raw gains within a tree.
    """
    per_tree = np.array(
        [_tree_importance_sums(t, n_features, weighted) for t in trees]
    )
    mean = per_tree.mean(axis=0)
    total = float(mean.sum())
    if total <= 0:
        raise NumericError("forest contains no splits; importance undefined")
    return mean / total


def oob_score(forest: TrainedForest, X, y) -> tuple[float, int]:
    """Out-of-bag accuracy: each row voted on only by trees that never saw it.

    Rows in-bag everywhere are skipped and counted; if that is every row
    the score is undefined and raises.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    votes = np.zeros((n, forest.n_classes))
    for tree, bag in zip(forest.trees, forest.in_bag):
        rows = np.flatnonzero(~bag)
        if rows.size == 0:
            continue
        preds = tree_predict(tree, X[rows])
        votes[rows, preds] += 1
    covered = votes.sum(axis=1) > 0
    skipped = int(n - covered.sum())
    if not covered.any():
        raise NumericError(
            "every row was in-bag for every tree; out-of-bag score undefined"
        )
    preds = votes[covered].argmax(axis=1)
    accuracy = float(np.mean(preds == y[covered]))
    return accuracy, skipped


def select_top_k(importances, k: int) -> FeatureSubset:
    """Indices of the k most important features, ties to the lower index."""
    imp = np.asarray(importances, dtype=np.float64)
    if not 1 <= k <= imp.size:
        raise ValueError(f"k must be in [1, {imp.size}], got {k}")
    order = np.argsort(-imp, kind="stable")  # stable: ties keep index order
    chosen = tuple(sorted(int(i) for i in order[:k]))
    return FeatureSubset(chosen)


def predict(forest: TrainedForest, X, return_votes: bool = False):
    """Majority vote over trees; vote ties resolve to the lower class index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DataError(
            f"expected (rows, {forest.n_features}) features, got {X.shape}"
        )
    votes = np.zeros((X.shape[0], forest.n_classes))
    rows = np.arange(X.shape[0])
    for tree in forest.trees:
        votes[rows, tree_predict(tree, X)] += 1
    labels = votes.argmax(axis=1)
    if return_votes:
        return labels, votes / len(forest.trees)
    return labels


def _node_to_dict(node: TreeNode) -> dict:
    out = {"c": node.counts.tolist(), "m": node.majority, "s": node.sample_fraction}
    if not node.is_leaf:
        out.update(
            f=node.feature,
            t=node.threshold,
            g=node.gini_decrease,
            e=node.entropy_gain,
            l=_node_to_dict(node.left),
            r=_node_to_dict(node.right),
        )
    return out


def _node_from_dict(data: dict) -> TreeNode:
    node = TreeNode(
        counts=np.array(data["c"], dtype=np.int64),
        majority=int(data["m"]),
        sample_fraction=float(data["s"]),
    )
    if "f" in data:
        node.feature = int(data["f"])
        node.threshold = float(data["t"])
        node.gini_decrease = float(data["g"])
        node.entropy_gain = float(data["e"])
        node.left = _node_from_dict(data["l"])
        node.right = _node_from_dict(data["r"])
    return node


def save_forest(forest: TrainedForest, path: str) -> None:
    """Versioned binary container: magic, then a JSON payload."""
    cfg = forest.config
    payload = {
        "version": 1,
        "n_features": forest.n_features,
        "n_classes": forest.n_classes,
        "class_names": list(forest.class_names),
        "build_seconds": forest.build_seconds,
        "oob_accuracy": None if math.isnan(forest.oob_accuracy) else forest.oob_accuracy,
        "oob_skipped": forest.oob_skipped,
        "importances": forest.importances.tolist(),
        "in_bag": base64.b64encode(
            np.packbits(forest.in_bag.astype(np.uint8)).tobytes()
        ).decode("ascii"),
        "n_rows": int(forest.in_bag.shape[1]),
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "min_node_size": cfg.min_node_size,
            "features_per_split": cfg.features_per_split,
            "bootstrap": cfg.bootstrap,
            "weighted_importance": cfg.weighted_importance,
            "n_workers": cfg.n_workers,
            "seed": cfg.seed,
        },
        "trees": [_node_to_dict(t) for t in forest.trees],
    }
    blob = json.dumps(payload).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_forest(path: str) -> TrainedForest:
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise DataError(f"cannot open forest file {path}: {exc}") from exc
    if raw[: len(_MODEL_MAGIC)] != _MODEL_MAGIC:
        raise DataError(f"{path}: not a forest file (bad magic)")
    (hlen,) = struct.unpack_from("<I", raw, len(_MODEL_MAGIC))
    payload = json.loads(raw[len(_MODEL_MAGIC) + 4 : len(_MODEL_MAGIC) + 4 + hlen])
    if payload.get("version") != 1:
        raise DataError(f"{path}: unsupported forest version {payload.get('version')}")
    cfg = ForestConfig(**payload["config"])
    n_trees = cfg.n_trees
    n_rows = payload["n_rows"]
    packed = np.frombuffer(base64.b64decode(payload["in_bag"]), dtype=np.uint8)
    in_bag = np.unpackbits(packed)[: n_trees * n_rows].reshape(n_trees, n_rows).astype(bool)
    oob = payload["oob_accuracy"]
    return TrainedForest(
        trees=[_node_from_dict(t) for t in payload["trees"]],
        in_bag=in_bag,
        importances=np.array(payload["importances"], dtype=np.float64),
        oob_accuracy=math.nan if oob is None else float(oob),
        oob_skipped=int(payload["oob_skipped"]),
        build_seconds=float(payload["build_seconds"]),
        n_features=int(payload["n_features"]),
        n_classes=int(payload["n_classes"]),
        class_names=tuple(payload["class_names"]),
        config=cfg,
    )
