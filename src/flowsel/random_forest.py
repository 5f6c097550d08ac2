"""Random forest with gini splits and entropy-based feature importance.

Trees split on the gini criterion over midpoint thresholds, while each
accepted split also records its entropy gain and the fraction of the
tree's training rows that reached it; importance is the per-tree sum of
gain * fraction per feature, averaged over trees and normalized.  Tree
construction is deterministic per (seed, tree index), so results do not
depend on how many worker threads build the forest.

A fitted tree is a set of parallel node arrays (``Tree``), as in
scikit-learn's tree module: growth records only each node's class counts
and split, and one numpy pass over the finished arrays computes every
node's gains and sample fraction.

Growth copies no table.  A tree is grown over the caller's array through
its bootstrap indices, as scikit-learn grows trees through a sample-index
array, and hands row indices down its stack; a node gathers only its drawn
candidate columns of its rows, straight from that array, into one
feature-major block.  ``best_split`` sorts each candidate's row of the
block with numpy's default (unstable) sort and counts classes
class-major.  Splits are the bits a stable, row-major scan gives, because
a scored cut never falls between equal values; NaN, the one value that
would break this, is refused by ``train_forest``.  Out-of-bag rows are
routed down the trees where they lie, too.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import artifacts
from .dataset import Dataset
from .errors import DataError, NumericError
from .subset_search import FeatureSubset


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


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """``gini`` of every row of a (rows, classes) count array.

    The class axis is last and contiguous, so each row reduces in the same
    order as the scalar call and gives the same bits."""
    c = counts.astype(np.float64)
    p = c / c.sum(axis=1, keepdims=True)
    return (p * (1.0 - p)).sum(axis=1)


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """``entropy`` of every row of a (rows, classes) count array.

    Rows are grouped by their number k of non-zero classes; each group is
    compacted to a (rows, k) array, so a row sums exactly the k terms the
    scalar call sums, in the same order."""
    nonzero = counts > 0
    width = nonzero.sum(axis=1)
    total = counts.sum(axis=1).astype(np.float64)
    out = np.empty(len(counts))
    for k in np.unique(width):
        rows = np.flatnonzero(width == k)
        c = counts[rows][nonzero[rows]].reshape(rows.size, k).astype(np.float64)
        p = c / total[rows, None]
        out[rows] = -(p * np.log(p)).sum(axis=1)
    return out


@dataclass(frozen=True)
class ForestConfig:
    """Breiman's random forest (Machine Learning, 2001): every tree grows on
    a bootstrap draw of the rows and splits on the best of floor(sqrt(p))
    candidate features drawn at each node; a split's importance is its
    entropy gain weighted by the fraction of the tree's rows that reach it."""

    n_trees: int = 100
    max_depth: int = 20
    min_node_size: int = 2
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


@dataclass
class Tree:
    """One tree as parallel node arrays, nodes in growth preorder.

    Node 0 is the root, and a split's left child is the node right after
    it.  A leaf has ``feature`` -1, children -1, threshold 0 and zero
    gains.  ``counts`` is (nodes, classes); ``sample_fraction`` is node
    rows over root rows; ``gini_decrease`` and ``entropy_gain`` are the
    node's impurity minus the size-weighted impurity of its children.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    counts: np.ndarray  # (nodes, classes) int64
    majority: np.ndarray  # int64
    sample_fraction: np.ndarray  # float64
    gini_decrease: np.ndarray  # float64
    entropy_gain: np.ndarray  # float64

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def depth(self) -> int:
        """Splits on the longest root-to-leaf path.  A child that is not a
        later node, which only a malformed tree has, ends its path, so the
        walk ends on any tree ``save_forest`` is given."""
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[self.feature[level] >= 0]
            if level.size == 0:
                return depth
            kids = np.concatenate([self.left[level], self.right[level]])
            level = kids[(kids > np.tile(level, 2)) & (kids < self.n_nodes)]
            depth += 1


TREE_ARRAYS = tuple(f.name for f in fields(Tree))


# Cells (candidates x rows x classes) that best_split scores in one block.
# A block is at least one candidate wide, so a temporary array holds at most
# 2 x max(BLOCK_CELLS, rows x classes) float64 cells: 16 MB at 1 << 20, more
# on a node with over 2^20 rows x classes.  grow_tree gathers a node's
# block through int64 offsets of at most this many cells (or one candidate).
BLOCK_CELLS = 1 << 20


def _class_sum(t: np.ndarray) -> np.ndarray:
    """Sum of ``t`` over its first (class) axis, in the order ``ndarray.sum``
    adds a contiguous class axis, so a class-major array gives the bits its
    class-last copy gives with ``.sum(axis=-1)`` (a zero sum may differ in
    sign).

    That order is numpy's pairwise summation: one class after another
    below 8 classes; from 8 to 128, eight running sums over blocks of 8,
    combined as a tree, then the remainder in turn; above 128, the two
    halves (the first a multiple of 8 long) summed apart and added."""
    k = t.shape[0]
    if k < 8:
        return np.add.reduce(t, axis=0)  # an outer axis: added in turn
    if k <= 128:
        r = t[:8].copy()
        end = k - k % 8
        for i in range(8, end, 8):
            r += t[i:i + 8]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for c in range(end, k):
            s += t[c]
        return s
    half = k // 2
    half -= half % 8
    return _class_sum(t[:half]) + _class_sum(t[half:])


def best_split(X, y, n_classes: int, candidates):
    """Best (feature, threshold) by size-weighted child gini.

    Thresholds are midpoints between consecutive distinct sorted values.
    Candidates are scored in ascending feature order and thresholds in
    ascending value order, a block of candidates at a time, so exact ties
    already sit on the winner when later ones only match.  Returns
    (feature, threshold, weighted_gini) or None when nothing beats the
    node's own impurity strictly.

    A block is feature-major: each candidate's column is one contiguous
    row, and the left-hand class counts are one cumulative sum over a
    class-major (classes, candidates, rows) array.  Columns are sorted with numpy's
    default, unstable sort.  That gives the bits a stable sort gives,
    because every scored cut lies strictly between two distinct values:
    the rows left of it are the same set whatever order ties take, and so
    are its class counts.  Cuts between equal values score ``inf``.  NaN
    is the one value that breaks this (NaN != NaN, so a cut between two
    NaNs is scored); ``train_forest`` refuses NaN features.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = y.size
    cand = sorted({int(c) for c in candidates})
    if n < 2 or not cand:
        return None
    counts = np.bincount(y, minlength=n_classes)
    if n_classes < 8:
        # Fewer than 8 terms add in turn, so a class absent from the node
        # adds an exact 0.0 and can be left out: gini(counts), bit for bit,
        # and the cuts below score only the classes present.
        parent = 0.0
        for c in counts.tolist():
            p = c / n
            parent += p * (1.0 - p)
        classes = np.flatnonzero(counts)
    else:
        frac = counts / n
        parent = float((frac * (1.0 - frac)).sum())
        classes = np.arange(n_classes)
    classes = classes[:, None, None]
    # Cut k leaves rows 0..k on the left.  Cut n - 1 (every row left) only
    # pads the rows to length n; it is never scored, and its right size is
    # 1, not 0, so nothing divides by zero.
    cut = np.arange(1.0, n + 1)
    sizes = np.concatenate((cut, cut[-2::-1], cut[:1])).reshape(2, 1, 1, n)
    width = max(1, BLOCK_CELLS // (n * n_classes))
    best = None
    for start in range(0, len(cand), width):
        block = cand[start:start + width]
        nb = len(block)
        if block[-1] - block[0] == nb - 1:
            cols = X.T[block[0]:block[-1] + 1]  # a run of columns: no gather
        else:
            cols = X.T[block]
        order = cols.argsort(axis=1)
        sc = cols.copy()
        sc.sort(axis=1)
        # (left | right, classes, candidates, cuts): class counts, then
        # squared class shares
        share = np.empty((2, len(classes), nb, n))
        left = share[0]
        np.equal(y[order], classes, out=left)
        np.add.accumulate(left, axis=2, out=left)
        np.subtract(left[:, :, -1:], left, out=share[1])
        share /= sizes
        np.square(share, out=share)
        impurity = _class_sum(share.swapaxes(0, 1))
        np.subtract(1.0, impurity, out=impurity)
        impurity *= sizes[:, 0]
        weighted = impurity[0] + impurity[1]
        weighted /= n
        # no threshold between ties, nor after a row's last value
        ties = np.empty(nb * n, dtype=bool)
        flat = sc.ravel()
        np.equal(flat[1:], flat[:-1], out=ties[:-1])
        ties[n - 1::n] = True
        np.putmask(weighted, ties, np.inf)
        # first minimum: lowest feature of the block, then lowest threshold
        f, j = divmod(int(weighted.argmin()), n)
        score = weighted.item(f, j)
        if score == np.inf or (best is not None and score >= best[0]):
            continue
        a, b = sc.item(f, j), sc.item(f, j + 1)
        thr = a + (b - a) / 2.0
        if not (a <= thr < b):
            thr = a  # adjacent floats can round the midpoint onto b
        best = (score, block[f], thr)
    if best is None or best[0] >= parent:
        return None
    weighted_gini, feature, threshold = best
    return feature, threshold, weighted_gini


def _buffer(X: np.ndarray):
    """A flat view of ``X``'s buffer, with the steps one row and one column
    take in it, so element (r, c) is ``flat[r * row_step + c * col_step]``.
    C- and Fortran-ordered arrays are read where they lie; any other layout
    is copied into C order first."""
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = np.ascontiguousarray(X)
    row_step, col_step = (s // X.itemsize for s in X.strides)
    return X.ravel(order="K"), row_step, col_step


def grow_tree(X, y, n_classes: int, config: ForestConfig, rng: np.random.Generator,
              sample=None) -> Tree:
    """Grow one tree on the rows ``sample`` of ``X`` (every row if None).

    ``X`` is the caller's (rows, features) array and ``y`` its labels;
    ``sample`` may repeat rows, as a bootstrap draw does, and the tree is
    the one grown on ``X[sample]`` and ``y[sample]``.  Nodes are grown from
    an explicit stack in preorder, left subtree first, so candidate draws
    (floor(sqrt(p)) of the p features, unless that is all of them) come
    from ``rng`` in that order.  A node stays a leaf at purity, at the
    configured depth, below min_node_size, or when no split strictly
    reduces the size-weighted gini.

    No copy of the rows is made.  The stack holds each node's rows (as
    offsets into ``X``'s buffer), labels and class counts, and a node
    gathers only its drawn candidates, in ascending order, straight from
    ``X`` into one contiguous (candidates, rows) block, through the offsets
    of at most ``BLOCK_CELLS`` cells at a time, scored through
    ``best_split`` on the block's (rows, candidates) view.  A split
    partitions the node's rows and labels and counts the left child's
    classes, so a child that is bound to be a leaf is settled without its
    rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    sample = np.arange(y.size) if sample is None else np.asarray(sample)
    if sample.size == 0:
        raise ValueError("cannot grow a tree on zero rows")
    p = X.shape[1]
    m = math.isqrt(p)
    max_depth, min_node_size = config.max_depth, config.min_node_size

    def splittable(c, size, depth):
        return depth < max_depth and size >= min_node_size and np.count_nonzero(c) > 1

    flat, row_step, col_step = _buffer(X)
    every = np.arange(p)
    block_features = range(m)
    counts, feature, threshold, weighted_gini, left, right = [], [], [], [], [], []
    ys = y[sample]
    c = np.bincount(ys, minlength=n_classes)
    # row offsets, their labels, class counts, depth, parent of a right
    # child; a node its parent already knows to be a leaf carries no rows
    stack = [(sample * row_step, ys, c, 0, -1) if splittable(c, ys.size, 0)
             else (None, None, c, 0, -1)]
    while stack:
        rows, yn, c, depth, parent = stack.pop()
        node = len(counts)
        if parent >= 0:
            right[parent] = node
        counts.append(c)
        feature.append(-1)
        threshold.append(0.0)
        weighted_gini.append(0.0)
        left.append(-1)
        right.append(-1)
        if rows is None:
            continue
        if m < p:
            candidates = rng.choice(p, size=m, replace=False)
            candidates.sort()
        else:
            candidates = every
        # a group of candidates at a time, so the offsets of one group, not
        # of the whole block, are held beside it; "clip" (every offset is in
        # range) lets take write into out without a buffer
        width = max(1, BLOCK_CELLS // rows.size)
        block = np.empty((candidates.size, rows.size))
        for start in range(0, candidates.size, width):
            group = candidates[start:start + width]
            flat.take(group[:, None] * col_step + rows, out=block[start:start + width],
                      mode="clip")
        found = best_split(block.T, yn, n_classes, block_features)
        if found is None:
            continue
        f, threshold[node], weighted_gini[node] = found
        feature[node] = int(candidates[f])
        left[node] = node + 1
        mask = block[f] <= threshold[node]
        y_left = yn[mask]
        c_left = np.bincount(y_left, minlength=n_classes)
        c_right = c - c_left
        depth += 1
        if splittable(c_right, rows.size - y_left.size, depth):
            mask_right = ~mask
            stack.append((rows[mask_right], yn[mask_right], c_right, depth, node))
        else:
            stack.append((None, None, c_right, depth, node))
        if splittable(c_left, y_left.size, depth):
            stack.append((rows[mask], y_left, c_left, depth, -1))
        else:
            stack.append((None, None, c_left, depth, -1))
    return _finish_tree(np.array(counts, dtype=np.int64), np.array(feature, dtype=np.int64),
                        np.array(threshold), np.array(weighted_gini),
                        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))


def _finish_tree(counts, feature, threshold, weighted_gini, left, right) -> Tree:
    """Every node's gains and sample fraction in one pass over the arrays.

    Each node's entropy is computed once and serves both as a parent and
    as a child value."""
    size = counts.sum(axis=1).astype(np.float64)
    split = np.flatnonzero(feature >= 0)
    l, r = left[split], right[split]
    gini_decrease = np.zeros(feature.size)
    gini_decrease[split] = _gini_rows(counts[split]) - weighted_gini[split]
    h = _entropy_rows(counts)
    entropy_gain = np.zeros(feature.size)
    entropy_gain[split] = h[split] - (size[l] * h[l] + size[r] * h[r]) / size[split]
    return Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        counts=counts,
        majority=counts.argmax(axis=1),
        sample_fraction=size / size[0],
        gini_decrease=gini_decrease,
        entropy_gain=entropy_gain,
    )


def _tree_importance_sums(tree: Tree, n_features: int) -> np.ndarray:
    # Splits are summed node, right subtree, left subtree: the float sums
    # depend on this order.
    feature, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        if feature[node] >= 0:
            order.append(node)
            stack.append(left[node])
            stack.append(right[node])
    order = np.array(order, dtype=np.int64)
    sums = np.zeros(n_features)
    np.add.at(sums, tree.feature[order], tree.entropy_gain[order] * tree.sample_fraction[order])
    return sums


@dataclass
class TrainedForest:
    trees: list[Tree]
    in_bag: np.ndarray  # (n_trees, n_rows) bool
    importances: np.ndarray
    oob_accuracy: float
    oob_skipped: int
    build_seconds: float
    n_features: int
    n_classes: int
    class_names: tuple[str, ...] = ()
    config: ForestConfig = field(default_factory=ForestConfig)

    @property
    def summary(self) -> dict:
        """Each tree's nodes and depth and the out-of-bag score, as the run
        record and the container header hold them."""
        return {
            "nodes": [t.n_nodes for t in self.trees],
            "depth": [t.depth for t in self.trees],
            "oob_accuracy": self.oob_accuracy,
            "oob_skipped": self.oob_skipped,
        }


def tree_predict(tree: Tree, X, rows=None) -> np.ndarray:
    """Predictions for the rows ``rows`` of ``X`` (every row if None),
    routed down one tree a depth level at a time where they lie; rows at
    or below a threshold go left."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0] if rows is None else rows.size
    node = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        at = node[active]
        f = tree.feature[at]
        inner = f >= 0
        active, at, f = active[inner], at[inner], f[inner]
        go_left = X[active if rows is None else rows[active], f] <= tree.threshold[at]
        node[active] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.majority[node]


def train_forest(train: Dataset, config: ForestConfig) -> TrainedForest:
    """Fit the forest; trees may build in parallel threads, results do not
    change with the worker count because every tree owns stream (seed, index).

    Every tree grows over ``train.features`` itself, in C or Fortran order,
    through its bootstrap indices, and the out-of-bag score routes each
    tree's unsampled rows in place: nothing copies the table."""
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels_cat, dtype=np.int64)
    n_classes = len(train.class_names)
    if np.unique(y).size < 2:
        raise DataError("training data contains a single class")
    nan = np.flatnonzero(np.isnan(X.min(axis=0)))  # min propagates NaN
    if nan.size:
        # NaN has no place in the value order, so splits on it would depend
        # on row order.
        names = ", ".join(train.feature_names[i] for i in nan)
        raise DataError(f"NaN in feature column(s) {names}; forests need ordered values")
    n, p = X.shape

    def build(tree_idx: int):
        rng = np.random.default_rng([config.seed, tree_idx])
        idx = rng.integers(0, n, n)
        bag = np.zeros(n, dtype=bool)
        bag[idx] = True
        return grow_tree(X, y, n_classes, config, rng, idx), bag

    start = time.perf_counter()
    if config.n_workers > 1:
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            built = list(pool.map(build, range(config.n_trees)))
    else:
        built = [build(i) for i in range(config.n_trees)]
    trees = [t for t, _ in built]
    in_bag = np.array([b for _, b in built])
    importances = feature_importance(trees, p)
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
    forest.oob_accuracy, forest.oob_skipped = oob_score(forest, X, y)
    return forest


def feature_importance(trees, n_features: int) -> np.ndarray:
    """Entropy-gain importance, each split's gain scaled by its sample
    fraction, averaged over trees and normalized to sum 1."""
    per_tree = np.array([_tree_importance_sums(t, n_features) for t in trees])
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
        votes[rows, tree_predict(tree, X, rows)] += 1
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


def save_forest(forest: TrainedForest, path: str) -> None:
    """A forest container: every tree's node arrays concatenated.  The
    header holds the forest's ``summary``, whose ``nodes`` cut the arrays
    into trees, so a cache hit reads the summary without the arrays."""
    arrays = {
        "importances": forest.importances,
        "in_bag": np.packbits(forest.in_bag.astype(np.uint8)),
    }
    for name in TREE_ARRAYS:
        arrays[name] = np.concatenate([getattr(t, name) for t in forest.trees])
    artifacts.save(
        path, "forest", arrays,
        n_features=forest.n_features,
        n_classes=forest.n_classes,
        class_names=list(forest.class_names),
        build_seconds=forest.build_seconds,
        n_rows=int(forest.in_bag.shape[1]),
        config={f.name: getattr(forest.config, f.name) for f in fields(ForestConfig)},
        **forest.summary,
    )


def _forest_header(header: dict) -> dict:
    """The ``build_seconds`` and ``summary`` a forest header declares."""
    summary = {name: header[name] for name in ("nodes", "depth", "oob_accuracy", "oob_skipped")}
    nodes, depth = summary["nodes"], summary["depth"]
    n_trees = ForestConfig(**header["config"]).n_trees
    if len(nodes) != n_trees or len(depth) != n_trees:
        raise ValueError(f"{len(nodes)} node counts and {len(depth)} depths for {n_trees} trees")
    if not all(type(n) is int and n >= 1 for n in nodes):
        raise ValueError(f"node counts {nodes} are not all positive integers")
    return {"build_seconds": float(header["build_seconds"]), "summary": summary}


def _forest_from_arrays(header: dict, arrays: dict) -> TrainedForest:
    cfg = ForestConfig(**header["config"])
    n_rows, n_classes, n_features = header["n_rows"], header["n_classes"], header["n_features"]
    sizes = np.array(_forest_header(header)["summary"]["nodes"], dtype=np.int64)
    total = int(sizes.sum())
    for name in TREE_ARRAYS:
        want = (total, n_classes) if name == "counts" else (total,)
        if arrays[name].shape != want:
            raise ValueError(f"array {name!r} has shape {arrays[name].shape}, not {want}")
    if arrays["importances"].shape != (n_features,):
        raise ValueError(f"{arrays['importances'].shape} importances for {n_features} features")
    if arrays["in_bag"].size * 8 < cfg.n_trees * n_rows:
        raise ValueError("in-bag mask shorter than trees x rows")
    ends = np.cumsum(sizes)
    trees = []
    for start, end in zip((0, *ends[:-1].tolist()), ends.tolist()):
        tree = Tree(**{name: arrays[name][start:end] for name in TREE_ARRAYS})
        # children must come later in preorder, so every walk ends
        inner = np.flatnonzero(tree.feature >= 0)
        kids = np.concatenate([tree.left[inner], tree.right[inner]])
        if ((tree.feature >= n_features).any() or (kids <= np.tile(inner, 2)).any()
                or (kids >= end - start).any()
                or (tree.majority < 0).any() or (tree.majority >= n_classes).any()):
            raise ValueError("a node names a feature, child or class out of range")
        trees.append(tree)
    in_bag = np.unpackbits(arrays["in_bag"])[: cfg.n_trees * n_rows]
    return TrainedForest(
        trees=trees,
        in_bag=in_bag.reshape(cfg.n_trees, n_rows).astype(bool),
        importances=arrays["importances"],
        oob_accuracy=float(header["oob_accuracy"]),
        oob_skipped=int(header["oob_skipped"]),
        build_seconds=float(header["build_seconds"]),
        n_features=int(n_features),
        n_classes=int(n_classes),
        class_names=tuple(header["class_names"]),
        config=cfg,
    )


def load_forest(path: str) -> TrainedForest:
    return artifacts.load(path, "forest", _forest_from_arrays)


def load_forest_header(path: str) -> dict:
    """The ``build_seconds`` and ``summary`` of the forest at ``path``, from
    its header alone."""
    return artifacts.load_header(path, "forest", _forest_header)
