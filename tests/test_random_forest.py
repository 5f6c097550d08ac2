"""Forest training: impurity, splits, importance, bagging, persistence."""

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame
from flowsel import artifacts, random_forest
from flowsel.dataset import Dataset
from flowsel.errors import DataError, NumericError
from flowsel.random_forest import (
    TREE_ARRAYS,
    ForestConfig,
    Tree,
    best_split,
    entropy,
    feature_importance,
    gini,
    grow_tree,
    load_forest,
    oob_score,
    predict,
    save_forest,
    select_top_k,
    train_forest,
    tree_predict,
)


def toy_dataset(rows=200, n_features=5, n_classes=2, seed=0, sep=2.5):
    """Gaussian blobs, one per class, informative in every feature."""
    rng = np.random.default_rng(seed)
    labels = np.arange(rows) % n_classes
    feats = rng.normal(size=(rows, n_features)) + sep * labels[:, None]
    return Dataset(
        features=feats,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        labels_cat=labels.astype(np.int64),
        labels_bin=labels != 0,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )


class TestImpurity:
    def test_gini_values(self):
        assert gini([1, 1]) == pytest.approx(0.5, abs=1e-15)
        assert gini([2, 0]) == 0.0
        # p = (1/4, 1/4, 1/2) -> 1 - sum(p^2) = 0.625
        assert gini([1, 1, 2]) == pytest.approx(0.625, abs=1e-15)

    def test_entropy_values(self):
        assert entropy([1, 1]) == pytest.approx(math.log(2), abs=1e-15)
        assert entropy([4, 0]) == 0.0
        assert entropy([1, 1, 1, 1]) == pytest.approx(math.log(4), abs=1e-15)

    def test_zero_count_classes_contribute_nothing(self):
        assert entropy([3, 0, 3]) == pytest.approx(entropy([3, 3]), abs=1e-15)

    def test_bad_histograms(self):
        for fn in (gini, entropy):
            with pytest.raises(ValueError):
                fn([])
            with pytest.raises(ValueError):
                fn([0, 0])
            with pytest.raises(ValueError):
                fn([2, -1])


class TestBestSplit:
    def test_clean_separation(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        feature, threshold, weighted = best_split(X, y, 2, [0])
        assert feature == 0
        assert threshold == 2.5
        assert weighted == 0.0

    def test_tie_goes_to_lower_feature(self):
        # both columns split perfectly; column order decides
        X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        y = np.array([0, 0, 1, 1])
        feature, _, _ = best_split(X, y, 2, [1, 0])
        assert feature == 0

    def test_tie_goes_to_lower_threshold(self):
        # cuts at 1.5 and 2.5 both leave one mixed child of two rows
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0])
        _, threshold, _ = best_split(X, y, 2, [0])
        assert threshold == 1.5

    def test_midpoint_never_lands_on_the_right_value(self):
        """Adjacent floats can round their midpoint up; the threshold must
        still route the left value left."""
        a = np.nextafter(2.0, 1.0)
        X = np.array([[a], [2.0]])
        y = np.array([0, 1])
        _, threshold, _ = best_split(X, y, 2, [0])
        assert a <= threshold < 2.0

    def test_no_strict_improvement_returns_none(self):
        X = np.array([[1.0], [2.0]])
        assert best_split(X, np.array([0, 0]), 2, [0]) is None

    def test_constant_feature_returns_none(self):
        X = np.ones((4, 1))
        assert best_split(X, np.array([0, 1, 0, 1]), 2, [0]) is None


def reference_best_split(X, y, n_classes, candidates):
    """The per-candidate scan that the block kernel must reproduce bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = y.size
    parent = gini(np.bincount(y, minlength=n_classes))
    best = None
    for f in sorted(int(c) for c in candidates):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sc = col[order]
        sy = y[order]
        cut = np.flatnonzero(sc[1:] != sc[:-1]) + 1  # left-side sizes
        if cut.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), sy] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cut - 1]
        right = cum[-1] - left
        nl = cut.astype(np.float64)
        nr = n - nl
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        j = int(np.argmin(weighted))
        if best is not None and weighted[j] >= best[0]:
            continue
        a, b = sc[cut[j] - 1], sc[cut[j]]
        thr = a + (b - a) / 2.0
        if not (a <= thr < b):
            thr = a
        best = (float(weighted[j]), f, float(thr))
    if best is None or best[0] >= parent:
        return None
    weighted_gini, feature, threshold = best
    return feature, threshold, weighted_gini


def split_bits(found):
    """A split result with its floats spelled out exactly."""
    if found is None:
        return None
    feature, threshold, weighted = found
    assert type(feature) is int
    return feature, float(threshold).hex(), float(weighted).hex()


def split_problem(data):
    """Rows, labels, class count and a candidate list drawn for one node.

    Columns are continuous, rounded to a few integers (heavy ties),
    rounded with zeros of both signs (-0.0 ties 0.0), constant, or a copy
    of column 0 (features that tie on every cut); the candidate list is
    unsorted and may repeat features.  Seven classes is the bundled
    grouping's family count."""
    n = data.draw(st.integers(1, 200), label="rows")
    n_classes = data.draw(st.sampled_from([2, 5, 7, 9, 15]), label="classes")
    p = data.draw(st.integers(1, 6), label="features")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    present = data.draw(st.integers(1, n_classes), label="classes present")
    y = rng.integers(0, present, n)
    X = rng.normal(size=(n, p)) + 0.4 * y[:, None]
    for f in range(p):
        kind = data.draw(st.sampled_from(
            ["continuous", "ties", "signed zeros", "constant", "copy"]))
        if kind == "ties":
            X[:, f] = np.round(X[:, f])
        elif kind == "signed zeros":
            X[:, f] = np.round(X[:, f] - 0.4 * y)
            zero = X[:, f] == 0.0
            X[zero, f] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        elif kind == "constant":
            X[:, f] = 1.5
        elif kind == "copy":
            X[:, f] = X[:, 0]
    candidates = data.draw(
        st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p), label="candidates"
    )
    return X, y, n_classes, candidates


class TestBlockSplitMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_the_per_candidate_scan(self, data):
        X, y, n_classes, candidates = split_problem(data)
        want = split_bits(reference_best_split(X, y, n_classes, candidates))
        assert split_bits(best_split(X, y, n_classes, candidates)) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_bits_with_one_candidate_per_block(self, data):
        X, y, n_classes, candidates = split_problem(data)
        want = split_bits(reference_best_split(X, y, n_classes, candidates))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(random_forest, "BLOCK_CELLS", 1)
            assert split_bits(best_split(X, y, n_classes, candidates)) == want

    @staticmethod
    def forest_bytes(data, config, tmp_path, name):
        forest = train_forest(data, config)
        forest.build_seconds = 0.0
        path = tmp_path / name
        save_forest(forest, str(path))
        return path.read_bytes()

    @staticmethod
    def forest_data(n_classes, n_features):
        """A 300-row table; nodes draw 3 candidates of 9 features, 5 of 25."""
        rng = np.random.default_rng(n_classes)
        labels = rng.integers(0, n_classes, 300)
        feats = rng.normal(size=(300, n_features)) + 0.5 * (labels[:, None] % 3)
        feats[:, 1::3] = np.round(feats[:, 1::3])  # tied columns
        return Dataset(
            features=feats,
            feature_names=tuple(f"f{i}" for i in range(n_features)),
            labels_cat=labels.astype(np.int64),
            labels_bin=labels != 0,
            class_names=tuple(f"c{i}" for i in range(n_classes)),
        )

    @pytest.mark.parametrize("n_classes", [5, 9])
    @pytest.mark.parametrize("n_features", [9, 25])
    def test_a_block_gathered_in_groups_grows_the_same_forest(
        self, tmp_path, monkeypatch, n_classes, n_features
    ):
        """At 700 cells a 300-row root gathers its candidates two at a
        time, the last group alone; the forest is the one grown from
        blocks gathered in one group each."""
        data = self.forest_data(n_classes, n_features)
        config = ForestConfig(n_trees=3, seed=4)
        whole = self.forest_bytes(data, config, tmp_path, "whole.rf")
        monkeypatch.setattr(random_forest, "BLOCK_CELLS", 700)
        assert self.forest_bytes(data, config, tmp_path, "groups.rf") == whole

    @pytest.mark.parametrize("n_classes", [5, 9])
    @pytest.mark.parametrize("n_features", [9, 25])
    @pytest.mark.parametrize("block_cells", [1 << 20, 700])
    def test_forest_bytes_equal_the_reference_forest(
        self, tmp_path, monkeypatch, n_classes, n_features, block_cells
    ):
        monkeypatch.setattr(random_forest, "BLOCK_CELLS", block_cells)
        data = self.forest_data(n_classes, n_features)
        config = ForestConfig(n_trees=3, seed=4)
        block = self.forest_bytes(data, config, tmp_path, "block.rf")
        calls, per_tree = [], []

        def counted_reference(*args):
            calls.append(None)
            return reference_best_split(*args)

        def counted_grow(*args):
            before = len(calls)
            tree = grow_tree(*args)
            per_tree.append(len(calls) - before)
            return tree

        monkeypatch.setattr(random_forest, "best_split", counted_reference)
        monkeypatch.setattr(random_forest, "grow_tree", counted_grow)
        assert self.forest_bytes(data, config, tmp_path, "reference.rf") == block
        # the forest was grown through the swapped-in scan, in every tree
        assert len(per_tree) == config.n_trees and min(per_tree) >= 1


class TestClassSum:
    @pytest.mark.parametrize("n_classes", range(1, 41))
    def test_matches_a_class_last_sum(self, n_classes):
        """Class-major sums give the bits ndarray.sum gives over a
        contiguous class axis, the order the scalar impurities use."""
        rng = np.random.default_rng(n_classes)
        for shape in [(), (1,), (3, 5), (2, 7, 11)]:
            for t in (rng.random((n_classes, *shape)) ** 2,
                      rng.normal(size=(n_classes, *shape))):
                want = np.ascontiguousarray(np.moveaxis(t, 0, -1)).sum(axis=-1)
                got = random_forest._class_sum(t)
                assert hex_list(np.ravel(got)) == hex_list(np.ravel(want))


class TestGrowTree:
    def test_hand_tree_bookkeeping(self):
        """One clean split: gain is the full parent entropy, children are
        pure half-sized leaves."""
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(X, y, 2, ForestConfig(), np.random.default_rng(0))
        assert tree.n_nodes == 3
        np.testing.assert_array_equal(tree.counts, [[2, 2], [2, 0], [0, 2]])
        np.testing.assert_array_equal(tree.sample_fraction, [1.0, 0.5, 0.5])
        np.testing.assert_array_equal(tree.feature, [0, -1, -1])
        np.testing.assert_array_equal(tree.left, [1, -1, -1])
        np.testing.assert_array_equal(tree.right, [2, -1, -1])
        np.testing.assert_array_equal(tree.majority, [0, 0, 1])
        assert tree.threshold[0] == 2.5
        np.testing.assert_allclose(tree.entropy_gain[0], math.log(2), atol=1e-15)
        np.testing.assert_allclose(tree.gini_decrease[0], 0.5, atol=1e-15)
        np.testing.assert_array_equal(tree.entropy_gain[1:], 0.0)
        np.testing.assert_array_equal(tree.gini_decrease[1:], 0.0)
        assert tree.depth == 1

    def test_pure_node_is_a_leaf(self):
        tree = grow_tree(
            np.array([[1.0], [2.0]]), np.array([1, 1]), 2,
            ForestConfig(), np.random.default_rng(0),
        )
        assert tree.n_nodes == 1 and tree.feature[0] == -1
        assert tree.majority[0] == 1
        assert tree.depth == 0

    def test_depth_limit(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        tree = grow_tree(X, y, 2, ForestConfig(max_depth=1), np.random.default_rng(1))
        np.testing.assert_array_equal(tree.feature >= 0, [True, False, False])
        assert tree.depth == 1

    def test_min_node_size_stops_splitting(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0])
        tree = grow_tree(
            X, y, 2, ForestConfig(min_node_size=4), np.random.default_rng(0)
        )
        assert tree.n_nodes == 1 and tree.feature[0] == -1

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(np.zeros((0, 1)), np.array([], dtype=np.int64), 2,
                      ForestConfig(), np.random.default_rng(0))

    def test_row_order_is_irrelevant(self):
        """Grown on every row (no sample), shuffled rows grow the same
        tree: a cut never falls between equal values, so each node sees
        the same sets of rows on either side."""
        data = toy_dataset(rows=120, seed=8)
        perm = np.random.default_rng(9).permutation(120)
        trees = [grow_tree(X, y, 2, ForestConfig(max_depth=6), np.random.default_rng(3))
                 for X, y in ((data.features, data.labels_cat),
                              (data.features[perm], data.labels_cat[perm]))]
        assert tree_lists(trees[0]) == tree_lists(trees[1])


# ---------------------------------------------------------------------------
# The recursive node-graph trees that flat trees replaced, kept as the
# reference the arrays must reproduce bit for bit.


@dataclass
class TreeNode:
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


def reference_grow_tree(X, y, n_classes, config, rng, depth=0, root_size=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if root_size is None:
        root_size = y.size
    counts = np.bincount(y, minlength=n_classes)
    node = TreeNode(counts=counts, majority=int(np.argmax(counts)),
                    sample_fraction=y.size / root_size)
    pure = counts.max() == y.size
    if pure or depth >= config.max_depth or y.size < config.min_node_size:
        return node
    p = X.shape[1]
    m = max(1, int(math.floor(math.sqrt(p))))
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
    node.left = reference_grow_tree(X[mask], y[mask], n_classes, config, rng, depth + 1,
                                    root_size)
    node.right = reference_grow_tree(X[~mask], y[~mask], n_classes, config, rng, depth + 1,
                                     root_size)
    return node


def reference_importance_sums(root, n_features):
    sums = np.zeros(n_features)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        sums[node.feature] += node.entropy_gain * node.sample_fraction
        stack.append(node.left)
        stack.append(node.right)
    return sums


def reference_tree_predict(root, X):
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


def reference_forest(X, y, n_classes, config):
    """Trees, importances, OOB accuracy and skipped count, as train_forest
    computed them from node graphs."""
    n, p = X.shape
    trees, bags = [], []
    for tree_idx in range(config.n_trees):
        rng = np.random.default_rng([config.seed, tree_idx])
        idx = rng.integers(0, n, n)
        bag = np.zeros(n, dtype=bool)
        bag[idx] = True
        trees.append(reference_grow_tree(X[idx], y[idx], n_classes, config, rng))
        bags.append(bag)
    per_tree = np.array([reference_importance_sums(t, p) for t in trees])
    mean = per_tree.mean(axis=0)
    if float(mean.sum()) <= 0:
        raise NumericError("no splits")
    importances = mean / float(mean.sum())
    votes = np.zeros((n, n_classes))
    for tree, bag in zip(trees, bags):
        rows = np.flatnonzero(~bag)
        if rows.size:
            votes[rows, reference_tree_predict(tree, X[rows])] += 1
    covered = votes.sum(axis=1) > 0
    if not covered.any():
        raise NumericError("no out-of-bag rows")
    accuracy = float(np.mean(votes[covered].argmax(axis=1) == y[covered]))
    return trees, importances, accuracy, int(n - covered.sum())


def flatten(root):
    """A node graph's fields in preorder, left subtree first, as lists with
    floats spelled out by float.hex."""
    out = {name: [] for name in TREE_ARRAYS}
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        index = len(out["feature"])
        if parent >= 0:
            out["right"][parent] = index
        out["feature"].append(-1 if node.is_leaf else node.feature)
        out["threshold"].append(float(node.threshold).hex())
        out["left"].append(-1 if node.is_leaf else index + 1)
        out["right"].append(-1)
        out["counts"].append([int(c) for c in node.counts])
        out["majority"].append(node.majority)
        out["sample_fraction"].append(float(node.sample_fraction).hex())
        out["gini_decrease"].append(float(node.gini_decrease).hex())
        out["entropy_gain"].append(float(node.entropy_gain).hex())
        if not node.is_leaf:
            stack.append((node.right, index))
            stack.append((node.left, -1))
    return out


def tree_lists(tree):
    """A flat tree's arrays in the layout of ``flatten``."""
    out = {}
    for name in TREE_ARRAYS:
        values = getattr(tree, name).tolist()
        if getattr(tree, name).dtype == np.float64:
            values = [v.hex() for v in values]
        out[name] = values
    return out


def hex_list(values):
    return [float(v).hex() for v in values]


def forest_problem(data):
    """A training set and forest config drawn for one reference comparison:
    2, 5, 9 or 15 classes, continuous, tied, constant and copied columns,
    one feature (every feature a candidate) up to 30 (5 candidates)."""
    n = data.draw(st.integers(8, 160), label="rows")
    n_classes = data.draw(st.sampled_from([2, 5, 9, 15]), label="classes")
    p = data.draw(st.integers(1, 30), label="features")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    present = data.draw(st.integers(2, n_classes), label="classes present")
    y = np.arange(n) % present  # every present class occurs
    rng.shuffle(y)
    X = rng.normal(size=(n, p)) + 0.5 * (y[:, None] % 3)
    for f in range(p):
        kind = data.draw(st.sampled_from(["continuous", "ties", "constant", "copy"]))
        if kind == "ties":
            X[:, f] = np.round(X[:, f])
        elif kind == "constant":
            X[:, f] = 1.5
        elif kind == "copy":
            X[:, f] = X[:, 0]
    if not any(np.unique(X[:, f]).size > 1 for f in range(p)):
        X[:, 0] = rng.normal(size=n)  # something to split on
    config = ForestConfig(
        n_trees=data.draw(st.integers(1, 4), label="trees"),
        max_depth=data.draw(st.integers(1, 12), label="max_depth"),
        min_node_size=data.draw(st.integers(1, 6), label="min_node_size"),
        seed=data.draw(st.integers(0, 1000), label="forest seed"),
    )
    dataset = Dataset(
        features=X,
        feature_names=tuple(f"f{i}" for i in range(p)),
        labels_cat=y.astype(np.int64),
        labels_bin=y != 0,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )
    return dataset, config


class TestFlatTreesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_the_node_graph_forest(self, data):
        train, config = forest_problem(data)
        X, y = train.features, train.labels_cat
        n_classes = len(train.class_names)
        try:
            trees, importances, oob, skipped = reference_forest(X, y, n_classes, config)
        except NumericError:
            with pytest.raises(NumericError):
                train_forest(train, config)
            return
        forest = train_forest(train, config)
        assert [tree_lists(t) for t in forest.trees] == [flatten(t) for t in trees]
        assert hex_list(forest.importances) == hex_list(importances)
        assert float(forest.oob_accuracy).hex() == float(oob).hex()
        assert forest.oob_skipped == skipped
        grid = np.concatenate([X, np.random.default_rng(0).normal(size=(40, X.shape[1]))])
        for tree, root in zip(forest.trees, trees):
            np.testing.assert_array_equal(tree_predict(tree, grid),
                                          reference_tree_predict(root, grid))

    @pytest.mark.parametrize("n_classes", [2, 5, 9, 15])
    def test_gain_pass_matches_the_scalar_impurities(self, n_classes):
        """Row-wise gini and entropy equal the scalar calls on histograms
        with every count of empty classes."""
        rng = np.random.default_rng(n_classes)
        counts = rng.integers(0, 50, size=(3000, n_classes))
        counts[rng.random(counts.shape) < 0.4] = 0
        counts[counts.sum(axis=1) == 0, 0] = 1
        assert hex_list(random_forest._gini_rows(counts)) == hex_list(
            [gini(c) for c in counts])
        assert hex_list(random_forest._entropy_rows(counts)) == hex_list(
            [entropy(c) for c in counts])


# ---------------------------------------------------------------------------
# Growth and out-of-bag routing on copies of the rows, as they were before
# trees grew through their bootstrap indices and rows were routed in place,
# kept as the reference the in-place code must reproduce bit for bit.


def copying_grow_tree(X, y, n_classes, config, rng):
    """``grow_tree`` on a feature-major copy of the rows it is given."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("cannot grow a tree on zero rows")
    p = X.shape[1]
    m = max(1, int(math.floor(math.sqrt(p))))
    max_depth, min_node_size = config.max_depth, config.min_node_size

    def splittable(c, size, depth):
        return depth < max_depth and size >= min_node_size and np.count_nonzero(c) > 1

    columns = np.ascontiguousarray(X.T)  # (features, rows)
    stride = columns.shape[1]
    every = np.arange(p)
    block_features = range(m)
    counts, feature, threshold, weighted_gini, left, right = [], [], [], [], [], []
    c = np.bincount(y, minlength=n_classes)
    stack = [(np.arange(y.size), y, c, 0, -1) if splittable(c, y.size, 0)
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
        block = columns.take(candidates[:, None] * stride + rows)
        found = random_forest.best_split(block.T, yn, n_classes, block_features)
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
    return random_forest._finish_tree(
        np.array(counts, dtype=np.int64), np.array(feature, dtype=np.int64),
        np.array(threshold), np.array(weighted_gini),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))


def gathering_tree_predict(tree, X):
    """``tree_predict`` on rows gathered by the caller."""
    X = np.asarray(X, dtype=np.float64)
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        f = tree.feature[at]
        inner = f >= 0
        rows, at, f = rows[inner], at[inner], f[inner]
        go_left = X[rows, f] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.majority[node]


def laid_out(X, layout):
    """``X`` in C order, in Fortran order (as a column subset ``a[:, idx]``
    is), or as a strided view that is neither."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    wide = np.zeros((X.shape[0], 2 * X.shape[1]))
    wide[:, ::2] = X
    return wide[:, ::2]


class TestGrowthInPlaceMatchesCopies:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(["C", "F", "strided"]))
    def test_a_bootstrap_sample_grows_the_tree_of_its_gathered_rows(self, data, layout):
        train, config = forest_problem(data)
        X, y = laid_out(train.features, layout), train.labels_cat
        n_classes = len(train.class_names)
        draw = np.random.default_rng(config.seed)
        sample = draw.integers(0, y.size, y.size)
        seed = data.draw(st.integers(0, 1000), label="tree seed")
        tree = grow_tree(X, y, n_classes, config, np.random.default_rng(seed), sample)
        want = copying_grow_tree(X[sample], y[sample], n_classes, config,
                                 np.random.default_rng(seed))
        assert tree_lists(tree) == tree_lists(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(["C", "F", "strided"]))
    def test_a_row_subset_is_routed_as_its_gathered_rows(self, data, layout):
        train, config = forest_problem(data)
        tree = grow_tree(train.features, train.labels_cat, len(train.class_names), config,
                         np.random.default_rng(config.seed))
        draw = np.random.default_rng(config.seed)
        X = laid_out(np.concatenate([train.features, draw.normal(size=train.features.shape)]),
                     layout)
        rows = np.flatnonzero(draw.random(X.shape[0]) < 0.4)
        got = tree_predict(tree, X, rows)
        np.testing.assert_array_equal(got, gathering_tree_predict(tree, X[rows]))
        np.testing.assert_array_equal(got, tree_predict(tree, X[rows]))

    def test_a_fortran_split_grows_the_forest_of_a_c_split(self):
        data = toy_dataset(rows=400, n_features=7, n_classes=5, seed=6, sep=0.7)
        config = ForestConfig(n_trees=3, seed=2, max_depth=6)
        c = train_forest(data, config)
        f = train_forest(replace(data, features=np.asfortranarray(data.features)), config)
        assert [tree_lists(t) for t in f.trees] == [tree_lists(t) for t in c.trees]
        assert float(f.oob_accuracy).hex() == float(c.oob_accuracy).hex()


class TestMemoryBounds:
    """Training and out-of-bag scoring copy no table: peaks are bounded by
    multiples of the table's size, which the copies they made exceeded."""

    @staticmethod
    def table(layout="C", columns=30):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 5, 20000)
        feats = rng.normal(size=(20000, columns)) + 0.3 * labels[:, None]
        return Dataset(
            features=laid_out(feats, layout),
            feature_names=tuple(f"f{i}" for i in range(columns)),
            labels_cat=labels.astype(np.int64),
            labels_bin=labels != 0,
            class_names=tuple(f"c{i}" for i in range(5)),
        )

    CONFIG = ForestConfig(n_trees=2, max_depth=8, seed=1)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_train_forest_allocates_under_three_tables(self, traced_peak, monkeypatch,
                                                       layout):
        """With one candidate per best_split block, what a node scores is
        small beside the table, so the bound sees the table's copies."""
        monkeypatch.setattr(random_forest, "BLOCK_CELLS", 1)
        data = self.table(layout)
        peak, _ = traced_peak(lambda: train_forest(data, self.CONFIG))
        assert peak <= 3 * data.features.nbytes, peak / data.features.nbytes

    def test_oob_score_allocates_under_half_a_table(self, traced_peak):
        """About 37% of the rows are out of bag in each tree; they are
        routed where they lie, not gathered."""
        data = self.table()
        forest = train_forest(data, self.CONFIG)
        peak, _ = traced_peak(lambda: oob_score(forest, data.features, data.labels_cat))
        assert peak <= 0.5 * data.features.nbytes, peak / data.features.nbytes


class TestTrainForest:
    def test_worker_count_changes_nothing(self):
        """Per-tree seeding makes 1, 2 and 8 threads bit-identical."""
        data = toy_dataset(rows=300, seed=2)
        results = [
            train_forest(data, ForestConfig(n_trees=24, seed=7, n_workers=w))
            for w in (1, 2, 8)
        ]
        base = results[0]
        grid = np.random.default_rng(0).normal(size=(50, 5)) + 1.0
        for other in results[1:]:
            np.testing.assert_array_equal(base.importances, other.importances)
            np.testing.assert_array_equal(base.in_bag, other.in_bag)
            assert base.oob_accuracy == other.oob_accuracy
            np.testing.assert_array_equal(predict(base, grid), predict(other, grid))

    def test_bootstrap_covers_the_expected_fraction(self):
        """Sampling n of n with replacement touches ~63.2% distinct rows."""
        data = toy_dataset(rows=1000, seed=3)
        forest = train_forest(data, ForestConfig(n_trees=50, seed=1))
        fractions = forest.in_bag.mean(axis=1)
        expect = 1.0 - (1.0 - 1.0 / 1000) ** 1000
        assert abs(fractions.mean() - expect) < 0.02

    def test_oob_scores_the_rows_some_tree_left_out(self):
        data = toy_dataset(rows=150, seed=4)
        bagged = train_forest(data, ForestConfig(n_trees=20, seed=0))
        assert 0.0 <= bagged.oob_accuracy <= 1.0
        assert bagged.oob_skipped < data.n_rows

    def test_oob_with_full_coverage_raises(self):
        data = toy_dataset(rows=60, seed=6)
        forest = train_forest(data, ForestConfig(n_trees=10, seed=0))
        forest.in_bag[:] = True  # nothing left out anywhere
        with pytest.raises(NumericError, match="out-of-bag"):
            oob_score(forest, data.features, data.labels_cat)

    def test_single_class_rejected(self):
        data = toy_dataset(rows=40)
        solo = Dataset(
            features=data.features,
            feature_names=data.feature_names,
            labels_cat=np.zeros(40, dtype=np.int64),
            labels_bin=np.zeros(40, dtype=bool),
            class_names=data.class_names,
        )
        with pytest.raises(DataError, match="single class"):
            train_forest(solo, ForestConfig(n_trees=5))

    def test_nan_features_rejected(self):
        """NaN has no place in the value order, so a split on it would
        depend on row order; the forest names the columns instead."""
        data = toy_dataset(rows=60, seed=5)
        data.features[3, 1] = np.nan
        data.features[[0, 9], 4] = np.nan
        with pytest.raises(DataError, match=r"NaN in feature column\(s\) f1, f4"):
            train_forest(data, ForestConfig(n_trees=2))

    def test_importance_lands_on_the_informative_feature(self):
        rng = np.random.default_rng(10)
        labels = (np.arange(250) % 2).astype(np.int64)
        feats = rng.normal(size=(250, 5))
        feats[:, 2] += 3.0 * labels  # only column 2 carries signal
        data = Dataset(
            features=feats,
            feature_names=("a", "b", "c", "d", "e"),
            labels_cat=labels,
            labels_bin=labels != 0,
            class_names=("x", "y"),
        )
        forest = train_forest(data, ForestConfig(n_trees=30, seed=5))
        assert forest.importances[2] > 0.6
        assert forest.importances[2] > forest.importances.max(initial=0.0, where=np.arange(5) != 2)


def flat_tree(feature, threshold, left, right, counts, sample_fraction, entropy_gain):
    """A Tree from hand-written node lists; majority and zero gini decrease
    are filled in."""
    counts = np.array(counts, dtype=np.int64)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=counts,
        majority=counts.argmax(axis=1),
        sample_fraction=np.array(sample_fraction, dtype=np.float64),
        gini_decrease=np.zeros(len(feature)),
        entropy_gain=np.array(entropy_gain, dtype=np.float64),
    )


def stump(feature, gain, fraction=1.0):
    return flat_tree(
        feature=[feature, -1, -1], threshold=[0.0, 0.0, 0.0], left=[1, -1, -1],
        right=[2, -1, -1], counts=[[1, 1], [1, 0], [0, 1]],
        sample_fraction=[fraction, 0.5, 0.5], entropy_gain=[gain, 0.0, 0.0],
    )


class TestFeatureImportance:
    def test_single_stump_takes_all_mass(self):
        imp = feature_importance([stump(0, 0.7)], 3)
        np.testing.assert_array_equal(imp, [1.0, 0.0, 0.0])

    def test_equal_gains_split_evenly(self):
        imp = feature_importance([stump(0, 0.4), stump(2, 0.4)], 3)
        np.testing.assert_allclose(imp, [0.5, 0.0, 0.5], rtol=0, atol=1e-15)

    def test_weighting_by_sample_fraction(self):
        # same gain, but the second split saw half the rows
        tree_a = stump(0, 0.6, fraction=1.0)
        tree_b = stump(1, 0.6, fraction=0.5)
        imp = feature_importance([tree_a, tree_b], 2)
        np.testing.assert_allclose(imp, [2 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_always_sums_to_one(self):
        data = toy_dataset(rows=200, n_features=6, seed=11)
        forest = train_forest(data, ForestConfig(n_trees=30, seed=2))
        np.testing.assert_allclose(forest.importances.sum(), 1.0, atol=1e-9)
        assert np.all(forest.importances >= 0)

    def test_splitless_forest_rejected(self):
        leaf = flat_tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                         counts=[[2, 0]], sample_fraction=[1.0], entropy_gain=[0.0])
        with pytest.raises(NumericError, match="no splits"):
            feature_importance([leaf], 2)


class TestSelectTopK:
    def test_picks_largest(self):
        sub = select_top_k([0.1, 0.5, 0.05, 0.35], 2)
        assert sub.indices == (1, 3)

    def test_ties_prefer_lower_index(self):
        sub = select_top_k([0.25, 0.25, 0.25, 0.25], 2)
        assert sub.indices == (0, 1)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            select_top_k([0.5, 0.5], 0)
        with pytest.raises(ValueError):
            select_top_k([0.5, 0.5], 3)


class TestPredict:
    def test_majority_vote_and_tie_rule(self):
        data = toy_dataset(rows=160, seed=12)
        forest = train_forest(data, ForestConfig(n_trees=21, seed=4))
        labels = predict(forest, data.features)
        # recompute the vote from the trees and apply argmax by hand
        manual = np.zeros((data.n_rows, 2))
        for tree in forest.trees:
            manual[np.arange(data.n_rows), tree_predict(tree, data.features)] += 1
        np.testing.assert_array_equal(manual.sum(axis=1), 21)
        np.testing.assert_array_equal(labels, manual.argmax(axis=1))

    def test_shape_validation(self):
        data = toy_dataset(rows=80, seed=13)
        forest = train_forest(data, ForestConfig(n_trees=5, seed=0))
        with pytest.raises(DataError, match="features"):
            predict(forest, np.zeros((4, 9)))

    def test_learns_the_blobs(self):
        data = toy_dataset(rows=400, seed=14)
        forest = train_forest(data, ForestConfig(n_trees=40, seed=6))
        acc = float(np.mean(predict(forest, data.features) == data.labels_cat))
        assert acc >= 0.99


class TestForestFiles:
    def test_round_trip(self, tmp_path):
        data = toy_dataset(rows=150, n_features=4, seed=15)
        forest = train_forest(data, ForestConfig(n_trees=12, seed=3))
        path = str(tmp_path / "model.rf")
        save_forest(forest, path)
        back = load_forest(path)
        grid = np.random.default_rng(2).normal(size=(60, 4)) + 1.0
        np.testing.assert_array_equal(predict(back, grid), predict(forest, grid))
        np.testing.assert_array_equal(back.importances, forest.importances)
        np.testing.assert_array_equal(back.in_bag, forest.in_bag)
        assert back.oob_accuracy == forest.oob_accuracy
        assert back.config == forest.config
        assert back.class_names == forest.class_names

    def test_the_header_holds_the_summary(self, tmp_path):
        """Tree sizes and depths and the out-of-bag score read from the
        header alone, as the grown forest and the loaded one give them."""
        data = toy_dataset(rows=120, n_features=4, seed=17)
        forest = train_forest(data, ForestConfig(n_trees=5, max_depth=6, seed=1))
        path = str(tmp_path / "model.rf")
        save_forest(forest, path)
        header = random_forest.load_forest_header(path)
        assert header == {"build_seconds": forest.build_seconds, "summary": forest.summary}
        assert load_forest(path).summary == forest.summary
        assert forest.summary["nodes"] == [t.n_nodes for t in forest.trees]
        assert all(1 <= d <= 6 for d in forest.summary["depth"])
        assert forest.summary["oob_accuracy"] == forest.oob_accuracy

    @pytest.mark.parametrize("side,value,depth", [(None, None, 2), ("left", 0, 1),
                                                  ("right", 10**6, 2)])
    def test_depth_ends_on_a_malformed_tree(self, side, value, depth):
        """A child that points back up or past the last node ends its path,
        so such a forest can still be saved for the loader to refuse."""
        tree = flat_tree(feature=[0, 1, -1, -1, -1], threshold=[0.5, 0.5, 0.0, 0.0, 0.0],
                         left=[1, 2, -1, -1, -1], right=[4, 3, -1, -1, -1],
                         counts=[[2, 2], [1, 2], [0, 1], [1, 1], [1, 0]],
                         sample_fraction=[1.0, 0.75, 0.25, 0.5, 0.25],
                         entropy_gain=[0.1, 0.1, 0.0, 0.0, 0.0])
        if side is not None:
            getattr(tree, side)[0] = value
        assert tree.depth == depth

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.rf")
        with open(path, "wb") as fh:
            fh.write(b"NOTAFOREST" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            load_forest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_forest(str(tmp_path / "absent.rf"))

    def test_tree_arrays_survive_the_trip(self, tmp_path):
        data = toy_dataset(rows=120, n_features=4, n_classes=3, seed=17)
        forest = train_forest(data, ForestConfig(n_trees=3, seed=1))
        path = str(tmp_path / "model.rf")
        save_forest(forest, path)
        back = load_forest(path)
        assert [tree_lists(t) for t in back.trees] == [tree_lists(t) for t in forest.trees]
        assert [t.depth for t in back.trees] == [t.depth for t in forest.trees]

    def test_version_1_file_is_refused(self, tmp_path):
        """A cache in the old nested-JSON layout fails with one line, not a
        KeyError."""
        blob = json.dumps({"version": 1, "trees": []}).encode("utf-8")
        path = tmp_path / "old.rf"
        path.write_bytes(b"FLOWRF01" + len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(DataError, match=r"unreadable forest file \(bad magic\); delete it"):
            load_forest(str(path))

    @settings(max_examples=200, deadline=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_raises_data_error(self, saved_forest, tmp_path_factory, cut):
        raw = saved_forest.read_bytes()
        path = tmp_path_factory.mktemp("cut") / "model.rf"
        path.write_bytes(raw[: int(cut * len(raw))])
        with pytest.raises(DataError, match="delete it or rerun with --force|bad magic"):
            load_forest(str(path))

    @pytest.mark.parametrize("name,index,value", [
        ("feature", 0, 4), ("left", 0, 0), ("right", 0, 10**6), ("majority", 1, 3),
    ])
    def test_out_of_range_node_raises_data_error(self, saved_forest, tmp_path, name, index,
                                                 value):
        """A child that points back up would make prediction loop forever;
        a feature or class out of range would index past an array."""
        forest = load_forest(str(saved_forest))
        tree = forest.trees[0]
        column = getattr(tree, name).copy()
        column[index] = value
        setattr(tree, name, column)
        path = str(tmp_path / "bad.rf")
        save_forest(forest, path)
        with pytest.raises(DataError, match=r"out of range\); delete it or rerun with --force"):
            load_forest(path)

    @pytest.mark.parametrize("edit,reason", [
        (lambda h: h.update(arrays=[[n, "<f4", s] for n, _, s in h["arrays"]]),
         "array 'importances' declares <f4 [4]"),
        (lambda h: h["arrays"][2].__setitem__(2, [10**6]), "array 'feature' needs 8000000 bytes"),
        (lambda h: h.pop("n_rows"), "'n_rows'"),
        (lambda h: h["config"].update(n_trees=99), "3 node counts and 3 depths for 99 trees"),
        (lambda h: h.update(n_features=1), "(4,) importances for 1 features"),
        (lambda h: h["nodes"].__setitem__(0, 0), "node counts [0, "),
    ], ids=["dtype", "shape", "missing key", "tree count", "feature count", "empty tree"])
    def test_malformed_header_raises_data_error(self, saved_forest, tmp_path, edit, reason):
        """The edited header is framed with a fresh checksum, so each case
        reaches its own check rather than failing the checksum."""
        raw = saved_forest.read_bytes()
        start = len(artifacts.MAGIC) + 8
        hlen = int.from_bytes(raw[len(artifacts.MAGIC):start - 4], "little")
        header = json.loads(raw[start:start + hlen])
        edit(header)
        path = tmp_path / "bad.rf"
        artifacts.write_atomic(str(path), frame(header, [raw[start + hlen:]]))
        with pytest.raises(DataError, match=re.escape(f"{path}: unreadable forest file ({reason}")):
            load_forest(str(path))


@pytest.fixture(scope="module")
def saved_forest(tmp_path_factory):
    data = toy_dataset(rows=90, n_features=4, n_classes=3, seed=18)
    path = tmp_path_factory.mktemp("forest") / "model.rf"
    save_forest(train_forest(data, ForestConfig(n_trees=3, seed=2)), str(path))
    return path
