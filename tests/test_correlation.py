"""Rank correlation and subset merit.

The reference implementation below ranks by explicit tie-group scanning
and correlates with the plain product-moment sums, sharing no code with
the module under test.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsel import artifacts, correlation
from flowsel.correlation import (
    CfsScore,
    CorrelationMatrix,
    MeritEvaluator,
    _abs_blocks,
    _merit_parts,
    average_ranks,
    cfs_merit,
    export_heatmap,
    ig_sum,
    load_heatmap,
    merit_formula,
    spearman_matrix,
)
from flowsel.errors import DataError


def naive_ranks(values):
    """Fractional ranks by sorting and scanning tie groups."""
    values = list(map(float, values))
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0  # mean of 1-based positions i..j
        for pos in range(i, j + 1):
            ranks[order[pos]] = shared
        i = j + 1
    return np.array(ranks)


def naive_spearman(x, y):
    a = naive_ranks(x)
    b = naive_ranks(y)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0:
        return 0.0
    return float((a * b).sum() / denom)


class TestAverageRanks:
    def test_distinct_values(self):
        np.testing.assert_array_equal(
            average_ranks([10.0, -3.0, 5.0]), [3.0, 1.0, 2.0]
        )

    def test_ties_share_mean_rank(self):
        # two values tied for ranks 2 and 3
        np.testing.assert_array_equal(
            average_ranks([1.0, 7.0, 7.0, 9.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_all_equal(self):
        np.testing.assert_array_equal(average_ranks([4.0] * 5, ), [3.0] * 5)

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            vals = rng.integers(0, 6, size=n).astype(np.float64)
            np.testing.assert_array_equal(average_ranks(vals), naive_ranks(vals))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            average_ranks(np.zeros((2, 2)))


def reference_average_ranks(values):
    """The earlier two-sort ranking: stable argsort positions, averaged over
    each ``np.unique`` group by ``bincount``."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1, dtype=np.float64)
    _, inverse = np.unique(values, return_inverse=True)
    sums = np.bincount(inverse, weights=ranks)
    counts = np.bincount(inverse)
    return (sums / counts)[inverse]


def rank_column(data, n):
    """A column of heavy ties, rounded values, signed zeros, NaN or one value."""
    kind = data.draw(st.sampled_from(["ties", "rounded", "zeros", "nan", "constant", "floats"]))
    if kind == "ties":
        cells = st.integers(0, 3).map(float)
    elif kind == "rounded":
        cells = st.floats(-5, 5).map(lambda v: round(v, 1))
    elif kind == "zeros":
        cells = st.sampled_from([0.0, -0.0, 1.0, -1.0])
    elif kind == "nan":
        cells = st.sampled_from([np.nan, 0.0, -0.0, 2.5, np.inf, -np.inf])
    elif kind == "constant":
        value = data.draw(st.floats(allow_nan=True))
        return np.full(n, value)
    else:
        cells = st.floats(allow_nan=True, allow_infinity=True)
    return np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)


class TestRanksMatchReference:
    """One ``np.unique`` with group ends gives the reference's exact bytes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_bytes_as_two_sorts(self, data):
        n = data.draw(st.sampled_from([1, 2, 3, 7, 40, 200]))
        column = rank_column(data, n)
        assert average_ranks(column).tobytes() == reference_average_ranks(column).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_spearman_matrix_same_bytes_on_tied_columns(self, data):
        rows = data.draw(st.integers(5, 300))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        feats = np.round(rng.normal(size=(rows, 63)), data.draw(st.integers(0, 2)))
        feats[:, ::7] = rng.integers(0, 3, size=(rows, 9))
        feats[0] = feats[1] + 1.0  # no constant column
        labels = rng.integers(0, 5, size=rows)
        cls = (labels[:, None] == np.arange(5)).astype(np.float64)
        names = tuple(f"f{j}" for j in range(63))
        classes = tuple(f"c{j}" for j in range(5))
        got = spearman_matrix(feats, cls, names, classes)
        real = correlation.average_ranks
        correlation.average_ranks = reference_average_ranks
        try:
            want = spearman_matrix(feats, cls, names, classes)
        finally:
            correlation.average_ranks = real
        assert got.values.tobytes() == want.values.tobytes()


def reference_spearman_matrix(features, class_columns, feature_names, class_names):
    """spearman_matrix as it was before it ranked into one array: stacked
    columns, a list of ranked columns, and new arrays for the centred
    matrix and its squares."""
    features = np.asarray(features, dtype=np.float64)
    class_columns = np.asarray(class_columns, dtype=np.float64)
    constant = [feature_names[j] for j in range(features.shape[1])
                if np.all(features[:, j] == features[0, j])]
    if constant:
        raise DataError(f"constant feature column(s): {constant}")
    stacked = np.hstack([features, class_columns])
    ranked = np.column_stack([average_ranks(stacked[:, j]) for j in range(stacked.shape[1])])
    centered = ranked - ranked.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(norms == 0, 1.0, norms)
    corr = (centered.T @ centered) / np.outer(safe, safe)
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


class TestSpearmanMatchesReference:
    """Ranking into one array, centred and squared in place, gives the
    reference's exact bytes."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), binary=st.booleans())
    def test_same_bytes(self, data, binary):
        rows = data.draw(st.sampled_from([2, 3, 7, 40, 200]))
        n_features = data.draw(st.integers(1, 6))
        feats = np.column_stack([rank_column(data, rows) for _ in range(n_features)])
        n_classes = data.draw(st.integers(1, 4))
        labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                             min_size=rows, max_size=rows)))
        if binary:  # one attack indicator column, as class_indicator_columns gives
            cls, classes = (labels > 0).astype(np.float64).reshape(-1, 1), ("attack",)
        else:  # one column per class; a class without rows is a constant column
            cls = (labels[:, None] == np.arange(n_classes)).astype(np.float64)
            classes = tuple(f"c{j}" for j in range(n_classes))
        names = tuple(f"f{j}" for j in range(n_features))
        try:
            want = reference_spearman_matrix(feats, cls, names, classes)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                spearman_matrix(feats, cls, names, classes)
            return
        got = spearman_matrix(feats, cls, names, classes)
        assert got.values.tobytes() == want.tobytes()

    def test_allocates_little_beyond_its_ranked_matrix(self):
        rng = np.random.default_rng(8)
        feats = np.round(rng.normal(size=(20000, 30)), 1)
        labels = rng.integers(0, 5, size=20000)
        cls = (labels[:, None] == np.arange(5)).astype(np.float64)
        names, classes = tuple(f"f{j}" for j in range(30)), tuple(f"c{j}" for j in range(5))
        spearman_matrix(feats, cls, names, classes)  # warm: first calls fill caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spearman_matrix(feats, cls, names, classes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ranked = feats.shape[0] * (feats.shape[1] + cls.shape[1]) * 8
        assert peak <= 1.3 * ranked, peak / ranked


class TestSpearmanMatrix:
    def test_known_value(self):
        """rho([1,2,3],[3,1,2]) = -0.5."""
        m = spearman_matrix(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([[3.0], [1.0], [2.0]]),
            ("f",),
            ("c",),
        )
        np.testing.assert_allclose(m.values[0, 1], -0.5, rtol=0, atol=1e-15)

    def test_matches_naive_oracle(self):
        """Every entry equals rank-then-Pearson computed independently."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            rows = int(rng.integers(3, 30))
            nf = int(rng.integers(1, 6))
            nc = int(rng.integers(1, 4))
            feats = rng.integers(0, 5, size=(rows, nf)).astype(np.float64)
            feats[0] += 0.5  # guarantee no constant column
            cls = rng.integers(0, 2, size=(rows, nc)).astype(np.float64)
            cls[0] = 1.0 - cls[0] if rows > 1 else cls[0]
            m = spearman_matrix(
                feats, cls,
                tuple(f"f{i}" for i in range(nf)),
                tuple(f"c{i}" for i in range(nc)),
            )
            stacked = np.hstack([feats, cls])
            for i in range(stacked.shape[1]):
                for j in range(stacked.shape[1]):
                    want = naive_spearman(stacked[:, i], stacked[:, j])
                    if np.all(stacked[:, i] == stacked[0, i]) or np.all(
                        stacked[:, j] == stacked[0, j]
                    ):
                        want = 0.0
                    if i == j:
                        want = 1.0
                    np.testing.assert_allclose(
                        m.values[i, j], want, rtol=0, atol=1e-12
                    )

    def test_monotone_transform_invariance(self):
        """Spearman only sees ranks, so exp() on a feature changes nothing."""
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(50, 3))
        cls = (rng.random((50, 2)) > 0.5).astype(np.float64)
        cls[0] = [1.0, 0.0]
        cls[1] = [0.0, 1.0]
        names = ("a", "b", "c")
        base = spearman_matrix(feats, cls, names, ("x", "y"))
        warped = feats.copy()
        warped[:, 1] = np.exp(warped[:, 1])
        again = spearman_matrix(warped, cls, names, ("x", "y"))
        np.testing.assert_allclose(base.values, again.values, rtol=0, atol=1e-12)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 4))
        cls = np.eye(20)[:, :3][:, :2]
        m = spearman_matrix(feats, cls, ("a", "b", "c", "d"), ("p", "q"))
        np.testing.assert_array_equal(m.values, m.values.T)
        np.testing.assert_array_equal(np.diag(m.values), np.ones(6))

    def test_constant_feature_rejected(self):
        feats = np.column_stack([np.ones(10), np.arange(10.0)])
        cls = np.arange(10.0).reshape(-1, 1) % 2
        with pytest.raises(DataError, match="constant feature"):
            spearman_matrix(feats, cls, ("dead", "live"), ("c",))

    def test_constant_class_column_is_zeroed(self):
        """A class absent from the partition correlates 0 with everything."""
        feats = np.arange(12.0).reshape(6, 2)
        feats[:, 1] = [3, 1, 4, 1, 5, 9]
        cls = np.column_stack([np.zeros(6), [0, 1, 0, 1, 0, 1.0]])
        m = spearman_matrix(feats, cls, ("a", "b"), ("gone", "here"))
        gone = 2  # column index of the absent class
        np.testing.assert_array_equal(m.values[gone, :gone], np.zeros(2))
        np.testing.assert_array_equal(m.values[:gone, gone], np.zeros(2))
        assert m.values[gone, gone] == 1.0

    def test_shape_validation(self):
        with pytest.raises(DataError):
            spearman_matrix(np.zeros((3, 2)), np.zeros((4, 1)), ("a", "b"), ("c",))
        with pytest.raises(DataError):
            spearman_matrix(np.zeros((1, 2)), np.zeros((1, 1)), ("a", "b"), ("c",))


class TestMeritFormula:
    def test_hand_value(self):
        # 2 * 0.5 / sqrt(2 + 2 * 1 * 0.2) = 1 / sqrt(2.4)
        np.testing.assert_allclose(
            merit_formula(2, 0.5, 0.2), 1.0 / np.sqrt(2.4), rtol=0, atol=1e-15
        )

    def test_empty_subset_scores_zero(self):
        assert merit_formula(0, 0.7, 0.3) == 0.0

    def test_singleton_reduces_to_class_correlation(self):
        assert merit_formula(1, 0.42, 0.99) == pytest.approx(0.42, abs=1e-15)

    def test_redundancy_lowers_merit(self):
        assert merit_formula(3, 0.6, 0.8) < merit_formula(3, 0.6, 0.1)


def hand_matrix():
    """A 3-feature, 2-class matrix with easy absolute values."""
    v = np.array(
        [
            [1.0, 0.5, -0.2, 0.8, -0.6],
            [0.5, 1.0, 0.1, 0.4, 0.4],
            [-0.2, 0.1, 1.0, -0.1, 0.3],
            [0.8, 0.4, -0.1, 1.0, 0.0],
            [-0.6, 0.4, 0.3, 0.0, 1.0],
        ]
    )
    return CorrelationMatrix(v, ("a", "b", "c", "x", "y"), 3)


class TestCfsMerit:
    def test_hand_computed_pair(self):
        """Subset {a, b}: r_cf = mean(.8,.6,.4,.4), r_ff = .5."""
        score = cfs_merit(hand_matrix(), [0, 1])
        assert score.k == 2
        np.testing.assert_allclose(score.r_cf, 0.55, rtol=0, atol=1e-15)
        np.testing.assert_allclose(score.r_ff, 0.5, rtol=0, atol=1e-15)
        want = 2 * 0.55 / np.sqrt(2 + 2 * 0.5)
        np.testing.assert_allclose(score.merit, want, rtol=0, atol=1e-15)

    def test_duplicates_and_order_ignored(self):
        a = cfs_merit(hand_matrix(), [1, 0, 1, 0])
        b = cfs_merit(hand_matrix(), [0, 1])
        assert a == b

    def test_empty_subset(self):
        score = cfs_merit(hand_matrix(), [])
        assert score == CfsScore(0.0, 0, 0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="out of feature range"):
            cfs_merit(hand_matrix(), [0, 3])  # 3 is a class column


class TestMeritEvaluator:
    def test_bit_identical_to_cfs_merit(self):
        """The precomputed path must agree with the direct path exactly,
        not just within tolerance, since searches compare merits for
        strict improvement."""
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(40, 8))
        cls = (rng.random((40, 3)) > 0.6).astype(np.float64)
        cls[:3] = np.eye(3)
        m = spearman_matrix(
            feats, cls,
            tuple(f"f{i}" for i in range(8)),
            ("u", "v", "w"),
        )
        ev = MeritEvaluator(m)
        for _ in range(300):
            mask = rng.random(8) < 0.4
            direct = cfs_merit(m, np.flatnonzero(mask)).merit
            assert ev.merit_of_mask(mask) == direct

    def test_counts_evaluations(self):
        ev = MeritEvaluator(hand_matrix())
        for _ in range(5):
            ev.merit_of_mask(np.array([True, False, True]))
        assert ev.evaluations == 5

    @pytest.mark.parametrize("k", [1, 9, 63])
    def test_block_merits_are_the_scalar_floats_uncounted(self, k):
        """Block merits, memoised or not, are _merit_parts' floats exactly,
        and only scalar calls count; merit_of_mask returns a plain float."""
        rng = np.random.default_rng(k)
        feats = rng.normal(size=(50, k))
        cls = np.eye(3)[np.arange(50) % 3]
        m = spearman_matrix(feats, cls, tuple(f"f{i}" for i in range(k)), ("u", "v", "w"))
        ev = MeritEvaluator(m)
        fc_rowsum, ff = _abs_blocks(m)
        masks = rng.random((40, k)) < 0.5
        masks = np.vstack([masks, masks[::3], np.zeros((1, k), dtype=bool)])  # repeats hit the memo
        want = [_merit_parts(fc_rowsum, ff, 3, mask)[0] for mask in masks]
        for _ in range(2):
            got = ev.merits_of_masks(masks)
            assert got.dtype == np.float64
            assert got.tolist() == want
        assert ev.evaluations == 0
        merit = ev.merit_of_mask(masks[0])
        assert type(merit) is float and merit == want[0]
        assert ev.evaluations == 1

    def test_rejects_matrix_without_class_columns(self):
        v = np.eye(3)
        with pytest.raises(DataError):
            MeritEvaluator(CorrelationMatrix(v, ("a", "b", "c"), 3))


class TestIgSum:
    def test_sums_selected_mass(self):
        imp = np.array([0.5, 0.25, 0.125, 0.125])
        assert ig_sum(imp, [0, 2]) == pytest.approx(0.625, abs=1e-15)

    def test_requires_unit_total(self):
        with pytest.raises(DataError, match="sum to 1"):
            ig_sum([0.5, 0.4], [0])

    def test_requires_nonnegative(self):
        with pytest.raises(DataError):
            ig_sum([1.2, -0.2], [0])

    def test_index_range(self):
        with pytest.raises(DataError):
            ig_sum([0.5, 0.5], [2])


class TestHeatmapRoundTrip:
    def test_lossless(self, tmp_path):
        """repr-formatted floats reload to the identical matrix."""
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 4))
        cls = (rng.random((30, 2)) > 0.5).astype(np.float64)
        cls[0], cls[1] = [1.0, 0.0], [0.0, 1.0]
        m = spearman_matrix(
            feats, cls, ("a", "b", "c", "d"), ("x", "y")
        )
        path = str(tmp_path / "heat.csv")
        export_heatmap(m, path)
        back = load_heatmap(path)
        np.testing.assert_array_equal(back.values, m.values)
        assert back.names == m.names
        assert back.class_boundary == m.class_boundary

    def test_csv_is_the_export(self, tmp_path):
        """The CSV keeps its layout: a name column and repr floats."""
        path = str(tmp_path / "heat.csv")
        export_heatmap(hand_matrix(), path)
        lines = open(path).read().splitlines()
        assert lines[0] == "name,a,b,c,x,y"
        assert lines[1] == "a,1.0,0.5,-0.2,0.8,-0.6"
        assert len(lines) == 6

    def test_missing_container(self, tmp_path):
        path = str(tmp_path / "orphan.csv")
        with open(path, "w") as fh:
            fh.write("name,a\n")
        with pytest.raises(DataError, match="cannot open heatmap file .*orphan.bin"):
            load_heatmap(path)

    def test_header_disagreement(self, tmp_path):
        """A container whose header names two columns of a 3x3 matrix."""
        path = str(tmp_path / "heat.csv")
        artifacts.save(artifacts.container_for(path), "heatmap", {"values": np.eye(3)},
                       names=["a", "b"], class_boundary=1)
        with pytest.raises(DataError, match=r"\(header names 2 columns and boundary 1 "
                                            r"for a \(3, 3\) matrix\)"):
            load_heatmap(path)
