"""CSV ingestion, cleaning, normalization, label encoding, splitting."""

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsel import dataset
from flowsel.dataset import (
    DEFAULT_DROP_COLUMNS,
    Dataset,
    RawTable,
    binary_view,
    class_indicator_columns,
    clean_table,
    drop_constant_columns,
    drop_named_columns,
    drop_nonfinite_rows,
    encode_labels,
    load_csv,
    load_dataset,
    merge_tables,
    minmax_normalize,
    one_hot,
    prepare_splits,
    save_dataset,
    split,
    split_indices,
    save_dataset as _save,  # noqa: F401  (re-export sanity)
)
from flowsel.errors import DataError


def write_csv(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


def same_as_scanner(path, label_column="Label", drop_columns=()):
    """``load_csv``'s table, or its DataError message, equals the row-by-row
    scanner's; returns the table, or the message."""
    try:
        want = dataset._scan_csv(path, label_column, drop_columns)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path, label_column, drop_columns)
        assert str(got.value) == str(exc)
        return str(exc)
    got = load_csv(path, label_column, drop_columns)
    assert got.columns == want.columns
    assert got.labels == want.labels
    assert got.label_column == want.label_column
    assert got.dropped == want.dropped
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    return got


def small_table():
    return RawTable(
        columns=("a", "b"),
        values=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]),
        labels=("x", "y", "x", "y"),
        label_column="Label",
    )


NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**53), 2**53).map(str),
    st.sampled_from(["NaN", "nan", "-nan", "+NaN", "Infinity", "-Infinity", "inf",
                     "+inf", "-iNf", "iNfInItY", "1e308", "1e400", "-0", "0.5e-320",
                     ".5", "5.", "1_0", "1_000.25", "1__0", "_1", "\u0661\u0662",
                     "", " ", "#1", "1#", "1 2", "0x10", "abc", '"3"', '"4,5"']),
)
TEXT_CELLS = st.text(alphabet='ab0. :,"#-\t', max_size=8)
PADDING = st.sampled_from(["", "", " ", "  ", "\t", " \t"])


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


def text_cell(data):
    """A text identifier, quoted when it must be and sometimes when not; an
    unquoted one may hold a quote after its first character."""
    text = data.draw(TEXT_CELLS)
    if "," in text or text.startswith('"') or data.draw(st.booleans()):
        return quoted(text)
    return text


def csv_draw(data):
    """A headered CSV text and the names of its text identifier columns.

    It draws numeric cells with padding and every NaN/Infinity spelling,
    underscores, empty cells, identifier cells with quoted commas, short
    and long rows, blank lines, and either line ending."""
    n_numeric = data.draw(st.integers(0, 3))
    n_ids = data.draw(st.integers(0, 2))
    kinds = ["num"] * n_numeric + ["id"] * n_ids + ["label"]
    kinds = data.draw(st.permutations(kinds))
    names, ids = [], []
    for j, kind in enumerate(kinds):
        names.append({"num": f"c{j}", "id": f"id {j}", "label": "Label"}[kind])
        if kind == "id":
            ids.append(names[-1])
    lines = [",".join(names)]
    for _ in range(data.draw(st.integers(0, 6))):
        shape = data.draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank", "spaces"]))
        if shape == "blank":
            lines.append("")
            continue
        if shape == "spaces":
            lines.append(data.draw(PADDING))
            continue
        cells = []
        for kind in kinds:
            if kind == "num":
                cell = data.draw(PADDING) + data.draw(NUMERIC_CELLS) + data.draw(PADDING)
            elif kind == "id":
                cell = text_cell(data)
            else:
                cell = data.draw(PADDING) + data.draw(st.sampled_from(["Benign", "DoS", "#x"]))
            cells.append(cell)
        if shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append(data.draw(NUMERIC_CELLS))
        lines.append(",".join(cells))
    ending = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
    return text, tuple(ids)


class TestLoadCsv:
    def test_parses_features_and_labels(self, tmp_path):
        path = write_csv(
            tmp_path / "flows.csv",
            "a,Label,b\n1,benign,4.5\n2,attack,-1\n",
        )
        table = load_csv(path)
        assert table.columns == ("a", "b")
        assert table.labels == ("benign", "attack")
        np.testing.assert_array_equal(table.values, [[1.0, 4.5], [2.0, -1.0]])
        assert table.label_column == "Label"

    def test_missing_tokens_become_nan(self, tmp_path):
        path = write_csv(
            tmp_path / "flows.csv",
            "a,Label\n,benign\nNaN,benign\nInfinity,attack\n",
        )
        table = load_csv(path)
        assert math.isnan(table.values[0, 0])
        assert math.isnan(table.values[1, 0])
        assert math.isinf(table.values[2, 0])

    def test_blank_lines_skipped(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "a,Label\n1,x\n\n2,y\n")
        assert load_csv(path).n_rows == 2

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "a,Label\n1,x\noops,y\n")
        with pytest.raises(DataError, match=r":3: column 'a'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "a,b,Label\n1,2,x\n3,y\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(str(tmp_path / "absent.csv"))

    # Inputs on which np.loadtxt alone and the scanner disagree: the fast
    # path must give the scanner's table or its error.
    def test_row_with_one_extra_cell(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,b,Label\n1,2,x\n3,4,y,5\n")
        assert same_as_scanner(path).endswith(":3: expected 3 cells, got 4")

    def test_quoted_comma_spanning_two_dropped_id_columns(self, tmp_path):
        path = write_csv(tmp_path / "f.csv",
                         'Flow ID,Src IP,a,Label\n"7,8",9,5,x\n"1,2",3,4,y\n')
        table = same_as_scanner(path, drop_columns=("Flow ID", "Src IP"))
        np.testing.assert_array_equal(table.values, [[5.0], [4.0]])

    def test_cell_starting_with_hash(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "Flow ID,a,Label\n#7,1,#x\n")
        table = same_as_scanner(path, drop_columns=("Flow ID",))
        assert table.labels == ("#x",)
        path = write_csv(tmp_path / "g.csv", "a,Label\n#1,x\n")
        assert same_as_scanner(path).endswith(":2: column 'a' has non-numeric cell '#1'")

    def test_underscore_digits(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,Label\n1_0,x\n2,y\n")
        np.testing.assert_array_equal(same_as_scanner(path).values, [[10.0], [2.0]])

    def test_unicode_digits(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,Label\n\u0661\u0662,x\n")
        np.testing.assert_array_equal(same_as_scanner(path).values, [[12.0]])

    def test_empty_cell(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,b,Label\n,2,x\n3, ,y\n")
        values = same_as_scanner(path).values
        assert math.isnan(values[0, 0]) and math.isnan(values[1, 1])

    def test_whitespace_only_line(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,Label\n1,x\n   \n2,y\n")
        assert same_as_scanner(path).endswith(":3: expected 2 cells, got 1")

    def test_crlf_line_endings(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,Label\r\n1,x\r\n\r\n2.5,y\r\n")
        table = same_as_scanner(path)
        np.testing.assert_array_equal(table.values, [[1.0], [2.5]])
        assert table.labels == ("x", "y")

    def test_row_count_disagreement_rescans(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "f.csv", "a,Label\n1,x\n2,y\n")
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: loadtxt(*args, **kw)[:-1])
        np.testing.assert_array_equal(same_as_scanner(path).values, [[1.0], [2.0]])

    def test_clean_file_skips_the_scanner(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "f.csv",
                         'Flow ID,a,b,Label\n"1,2", 1.5 ,NaN,x\n3,-Infinity,"4",y\n')

        def no_scan(*args):
            raise AssertionError("rescanned a file np.loadtxt parses exactly")

        monkeypatch.setattr(dataset, "_scan_csv", no_scan)
        table = load_csv(path, drop_columns=("Flow ID",))
        assert table.values.tobytes() == np.array([[1.5, np.nan], [-np.inf, 4.0]]).tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        """A pipe holds its rows for one reader only, so it is not read twice."""
        read_fd, write_fd = os.pipe()

        def feed():
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write("a,Label\n1,x\n2.5,y\n")

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            table = load_csv(f"/dev/fd/{read_fd}")
        finally:
            writer.join(timeout=10)
            os.close(read_fd)
        assert not writer.is_alive()
        np.testing.assert_array_equal(table.values, [[1.0], [2.5]])
        assert table.labels == ("x", "y")

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_table_or_same_error(self, data, tmp_path_factory):
        text, ids = csv_draw(data)
        path = write_csv(tmp_path_factory.mktemp("draw") / "flows.csv", text)
        same_as_scanner(path, drop_columns=ids)


class TestMergeTables:
    def test_stacks_rows(self):
        merged = merge_tables([small_table(), small_table()])
        assert merged.n_rows == 8
        assert merged.labels == small_table().labels * 2

    def test_column_disagreement(self):
        other = RawTable(("a", "c"), np.zeros((1, 2)), ("x",), "Label")
        with pytest.raises(DataError, match="disagree on columns"):
            merge_tables([small_table(), other])

    def test_label_column_disagreement(self):
        other = RawTable(("a", "b"), np.zeros((1, 2)), ("x",), "Class")
        with pytest.raises(DataError, match="label column"):
            merge_tables([small_table(), other])

    def test_empty_input(self):
        with pytest.raises(DataError, match="no tables"):
            merge_tables([])


class TestColumnAndRowHygiene:
    def test_drop_named_columns(self):
        table = small_table()
        out = drop_named_columns(table, ["b", "not_there"])
        assert out.columns == ("a",)
        np.testing.assert_array_equal(out.values, table.values[:, :1])

    def test_label_column_protected(self):
        with pytest.raises(DataError, match="label column"):
            drop_named_columns(small_table(), ["Label"])

    def test_drop_nonfinite_rows(self):
        table = RawTable(
            ("a",),
            np.array([[1.0], [np.nan], [3.0], [np.inf]]),
            ("w", "x", "y", "z"),
            "Label",
        )
        out, removed = drop_nonfinite_rows(table)
        assert removed == 2
        assert out.labels == ("w", "y")
        np.testing.assert_array_equal(out.values, [[1.0], [3.0]])

    def test_all_rows_bad(self):
        table = RawTable(("a",), np.array([[np.nan], [np.inf]]), ("x", "y"), "Label")
        with pytest.raises(DataError, match="every row"):
            drop_nonfinite_rows(table)

    def test_drop_constant_columns(self):
        table = RawTable(
            ("live", "dead"),
            np.array([[1.0, 7.0], [2.0, 7.0]]),
            ("x", "y"),
            "Label",
        )
        out, dropped = drop_constant_columns(table)
        assert dropped == ["dead"]
        assert out.columns == ("live",)

    def test_clean_table_report(self):
        table = RawTable(
            ("Flow ID", "a", "dead"),
            np.array([[1.0, 1.0, 5.0], [2.0, np.nan, 5.0], [3.0, 2.0, 5.0]]),
            ("x", "y", "x"),
            "Label",
        )
        out, report = clean_table(table)
        assert out.columns == ("a",)
        assert report["columns_dropped_named"] == ["Flow ID"]
        assert report["rows_removed_nonfinite"] == 1
        assert report["columns_dropped_constant"] == ["dead"]

    def test_default_drop_list_spares_destination_port(self):
        assert "Dst Port" not in DEFAULT_DROP_COLUMNS
        assert "Src Port" in DEFAULT_DROP_COLUMNS


class TestMinmaxNormalize:
    def test_train_hits_the_unit_interval(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 3)) * 10
        scaled, _, bounds = minmax_normalize(train)
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-15)
        for j, (lo, hi) in enumerate(bounds):
            assert lo == train[:, j].min()
            assert hi == train[:, j].max()

    def test_test_partition_uses_train_bounds_and_clamps(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[-5.0], [5.0], [25.0]])
        _, test_scaled, _ = minmax_normalize(train, test)
        np.testing.assert_array_equal(test_scaled, [[0.0], [0.5], [1.0]])

    def test_constant_train_column_rejected(self):
        train = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(DataError, match=r"\[0\] are constant"):
            minmax_normalize(train)


class TestEncodeLabels:
    def test_sorted_class_order(self):
        labels_cat, labels_bin, names = encode_labels(small_table(), benign="x")
        assert names == ("x", "y")
        np.testing.assert_array_equal(labels_cat, [0, 1, 0, 1])
        np.testing.assert_array_equal(labels_bin, [False, True, False, True])

    def test_grouping_folds_labels(self):
        table = RawTable(
            ("a",),
            np.arange(4.0).reshape(-1, 1),
            ("Benign", "DoS-Hulk", "DoS-Slowloris", "Benign"),
            "Label",
        )
        grouping = {"Benign": "Benign", "DoS-Hulk": "DoS", "DoS-Slowloris": "DoS"}
        labels_cat, labels_bin, names = encode_labels(table, "Benign", grouping)
        assert names == ("Benign", "DoS")
        np.testing.assert_array_equal(labels_cat, [0, 1, 1, 0])

    def test_grouping_must_cover_every_label(self):
        with pytest.raises(DataError, match="missing from the grouping"):
            encode_labels(small_table(), "x", grouping={"x": "x"})

    def test_benign_must_occur(self):
        with pytest.raises(DataError, match="does not occur"):
            encode_labels(small_table(), benign="normal")


class TestSplitIndices:
    def test_partitions_the_rows(self):
        train, test = split_indices(20, 0.5, seed=3)
        both = np.concatenate([train, test])
        np.testing.assert_array_equal(np.sort(both), np.arange(20))
        assert train.size == 10

    def test_rounding_rule(self):
        # floor(n * ratio + 0.5), clamped so both sides stay non-empty
        train, test = split_indices(10, 0.66, seed=0)
        assert train.size == 7
        train, test = split_indices(3, 0.9, seed=0)
        assert (train.size, test.size) == (2, 1)
        train, test = split_indices(3, 0.01, seed=0)
        assert (train.size, test.size) == (1, 2)

    def test_deterministic(self):
        a = split_indices(50, 0.3, seed=9)
        b = split_indices(50, 0.3, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        c = split_indices(50, 0.3, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_stratified_keeps_class_counts(self):
        labels = np.repeat([0, 1, 2], [60, 30, 10])
        train, test = split_indices(100, 0.5, seed=1, stratified=True, labels=labels)
        for cls, want in ((0, 30), (1, 15), (2, 5)):
            assert int(np.sum(labels[train] == cls)) == want

    def test_single_row_class_goes_to_train(self):
        labels = np.array([0, 0, 0, 0, 1])
        with pytest.warns(UserWarning, match="single row"):
            train, test = split_indices(5, 0.5, seed=0, stratified=True, labels=labels)
        assert 4 in train

    def test_validation(self):
        with pytest.raises(DataError, match="ratio"):
            split_indices(10, 1.0, seed=0)
        with pytest.raises(DataError, match="at least 2"):
            split_indices(1, 0.5, seed=0)
        with pytest.raises(DataError, match="needs labels"):
            split_indices(10, 0.5, seed=0, stratified=True)


class TestOneHot:
    def test_indicator_positions(self):
        out = one_hot(np.array([2, 0, 1]), ("a", "b", "c"))
        np.testing.assert_array_equal(out, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(3))

    def test_range_check(self):
        with pytest.raises(DataError, match="out of range"):
            one_hot(np.array([3]), ("a", "b"))

    def test_indicator_columns_binary_mode(self):
        data = Dataset(
            features=np.zeros((4, 1)),
            feature_names=("f",),
            labels_cat=np.array([0, 1, 2, 0]),
            labels_bin=np.array([False, True, True, False]),
            class_names=("benign", "dos", "scan"),
        )
        cols, names = class_indicator_columns(data, binary=True)
        assert names == ("attack",)
        np.testing.assert_array_equal(cols[:, 0], [0.0, 1.0, 1.0, 0.0])
        cols, names = class_indicator_columns(data, binary=False)
        assert names == data.class_names
        assert cols.shape == (4, 3)

    def test_binary_view(self):
        data = Dataset(
            features=np.arange(4.0).reshape(-1, 1),
            feature_names=("f",),
            labels_cat=np.array([0, 1, 2, 0]),
            labels_bin=np.array([False, True, True, False]),
            class_names=("benign", "dos", "scan"),
        )
        view = binary_view(data, benign_name="benign")
        assert view.class_names == ("benign", "attack")
        np.testing.assert_array_equal(view.labels_cat, [0, 1, 1, 0])
        np.testing.assert_array_equal(view.features, data.features)


class TestPrepareSplits:
    def raw(self, rows=40, seed=0):
        rng = np.random.default_rng(seed)
        values = np.column_stack(
            [rng.normal(size=rows) * 5, rng.normal(size=rows) + 2, np.full(rows, 9.0)]
        )
        labels = tuple("Benign" if i % 2 == 0 else "DoS" for i in range(rows))
        return RawTable(("a", "b", "dead"), values, labels, "Label")

    def test_end_to_end(self):
        pair, report = prepare_splits(self.raw(), benign="Benign", ratio=0.5, seed=4)
        assert report["columns_dropped_constant"] == ["dead"]
        assert pair.train.feature_names == ("a", "b")
        assert pair.train.n_rows + pair.test.n_rows == 40
        assert pair.train.class_names == ("Benign", "DoS")
        assert pair.train.features.min() >= 0.0
        assert pair.train.features.max() <= 1.0
        assert pair.test.features.min() >= 0.0  # clamped by train bounds
        assert pair.test.features.max() <= 1.0

    def test_leaky_ordering_differs_from_train_fit(self):
        """Fitting bounds before the split uses test rows; the partitions
        it produces cannot match the train-only fit in general."""
        pair_a, _ = prepare_splits(self.raw(seed=1), "Benign", seed=2)
        pair_b, _ = prepare_splits(
            self.raw(seed=1), "Benign", seed=2, normalize_before_split=True
        )
        np.testing.assert_array_equal(  # same rows land in train either way
            pair_a.train.labels_cat, pair_b.train.labels_cat
        )
        assert not np.array_equal(pair_a.train.features, pair_b.train.features)

    def test_split_helper_round_trip(self):
        pair, _ = prepare_splits(self.raw(), "Benign", seed=7)
        again = split(
            Dataset(
                np.vstack([pair.train.features, pair.test.features]),
                pair.train.feature_names,
                np.concatenate([pair.train.labels_cat, pair.test.labels_cat]),
                np.concatenate([pair.train.labels_bin, pair.test.labels_bin]),
                pair.train.class_names,
            ),
            0.5,
            seed=7,
        )
        assert again.train.n_rows == pair.train.n_rows


class TestDatasetCache:
    def sample(self):
        rng = np.random.default_rng(5)
        return Dataset(
            features=rng.random((17, 3)),
            feature_names=("a", "b", "c"),
            labels_cat=rng.integers(0, 3, 17),
            labels_bin=rng.random(17) > 0.5,
            class_names=("x", "y", "z"),
        )

    def test_round_trip_is_exact(self, tmp_path):
        data = self.sample()
        path = str(tmp_path / "cache.ds")
        save_dataset(data, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels_cat, data.labels_cat)
        np.testing.assert_array_equal(back.labels_bin, data.labels_bin)
        assert back.feature_names == data.feature_names
        assert back.class_names == data.class_names

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.ds")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 30)
        with pytest.raises(DataError, match="magic"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_dataset(str(tmp_path / "absent.ds"))
