"""CSV ingestion, cleaning, normalization, label encoding, splitting."""

import dataclasses
import json
import math
import os
import threading
import warnings

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
    assert got.label_names == want.label_names
    assert got.label_codes.dtype == want.label_codes.dtype == np.int32
    assert got.label_codes.tobytes() == want.label_codes.tobytes()
    assert got.sources == want.sources == (path,)
    assert got.label_column == want.label_column
    assert got.dropped == want.dropped
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    return got


def small_table():
    return RawTable.from_labels(
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

    def test_labels_are_codes_into_first_seen_names(self, tmp_path):
        path = write_csv(tmp_path / "flows.csv", "a,Label\n1, DoS\n2,Benign\n3,DoS \n4,Bot\n")
        table = load_csv(path)
        assert table.label_names == ("DoS", "Benign", "Bot")
        np.testing.assert_array_equal(table.label_codes, [0, 1, 0, 2])
        assert table.labels == ("DoS", "Benign", "DoS", "Bot")

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

    def test_codes_map_onto_one_name_table(self):
        first = RawTable.from_labels(("a",), np.zeros((3, 1)), ("y", "x", "y"), "Label",
                                     sources=("one.csv",))
        empty = RawTable.from_labels(("a",), np.zeros((0, 1)), (), "Label",
                                     sources=("empty.csv",))
        second = RawTable.from_labels(("a",), np.ones((3, 1)), ("z", "x", "z"), "Label",
                                      sources=("two.csv",))
        merged = merge_tables([first, empty, second])
        assert merged.label_names == ("y", "x", "z")
        np.testing.assert_array_equal(merged.label_codes, [0, 1, 0, 2, 1, 2])
        assert merged.labels == ("y", "x", "y", "z", "x", "z")
        assert merged.sources == ("one.csv", "empty.csv", "two.csv")

    def test_one_table_is_not_copied(self):
        table = small_table()
        assert merge_tables([table]) is table

    def test_column_disagreement(self):
        other = RawTable.from_labels(("a", "c"), np.zeros((1, 2)), ("x",), "Label")
        with pytest.raises(DataError, match="disagree on columns"):
            merge_tables([small_table(), other])

    def test_label_column_disagreement(self):
        other = RawTable.from_labels(("a", "b"), np.zeros((1, 2)), ("x",), "Class")
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
        table = RawTable.from_labels(
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
        table = RawTable.from_labels(("a",), np.array([[np.nan], [np.inf]]), ("x", "y"), "Label")
        with pytest.raises(DataError, match="every row"):
            drop_nonfinite_rows(table)

    def test_all_rows_bad_names_the_files_and_columns(self):
        values = np.array([[np.nan, 1.0, 2.0], [3.0, 1.0, np.inf], [5.0, 1.0, np.inf]])
        table = RawTable.from_labels(("a", "b", "c"), values, ("x", "y", "x"), "Label",
                                     sources=("mon.csv", "tue.csv"))
        with pytest.raises(DataError) as err:
            clean_table(table, drop_columns=())
        assert str(err.value) == (
            "mon.csv, tue.csv: every row has a missing or non-finite cell, in columns "
            "['a', 'c']; fill those cells or drop those columns")

    def test_no_data_rows_names_the_files(self, tmp_path):
        paths = [write_csv(tmp_path / f"{day}.csv", "a,b,Label\n") for day in ("mon", "tue")]
        table = merge_tables([load_csv(p) for p in paths])
        for clean in (lambda t: clean_table(t), drop_constant_columns,
                      lambda t: prepare_splits(t, "Benign")):
            with pytest.raises(DataError) as err:
                clean(table)
            assert str(err.value) == (f"{paths[0]}, {paths[1]}: no data rows below the "
                                      "header; give input files that hold flows")

    def test_drop_constant_columns(self):
        table = RawTable.from_labels(
            ("live", "dead"),
            np.array([[1.0, 7.0], [2.0, 7.0]]),
            ("x", "y"),
            "Label",
        )
        out, dropped = drop_constant_columns(table)
        assert dropped == ["dead"]
        assert out.columns == ("live",)

    def test_clean_table_report(self):
        table = RawTable.from_labels(
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
        table = RawTable.from_labels(
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
        return RawTable.from_labels(("a", "b", "dead"), values, labels, "Label")

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


# ---------------------------------------------------------------------------
# The cleaning and splitting that copied the table at every pass, kept as the
# reference the row and column selections must reproduce bit for bit.  Its
# table holds one label text per row.


@dataclasses.dataclass(frozen=True)
class ReferenceTable:
    columns: tuple
    values: np.ndarray
    labels: tuple
    label_column: str
    dropped: tuple = ()


def reference_merge_tables(tables):
    return ReferenceTable(
        tables[0].columns,
        np.vstack([t.values for t in tables]),
        tuple(l for t in tables for l in t.labels),
        tables[0].label_column,
        tuple(dict.fromkeys(c for t in tables for c in t.dropped)),
    )


def reference_clean_table(table, drop_columns):
    names = set(drop_columns)
    if table.label_column in names:
        raise DataError(f"cannot drop the label column {table.label_column!r}")
    keep = [i for i, c in enumerate(table.columns) if c not in names]
    t = dataclasses.replace(
        table,
        columns=tuple(table.columns[i] for i in keep),
        values=table.values[:, keep],
        dropped=table.dropped + tuple(c for c in table.columns if c in names),
    )
    # drop_nonfinite_rows
    if t.values.shape[1]:
        finite = np.isfinite(t.values).all(axis=1)
    else:
        finite = np.ones(len(t.labels), bool)
    removed = int(np.count_nonzero(~finite))
    if removed:
        if not finite.any():
            raise DataError("every row has a missing or non-finite cell")
        kept_labels = tuple(l for l, ok in zip(t.labels, finite) if ok)
        t = dataclasses.replace(t, values=t.values[finite], labels=kept_labels)
    # drop_constant_columns
    if t.values.shape[0] == 0:
        raise DataError("cannot scan constant columns of an empty table")
    keep, dropped_const = [], []
    for i, name in enumerate(t.columns):
        col = t.values[:, i]
        if np.all(col == col[0]):
            dropped_const.append(name)
        else:
            keep.append(i)
    if dropped_const:
        t = dataclasses.replace(t, columns=tuple(t.columns[i] for i in keep),
                                values=t.values[:, keep])
    report = {
        "columns_dropped_named": list(t.dropped),
        "rows_removed_nonfinite": removed,
        "columns_dropped_constant": dropped_const,
    }
    return t, report


def reference_minmax_normalize(train, apply_to=None):
    train = np.asarray(train, dtype=np.float64)
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    span = hi - lo
    flat = np.flatnonzero(span == 0)
    if flat.size:
        raise DataError(
            f"column index(es) {flat.tolist()} are constant in the training rows; "
            "prune constants before normalizing"
        )
    train_scaled = (train - lo) / span
    apply_scaled = None
    if apply_to is not None:
        apply_to = np.asarray(apply_to, dtype=np.float64)
        apply_scaled = np.clip((apply_to - lo) / span, 0.0, 1.0)
    return train_scaled, apply_scaled, [(float(a), float(b)) for a, b in zip(lo, hi)]


def reference_encode_labels(table, benign, grouping):
    if grouping is not None:
        missing = sorted({l for l in table.labels if l not in grouping})
        if missing:
            raise DataError(f"labels missing from the grouping map: {missing}")
        grouped = [grouping[l] for l in table.labels]
    else:
        grouped = list(table.labels)
    class_names = tuple(sorted(set(grouped)))
    if benign not in class_names:
        raise DataError(f"benign label {benign!r} does not occur in the data")
    index = {c: i for i, c in enumerate(class_names)}
    labels_cat = np.array([index[g] for g in grouped], dtype=np.int64)
    return labels_cat, labels_cat != index[benign], class_names


def reference_prepare_splits(table, benign, grouping, ratio, seed, stratified,
                             normalize_before_split, drop_columns):
    cleaned, report = reference_clean_table(table, drop_columns)
    if not cleaned.columns:
        raise DataError("no feature columns survived cleaning")
    labels_cat, labels_bin, class_names = reference_encode_labels(cleaned, benign, grouping)
    if normalize_before_split:
        scaled, _, bounds = reference_minmax_normalize(cleaned.values)
        full = Dataset(scaled, cleaned.columns, labels_cat, labels_bin, class_names)
        pair = split(full, ratio, seed, stratified)
    else:
        train_idx, test_idx = split_indices(
            len(cleaned.labels), ratio, seed, stratified, labels_cat if stratified else None
        )
        train_scaled, test_scaled, bounds = reference_minmax_normalize(
            cleaned.values[train_idx], cleaned.values[test_idx]
        )
        pair = dataset.SplitPair(
            Dataset(train_scaled, cleaned.columns, labels_cat[train_idx],
                    labels_bin[train_idx], class_names),
            Dataset(test_scaled, cleaned.columns, labels_cat[test_idx],
                    labels_bin[test_idx], class_names),
            seed,
            ratio,
        )
    report["normalization"] = {n: [lo, hi] for n, (lo, hi) in zip(cleaned.columns, bounds)}
    report["rows_total"] = len(cleaned.labels)
    report["rows_train"] = pair.train.n_rows
    report["rows_test"] = pair.test.n_rows
    report["class_names"] = list(class_names)
    report["normalize_before_split"] = normalize_before_split
    report["stratified"] = stratified
    report["split_seed"] = seed
    report["split_ratio"] = ratio
    return pair, report


RAW_LABELS = ("Benign", "DoS attacks-Hulk", "DoS attacks-Slowloris", "Bot", "Infilteration")
GROUPING = {"Benign": "Benign", "DoS attacks-Hulk": "DoS", "DoS attacks-Slowloris": "DoS",
            "Bot": "Bot", "Infilteration": "Infiltration"}
FINITE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def table_column(data, n):
    """A column of ties, signed zeros, one value, or any finite floats."""
    kind = data.draw(st.sampled_from(["ties", "zeros", "constant", "floats"]))
    if kind == "constant":
        return np.full(n, data.draw(FINITE_CELLS))
    cells = {"ties": st.integers(0, 3).map(float),
             "zeros": st.sampled_from([0.0, -0.0, 0.5, -0.5]),
             "floats": FINITE_CELLS}[kind]
    return np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)


def drawn_tables(data):
    """One to three day tables that share their columns: drawn columns, a
    named identifier column, NaN and infinite cells in some rows, and
    repeated labels, as the new and the reference tables."""
    n_columns = data.draw(st.integers(1, 4))
    names = ["Flow ID", *(f"f{j}" for j in range(n_columns))]
    names = data.draw(st.permutations(names))
    new, ref = [], []
    for day in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, 25))
        values = np.empty((n, len(names)))
        for j in range(len(names)):
            values[:, j] = table_column(data, n)
        for _ in range(data.draw(st.integers(0, 4)) if n else 0):
            row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(names) - 1))
            values[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        labels = tuple(data.draw(st.lists(st.sampled_from(RAW_LABELS), min_size=n, max_size=n)))
        new.append(RawTable.from_labels(names, values, labels, "Label", sources=(f"day{day}.csv",)))
        ref.append(ReferenceTable(tuple(names), values, labels, "Label"))
    return new, ref


def outcome(prepare, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return prepare(*args)
        except DataError as exc:
            return exc


# Cleaning messages that now name the files and say what to do.
REWORDED = {"every row has a missing": "every row has a missing",
            "cannot scan constant columns": "no data rows below the header"}


class TestSelectionsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_splits_and_report(self, data):
        tables, ref_tables = drawn_tables(data)
        grouping = data.draw(st.sampled_from([None, GROUPING, {"Benign": "Benign", "Bot": "Bot"}]))
        args = (grouping, data.draw(st.sampled_from([0.3, 0.5, 0.8])),
                data.draw(st.integers(0, 2**32 - 1)), data.draw(st.booleans()),
                data.draw(st.booleans()), DEFAULT_DROP_COLUMNS)
        want = outcome(reference_prepare_splits, reference_merge_tables(ref_tables),
                       "Benign", *args)
        got = outcome(prepare_splits, merge_tables(tables), "Benign", *args)
        if isinstance(want, DataError):
            assert isinstance(got, DataError), got
            old = str(want)
            for prefix, now in REWORDED.items():
                if old.startswith(prefix):
                    assert now in str(got)
                    break
            else:
                assert str(got) == old
            return
        assert not isinstance(got, DataError), got
        (pair, report), (ref_pair, ref_report) = got, want
        assert report == ref_report
        assert json.dumps(report, sort_keys=True) == json.dumps(ref_report, sort_keys=True)
        for side, ref_side in ((pair.train, ref_pair.train), (pair.test, ref_pair.test)):
            for name in ("features", "labels_cat", "labels_bin"):
                a, b = getattr(side, name), getattr(ref_side, name)
                assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True)
                assert a.tobytes() == b.tobytes()
            assert side.feature_names == ref_side.feature_names
            assert side.class_names == ref_side.class_names

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clean_table_and_its_passes(self, data):
        tables, ref_tables = drawn_tables(data)
        table, ref_table = merge_tables(tables), reference_merge_tables(ref_tables)
        want = outcome(reference_clean_table, ref_table, DEFAULT_DROP_COLUMNS)
        got = outcome(clean_table, table, DEFAULT_DROP_COLUMNS)
        if isinstance(want, DataError):
            assert isinstance(got, DataError)
            return
        (cleaned, report), (ref_cleaned, ref_report) = got, want
        assert report == ref_report
        assert cleaned.columns == ref_cleaned.columns
        assert cleaned.labels == ref_cleaned.labels
        assert cleaned.dropped == ref_cleaned.dropped
        assert cleaned.values.tobytes() == ref_cleaned.values.tobytes()
        # the three passes one at a time give the same table
        step = drop_named_columns(table, DEFAULT_DROP_COLUMNS)
        step, removed = drop_nonfinite_rows(step)
        step, constant = drop_constant_columns(step)
        assert (removed, constant) == (report["rows_removed_nonfinite"],
                                       report["columns_dropped_constant"])
        assert step.columns == cleaned.columns and step.labels == cleaned.labels
        assert step.values.tobytes() == cleaned.values.tobytes()


class TestMemoryBounds:
    """Allocation bounds from array sizes, so the same on any machine."""

    def table(self, rows=12000, columns=30):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(rows, columns))
        values[::50, 4] = np.nan
        values[::70, 9] = np.inf
        values[:, 6] = 7.0
        labels = [RAW_LABELS[i % 3] for i in range(rows)]
        names = ["Flow ID", *(f"f{j}" for j in range(1, columns))]
        return RawTable.from_labels(names, values, labels, "Label")

    @pytest.mark.parametrize("stratified", [False, True])
    def test_prepare_splits_allocates_little_beyond_the_kept_table(self, traced_peak,
                                                                   stratified):
        table = self.table()
        peak, (pair, _) = traced_peak(
            lambda: prepare_splits(table, "Benign", stratified=stratified, seed=1))
        kept = pair.train.features.nbytes + pair.test.features.nbytes
        assert kept > 0.9 * table.values.nbytes
        assert peak <= 1.3 * kept, peak / kept
