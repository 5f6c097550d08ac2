"""CSV ingestion, cleaning, normalization, label encoding, splitting."""

import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsel import dataset
from flowsel.dataset import (
    DEFAULT_DROP_COLUMNS,
    Dataset,
    RawTable,
    binary_view,
    SplitPair,
    class_indicator_columns,
    encode_labels,
    load_csv,
    load_dataset,
    one_hot,
    prepare_splits,
    save_dataset,
    split_indices,
    save_dataset as _save,  # noqa: F401  (re-export sanity)
)
from flowsel.errors import DataError


def write_csv(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


def scan_csv(path, label_column, drop_columns):
    """The reference parser: one ``float()`` per kept cell, row by row,
    over the whole file.  ``load_csv`` must give its table and each of its
    errors.  A row's line number counts the records after the header from
    2; a record csv.reader cannot read raises a DataError naming it.
    """
    with dataset._open_csv(path) as handle:
        reader = csv.reader(handle)
        part = dataset._read_header(reader, path, label_column, drop_columns)
        rows, index, codes = [], {}, []
        line_no = 1
        try:
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue  # ignore blank lines
                rows.append(dataset._scan_row(row, path, line_no, part.header, part.keep))
                codes.append(index.setdefault(row[part.label].strip(), len(index)))
        except csv.Error as exc:
            raise DataError(f"{path}:{line_no + 1}: csv cannot read this record ({exc}); "
                            "shorten or remove its long cell") from None
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(part.keep))
    return RawTable(part.columns, values, np.array(codes, dtype=np.int32), tuple(index),
                    label_column, part.dropped, (path,))


def refusal(paths, fifo):
    """The DataError message ``load_csv(paths)`` raises, within ten
    seconds; a call that opened ``fifo`` would wait there for a writer, so
    one is given before the test fails."""
    got = []

    def call():
        try:
            load_csv(paths)
        except DataError as exc:
            got.append(str(exc))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive():
        with contextlib.suppress(OSError):  # no reader: the call waits elsewhere
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        worker.join(timeout=10)
        pytest.fail(f"load_csv({paths}) blocked")
    assert len(got) == 1, "load_csv raised no DataError"
    return got[0]


def merge_scanned(tables):
    """Tables of day files stacked into one: the merge ``load_csv`` does as
    it parses, kept as the reference.  One table is returned as it is."""
    first = tables[0]
    for t in tables[1:]:
        if t.columns != first.columns:
            raise DataError(
                "tables disagree on columns; drop the extras before merging "
                f"({sorted(set(t.columns) ^ set(first.columns))})"
            )
    if len(tables) == 1:
        return first
    index = {}
    for t in tables:
        for name in t.label_names:
            index.setdefault(name, len(index))
    codes = np.concatenate([
        np.array([index[name] for name in t.label_names], dtype=np.int32)[t.label_codes]
        for t in tables
    ])
    return RawTable(
        first.columns,
        np.concatenate([t.values for t in tables]),
        codes,
        tuple(index),
        first.label_column,
        tuple(dict.fromkeys(c for t in tables for c in t.dropped)),
        tuple(s for t in tables for s in t.sources),
    )


def same_as_scanner(path, label_column="Label", drop_columns=()):
    """``load_csv``'s table, or its DataError message, equals that of the
    row-by-row scanner run over each file in order and the tables stacked;
    ``path`` is one path or a list.  Returns the table, or the message."""
    paths = [path] if isinstance(path, str) else list(path)
    try:
        want = merge_scanned([scan_csv(p, label_column, drop_columns) for p in paths])
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
    assert got.sources == want.sources == tuple(paths)
    assert got.label_column == want.label_column
    assert got.dropped == want.dropped
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    return got


def table_from_labels(columns, values, labels, label_column, dropped=(), sources=()):
    """A table from one label text per row."""
    index = {}
    codes = [index.setdefault(label, len(index)) for label in labels]
    return RawTable(tuple(columns), values, np.array(codes, dtype=np.int32),
                    tuple(index), label_column, tuple(dropped), tuple(sources))


def splits(table, benign, *args, **kwargs):
    """``prepare_splits`` with its test split written to a temporary file
    and read back: (SplitPair, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "test.ds")
        train, report = prepare_splits(table, benign, *args, test_path=path, **kwargs)
        test = load_dataset(path)
    return SplitPair(train, test, report["split_seed"], report["split_ratio"]), report


def small_table():
    return table_from_labels(
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


CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**31), 2**31).map(str),
)
# labels a quoted comma, a doubled quote or a quoted line break sends to
# csv.reader, and one wider than 64 characters
DAY_LABELS = ("Benign", "DoS", "Bot", "#x", " Infilteration ", "DoS, Hulk", 'Bot "Ares"',
              "Web\nAttack", "Brute Force -" + " Web" * 16)


def day_files_draw(data, directory):
    """One to three day files for the block parse, and the names of their
    text identifier columns.

    Rows are mostly clean numbers, so most blocks go through np.loadtxt;
    now and then a cell is empty, a NaN/Infinity spelling, an underscore
    or another token only the scanner reads, a row is short or long, or a
    line is blank or holds only spaces, at any line of any block.  Each
    file draws its own label set, and its own line ending: "\\n", "\\r\\n" or
    "\\r".  A quoted line break may sit in the header, in an identifier cell
    or in a label, and one file may carry an extra column."""
    n_numeric = data.draw(st.integers(0, 3))
    n_ids = data.draw(st.integers(0, 2))
    kinds = data.draw(st.permutations(["num"] * n_numeric + ["id"] * n_ids + ["label"]))
    names = [{"num": f"c{j}", "id": f"id {j}", "label": "Label"}[k] for j, k in enumerate(kinds)]
    ids = tuple(n for n, k in zip(names, kinds) if k == "id")
    if n_numeric and data.draw(st.integers(0, 4)) == 0:
        j = kinds.index("num")
        names[j] = "c\nbroken"  # a header on two lines, every file alike
    paths = []
    for day in range(data.draw(st.integers(1, 3))):
        day_kinds, day_names = list(kinds), list(names)
        if data.draw(st.integers(0, 9)) == 0:
            day_kinds.append("num")
            day_names.append("extra")
        labels = data.draw(st.lists(st.sampled_from(DAY_LABELS), min_size=1, max_size=3,
                                    unique=True))
        lines = [",".join(quoted(n) if "\n" in n else n for n in day_names)]
        for _ in range(data.draw(st.integers(0, 12))):
            shape = data.draw(st.sampled_from(["row"] * 80 + ["short", "long", "blank", "blank",
                                                              "spaces"]))
            if shape in ("blank", "spaces"):
                lines.append(data.draw(PADDING) if shape == "spaces" else "")
                continue
            cells = []
            for kind in day_kinds:
                if kind == "num":
                    odd = data.draw(st.integers(0, 2)) == 0
                    cell = data.draw(PADDING) + data.draw(NUMERIC_CELLS if odd else CLEAN_CELLS)
                elif kind == "id":
                    cell = (quoted("a\nb") if data.draw(st.integers(0, 15)) == 0
                            else text_cell(data))
                else:
                    cell = data.draw(st.sampled_from(labels))
                    cell = quoted(cell) if any(c in cell for c in ',"\n') else cell
                cells.append(cell)
            if shape == "short":
                cells.pop()
            elif shape == "long":
                cells.append(data.draw(CLEAN_CELLS))
            lines.append(",".join(cells))
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
        paths.append(write_csv(directory / f"day{day}.csv", text))
    return paths, ids, len(names)


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

        monkeypatch.setattr(dataset, "_scan_row", no_scan)
        table = load_csv(path, drop_columns=("Flow ID",))
        assert table.values.tobytes() == np.array([[1.5, np.nan], [-np.inf, 4.0]]).tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_path_not_a_regular_file_is_refused(self, tmp_path):
        """A pipe with its writer open, a FIFO with no writer and a directory
        are each refused by name before they are opened, so none of them
        blocks the call; the refusal comes in its turn, after an earlier
        file's cell error."""
        read_fd, write_fd = os.pipe()
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)
        folder = str(tmp_path / "folder")
        os.mkdir(folder)
        bad_cell = write_csv(tmp_path / "mon.csv", "a,Label\n1,x\noops,y\n")
        try:
            for path in (f"/dev/fd/{read_fd}", fifo, folder):
                assert refusal([path], fifo) == (
                    f"{path}: not a regular file; save it to a file first")
            assert refusal([bad_cell, fifo], fifo) == (
                f"{bad_cell}:3: column 'a' has non-numeric cell 'oops'")
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_cell_over_the_csv_field_limit(self, tmp_path, monkeypatch):
        """A quoted cell longer than csv.reader's field limit raises one
        DataError naming the file and its record, in a label, in a later
        block after a record on two lines, and in the header."""
        long = quoted("x" * 200_000)
        limit = f"field larger than field limit ({csv.field_size_limit()})"
        path = write_csv(tmp_path / "f.csv", f"a,b,Label\n1,2,x\n3,4,{long}\n5,6,y\n")
        assert same_as_scanner(path) == (
            f"{path}:3: csv cannot read this record ({limit}); shorten or remove its long cell")
        later = write_csv(tmp_path / "g.csv",
                          f'a,b,Label\n1,2,x\n\n3,4,"y\nz"\n5,6,x\n7,8,{long}\n')
        monkeypatch.setattr(dataset, "_PARSE_CELLS", 6)  # blocks of two lines
        assert same_as_scanner(later).startswith(f"{later}:6: csv cannot read")
        head = write_csv(tmp_path / "h.csv", f"a,{long},Label\n1,2,x\n")
        assert same_as_scanner(head) == (
            f"{head}:1: csv cannot read this record ({limit}); shorten or remove its long cell")

    def test_a_long_unquoted_label_is_held_as_text(self, tmp_path, traced_peak):
        """One 5,000-character unquoted label in a 3,000-row, 3-column file
        sends its block to csv.reader, which holds only the text: the table
        is the scanner's, and load_csv peaks under 4 MB (about 0.9 MB; 53.5
        MB while the block's label field was as wide as that line for every
        line).  At 200,000 characters the label is over csv's field limit,
        and refused by its record as the scanner refuses it, in a block of
        3,000 lines or of one."""
        rows = [f"{i},{i % 7}.5,{'xy'[i % 2]}\n" for i in range(3000)]
        for length, name in ((5000, "long.csv"), (200_000, "over.csv")):
            rows[1500] = f"1500,1.5,{'z' * length}\n"
            path = write_csv(tmp_path / name, "a,b,Label\n" + "".join(rows))
            got = same_as_scanner(path)
        assert got.startswith(f"{path}:1502: csv cannot read this record (field larger")
        one = write_csv(tmp_path / "one.csv", "a,b,Label\n" + rows[1500])
        assert same_as_scanner(one).startswith(f"{one}:2: csv cannot read this record")
        path = str(tmp_path / "long.csv")
        peak, _ = traced_peak(lambda: load_csv(path))
        assert peak < 4 * 2**20, peak

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_table_or_same_error(self, data, tmp_path_factory):
        text, ids = csv_draw(data)
        path = write_csv(tmp_path_factory.mktemp("draw") / "flows.csv", text)
        same_as_scanner(path, drop_columns=ids)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_blocks_of_one_to_three_lines(self, data, tmp_path_factory):
        """Blocks as short as one line put every kind of cell, ragged row
        and blank line on a block edge or past the first block, in files
        of several label sets; the tables and every error message (file,
        line, column) are the scanner's."""
        paths, ids, width = day_files_draw(data, tmp_path_factory.mktemp("days"))
        lines = data.draw(st.integers(1, 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_PARSE_CELLS", lines * width)
            same_as_scanner(paths, drop_columns=ids)

    def test_refused_block_is_scanned_alone(self, tmp_path, monkeypatch):
        """A block np.loadtxt refuses is scanned with its own line numbers;
        the blocks around it are not."""
        rows = "".join(f"{i},x\n" for i in range(1, 7))
        path = write_csv(tmp_path / "f.csv", "a,Label\n" + rows.replace("4,x", "4_0,x")
                         + "\n7,y\n")
        scanned = []
        scan_row = dataset._scan_row
        monkeypatch.setattr(dataset, "_PARSE_CELLS", 4)  # two lines of two cells
        monkeypatch.setattr(dataset, "_scan_row", lambda row, path, line_no, *rest: (
            scanned.append(line_no), scan_row(row, path, line_no, *rest))[1])
        table = load_csv(path)
        np.testing.assert_array_equal(table.values[:, 0], [1, 2, 3, 40, 5, 6, 7])
        assert scanned == [4, 5]
        bad = write_csv(tmp_path / "g.csv", "a,Label\n1,x\n2,x\n\n3,x\noops,x\n")
        with pytest.raises(DataError, match=r"g\.csv:6: column 'a' has non-numeric cell 'oops'"):
            load_csv(bad)

    def test_record_on_two_lines_is_read_in_its_block(self, tmp_path, monkeypatch):
        """A quoted line break carries a record past its block's last line;
        csv.reader reads on to its end."""
        monkeypatch.setattr(dataset, "_PARSE_CELLS", 6)  # blocks of two lines
        path = write_csv(tmp_path / "f.csv", 'id,a,Label\n1,2,x\n"3\n4",5,y\n6,oops,z\n')
        assert same_as_scanner(path, drop_columns=("id",)).endswith(
            ":4: column 'a' has non-numeric cell 'oops'")
        path = write_csv(tmp_path / "g.csv", 'id,a,Label\n"3\n4",5,y\n6,7,z\n')
        table = same_as_scanner(path, drop_columns=("id",))
        np.testing.assert_array_equal(table.values, [[5.0], [7.0]])

    def test_clean_files_are_read_in_one_pass(self, tmp_path, monkeypatch):
        """Day files with no quote and no cell np.loadtxt refuses, in blocks
        of four lines with blank lines among them and each line ending, go
        through np.loadtxt alone: csv.reader reads each header and nothing
        more, and no row or file is scanned."""
        paths = []
        for day, ending in enumerate(["\n", "\r\n", "\r", "\n"]):
            rows = [f"10.0.0.{i},{day}.{i},{i}e-3, {' DoS' if i % 3 else 'Benign'}"
                    for i in range(13 * (day != 3))]
            rows[5:5] = ["", ""] if rows else []
            paths.append(write_csv(tmp_path / f"day{day}.csv",
                                   ending.join(["Src IP,a,b,Label", *rows]) + ending))
        want = merge_scanned([scan_csv(p, "Label", ("Src IP",)) for p in paths])
        headers, reader = [], csv.reader

        def header_only(lines):
            headers.append(lines)
            yield next(reader(lines))
            pytest.fail("csv.reader read past a header")

        def no_scan(*args):
            pytest.fail("scanned a clean file")

        monkeypatch.setattr(dataset, "_PARSE_CELLS", 16)
        monkeypatch.setattr(csv, "reader", header_only)
        monkeypatch.setattr(dataset, "_scan_row", no_scan)
        got = load_csv(paths, drop_columns=("Src IP",))
        assert len(headers) == len(paths)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.label_names == want.label_names == ("Benign", "DoS")
        assert got.label_codes.tobytes() == want.label_codes.tobytes()
        assert got.n_rows == 39


class TestSeveralFiles:
    """load_csv stacks the rows of several day files into one table."""

    def test_stacks_rows(self, tmp_path):
        text = "a,b,Label\n1,10,x\n2,20,y\n3,30,x\n4,40,y\n"
        paths = [write_csv(tmp_path / f"{day}.csv", text) for day in ("mon", "tue")]
        merged = same_as_scanner(paths)
        assert merged.n_rows == 8
        assert merged.labels == ("x", "y") * 4
        assert merged.sources == tuple(paths)

    def test_codes_map_onto_one_name_table(self, tmp_path):
        paths = [write_csv(tmp_path / "one.csv", "a,Label\n0,y\n0,x\n0,y\n"),
                 write_csv(tmp_path / "empty.csv", "a,Label\n"),
                 write_csv(tmp_path / "two.csv", "a,Label\n1,z\n1,x\n1,z\n")]
        merged = same_as_scanner(paths)
        assert merged.label_names == ("y", "x", "z")
        np.testing.assert_array_equal(merged.label_codes, [0, 1, 0, 2, 1, 2])
        assert merged.labels == ("y", "x", "y", "z", "x", "z")
        assert merged.sources == tuple(paths)

    def test_one_path_in_a_list_is_the_path(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "Flow ID,Flow ID,a,Label\n1,2,3,x\n4,5,6,y\n")
        alone, listed = load_csv(path, drop_columns=DEFAULT_DROP_COLUMNS), load_csv(
            [path], drop_columns=DEFAULT_DROP_COLUMNS)
        assert alone.dropped == listed.dropped == ("Flow ID", "Flow ID")
        assert alone.values.tobytes() == listed.values.tobytes()
        assert alone.labels == listed.labels and alone.sources == listed.sources

    def test_column_disagreement(self, tmp_path):
        paths = [write_csv(tmp_path / "mon.csv", "a,b,Label\n1,2,x\n"),
                 write_csv(tmp_path / "tue.csv", "a,c,Label\n1,2,x\n")]
        assert same_as_scanner(paths) == (
            "tables disagree on columns; drop the extras before merging (['b', 'c'])")

    def test_errors_come_in_file_order(self, tmp_path):
        """A bad cell of an earlier file comes before a later file's header
        error or ragged row, and before a disagreement on columns."""
        bad_cell = write_csv(tmp_path / "mon.csv", "a,Label\n1,x\noops,y\n")
        no_label = write_csv(tmp_path / "tue.csv", "a,Class\n1,x\n")
        ragged = write_csv(tmp_path / "wed.csv", "a,Label\n1,x\n2\n")
        wider = write_csv(tmp_path / "thu.csv", "a,b,Label\n1,2,x\n")
        for later in (no_label, ragged, wider):
            assert same_as_scanner([bad_cell, later]) == (
                f"{bad_cell}:3: column 'a' has non-numeric cell 'oops'")
        assert same_as_scanner([wider, no_label]).endswith("header has no column named 'Label'")

    def test_a_file_not_utf8_is_named_in_its_turn(self, tmp_path):
        good = write_csv(tmp_path / "mon.csv", "a,Label\n1,x\n")
        bad_cell = write_csv(tmp_path / "tue.csv", "a,Label\noops,x\n")
        latin = str(tmp_path / "wed.csv")
        with open(latin, "wb") as fh:
            fh.write(b"a,Label\n1,x\n2,caf\xe9\n")
        with pytest.raises(DataError, match=r"wed\.csv:3: not UTF-8 text"):
            load_csv([good, latin])
        with pytest.raises(DataError, match=r"tue\.csv:2: column 'a'"):
            load_csv([bad_cell, latin])

    def test_empty_input(self):
        with pytest.raises(DataError, match="no tables"):
            load_csv([])


class TestColumnAndRowHygiene:
    def test_drop_named_columns(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", "a,b,Label\n1,10,x\n2,20,y\n")
        out = load_csv(path, drop_columns=["b", "not_there"])
        assert (out.columns, out.dropped) == (("a",), ("b",))
        np.testing.assert_array_equal(out.values, [[1.0], [2.0]])

    @pytest.mark.parametrize("label", ["Label", "Flow ID"])
    def test_label_column_protected(self, tmp_path, label):
        """A label column among the columns to drop is refused naming the
        file and the flag to change."""
        path = write_csv(tmp_path / "f.csv", "Flow ID,a,Label\nx,1,y\n")
        with pytest.raises(DataError) as err:
            load_csv(path, label, (*DEFAULT_DROP_COLUMNS, "Label"))
        assert str(err.value) == (
            f"{path}: the label column {label!r} is an identifier column, which flowsel "
            "drops unread; give another --label-column")

    def test_nonfinite_rows_are_dropped(self):
        table = table_from_labels(
            ("a", "b"),
            np.array([[1.0, 1.0], [np.nan, 2.0], [3.0, 3.0], [np.inf, 4.0]]),
            ("w", "x", "y", "z"),
            "Label",
        )
        rows, cols, report = dataset._cleaning(table)
        assert report["rows_removed_nonfinite"] == 2
        np.testing.assert_array_equal(rows, [0, 2])
        assert [table.label_names[c] for c in table.label_codes[rows]] == ["w", "y"]
        np.testing.assert_array_equal(table.values[np.ix_(rows, cols)], [[1.0, 1.0], [3.0, 3.0]])

    def test_all_rows_bad(self):
        table = table_from_labels(("a",), np.array([[np.nan], [np.inf]]), ("x", "y"), "Label")
        with pytest.raises(DataError, match="every row"):
            dataset._cleaning(table)

    def test_all_rows_bad_names_the_files_and_columns(self):
        values = np.array([[np.nan, 1.0, 2.0], [3.0, 1.0, np.inf], [5.0, 1.0, np.inf]])
        table = table_from_labels(("a", "b", "c"), values, ("x", "y", "x"), "Label",
                                     sources=("mon.csv", "tue.csv"))
        with pytest.raises(DataError) as err:
            dataset._cleaning(table)
        assert str(err.value) == (
            "mon.csv, tue.csv: every row has a missing or non-finite cell, in columns "
            "['a', 'c']; fill those cells or drop those columns")

    def test_no_data_rows_names_the_files(self, tmp_path):
        paths = [write_csv(tmp_path / f"{day}.csv", "a,b,Label\n") for day in ("mon", "tue")]
        table = load_csv(paths)
        for clean in (dataset._cleaning, lambda t: splits(t, "Benign")):
            with pytest.raises(DataError) as err:
                clean(table)
            assert str(err.value) == (f"{paths[0]}, {paths[1]}: no data rows below the "
                                      "header; give input files that hold flows")

    def test_constant_columns_are_dropped(self):
        table = table_from_labels(
            ("live", "dead"),
            np.array([[1.0, 7.0], [2.0, 7.0]]),
            ("x", "y"),
            "Label",
        )
        _, cols, report = dataset._cleaning(table)
        assert report["columns_dropped_constant"] == ["dead"]
        assert [table.columns[j] for j in cols] == ["live"]

    def test_cleaning_report(self, tmp_path):
        """The report lists the identifier columns the parser skipped."""
        path = write_csv(tmp_path / "f.csv",
                         "Flow ID,a,dead,Label\n1-2,1,5,x\n2-3,,5,y\n3-4,2,5,x\n")
        table = load_csv(path, drop_columns=DEFAULT_DROP_COLUMNS)
        rows, cols, report = dataset._cleaning(table)
        assert [table.columns[j] for j in cols] == ["a"]
        np.testing.assert_array_equal(rows, [0, 2])
        assert report["columns_dropped_named"] == ["Flow ID"]
        assert report["rows_removed_nonfinite"] == 1
        assert report["columns_dropped_constant"] == ["dead"]

    def test_default_drop_list_spares_destination_port(self, tmp_path):
        assert "Dst Port" not in DEFAULT_DROP_COLUMNS
        assert "Src Port" in DEFAULT_DROP_COLUMNS
        path = write_csv(tmp_path / "f.csv", "Src Port,Dst Port,Label\n5,80,x\n6,443,y\n")
        table = load_csv(path, drop_columns=DEFAULT_DROP_COLUMNS)
        _, cols, report = dataset._cleaning(table)
        assert [table.columns[j] for j in cols] == ["Dst Port"]
        assert report["columns_dropped_named"] == ["Src Port"]


class TestMinmaxNormalize:
    """``_span`` and ``_normalize``, which prepare_splits runs on both
    partitions."""

    def test_train_hits_the_unit_interval(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 3)) * 10
        scaled = train.copy()
        lo, hi = train.min(axis=0), train.max(axis=0)
        dataset._normalize(scaled, lo, dataset._span(lo, hi))
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-15)

    def test_test_partition_uses_train_bounds_and_clamps(self):
        test = np.array([[-5.0], [5.0], [25.0]])
        dataset._normalize(test, np.array([0.0]), np.array([10.0]), clamp=True)
        np.testing.assert_array_equal(test, [[0.0], [0.5], [1.0]])

    def test_constant_train_column_rejected(self):
        train = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(DataError, match=r"\[0\] are constant"):
            dataset._span(train.min(axis=0), train.max(axis=0))


class TestEncodeLabels:
    def test_sorted_class_order(self):
        labels_cat, labels_bin, names = encode_labels(small_table(), benign="x")
        assert names == ("x", "y")
        np.testing.assert_array_equal(labels_cat, [0, 1, 0, 1])
        np.testing.assert_array_equal(labels_bin, [False, True, False, True])

    def test_grouping_folds_labels(self):
        table = table_from_labels(
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
        return table_from_labels(("a", "b", "dead"), values, labels, "Label")

    def test_end_to_end(self):
        pair, report = splits(self.raw(), benign="Benign", ratio=0.5, seed=4)
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
        pair_a, _ = splits(self.raw(seed=1), "Benign", seed=2)
        pair_b, _ = splits(
            self.raw(seed=1), "Benign", seed=2, normalize_before_split=True
        )
        np.testing.assert_array_equal(  # same rows land in train either way
            pair_a.train.labels_cat, pair_b.train.labels_cat
        )
        assert not np.array_equal(pair_a.train.features, pair_b.train.features)

    def test_leaky_ordering_splits_the_normalized_rows(self):
        """normalize_before_split partitions the rows normalized together,
        as splitting the normalized dataset does."""
        pair, _ = splits(self.raw(seed=3), "Benign", seed=7, normalize_before_split=True)
        features = self.raw(seed=3).values[:, :2]
        features = (features - features.min(axis=0)) / (features.max(axis=0)
                                                         - features.min(axis=0))
        labels_cat, labels_bin, names = encode_labels(self.raw(seed=3), "Benign")
        again = reference_split(Dataset(features, ("a", "b"), labels_cat, labels_bin, names),
                                0.5, seed=7)
        assert again.train.features.tobytes() == pair.train.features.tobytes()
        assert again.test.features.tobytes() == pair.test.features.tobytes()

    def test_takes_over_the_array_it_owns(self):
        table = self.raw()
        pair, _ = splits(table, "Benign", seed=4)
        assert table.values is pair.train.features
        assert pair.train.features.shape == (20, 2)
        assert pair.train.features.flags.c_contiguous and pair.train.features.flags.owndata

    def test_copies_an_array_it_does_not_own(self):
        table = self.raw()
        values = np.asfortranarray(table.values)
        for shared in (table.values[:, :], values):
            before = shared.copy()
            view = dataclasses.replace(table, values=shared)
            pair, _ = splits(view, "Benign", seed=4)
            assert view.values is shared
            assert shared.tobytes() == before.tobytes()
            want, _ = splits(self.raw(), "Benign", seed=4)
            assert pair.train.features.tobytes() == want.train.features.tobytes()
            assert pair.test.features.tobytes() == want.test.features.tobytes()


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


def reference_split(data, ratio, seed, stratified=False):
    """Partition an already-normalized Dataset into train and test."""
    train_idx, test_idx = split_indices(
        data.n_rows, ratio, seed, stratified, data.labels_cat if stratified else None
    )
    return dataset.SplitPair(*(
        Dataset(data.features[idx], data.feature_names, data.labels_cat[idx],
                data.labels_bin[idx], data.class_names)
        for idx in (train_idx, test_idx)), seed, ratio)


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
                             normalize_before_split):
    # the parser has already skipped the identifier columns
    cleaned, report = reference_clean_table(table, ())
    if not cleaned.columns:
        raise DataError("no feature columns survived cleaning")
    labels_cat, labels_bin, class_names = reference_encode_labels(cleaned, benign, grouping)
    if normalize_before_split:
        # bounds over a C-ordered copy: cleaning leaves the cells F-ordered,
        # and over two or more columns the sign of a zero bound depends on
        # the order the reduction reads them; prepare_splits reads C order
        scaled, _, bounds = reference_minmax_normalize(np.ascontiguousarray(cleaned.values))
        full = Dataset(scaled, cleaned.columns, labels_cat, labels_bin, class_names)
        pair = reference_split(full, ratio, seed, stratified)
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


def table_column(draw, n, zero_bounds=False):
    """A column of ties, signed zeros, one value, or any finite floats;
    with ``zero_bounds`` also signed zeros at one end of its range (a bound
    of +/-0.0).  ``draw`` is hypothesis's draw function."""
    kinds = ["ties", "zeros", "constant", "floats"] + ["zero bound"] * zero_bounds
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return np.full(n, draw(FINITE_CELLS))
    cells = {"ties": st.integers(0, 3).map(float),
             "zeros": st.sampled_from([0.0, -0.0, 0.5, -0.5]),
             "zero bound": st.sampled_from([0.0, -0.0, draw(st.sampled_from([1.0, -1.0]))]),
             "floats": FINITE_CELLS}[kind]
    return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)


def day_tables(names, days, dropped=()):
    """Day tables of columns ``names`` from (values, labels) pairs, as the
    new and the reference tables; ``dropped`` names the columns the parser
    skipped."""
    new, ref = [], []
    for day, (values, labels) in enumerate(days):
        new.append(table_from_labels(names, values, labels, "Label", dropped,
                                     sources=(f"day{day}.csv",)))
        ref.append(ReferenceTable(tuple(names), values, labels, "Label", tuple(dropped)))
    return new, ref


def drawn_tables(draw, zero_bounds=False):
    """One to three day tables that share their columns: drawn columns,
    NaN and infinite cells in some rows, and repeated labels, as the new
    and the reference tables; the parser may have skipped an identifier
    column, which the tables then list as dropped."""
    n_columns = draw(st.integers(1, 4))
    names = [f"f{j}" for j in range(n_columns)]
    dropped = draw(st.sampled_from([(), ("Flow ID",)]))
    days = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 25))
        values = np.empty((n, len(names)))
        for j in range(len(names)):
            values[:, j] = table_column(draw, n, zero_bounds)
        for _ in range(draw(st.integers(0, 4)) if n else 0):
            row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, len(names) - 1))
            values[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        days.append((values, tuple(draw(st.lists(st.sampled_from(RAW_LABELS), min_size=n,
                                                 max_size=n)))))
    return day_tables(names, days, dropped)


@st.composite
def selections(draw):
    """Day tables, as the new and the reference tables, prepare_splits'
    other arguments, and a block size for the compaction."""
    tables, ref_tables = drawn_tables(draw)
    grouping = draw(st.sampled_from([None, GROUPING, {"Benign": "Benign", "Bot": "Bot"}]))
    args = (grouping, draw(st.sampled_from([0.3, 0.5, 0.8])), draw(st.integers(0, 2**32 - 1)),
            draw(st.booleans()), draw(st.booleans()))
    return tables, ref_tables, args, draw(st.sampled_from([1, 3, 8, 1 << 16]))


# One table whose f0 is seven 0.0, then -0.0, then 0.5, beside a varying
# f1, normalized before the split: over two or more columns the bound's
# sign depends on the layout its reduction reads.
SIGNED_ZERO_BOUND = (
    *day_tables(("f0", "f1"), [(
        np.column_stack([[0.0] * 7 + [-0.0, 0.5], np.arange(9.0) % 3]),
        ("Benign", "Bot") * 4 + ("Benign",))], ("Flow ID",)),
    (None, 0.3, 0, False, True), 1 << 16)


def outcome(prepare, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return prepare(*args)
        except DataError as exc:
            return exc


def merged(tables):
    """The day tables as one table with an array of its own, which
    prepare_splits may take over."""
    table = merge_scanned(tables)
    return dataclasses.replace(table, values=table.values.copy())


def merged_reference(tables):
    return ReferenceTable(
        tables[0].columns,
        np.vstack([t.values for t in tables]),
        tuple(l for t in tables for l in t.labels),
        tables[0].label_column,
        tuple(dict.fromkeys(c for t in tables for c in t.dropped)),
    )


# Cleaning messages that now name the files and say what to do.
REWORDED = {"every row has a missing": "every row has a missing",
            "cannot scan constant columns": "no data rows below the header"}


class TestSelectionsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=selections())
    @example(problem=SIGNED_ZERO_BOUND)
    def test_same_splits_and_report(self, problem):
        tables, ref_tables, args, block_cells = problem
        want = outcome(reference_prepare_splits, merged_reference(ref_tables), "Benign", *args)
        with pytest.MonkeyPatch.context() as patch:
            # blocks of a few cells, so that compaction moves many blocks
            patch.setattr(dataset, "_BLOCK_CELLS", block_cells)
            got = outcome(splits, merged(tables), "Benign", *args)
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
    def test_cleaning_selects_the_reference_table(self, data):
        tables, ref_tables = drawn_tables(data.draw)
        table, ref_table = merged(tables), merged_reference(ref_tables)
        want = outcome(reference_clean_table, ref_table, ())
        got = outcome(dataset._cleaning, table)
        if isinstance(want, DataError):
            assert isinstance(got, DataError)
            return
        (rows, cols, report), (ref_cleaned, ref_report) = got, want
        assert report == ref_report
        assert tuple(table.columns[j] for j in cols) == ref_cleaned.columns
        assert tuple(table.label_names[c] for c in table.label_codes[rows]) == ref_cleaned.labels
        assert tuple(report["columns_dropped_named"]) == ref_cleaned.dropped
        assert table.values[np.ix_(rows, cols)].tobytes() == ref_cleaned.values.tobytes()


# ---------------------------------------------------------------------------
# prepare_splits as it was before the test split was streamed to its file:
# both partitions gathered whole, the training one normalized with bounds
# taken on it, kept as the reference for the streamed test container.


def minmax_in_place(train, apply_to=None):
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    span = dataset._span(lo, hi)
    train -= lo
    train /= span
    if apply_to is not None:
        apply_to -= lo
        apply_to /= span
        np.clip(apply_to, 0.0, 1.0, out=apply_to)
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


def gathered_prepare_splits(table, benign, grouping=None, ratio=0.5, seed=0,
                            stratified=False, normalize_before_split=False):
    rows, cols, report = dataset._cleaning(table)
    if not cols:
        raise DataError("no feature columns survived cleaning")
    names = tuple(table.columns[j] for j in cols)
    labels_cat, labels_bin, class_names = encode_labels(
        dataclasses.replace(table, label_codes=table.label_codes[rows]), benign, grouping)
    train_idx, test_idx = split_indices(
        rows.size, ratio, seed, stratified, labels_cat if stratified else None)
    if normalize_before_split:
        features = table.values[np.ix_(rows, cols)]
        bounds = minmax_in_place(features)
        test, train = features[test_idx], features[train_idx]
    else:
        test = table.values[np.ix_(rows[test_idx], cols)]
        train = table.values[np.ix_(rows[train_idx], cols)]
        bounds = minmax_in_place(train, test)
    pair = SplitPair(
        Dataset(train, names, labels_cat[train_idx], labels_bin[train_idx], class_names),
        Dataset(test, names, labels_cat[test_idx], labels_bin[test_idx], class_names),
        seed, ratio)
    report["normalization"] = {name: [lo, hi] for name, (lo, hi) in zip(names, bounds)}
    report.update(rows_total=int(rows.size), rows_train=pair.train.n_rows,
                  rows_test=pair.test.n_rows, class_names=list(class_names),
                  normalize_before_split=normalize_before_split, stratified=stratified,
                  split_seed=seed, split_ratio=ratio)
    return pair, report


class TestStreamedTestSplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_container_is_the_gathered_splits(self, data):
        """The test container written a block at a time holds the bytes
        ``save_dataset`` writes for the gathered test split, and the
        training split and report are the gathered ones, over both
        normalization orders, stratified splits, blocks of a few cells and
        columns whose bounds are +/-0.0 (the order the bounds fold in
        decides the sign of a zero)."""
        tables, _ = drawn_tables(data.draw, zero_bounds=True)
        args = (data.draw(st.sampled_from([None, GROUPING])),
                data.draw(st.sampled_from([0.3, 0.5, 0.8])),
                data.draw(st.integers(0, 2**32 - 1)), data.draw(st.booleans()),
                data.draw(st.booleans()))
        want = outcome(gathered_prepare_splits, merged(tables), "Benign", *args)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            cells = data.draw(st.sampled_from([1, 2, 3, 8, 1 << 16]))
            patch.setattr(dataset, "_BLOCK_CELLS", cells)
            path = os.path.join(tmp, "test.ds")
            got = outcome(lambda *a: prepare_splits(*a, test_path=path),
                          merged(tables), "Benign", *args)
            if isinstance(want, DataError):
                assert isinstance(got, DataError) and str(got) == str(want)
                return
            (train, report), (ref_pair, ref_report) = got, want
            streamed = open(path, "rb").read()
            save_dataset(ref_pair.test, path)
            assert streamed == open(path, "rb").read()
        assert json.dumps(report, sort_keys=True) == json.dumps(ref_report, sort_keys=True)
        assert train.features.tobytes() == ref_pair.train.features.tobytes()
        assert train.labels_cat.tobytes() == ref_pair.train.labels_cat.tobytes()

    @pytest.mark.parametrize("end", [1.0, -1.0])
    def test_a_single_column_keeps_the_sign_of_its_zero_bound(self, tmp_path, monkeypatch,
                                                              end):
        """numpy reduces one column as a contiguous run, in interleaved
        folds, so the sign of a zero bound is not that of a row-by-row fold
        of its blocks; it is still the gathered split's."""
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 2)
        path = str(tmp_path / "test.ds")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            column = np.full(60, end)
            column[rng.choice(60, 4, replace=False)] = rng.permutation([0.0, -0.0, 0.0, -0.0])
            values = np.column_stack([column])
            labels = ["Benign" if i % 3 else "Bot" for i in range(60)]
            table = table_from_labels(("f",), values, labels, "Label", ("Flow ID",))
            want, want_report = gathered_prepare_splits(
                table_from_labels(("f",), values.copy(), labels, "Label", ("Flow ID",)),
                "Benign", ratio=0.8, seed=seed)
            train, report = prepare_splits(table, "Benign", ratio=0.8, seed=seed,
                                           test_path=path)
            assert json.dumps(report) == json.dumps(want_report)
            assert train.features.tobytes() == want.train.features.tobytes()
            assert load_dataset(path).features.tobytes() == want.test.features.tobytes()

    @pytest.mark.parametrize("before", [False, True])
    def test_a_zero_bound_has_the_sign_of_a_fold_in_file_order(self, tmp_path, before):
        """Over two or more kept columns, the bounds are np.minimum and
        np.maximum folded over the bounded rows in file order, and so is the
        sign of a zero bound.  The copying pipeline reduced an F-ordered
        copy under normalize_before_split and wrote 0.0 for the bound that
        is -0.0 here (reference_prepare_splits, which keeps it, now reduces
        a C-ordered copy); the preprocess stage key was revised so that no
        split it cached is served."""
        values = np.zeros((20, 4))
        values[17, 1] = -0.0
        values[18:, 1] = 0.5
        values[19, 3] = 1.0
        values[0, 0] = np.nan

        def table():
            return table_from_labels(("f0", "f1", "f2", "f3"), values.copy(),
                                     ["Benign"] * 20, "Label", ("Flow ID",))

        args = dict(ratio=0.8, seed=0, normalize_before_split=before)
        _, report = prepare_splits(table(), "Benign", test_path=str(tmp_path / "t.ds"), **args)
        assert list(report["normalization"]) == ["f1", "f3"]
        rows = np.arange(1, 20)  # row 0 holds a NaN
        if not before:
            rows = rows[split_indices(rows.size, 0.8, 0, False, None)[0]]
        lo = functools.reduce(np.minimum, values[rows][:, [1, 3]])
        hi = functools.reduce(np.maximum, values[rows][:, [1, 3]])
        got = np.array(list(report["normalization"].values()))
        assert got.tobytes() == np.column_stack([lo, hi]).tobytes()
        if before:
            assert np.signbit(got[0, 0])
            assert not np.signbit(np.asfortranarray(values[rows][:, [1, 3]]).min(axis=0)[0])

    @pytest.mark.parametrize("before", [False, True])
    def test_returns_the_training_split_and_writes_the_test_split(self, tmp_path, before):
        table = TestPrepareSplits().raw(rows=41)
        want, want_report = gathered_prepare_splits(TestPrepareSplits().raw(rows=41), "Benign",
                                                    seed=3, normalize_before_split=before)
        path = str(tmp_path / "test.ds")
        train, report = prepare_splits(table, "Benign", seed=3, normalize_before_split=before,
                                       test_path=path)
        assert isinstance(train, Dataset) and train.features is table.values
        assert train.features.tobytes() == want.train.features.tobytes()
        test = load_dataset(path)
        assert (report["rows_train"], report["rows_test"]) == (train.n_rows, test.n_rows)
        assert test.features.tobytes() == want.test.features.tobytes()
        assert test.labels_cat.tobytes() == want.test.labels_cat.tobytes()
        assert report == want_report


class TestMemoryBounds:
    """Allocation bounds from array sizes, so the same on any machine."""

    def table(self, rows=12000, columns=30):
        rng = np.random.default_rng(3)
        # the parser has skipped a first column, Flow ID
        values = rng.normal(size=(rows, columns - 1))
        values[::50, 3] = np.nan
        values[::70, 8] = np.inf
        values[:, 5] = 7.0
        labels = [RAW_LABELS[i % 3] for i in range(rows)]
        names = [f"f{j}" for j in range(1, columns)]
        return table_from_labels(names, values, labels, "Label", ("Flow ID",))

    @pytest.mark.parametrize("stratified", [False, True])
    def test_prepare_splits_allocates_little_beyond_the_table(self, monkeypatch, tmp_path,
                                                              stratified):
        """The training split is the table's own array, shrunk in place, and
        the test split goes to its file a block at a time, so beyond the
        table prepare_splits allocates per-row index arrays and bounded
        blocks (cut here to be small beside the table).  The table is made
        while tracing, so that its shrink counts as memory given back."""
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 1 << 12)
        path = str(tmp_path / "test.ds")
        prepare_splits(self.table(), "Benign", stratified=stratified, seed=1,
                       test_path=path)  # warm
        tracemalloc.start()
        try:
            table = self.table()
            parsed = table.values.nbytes
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train, _ = prepare_splits(table, "Benign", stratified=stratified, seed=1,
                                      test_path=path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = train.features.nbytes + load_dataset(path).features.nbytes
        assert kept > 0.9 * parsed
        assert peak <= 0.3 * kept, peak / kept

    @pytest.mark.parametrize("blank", [False, True])
    def test_parse_to_split_holds_the_table_once(self, traced_peak, tmp_path, monkeypatch,
                                                  blank):
        """From a day file to splits, the peak is the parsed table and
        bounded blocks, with or without an empty cell: an empty cell sends
        one block to the scanner, not the file, and the test split goes to
        its file a block at a time.  The block constants are cut so that
        blocks are small beside the table; row by row parsing reads above
        2x, and gathering the test split whole about 1.6x."""
        rng = np.random.default_rng(8)
        rows, columns = 6000, 60
        values = np.round(rng.normal(size=(rows, columns)), 6)
        lines = ["Flow ID," + ",".join(f"f{j}" for j in range(columns)) + ",Label"]
        for i in range(rows):
            lines.append(f"{i}," + ",".join(map(repr, values[i].tolist()))
                         + f",{RAW_LABELS[i % 3]}")
        if blank:
            cells = lines[3000].split(",")
            cells[5] = ""
            lines[3000] = ",".join(cells)
        path = write_csv(tmp_path / "day.csv", "\n".join(lines) + "\n")
        test_path = str(tmp_path / "test.ds")
        monkeypatch.setattr(dataset, "_PARSE_CELLS", 1 << 10, raising=False)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 1 << 10)
        peak, (train, _) = traced_peak(
            lambda: prepare_splits(load_csv(path, drop_columns=DEFAULT_DROP_COLUMNS), "Benign",
                                   seed=2, test_path=test_path))
        test = load_dataset(test_path)
        kept = train.features.nbytes + test.features.nbytes
        assert train.n_rows + test.n_rows == rows - blank
        assert peak <= 1.3 * kept, peak / kept
