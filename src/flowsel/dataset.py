"""CSV ingestion and preprocessing for labeled network-flow tables.

Preprocessing follows the usual flow-record hygiene: the parser skips the
environment-bound columns (addresses, flow ids, timestamps) unread; cleaning
removes rows containing missing or infinite cells and prunes zero-variance
columns; then features are min-max normalized into [0, 1], labels encoded,
and train/test split with a seeded shuffle.  Everything here is
deterministic given the seed.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import artifacts
from .errors import DataError

# Columns that identify the capture environment rather than the traffic
# shape.  Destination port is deliberately not in this list: it carries
# service information.  Both space and dot spellings appear in the wild.
DEFAULT_DROP_COLUMNS = (
    "Flow ID",
    "Src IP",
    "Src Port",
    "Dst IP",
    "Timestamp",
    "Flow.ID",
    "Src.IP",
    "Src.Port",
    "Dst.IP",
)


@dataclass(frozen=True)
class RawTable:
    """A parsed flow table: numeric feature columns plus one label column.

    ``values`` is (rows, columns) float64 and may contain NaN or +/-inf;
    cleaning decides what to do with those, not the parser.  Labels are
    kept as codes: row ``i`` carries the text ``label_names[label_codes[i]]``,
    and ``label_names`` lists each distinct text once, in first-seen order
    (a name may have no rows left after rows are dropped).  ``dropped``
    names the columns the parser skipped by name, unread; ``sources``
    names the files the rows came from.
    """

    columns: tuple[str, ...]
    values: np.ndarray
    label_codes: np.ndarray
    label_names: tuple[str, ...]
    label_column: str
    dropped: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        """The label text of every row, decoded from the codes."""
        names = self.label_names
        return tuple(names[code] for code in self.label_codes.tolist())

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Model-ready data: normalized features plus encoded labels.

    ``labels_cat`` indexes into ``class_names`` (sorted, benign included);
    ``labels_bin`` is True exactly where the row is not benign.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels_cat: np.ndarray
    labels_bin: np.ndarray
    class_names: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    seed: int
    ratio: float


def _parse_cell(text: str, path: str, line_no: int, column: str) -> float:
    text = text.strip()
    if not text:
        return math.nan  # empty cell counts as missing
    try:
        # float() already understands the NaN / Infinity spellings
        # case-insensitively, which is exactly the token set we accept.
        return float(text)
    except ValueError:
        raise DataError(
            f"{path}:{line_no}: column {column!r} has non-numeric cell {text!r}"
        ) from None


def _scan_row(row, path: str, line_no: int, header, keep) -> list[float]:
    """The kept cells of one csv row, checked one by one with ``float()``."""
    if len(row) != len(header):
        raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
    return [_parse_cell(row[j], path, line_no, header[j]) for j in keep]


def _open_csv(path: str, binary: bool = False):
    try:
        return open(path, "rb") if binary else open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


@dataclass(frozen=True)
class _Part:
    """One input file's header: its names, the index of the label column
    and of each kept column, and the kept and dropped names."""

    path: str
    header: list
    label: int
    keep: list
    columns: tuple[str, ...]
    dropped: tuple[str, ...]


def _records(reader, path: str, record: int):
    """The records of csv ``reader`` numbered from ``record``; one it cannot
    read (a cell over its field limit) raises DataError naming it."""
    try:
        for row in reader:
            yield record, row
            record += 1
    except csv.Error as exc:
        raise DataError(f"{path}:{record}: csv cannot read this record ({exc}); "
                        "shorten or remove its long cell") from None


def _read_header(reader, path: str, label_column: str, drop_columns) -> _Part:
    """Read and check the header row: the label column must be in it and
    not among ``drop_columns``, the columns skipped unread."""
    _, header = next(_records(reader, path, 1), (1, None))
    if header is None:
        raise DataError(f"{path}: empty file, no header row")
    header = [h.strip() for h in header]
    if label_column not in header:
        raise DataError(f"{path}: header has no column named {label_column!r}")
    if label_column in drop_columns:
        raise DataError(f"{path}: the label column {label_column!r} is an identifier column, "
                        "which flowsel drops unread; give another --label-column")
    label = header.index(label_column)
    keep = [j for j, h in enumerate(header) if j != label and h not in drop_columns]
    return _Part(path, header, label, keep, tuple(header[j] for j in keep),
                 tuple(h for h in header if h in drop_columns))


# load_csv hands np.loadtxt the lines of a file in blocks of about this
# many cells.  A block's lines are held as Python strings, far larger than
# their floats, so a block is kept small beside the table it fills.
_PARSE_CELLS = 1 << 13

# np.loadtxt reads a block's labels into a text field as wide as the block's
# longest line, for every line, at 4 bytes a character.  A block whose field
# would pass this many bytes (one long cell is enough) goes to csv.reader,
# which holds only the text; so does a line longer than csv's field limit,
# since np.loadtxt takes a cell of any length and csv.reader refuses one.
_LABEL_BYTES = 1 << 20


def _line_bound(path: str) -> int:
    """One more than the line breaks of a regular file, counted 64 KiB at
    a time: a bound on its records.  Any other path is refused unopened,
    so that no pipe is used up and no FIFO waited on."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataError(f"{path}: not a regular file; save it to a file first")
    lines = 1
    with _open_csv(path, binary=True) as fh:
        while chunk := fh.read(1 << 16):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # a "\r\n" cut between chunks counts twice
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    return lines


def _load_block(part: _Part, lines: list[str], out, codes, index) -> int | None:
    """Fill ``out`` and ``codes`` from a block of lines with one np.loadtxt
    call, which skips blank lines as csv.reader does; returns the rows, or
    None if the block holds a quote (or a NUL, which a numpy string drops
    from the end of a label), a line not cut into the header's cells, a
    label field over ``_LABEL_BYTES`` or a line over csv's field limit, or
    cells np.loadtxt refuses."""
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    n = 0
    for line in lines:
        if line not in ("\n", "\r\n", "\r"):
            if line.count(",") != len(part.header) - 1:
                return None
            n += 1
    if not n:
        return 0
    # as wide as the longest line, since np.loadtxt cuts a longer text short
    width = max(map(len, lines))
    if 4 * n * width > _LABEL_BYTES or width > csv.field_size_limit():
        return None
    dtype = np.dtype([("v", np.float64, (len(part.keep),)), ("l", f"U{width}")])
    got = None
    with contextlib.suppress(ValueError):
        got = np.loadtxt(lines, dtype=dtype, delimiter=",", usecols=[*part.keep, part.label],
                         comments=None, quotechar=None, ndmin=1)
    if got is None or got.shape != (n,):
        return None
    out[:n] = got["v"]
    codes[:n] = [index.setdefault(label.strip(), len(index)) for label in got["l"].tolist()]
    return n


def _scan_block(part: _Part, lines: list[str], more, first: int, out, codes, index):
    """Fill ``out`` and ``codes`` from a block of lines read by csv.reader,
    which reads on from ``more`` to the end of the block's last record;
    returns the rows and the records, numbered from ``first``.  Only a
    quoted block's kept cells go to np.loadtxt, as lines of their own; its
    ragged or refused rows and all other rows go to ``_scan_row``."""
    reader = csv.reader(itertools.chain(lines, more))
    rows = []
    for record, row in _records(reader, part.path, first):
        if row:
            rows.append((record, row))
        if reader.line_num >= len(lines):
            break
    values = None
    if (part.keep and any('"' in line for line in lines)
            and all(len(row) == len(part.header) for _, row in rows)):
        # np.loadtxt refuses a line break in a cell, or ends the line where float() strips it
        with contextlib.suppress(ValueError):
            values = np.loadtxt([",".join([row[j] for j in part.keep]) for _, row in rows],
                                dtype=np.float64, delimiter=",", comments=None,
                                quotechar=None, ndmin=2)
    n = len(rows)
    if values is not None and values.shape == (n, len(part.keep)):
        out[:n] = values
    else:
        for i, (line_no, row) in enumerate(rows):
            out[i] = _scan_row(row, part.path, line_no, part.header, part.keep)
    codes[:n] = [index.setdefault(row[part.label].strip(), len(index)) for _, row in rows]
    return n, record - first + 1


def _parse(part: _Part, lines, out: np.ndarray, codes: np.ndarray, index: dict) -> int:
    """Fill ``out`` and ``codes`` from the records of ``lines`` after the
    header, a block at a time; returns the number of rows."""
    step = max(1, _PARSE_CELLS // len(part.header))
    n, record = 0, 2
    while block := list(itertools.islice(lines, step)):
        rows, records = _load_block(part, block, out[n:], codes[n:], index), len(block)
        if rows is None:
            rows, records = _scan_block(part, block, lines, record, out[n:], codes[n:], index)
        n += rows
        record += records
    return n


def _utf8_checked(path: str, read, *args):
    """``read(*args)``; a file that is not UTF-8 raises DataError naming
    its first bad line, if the file can be read again to find it.  A line
    break byte never occurs inside a multi-byte character, so lines decode
    on their own."""
    try:
        return read(*args)
    except UnicodeDecodeError as exc:
        line = None
        with contextlib.suppress(OSError), open(path, "rb") as fh:
            line = next((n for n, text in enumerate(fh, start=1)
                         if text.decode("utf-8", "ignore").encode() != text), None)
        where = path if line is None else f"{path}:{line}"
        raise DataError(
            f"{where}: not UTF-8 text ({exc.reason}); re-save the file as UTF-8"
        ) from None


def load_csv(path, label_column: str = "Label", drop_columns=()) -> RawTable:
    """Parse one headered CSV, or the rows of several in order, into a RawTable.

    ``path`` is a file path or a list of them.  Columns named in
    ``drop_columns`` are skipped without being parsed, so identifier
    columns may hold text; this is the one place a column is dropped by
    name, and the table's ``dropped`` lists them.  Every other non-label
    column must parse as a float (missing/inf tokens included); anything
    else raises DataError with the offending line number.  The label
    column is kept as codes into its distinct texts, each stripped of
    surrounding space, first seen first over the files in order.  Files
    must agree on their kept columns.

    Each file is read once.  Its line breaks, counted in chunks of bytes,
    bound its records and size one (rows, kept columns) float64 array for
    all files, trimmed in place to the rows read.  Its lines go a block at
    a time (about ``_PARSE_CELLS`` cells) to one ``np.loadtxt`` call for the
    kept cells and the labels; a block with a quote character, a ragged or
    whitespace-only line, a line so long that its label field would pass
    ``_LABEL_BYTES``, or cells np.loadtxt refuses (empty, underscores,
    non-ASCII digits, ...) goes to ``csv.reader`` and ``float()`` instead
    (``_scan_block``), with the values, errors and record numbers of a
    row-by-row scan.  A path that is not a regular file (a pipe, a FIFO, a
    directory) raises DataError naming it, unopened.  Errors come in the
    order a file-by-file scan meets them; a file that is not UTF-8 raises
    DataError naming its first bad line, and a cell over csv's field limit
    its record.  The caller owns the returned table's array.
    """
    paths = [path] if isinstance(path, (str, os.PathLike)) else list(path)
    if not paths:
        raise DataError("no tables to merge")
    # every file is sized before any is parsed; an error waits its turn
    bounds = []
    for p in paths:
        try:
            bounds.append(_line_bound(p))
        except DataError as exc:
            bounds.append(exc)
    codes = np.empty(sum(b for b in bounds if isinstance(b, int)), dtype=np.int32)
    index: dict[str, int] = {}
    parts: list = []
    row = 0
    for p, bound in zip(paths, bounds):
        if isinstance(bound, DataError):
            raise bound
        with _open_csv(p) as handle:
            part = _utf8_checked(p, _read_header, csv.reader(handle), p, label_column, drop_columns)
            if not parts:
                values = np.empty((len(codes), len(part.columns)))
            parts.append(part)
            # a file that disagrees on columns is still parsed, for its cell errors
            out = (values[row:] if part.columns == parts[0].columns
                   else np.empty((len(codes) - row, len(part.columns))))
            row += _utf8_checked(p, _parse, part, handle, out, codes[row:], index)
    del out  # the shrinks below may move the buffers
    odd = next((part for part in parts if part.columns != parts[0].columns), None)
    if odd is not None:
        raise DataError(
            "tables disagree on columns; drop the extras before merging "
            f"({sorted(set(odd.columns) ^ set(parts[0].columns))})"
        )
    values.resize((row, values.shape[1]), refcheck=False)
    codes.resize(row, refcheck=False)
    # one file keeps its dropped names as its header lists them
    dropped = (parts[0].dropped if len(parts) == 1
               else tuple(dict.fromkeys(c for part in parts for c in part.dropped)))
    return RawTable(parts[0].columns, values, codes, tuple(index), label_column, dropped,
                    tuple(paths))


def _where(table: RawTable) -> str:
    """The files a table came from, as a message prefix."""
    return ", ".join(table.sources) + ": " if table.sources else ""


# Cleaning scans the table in blocks of about this many cells, so that no
# scan holds more than a block's copy of it.
_BLOCK_CELLS = 1 << 16


def _finite_rows(table: RawTable) -> np.ndarray:
    """Boolean mask of the rows with a finite cell in every column; a
    DataError naming the files and columns when a table with rows has
    none."""
    finite = np.empty(table.n_rows, dtype=bool)
    step = max(1, _BLOCK_CELLS // max(1, table.n_columns))
    for start in range(0, table.n_rows, step):
        block = slice(start, start + step)
        np.isfinite(table.values[block]).all(axis=1, out=finite[block])
    if table.n_rows and not finite.any():
        bad = [c for j, c in enumerate(table.columns)
               if not np.isfinite(table.values[:, j]).all()]
        raise DataError(
            f"{_where(table)}every row has a missing or non-finite cell, in columns "
            f"{bad}; fill those cells or drop those columns"
        )
    return finite


def _varying_columns(table: RawTable, rows: np.ndarray) -> np.ndarray:
    """For each column, whether it holds more than one distinct value over
    ``rows`` (ascending indices)."""
    if not rows.size:
        raise DataError(f"{_where(table)}no data rows below the header; "
                        "give input files that hold flows")
    first = table.values[rows[0]]
    varies = np.zeros(table.n_columns, dtype=bool)
    for block in _row_blocks(table.values, rows, range(table.n_columns)):
        varies |= (block != first).any(axis=0)
    return varies


def _cleaning(table: RawTable):
    """What cleaning keeps, found by scanning the table without copying it:
    the indices of the kept rows and columns, and the report.

    Every row with a missing or infinite cell goes, then every column that
    is constant over the remaining rows.  The columns dropped by name were
    never parsed (``load_csv``); the report lists them from ``table.dropped``.
    """
    rows = np.flatnonzero(_finite_rows(table))
    varies = _varying_columns(table, rows)
    report = {
        "columns_dropped_named": list(table.dropped),
        "rows_removed_nonfinite": table.n_rows - rows.size,
        "columns_dropped_constant": [c for c, v in zip(table.columns, varies) if not v],
    }
    return rows, np.flatnonzero(varies).tolist(), report


def _span(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``hi - lo``, the scale of each column; a column whose training rows
    are constant is an error, since cleaning prunes constants first."""
    span = hi - lo
    flat = np.flatnonzero(span == 0)
    if flat.size:
        raise DataError(
            f"column index(es) {flat.tolist()} are constant in the training rows; "
            "prune constants before normalizing"
        )
    return span


def _normalize(values: np.ndarray, lo, span, clamp: bool = False) -> None:
    """Scale ``values`` in place with the bounds ``lo`` and ``lo + span``,
    clamped into [0, 1] when ``clamp`` is set, as the test rows are."""
    values -= lo
    values /= span
    if clamp:
        np.clip(values, 0.0, 1.0, out=values)


def encode_labels(table: RawTable, benign: str, grouping: dict | None = None):
    """Map labels to class indices and a binary attack indicator.

    With ``grouping`` given, every raw label must appear in it; values are
    the class names actually used.  Class order is sorted name order.  Only
    labels that some row carries count; each is mapped once, and the rows
    by one lookup of their codes.
    """
    names = table.label_names
    present = np.flatnonzero(np.bincount(table.label_codes, minlength=len(names)))
    raw = [names[i] for i in present]
    if grouping is not None:
        missing = sorted({l for l in raw if l not in grouping})
        if missing:
            raise DataError(f"labels missing from the grouping map: {missing}")
        grouped = [grouping[l] for l in raw]
    else:
        grouped = raw
    class_names = tuple(sorted(set(grouped)))
    if benign not in class_names:
        raise DataError(f"benign label {benign!r} does not occur in the data")
    index = {c: i for i, c in enumerate(class_names)}
    lookup = np.zeros(len(names), dtype=np.int64)
    lookup[present] = [index[g] for g in grouped]
    labels_cat = lookup[table.label_codes]
    labels_bin = labels_cat != index[benign]
    return labels_cat, labels_bin, class_names


def split_indices(n_rows: int, ratio: float, seed: int, stratified: bool = False, labels=None):
    """Seeded index partition; ``ratio`` is the train fraction.

    Stratified mode splits each class separately (single-row classes go to
    train with a warning).  Both sides stay non-empty.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    if n_rows < 2:
        raise DataError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    if not stratified:
        perm = rng.permutation(n_rows)
        n_train = int(math.floor(n_rows * ratio + 0.5))
        n_train = min(max(n_train, 1), n_rows - 1)
        return np.sort(perm[:n_train]), np.sort(perm[n_train:])

    if labels is None:
        raise DataError("stratified split needs labels")
    labels = np.asarray(labels)
    train_parts, test_parts = [], []
    for cls in np.unique(labels):
        rows = rng.permutation(np.flatnonzero(labels == cls))
        if rows.size == 1:
            warnings.warn(
                f"class {cls!r} has a single row; assigning it to train", stacklevel=2
            )
            train_parts.append(rows)
            continue
        k = int(math.floor(rows.size * ratio + 0.5))
        k = min(max(k, 1), rows.size - 1)
        train_parts.append(rows[:k])
        test_parts.append(rows[k:])
    if not test_parts:
        raise DataError("stratified split produced an empty test side")
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def one_hot(labels_cat, class_names) -> np.ndarray:
    """Indicator matrix, one column per class, each row summing to 1."""
    labels = np.asarray(labels_cat, dtype=np.int64)
    n_classes = len(class_names)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError("class index out of range for the given class names")
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def class_indicator_columns(data: Dataset, binary: bool):
    """Class columns for correlation work.

    Categorical mode one-hot encodes every class.  Binary mode collapses to
    a single attack indicator column instead of a redundant two-column
    encoding.  Returns (matrix, column names).
    """
    if binary:
        return data.labels_bin.astype(np.float64).reshape(-1, 1), ("attack",)
    return one_hot(data.labels_cat, data.class_names), data.class_names


def binary_view(data: Dataset, benign_name: str = "benign") -> Dataset:
    """Recast a dataset as two classes: benign versus pooled attack."""
    labels_cat = data.labels_bin.astype(np.int64)
    return Dataset(
        data.features,
        data.feature_names,
        labels_cat,
        data.labels_bin.copy(),
        (benign_name, "attack"),
    )


def _row_blocks(values: np.ndarray, rows, cols):
    """The cells of ``cols`` in the ``rows`` of ``values``, gathered into
    new arrays of about ``_BLOCK_CELLS`` cells, in order."""
    every = len(cols) == values.shape[1]
    step = max(1, _BLOCK_CELLS // max(1, values.shape[1]))
    for start in range(0, len(rows), step):
        idx = rows[start:start + step]
        yield values[idx] if every else values[np.ix_(idx, cols)]


def _compact(values: np.ndarray, rows, cols) -> np.ndarray:
    """Shrink the C-ordered array ``values``, which owns its buffer, to the
    cells of ``rows`` (ascending) and ``cols``, in place; returns it.

    Row i of the result lies at or before row ``rows[i]`` of the array, so
    moving blocks of rows to the front in order reads each block (into a
    bounded copy) before anything is written over it.  The shrink may
    move the buffer, so the caller must hold no view of the array.
    """
    flat = values.reshape(-1)
    start = 0
    for block in _row_blocks(values, rows, cols):
        flat[start:start + block.size] = block.reshape(-1)
        start += block.size
    del flat
    values.resize((len(rows), len(cols)), refcheck=False)
    return values


def _fold_bounds(values: np.ndarray, rows, cols):
    """The minimum and maximum of each column of ``cols`` over ``rows``,
    read a block at a time, bit for bit those of ``min(axis=0)`` and
    ``max(axis=0)`` over the cells gathered into one C-ordered array.

    That includes the sign of a zero bound, which depends on the order the
    reduction meets the zeros in.  Over two or more columns it folds row
    after row, so each block is folded onto the bounds so far as one more
    array.  A single column is reduced as one contiguous run, in several
    interleaved folds, so it is gathered whole: one value per row."""
    if len(cols) == 1:
        column = values[rows, cols[0]].reshape(-1, 1)
        return column.min(axis=0), column.max(axis=0)
    lo = hi = np.empty((0, len(cols)))
    for block in _row_blocks(values, rows, cols):
        lo = np.vstack((lo, block)).min(axis=0, keepdims=True)
        hi = np.vstack((hi, block)).max(axis=0, keepdims=True)
    return lo[0], hi[0]


def prepare_splits(
    table: RawTable,
    benign: str,
    grouping: dict | None = None,
    ratio: float = 0.5,
    seed: int = 0,
    stratified: bool = False,
    normalize_before_split: bool = False,
    *,
    test_path: str,
):
    """Full preprocessing: clean, encode, normalize, split.  The test
    partition is written to ``test_path`` as ``save_dataset`` writes it;
    returns (training Dataset, report dict).

    Cleaning removes every row with a missing or infinite cell, then every
    column constant over the rows left.  It drops no column by name:
    ``load_csv`` skipped the identifier columns unparsed, and the report
    lists them from ``table.dropped``.

    By default normalization bounds come from the training partition only
    and the test partition is clamped into [0, 1] with them.
    ``normalize_before_split`` instead fits the bounds on all rows before
    splitting, reproducing the simpler (leaky) ordering some studies use.

    Cleaning only chooses rows and columns, and the table is held once.
    The bounds are folded over the training rows a block at a time.  The
    test rows are then gathered, normalized and written a block at a time,
    and never held whole.  Last, the training rows and kept columns are
    moved to the front of ``table.values`` in place, the array is shrunk
    to them and normalized.  prepare_splits thus takes the array over: on
    return ``table.values`` is the training features, and the caller must
    hold no view of it (the shrink may move its buffer).  An array that is
    not float64, C-ordered and the owner of its buffer is copied once
    instead, and the table is left as it was.  ``normalize_before_split``
    compacts and normalizes the kept rows first, then streams the test
    rows out of them and compacts the training rows the same way.
    """
    rows, cols, report = _cleaning(table)
    if not cols:
        raise DataError("no feature columns survived cleaning")
    names = tuple(table.columns[j] for j in cols)
    labels_cat, labels_bin, class_names = encode_labels(
        replace(table, label_codes=table.label_codes[rows]), benign, grouping)
    train_idx, test_idx = split_indices(
        rows.size, ratio, seed, stratified, labels_cat if stratified else None
    )
    values = table.values
    if not (values.dtype == np.float64 and values.flags.c_contiguous
            and values.flags.owndata):
        values = np.array(values, dtype=np.float64, order="C")
    if normalize_before_split:
        # the bounds fold over the kept rows in file order, which decides
        # the sign of a zero bound, so they are taken before the split
        values = _compact(values, rows, cols)
        lo, hi = values.min(axis=0), values.max(axis=0)
        span = _span(lo, hi)
        _normalize(values, lo, span)
        test_rows, train_rows, kept = test_idx, train_idx, range(len(cols))
    else:
        test_rows, train_rows, kept = rows[test_idx], rows[train_idx], cols
        lo, hi = _fold_bounds(values, train_rows, kept)
        span = _span(lo, hi)

    def test_blocks():
        for block in _row_blocks(values, test_rows, kept):
            if not normalize_before_split:
                _normalize(block, lo, span, clamp=True)
            yield block

    features = artifacts.Blocks(np.dtype("<f8"), (len(test_idx), len(cols)), test_blocks)
    save_dataset(Dataset(features, names, labels_cat[test_idx], labels_bin[test_idx],
                         class_names), test_path)
    train = _compact(values, train_rows, kept)
    if not normalize_before_split:
        _normalize(train, lo, span)

    report["normalization"] = {name: [float(a), float(b)]
                               for name, a, b in zip(names, lo, hi)}
    report["rows_total"] = int(rows.size)
    report["rows_train"] = len(train_idx)
    report["rows_test"] = len(test_idx)
    report["class_names"] = list(class_names)
    report["normalize_before_split"] = normalize_before_split
    report["stratified"] = stratified
    report["split_seed"] = seed
    report["split_ratio"] = ratio
    return Dataset(train, names, labels_cat[train_idx], labels_bin[train_idx],
                   class_names), report


def save_dataset(data: Dataset, path: str) -> None:
    """Write a dataset container: features, both label vectors, the names.
    The features may be ``artifacts.Blocks`` of float64 rows, which are
    written a block at a time."""
    features = data.features
    if not isinstance(features, artifacts.Blocks):
        features = np.asarray(features, dtype=np.float64)
    artifacts.save(path, "dataset", {
        "features": features,
        "labels_cat": np.asarray(data.labels_cat, dtype=np.int64),
        "labels_bin": np.asarray(data.labels_bin, dtype=np.uint8),
    }, feature_names=list(data.feature_names), class_names=list(data.class_names))


def _dataset_header(header: dict) -> dict:
    """The names, class names and shape a dataset header declares;
    ValueError unless its arrays fit them."""
    shapes = {name: shape for name, _, shape in header["arrays"]}
    names = tuple(header["feature_names"])
    features, labels = shapes["features"], shapes["labels_cat"]
    if len(labels) != 1 or features != [*labels, len(names)] or shapes["labels_bin"] != labels:
        raise ValueError(f"features {tuple(features)} for {len(names)} names and "
                         f"{tuple(labels)} labels")
    return {"feature_names": names, "class_names": tuple(header["class_names"]),
            "n_rows": labels[0], "n_features": len(names)}


def _dataset_from_arrays(header: dict, arrays: dict) -> Dataset:
    fields = _dataset_header(header)
    return Dataset(arrays["features"], fields["feature_names"], arrays["labels_cat"],
                   arrays["labels_bin"].astype(bool), fields["class_names"])


def load_dataset(path: str) -> Dataset:
    """Read back a dataset written by save_dataset."""
    return artifacts.load(path, "dataset", _dataset_from_arrays)


def load_dataset_header(path: str) -> dict:
    """The ``feature_names``, ``class_names``, ``n_rows`` and ``n_features``
    of the dataset at ``path``, from its header alone."""
    return artifacts.load_header(path, "dataset", _dataset_header)
