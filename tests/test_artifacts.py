"""The checked container every cache entry uses, and atomic writes."""

import json
import os
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import frame
from flowsel import artifacts
from flowsel.correlation import export_heatmap, load_heatmap, spearman_matrix
from flowsel.dataset import load_dataset, one_hot, save_dataset
from flowsel.errors import DataError
from flowsel.neural_net import MlpConfig, load_model, save_model, train
from flowsel.pipeline import load_importance, save_importance
from flowsel.random_forest import ForestConfig, load_forest, save_forest, train_forest
from flowsel.subset_search import FeatureSubset, load_subset, save_subset
from flowsel.synth import make_dataset


def read_back(path, kind="probe"):
    return artifacts.load(path, kind, lambda header, arrays: (header, arrays))


def header_end(raw):
    """Where the header of the container ``raw`` ends and its arrays start."""
    return len(artifacts.MAGIC) + 8 + int.from_bytes(raw[len(artifacts.MAGIC):][:4], "little")


class TestWriteAtomic:
    def test_bytes_and_text(self, tmp_path):
        path = str(tmp_path / "out.bin")
        artifacts.write_atomic(path, b"\x00\xff")
        assert open(path, "rb").read() == b"\x00\xff"
        artifacts.write_atomic(path, "é\n")
        assert open(path, "rb").read() == "é\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.csv")
        artifacts.write_atomic(path, "old\n")

        def replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="no space left"):
            artifacts.write_atomic(path, "new\n")
        assert open(path).read() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


array_dtypes = st.sampled_from([np.dtype("<f8"), np.dtype("<i8"), np.dtype("|u1")])


@st.composite
def named_arrays(draw):
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=6),
                          max_size=4, unique=True))
    return {name: draw(hnp.arrays(array_dtypes, hnp.array_shapes(min_dims=0, max_dims=3,
                                                                  min_side=0, max_side=4)))
            for name in names}


class TestContainer:
    @settings(max_examples=150, deadline=None)
    @given(arrays=named_arrays(), note=st.one_of(st.none(), st.floats(allow_nan=False),
                                                 st.text(max_size=5)))
    def test_round_trip(self, tmp_path_factory, arrays, note):
        """Every dtype and shape, empty arrays and scalars included, comes
        back with the same dtype, shape and bytes, and writable."""
        path = str(tmp_path_factory.mktemp("rt") / "probe.bin")
        artifacts.save(path, "probe", arrays, note=note)
        header, back = read_back(path)
        assert header["note"] == note
        assert list(back) == list(arrays)
        for name, a in arrays.items():
            assert back[name].dtype == a.dtype and back[name].shape == a.shape
            assert back[name].tobytes() == a.tobytes()
            assert back[name].flags.writeable and back[name].flags.aligned

    @settings(max_examples=100, deadline=None)
    @given(arrays=named_arrays(), step=st.integers(1, 5), data=st.data())
    def test_blocks_write_the_bytes_of_the_whole_array(self, tmp_path_factory, arrays, step,
                                                       data):
        """Arrays given as blocks of ``step`` rows, in any mix with whole
        ones, give the file the whole arrays give; each source is read
        through twice, once for the checksum and once to write."""
        out = tmp_path_factory.mktemp("blocks")
        whole, blocked = str(out / "whole.bin"), str(out / "blocked.bin")
        artifacts.save(whole, "probe", arrays)
        reads = []

        def source(name, a):
            rows = a.reshape(1) if a.ndim == 0 else a

            def blocks():
                reads.append(name)
                return (rows[i:i + step] for i in range(0, len(rows), step))
            return artifacts.Blocks(a.dtype, a.shape, blocks)

        given_as = {name: source(name, a) if data.draw(st.booleans()) else a
                    for name, a in arrays.items()}
        artifacts.save(blocked, "probe", given_as)
        assert open(blocked, "rb").read() == open(whole, "rb").read()
        names = [n for n, a in given_as.items() if isinstance(a, artifacts.Blocks)]
        assert reads == names + names

    def test_blocks_short_of_their_shape_write_nothing(self, tmp_path):
        path = tmp_path / "short.bin"
        short = artifacts.Blocks(np.dtype("<f8"), (3, 2), lambda: iter([np.zeros((2, 2))]))
        with pytest.raises(ValueError, match=r"array 'a' gave 32 bytes for \[3, 2\]"):
            artifacts.save(str(path), "probe", {"a": short})
        assert not os.listdir(tmp_path)

    def test_big_endian_and_strided_input(self, tmp_path):
        path = str(tmp_path / "probe.bin")
        values = np.arange(12, dtype=">f8").reshape(3, 4).T
        artifacts.save(path, "probe", {"v": values})
        _, back = read_back(path)
        assert back["v"].dtype.str == "<f8"
        np.testing.assert_array_equal(back["v"], values)

    def test_odd_length_bytes_then_wider_arrays(self, tmp_path):
        """Zero padding after an odd-length uint8 array keeps the float64
        and int64 arrays after it aligned, and they read back as written.
        The file is the documented layout byte for byte: the header padded
        with spaces and each array with zero bytes to a multiple of 8."""
        path = str(tmp_path / "probe.bin")
        arrays = {"u": np.arange(5, dtype="|u1"), "f": np.linspace(-1.0, 1.0, 3),
                  "i": np.array([-(2 ** 62), 0, 7], dtype="<i8")}
        artifacts.save(path, "probe", arrays)
        _, back = read_back(path)
        for name, a in arrays.items():
            assert back[name].dtype == a.dtype and back[name].tobytes() == a.tobytes()
            assert back[name].flags.aligned and back[name].flags.writeable
        assert os.path.getsize(path) % 8 == 0
        body = b"".join(a.tobytes() + bytes(-a.nbytes % 8) for a in arrays.values())
        blob = json.dumps({"kind": "probe", "version": artifacts.VERSION,
                           "arrays": [[n, a.dtype.str, list(a.shape)] for n, a in arrays.items()],
                           "body_crc": zlib.crc32(body)}).encode("utf-8")
        blob += b" " * (-len(blob) % 8)
        assert open(path, "rb").read() == (
            artifacts.MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob)) + blob + body)

    def test_version_1_is_refused(self, tmp_path):
        """The unpadded layout of version 1 is not read as version 2."""
        path = tmp_path / "v1.bin"
        artifacts.write_atomic(str(path), frame(
            {"kind": "probe", "version": 1, "arrays": [["a", "|u1", [3]]]}, [b"abc"]))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: unreadable probe file (unsupported version 1)")):
            read_back(str(path))

    @pytest.mark.parametrize("dtype", [bool, np.float32, np.int32])
    def test_other_dtypes_are_refused(self, tmp_path, dtype):
        with pytest.raises(TypeError, match="not one of"):
            artifacts.save(str(tmp_path / "probe.bin"), "probe", {"a": np.zeros(3, dtype=dtype)})
        assert not os.listdir(tmp_path)

    def test_other_version_is_refused(self, tmp_path):
        path = tmp_path / "old.bin"
        artifacts.write_atomic(str(path), frame(
            {"kind": "probe", "version": artifacts.VERSION - 1, "arrays": []}, []))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: unreadable probe file (unsupported version {artifacts.VERSION - 1}); "
                "delete it or rerun with --force")):
            read_back(str(path))

    def test_trailing_bytes_are_refused(self, tmp_path):
        """Framed with a valid checksum, so only the length check sees it."""
        path = tmp_path / "long.bin"
        header = {"kind": "probe", "version": artifacts.VERSION, "arrays": [["a", "<i8", [2]]]}
        artifacts.write_atomic(str(path), frame(header, [np.arange(2), b"\0"]))
        with pytest.raises(DataError, match=r"\(1 bytes after the last array\)"):
            read_back(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open probe file"):
            read_back(str(tmp_path / "absent.bin"))


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """One file of every kind, as (container path, loader)."""
    out = tmp_path_factory.mktemp("kinds")
    data, _ = make_dataset(2, 2, 60, seed=4)
    names = data.feature_names
    forest = train_forest(data, ForestConfig(n_trees=2, max_depth=4, seed=1))
    corr = spearman_matrix(data.features, one_hot(data.labels_cat, data.class_names),
                           names, data.class_names)
    paths = {kind: str(out / f"{kind}.csv") for kind in ("heatmap", "importance", "subset")}
    paths.update(dataset=str(out / "split.ds"), forest=str(out / "forest.bin"),
                 mlp=str(out / "mlp.bin"))
    save_dataset(data, paths["dataset"])
    export_heatmap(corr, paths["heatmap"])
    save_importance(forest, names, paths["importance"])
    save_subset(FeatureSubset((0, 2)), names, paths["subset"], method="ba", seed=3, elapsed=0.5)
    save_forest(forest, paths["forest"])
    save_model(train(data, MlpConfig(hidden_sizes=(4,), epochs=1, seed=0)), paths["mlp"])
    loaders = {
        "dataset": load_dataset,
        "heatmap": load_heatmap,
        "importance": lambda p: load_importance(p, names),
        "subset": lambda p: load_subset(p, names),
        "forest": load_forest,
        "mlp": load_model,
    }
    return {kind: (artifacts.container_for(path) if path.endswith(".csv") else path,
                   lambda loader=loaders[kind], path=path: loader(path))
            for kind, path in paths.items()}


KINDS = ("dataset", "heatmap", "importance", "subset", "forest", "mlp")


class TestEveryKind:
    @pytest.mark.parametrize("kind", KINDS)
    def test_loads(self, entries, kind):
        _, load = entries[kind]
        load()

    @pytest.mark.parametrize("kind", KINDS)
    def test_arrays_are_aligned_and_writable(self, entries, kind):
        container, _ = entries[kind]
        _, arrays = read_back(container, kind)
        assert arrays
        for a in arrays.values():
            assert a.flags.aligned and a.flags.writeable

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation_names_the_file(self, entries, kind, cut):
        container, load = entries[kind]
        raw = open(container, "rb").read()
        try:
            with open(container, "wb") as fh:
                fh.write(raw[:int(cut * len(raw))])
            with pytest.raises(DataError, match=re.escape(
                    f"{container}: unreadable {kind} file (")):
                load()
        finally:
            with open(container, "wb") as fh:
                fh.write(raw)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_flipped_byte_names_the_file(self, entries, kind, data):
        container, load = entries[kind]
        raw = open(container, "rb").read()
        at = data.draw(st.integers(0, len(raw) - 1))
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        try:
            with open(container, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(DataError, match=re.escape(
                    f"{container}: unreadable {kind} file (")):
                load()
        finally:
            with open(container, "wb") as fh:
                fh.write(raw)

    @pytest.mark.parametrize("kind", KINDS)
    def test_another_kind_is_refused(self, entries, kind):
        container, _ = entries[kind]
        other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
        with pytest.raises(DataError, match=re.escape(
                f"{container}: unreadable {other} file (not a {other} file)")):
            read_back(container, other)

    @pytest.mark.parametrize("kind", KINDS)
    def test_header_is_json_with_kind_and_version(self, entries, kind):
        container, _ = entries[kind]
        raw = open(container, "rb").read()
        start = len(artifacts.MAGIC) + 8
        hlen = int.from_bytes(raw[len(artifacts.MAGIC):start - 4], "little")
        header = json.loads(raw[start:start + hlen])
        assert (header["kind"], header["version"]) == (kind, artifacts.VERSION)
        assert all(dtype in artifacts.DTYPES for _, dtype, _ in header["arrays"])

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_checksums(self, entries, kind):
        """One crc32 over the header, after its length; one over the arrays,
        in the header."""
        container, _ = entries[kind]
        raw = open(container, "rb").read()
        end = header_end(raw)
        start = len(artifacts.MAGIC) + 8
        assert int.from_bytes(raw[start - 4:start], "little") == zlib.crc32(raw[start:end])
        assert json.loads(raw[start:end])["body_crc"] == zlib.crc32(raw[end:])


def header_of(path, kind):
    return artifacts.load_header(str(path), kind, lambda header: header)


class TestHeaderRead:
    """``load_header`` checks all a cache hit trusts without the arrays."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_truncation_is_refused(self, entries, kind, tmp_path):
        container, _ = entries[kind]
        raw = open(container, "rb").read()
        path = tmp_path / "cut.bin"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError, match=re.escape(f"{path}: unreadable {kind} file (")):
                header_of(path, kind)
        path.write_bytes(raw)
        assert header_of(path, kind) == header_of(container, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_flipped_header_byte_is_refused(self, entries, kind, tmp_path):
        container, _ = entries[kind]
        raw = open(container, "rb").read()
        path = tmp_path / "flipped.bin"
        for at in range(header_end(raw)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[at] ^= mask
                path.write_bytes(flipped)
                with pytest.raises(DataError, match=re.escape(
                        f"{path}: unreadable {kind} file (")):
                    header_of(path, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_flipped_array_byte_passes_the_header_and_fails_the_load(
            self, entries, kind, tmp_path_factory, data):
        container, _ = entries[kind]
        raw = open(container, "rb").read()
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(header_end(raw), len(raw) - 1))] ^= data.draw(
            st.integers(1, 255))
        path = tmp_path_factory.mktemp("flip") / "flipped.bin"
        path.write_bytes(flipped)
        assert header_of(path, kind) == header_of(container, kind)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: unreadable {kind} file (body checksum mismatch)")):
            read_back(str(path), kind)

    def test_a_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open probe file"):
            header_of(tmp_path / "absent.bin", "probe")
