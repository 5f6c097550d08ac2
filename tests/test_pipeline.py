"""Fixture generation, stage orchestration, run records, and the CLI."""

import collections
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowsel
from flowsel import artifacts, pipeline
from flowsel.cli import build_parser, main
from flowsel.dataset import load_csv, load_dataset
from flowsel.errors import DataError, PipelineError
from flowsel.neural_net import MlpConfig
from flowsel.pipeline import (
    MODELS,
    ExperimentConfig,
    compare,
    depth_sweep,
    load_records,
    preprocess_stage,
    run_pipeline,
    run_record_row,
    stage_key,
    stage_seed,
    write_depth_sweep_csv,
    write_overlap_csv,
    write_report_csv,
)
from flowsel.random_forest import ForestConfig, load_forest
from flowsel.subset_search import BatConfig
from flowsel.synth import make_dataset, write_fixture


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    """Small labeled CSV with 3 known-informative features among 3 noise."""
    directory = tmp_path_factory.mktemp("fixture")
    csv_path, sidecar = write_fixture(str(directory), "flows", 3, 3, 120, seed=2)
    truth = json.load(open(sidecar))
    return csv_path, truth


def quick_config(csv_path, out_dir, **overrides):
    base = dict(
        data_paths=(csv_path,),
        benign="Benign",
        out_dir=str(out_dir),
        forest=ForestConfig(n_trees=10, max_depth=8, seed=0),
        mlp=MlpConfig(hidden_sizes=(8,), epochs=2, seed=0),
        bat=BatConfig(n=15, t_max=20, seed=0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSynth:
    def test_deterministic_and_balanced(self):
        a, truth_a = make_dataset(3, 5, 90, seed=7)
        b, truth_b = make_dataset(3, 5, 90, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        assert truth_a.informative == truth_b.informative
        counts = np.bincount(a.labels_cat)
        np.testing.assert_array_equal(counts, [30, 30, 30])

    def test_informative_columns_separate_their_class(self):
        data, truth = make_dataset(3, 5, 300, seed=1)
        for rank, col in enumerate(sorted(truth.informative)):
            pass
        for col in truth.informative:
            split_means = [
                data.features[data.labels_cat == c, col].mean() for c in range(3)
            ]
            # exactly one class sits in the high band
            assert sum(m > 0.5 for m in split_means) == 1

    def test_noise_columns_do_not(self):
        data, truth = make_dataset(2, 6, 300, seed=3)
        noise = [j for j in range(8) if j not in truth.informative]
        for col in noise:
            means = [data.features[data.labels_cat == c, col].mean() for c in range(3)]
            assert max(means) - min(means) < 0.15

    def test_write_fixture_bytes_are_reproducible(self, tmp_path):
        a, _ = write_fixture(str(tmp_path), "one", 2, 2, 40, seed=5)
        b, _ = write_fixture(str(tmp_path), "two", 2, 2, 40, seed=5)
        assert open(a, "rb").read().split(b"\n", 1)[1] == open(b, "rb").read().split(b"\n", 1)[1]

    def test_fixture_round_trips_through_the_parser(self, tmp_path):
        csv_path, sidecar = write_fixture(str(tmp_path), "rt", 2, 3, 50, seed=9)
        table = load_csv(csv_path)
        truth = json.load(open(sidecar))
        assert list(table.columns) == truth["feature_names"]
        data, _ = make_dataset(2, 3, 50, seed=9)
        np.testing.assert_array_equal(table.values, data.features)

    def test_validation(self):
        with pytest.raises(DataError):
            make_dataset(0, 3, 50, seed=0)
        with pytest.raises(DataError):
            make_dataset(2, -1, 50, seed=0)
        with pytest.raises(DataError):
            make_dataset(2, 2, 3, seed=0)


class TestPreprocessMemory:
    def test_peak_stays_within_two_and_a_half_tables(self, tmp_path):
        """Parsing, cleaning, splitting and saving hold at most the parsed
        table, the kept one and per-row index arrays; the bound comes from
        array sizes, so it is the same on any machine."""
        csv_path, _ = write_fixture(str(tmp_path), "wide", 6, 24, 4000, seed=1)
        cfg = ExperimentConfig(data_paths=(csv_path,), out_dir=str(tmp_path / "runs"))
        preprocess_stage(dataclasses.replace(cfg, out_dir=str(tmp_path / "warm")))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair, _ = preprocess_stage(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        table = pair.train.features.nbytes + pair.test.features.nbytes
        assert peak <= 2.5 * table, peak / table

    def test_a_miss_reads_the_test_split_back_on_first_use(self, tmp_path, monkeypatch):
        """A miss returns the training split it computed; the test split,
        once saved, loads on first use as on a hit, so it is not held."""
        csv_path, _ = write_fixture(str(tmp_path), "lazy", 2, 3, 200, seed=2)
        cfg = ExperimentConfig(data_paths=(csv_path,), out_dir=str(tmp_path / "runs"))
        loads = []
        monkeypatch.setattr(flowsel.dataset, "load_dataset",
                            lambda path: (loads.append(path), load_dataset(path))[1])
        pair, files = preprocess_stage(cfg)
        assert isinstance(pair.train, flowsel.Dataset)
        assert (pair.test.n_rows, pair.test.feature_names) == (100, pair.train.feature_names)
        assert loads == []
        features = pair.test.features
        assert loads == [files["test"]]
        assert features.tobytes() == load_dataset(files["test"]).features.tobytes()

    def test_a_garbled_test_split_after_a_miss_is_computed_again(self, tmp_path, capsys):
        """A test container that fails on its first use after a miss is
        named in one stderr line, computed and written again, and reads
        back as the one first written."""
        csv_path, _ = write_fixture(str(tmp_path), "garble", 2, 3, 200, seed=3)
        cfg = ExperimentConfig(data_paths=(csv_path,), out_dir=str(tmp_path / "runs"))
        pair, files = preprocess_stage(cfg)
        with open(files["test"], "rb") as fh:
            written = fh.read()
        garbled = bytearray(written)
        garbled[-9] ^= 0xFF  # a byte of the last array
        with open(files["test"], "wb") as fh:
            fh.write(garbled)
        capsys.readouterr()
        features = pair.test.features
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"warning: {files['test']}: unreadable dataset file (body checksum "
                        "mismatch); delete it or rerun with --force; recomputing it")
        with open(files["test"], "rb") as fh:
            assert fh.read() == written
        want = load_dataset(files["test"])
        assert features.tobytes() == want.features.tobytes()
        assert pair.test.labels_cat.tobytes() == want.labels_cat.tobytes()
        assert capsys.readouterr().err == ""


class TestStageSeeds:
    def test_stable_and_distinct(self):
        seeds = {name: stage_seed(11, name) for name in ("split", "select", "train", "importance")}
        again = {name: stage_seed(11, name) for name in seeds}
        assert seeds == again
        assert len(set(seeds.values())) == 4
        assert stage_seed(12, "split") != seeds["split"]


class TestConfigValidation:
    def test_rejections(self, tmp_path):
        good = quick_config("x.csv", tmp_path)
        good.validated()
        for field, value, msg in (
            ("method", "pca", "unknown method"),
            ("model", "svm", "unknown model"),
            ("mode", "triple", "unknown mode"),
            ("averaging", "median", "unknown averaging"),
        ):
            cfg = quick_config("x.csv", tmp_path, **{field: value})
            with pytest.raises(DataError, match=msg):
                cfg.validated()
        with pytest.raises(DataError, match="needs an explicit subset size"):
            quick_config("x.csv", tmp_path, method="rf-ig").validated()
        with pytest.raises(DataError, match="collapse only applies"):
            quick_config("x.csv", tmp_path, mode="binary", collapse=True).validated()
        with pytest.raises(DataError, match="no input data"):
            quick_config("x.csv", tmp_path, data_paths=()).validated()


class TestRunPipeline:
    def test_full_method_end_to_end(self, fixture_csv, tmp_path):
        csv_path, truth = fixture_csv
        record = run_pipeline(quick_config(csv_path, tmp_path))
        assert record["methodology"] == "cat.full.rf"
        assert record["subset"]["k"] == 6  # every surviving feature
        assert record["subset"]["ig_sum"] == pytest.approx(1.0, abs=1e-9)
        assert record["metrics"]["accuracy"] > 0.8
        for name in ("record", "model", "subset", "heatmap", "importance", "confusion"):
            assert os.path.exists(record["artifacts"][name]), name
        stored = json.load(open(record["artifacts"]["record"]))
        assert stored["seeds"]["master"] == 0
        assert stored["seeds"]["split"] == stage_seed(0, "split")

    def test_rf_ig_selects_k_features(self, fixture_csv, tmp_path):
        csv_path, truth = fixture_csv
        record = run_pipeline(
            quick_config(csv_path, tmp_path, method="rf-ig", k=3)
        )
        assert record["subset"]["k"] == 3
        got = set(record["subset"]["indices"])
        want = set(truth["informative_indices"])
        assert len(got & want) >= 2

    def test_ba_method_writes_a_trace(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        record = run_pipeline(quick_config(csv_path, tmp_path, method="ba"))
        assert record["methodology"] == "cat.ba.rf"
        assert record["subset"]["k"] >= 1
        assert record["subset"]["cfs_merit"] > 0
        assert os.path.exists(record["artifacts"]["trace"])

    def test_cache_reuse_and_force(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path)
        first = run_pipeline(cfg)
        model_path = first["artifacts"]["model"]
        stamp = os.stat(model_path).st_mtime_ns
        second = run_pipeline(quick_config(csv_path, tmp_path))
        assert os.stat(model_path).st_mtime_ns == stamp  # reused, not rebuilt
        assert second["metrics"] == first["metrics"]
        forced = run_pipeline(quick_config(csv_path, tmp_path, force=True))
        assert os.stat(model_path).st_mtime_ns > stamp
        assert forced["metrics"] == first["metrics"]

    def test_forest_block_reads_the_same_on_a_cache_hit(self, fixture_csv, tmp_path):
        """Tree sizes and the OOB score come from the forest, so a run that
        loads the cached forest records what the run that grew it did."""
        csv_path, _ = fixture_csv
        miss = run_pipeline(quick_config(csv_path, tmp_path))
        model = load_forest(miss["artifacts"]["model"])
        hit = run_pipeline(quick_config(csv_path, tmp_path))
        assert hit["forest"] == miss["forest"]
        block = json.load(open(hit["artifacts"]["record"]))["forest"]
        assert block == miss["forest"]
        assert block["nodes"] == [t.n_nodes for t in model.trees]
        assert block["depth"] == [t.depth for t in model.trees]
        assert len(block["nodes"]) == 10
        assert all(1 <= d <= 8 for d in block["depth"])
        assert block["oob_accuracy"] == model.oob_accuracy
        assert block["oob_skipped"] == model.oob_skipped
        mlp = run_pipeline(quick_config(csv_path, tmp_path, model="mlp"))
        assert mlp["forest"] is None

    def test_same_seed_reproduces_the_report_row(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        rows = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            record = run_pipeline(quick_config(csv_path, out, method="ba", seed=5))
            row = run_record_row(record)
            row.pop("time_s")  # wall-clock durations are not reproducible
            rows.append(row)
        assert rows[0] == rows[1]

    def test_collapse_scores_binary(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        record = run_pipeline(quick_config(csv_path, tmp_path, collapse=True))
        assert record["methodology"] == "bi.full.rf"
        assert record["averaging"] == "binary"

    def test_binary_mode_with_mlp(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        record = run_pipeline(
            quick_config(csv_path, tmp_path, mode="binary", model="mlp",
                         mlp=MlpConfig(hidden_sizes=(8,), epochs=4, seed=0))
        )
        assert record["methodology"] == "bi.full.mlp"
        assert os.path.exists(record["artifacts"]["loss_trace"])

    def test_failure_names_the_stage(self, tmp_path):
        cfg = quick_config(str(tmp_path / "missing.csv"), tmp_path)
        with pytest.raises(PipelineError, match="stage 'preprocess' failed"):
            run_pipeline(cfg)
        try:
            run_pipeline(cfg)
        except PipelineError as exc:
            assert exc.stage == "preprocess"
            assert exc.completed == {}


def _watch_predict(monkeypatch) -> list:
    """The names of the predict functions called from now on."""
    calls = []
    for owner in (flowsel.random_forest, flowsel.neural_net):
        real = owner.predict
        monkeypatch.setattr(owner, "predict", lambda *a, _real=real, _owner=owner, **kw: (
            calls.append(_owner.__name__), _real(*a, **kw))[1])
    return calls


class TestEvaluateCache:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("overrides", [{}, {"mode": "binary"}, {"collapse": True}],
                             ids=["categorical", "binary", "collapse"])
    def test_a_hit_predicts_nothing_and_records_what_the_miss_did(
            self, fixture_csv, tmp_path, monkeypatch, model, overrides):
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path, model=model, **overrides)
        miss = run_pipeline(cfg)
        calls = _watch_predict(monkeypatch)
        hit = run_pipeline(cfg)
        assert calls == []
        assert os.path.exists(artifacts.container_for(hit["artifacts"]["confusion"]))
        untimed = [{k: v for k, v in r.items() if k != "timestamps"} for r in (miss, hit)]
        assert untimed[1] == untimed[0]
        forced = run_pipeline(dataclasses.replace(cfg, force=True))
        assert len(calls) == 1
        assert forced["metrics"] == miss["metrics"]

    def test_another_averaging_rescores_the_cached_counts(self, fixture_csv, tmp_path,
                                                          monkeypatch):
        """The averaging keys the record, not the counts: a run that changes
        only it scores the cached counts as a fresh run scores its own."""
        csv_path, _ = fixture_csv
        macro = run_pipeline(quick_config(csv_path, tmp_path / "runs"))
        calls = _watch_predict(monkeypatch)
        micro = run_pipeline(quick_config(csv_path, tmp_path / "runs", averaging="micro"))
        assert calls == []
        assert micro["artifacts"]["confusion"] == macro["artifacts"]["confusion"]
        assert micro["artifacts"]["record"] != macro["artifacts"]["record"]
        fresh = run_pipeline(quick_config(csv_path, tmp_path / "fresh", averaging="micro"))
        assert micro["averaging"] == fresh["averaging"] == "micro"
        assert micro["metrics"] == fresh["metrics"]


def _files(out) -> dict:
    """Every file in ``out`` by name: its size, mtime and inode, the last of
    which a file renamed into place changes."""
    return {name: (st.st_size, st.st_mtime_ns, st.st_ino)
            for name in os.listdir(out) for st in [os.stat(os.path.join(out, name))]}


def _watch_scoring(monkeypatch) -> list:
    """The names of the confusion loaders and scorers called from now on."""
    calls = []
    for name in ("load_confusion", "confusion", "collapse_to_binary", "binary_metrics",
                 "multiclass_metrics"):
        real = getattr(flowsel.metrics, name)
        monkeypatch.setattr(flowsel.metrics, name, lambda *a, _real=real, _name=name, **kw: (
            calls.append(_name), _real(*a, **kw))[1])
    return calls


class TestRecordHit:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("overrides", [{}, {"mode": "binary"}, {"collapse": True}],
                             ids=["categorical", "binary", "collapse"])
    def test_a_full_hit_writes_nothing_and_scores_nothing(self, fixture_csv, tmp_path,
                                                          monkeypatch, model, overrides):
        """The stored record is returned as it is, timestamps included."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path, model=model, **overrides)
        cold = run_pipeline(cfg)
        before = _files(tmp_path)
        calls = _watch_scoring(monkeypatch)
        hit, err = _quietly(cfg)
        assert calls == [] and err == []
        assert _files(tmp_path) == before
        assert hit == cold

    def test_a_retrained_forest_rewrites_the_record(self, fixture_csv, tmp_path):
        """A cut forest is grown again, and the record carries its build
        time; the run after that is served the new record."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path)
        cold = run_pipeline(cfg)
        model = cold["artifacts"]["model"]
        with open(model, "r+b") as fh:
            fh.truncate(os.path.getsize(model) // 2)
        record, (line,) = _quietly(cfg)
        assert line.startswith(f"warning: {model}: unreadable forest file (")
        build = flowsel.random_forest.load_forest_header(model)["build_seconds"]
        assert record["timing"]["build_seconds"] == build != cold["timing"]["build_seconds"]
        assert json.load(open(record["artifacts"]["record"]))["timing"] == record["timing"]
        assert comparable(record) == comparable(cold)
        before = _files(tmp_path)
        assert _quietly(cfg) == (record, [])
        assert _files(tmp_path) == before

    def test_a_forest_grown_again_by_evaluate_is_recorded(self, fixture_csv, tmp_path):
        """The evaluate stage grows a forest whose arrays fail their
        checksum again; the record carries that forest's build time."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path)
        cold = run_pipeline(cfg)
        model = cold["artifacts"]["model"]
        with open(model, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        record, (line,) = _quietly(dataclasses.replace(cfg, collapse=True))
        assert line.startswith(f"warning: {model}: unreadable forest file (body checksum")
        build = flowsel.random_forest.load_forest_header(model)["build_seconds"]
        assert record["timing"]["build_seconds"] == build != cold["timing"]["build_seconds"]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("damage", ["cut container", "deleted csv"])
    def test_a_record_is_served_only_beside_its_counts(self, fixture_csv, tmp_path, model,
                                                       damage):
        """A matching record whose confusion counts would miss is not
        served: the evaluate stage recomputes them in place, and the run
        after that is served the record written beside them."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path, model=model)
        cold = run_pipeline(cfg)
        csv = cold["artifacts"]["confusion"]
        container = artifacts.container_for(csv)
        if damage == "cut container":
            with open(container, "r+b") as fh:
                fh.truncate(os.path.getsize(container) - 1)
        else:
            os.remove(csv)
        record, err = _quietly(cfg)
        if damage == "cut container":
            (line,) = err
            assert line.startswith(f"warning: {container}: unreadable confusion file (")
        else:
            assert err == []
        assert os.path.exists(csv)
        assert flowsel.metrics.load_confusion(csv).total > 0
        assert record["timestamps"] != cold["timestamps"]
        assert {k: v for k, v in record.items() if k not in ("timestamps", "digest")} == \
            {k: v for k, v in cold.items() if k not in ("timestamps", "digest")}
        assert _quietly(cfg) == (record, [])

    @staticmethod
    def edited_scores(tmp_path, capsys):
        """A synth run's record with ``"accuracy": 1.0`` edited to 0.5, still
        valid JSON, and the run's arguments."""
        assert main(["synth", "--out", str(tmp_path), "--stem", "flows"]) == 0
        args = ["run", "--data", str(tmp_path / "flows.csv"), "--out", str(tmp_path),
                "--trees", "5"]
        assert main(args) == 0
        (path,) = tmp_path.glob("run_*.json")
        text = path.read_text()
        assert '"accuracy": 1.0,' in text
        path.write_text(text.replace('"accuracy": 1.0,', '"accuracy": 0.5,'))
        capsys.readouterr()
        return path, args

    def test_an_edited_record_is_named_and_scored_again(self, tmp_path, capsys):
        """A record whose scores no longer match its digest is not served:
        it is named in one stderr line, scored again and rewritten, and the
        next run is served the rewritten record."""
        path, args = self.edited_scores(tmp_path, capsys)
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: {path}: unreadable run record (digest mismatch); recomputing it"]
        assert "accuracy=1.0000" in captured.out
        assert json.loads(path.read_text())["metrics"]["accuracy"] == 1.0
        before = _files(tmp_path)
        assert main(args) == 0
        assert capsys.readouterr().err == "" and _files(tmp_path) == before

    def test_report_leaves_an_edited_record_out(self, tmp_path, capsys):
        path, args = self.edited_scores(tmp_path, capsys)
        assert main([*args, "--method", "rf-ig", "--k", "2"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: {path}: unreadable run record (digest mismatch); "
            "rerun its run to report it"]
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["cat.rf-ig.rf"]

    def test_a_record_without_a_digest_is_rewritten_once_silently(self, fixture_csv,
                                                                  tmp_path, capsys):
        """A record written before records held a digest is scored again and
        rewritten without a word; until then report names it and leaves it
        out."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path)
        cold = run_pipeline(cfg)
        path = cold["artifacts"]["record"]
        stored = json.load(open(path))
        del stored["digest"]
        artifacts.write_atomic(path, json.dumps(stored, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {path}: unreadable run record (no digest); rerun its run to report it",
            f"error: no run records under {tmp_path}"]
        record, err = _quietly(cfg)
        assert err == [] and record["digest"] != cold["digest"]
        assert comparable(record) == comparable(cold)
        assert json.load(open(path))["digest"] == record["digest"]
        assert _quietly(cfg) == (record, [])

    def test_a_copied_out_rewrites_the_record_once(self, fixture_csv, cached_runs, tmp_path):
        """A record names its artifacts by path, so a copy of ``--out`` is
        recorded under its own paths, then served."""
        csv_path, _ = fixture_csv
        source, want = cached_runs["rf"]
        out = tmp_path / "copy"
        shutil.copytree(source, out)
        cfg = quick_config(csv_path, out, method="ba")
        before = _files(out)
        record, err = _quietly(cfg)
        assert err == [] and comparable(record) == comparable(want)
        assert all(path.startswith(str(out)) for path in record["artifacts"].values())
        name = os.path.basename(record["artifacts"]["record"])
        after = _files(out)
        assert after[name] != before[name]
        assert {n: f for n, f in after.items() if n != name} == \
            {n: f for n, f in before.items() if n != name}
        assert _quietly(cfg) == (record, []) and _files(out) == after

    def test_force_rewrites_the_record(self, fixture_csv, tmp_path):
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path)
        cold = run_pipeline(cfg)
        path = cold["artifacts"]["record"]
        before = os.stat(path).st_ino
        forced = run_pipeline(dataclasses.replace(cfg, force=True))
        assert os.stat(path).st_ino != before
        assert forced["timestamps"] != cold["timestamps"]
        assert forced["timing"] != cold["timing"]
        assert json.load(open(path))["timestamps"] == forced["timestamps"]
        assert comparable(forced) == comparable(cold)


@st.composite
def another_value(draw, value):
    """A valid setting different from ``value``, typed like it.

    Integers start at 2, since ``AquilaConfig`` rejects ``t_max`` 1."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return draw(st.integers(2, 5000).filter(lambda v: v != value))
    if isinstance(value, float):
        return draw(st.floats(0.01, 1.0).filter(lambda v: v != value))
    lo = draw(st.floats(0.01, 2.0))  # a (lo, hi) loudness range
    return draw(st.tuples(st.just(lo), st.floats(lo, 4.0)).filter(lambda v: v != value))


class TestSelectKey:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), method=st.sampled_from(["full", "ba", "ao", "rf-ig", "brute"]),
           search=st.sampled_from(["bat", "aquila"]))
    def test_only_the_search_the_method_runs_changes_it(self, fixture_csv, data, method,
                                                         search):
        """A changed setting of the search the method runs must not be served
        a cached subset; a setting of a search it does not run, and the
        nested seed the pipeline overwrites, must not split the cache."""
        cfg = ExperimentConfig(data_paths=(fixture_csv[0],), method=method, k=2)
        nested = getattr(cfg, search)
        name = data.draw(st.sampled_from(
            [f.name for f in dataclasses.fields(nested) if f.name != "seed"]))
        changed = dataclasses.replace(
            nested, **{name: data.draw(another_value(getattr(nested, name)))})
        runs = {"ba": "bat", "ao": "aquila"}.get(method) == search
        key = stage_key(cfg, "select")
        assert (stage_key(dataclasses.replace(cfg, **{search: changed}), "select") != key) == runs
        reseeded = dataclasses.replace(nested, seed=nested.seed + 1)
        assert stage_key(dataclasses.replace(cfg, **{search: reseeded}), "select") == key


def comparable(record):
    """A run record without its timings and the digest that covers them,
    its artifacts by file name."""
    out = {k: v for k, v in record.items()
           if k not in ("timing", "timestamps", "digest", "artifacts")}
    out["artifacts"] = {k: os.path.basename(v) for k, v in record["artifacts"].items()}
    return out


class TestStageKeys:
    def test_container_version_changes_every_stage_key(self, fixture_csv, tmp_path,
                                                       monkeypatch):
        """Every key hashes the container version, so no file of a run under
        another version has a name that an earlier run used, and no old
        cache entry is looked up."""
        csv_path, _ = fixture_csv
        configs = [quick_config(csv_path, tmp_path, method="ba", model=m) for m in MODELS]
        first = [run_pipeline(cfg) for cfg in configs]
        before = set(os.listdir(tmp_path))
        monkeypatch.setattr(artifacts, "VERSION", artifacts.VERSION + 1)
        for cfg, want in zip(configs, first):
            record = run_pipeline(cfg)
            assert {os.path.basename(p) for p in record["artifacts"].values()} & before == set()
            assert (want["format"], record["format"]) == (artifacts.VERSION - 1,
                                                          artifacts.VERSION)
            unnamed = {**comparable(want), "artifacts": None, "format": None}
            assert {**comparable(record), "artifacts": None, "format": None} == unnamed

    def test_a_stage_revision_rekeys_it_and_the_stages_after_it(self, fixture_csv, tmp_path,
                                                                monkeypatch):
        """preprocess is at revision 1, so its key and every key chained on
        it differ from the ones the same reads had before."""
        cfg = quick_config(fixture_csv[0], tmp_path, method="ba").validated()
        assert pipeline._REVISIONS["preprocess"] == 1
        stages = ("preprocess", "correlate", "importance", "select")
        now = {stage: stage_key(cfg, stage) for stage in stages}
        monkeypatch.setattr(pipeline, "_REVISIONS", {})
        before = {stage: stage_key(cfg, stage) for stage in stages}
        assert all(now[stage] != before[stage] for stage in stages)

    def test_a_run_keys_each_stage_once(self, fixture_csv, tmp_path, monkeypatch):
        """One run hashes each stage key once, chained keys included: every
        setting is read as often as stages read it, and the input is
        fingerprinted once."""
        cfg = quick_config(fixture_csv[0], tmp_path, method="ba").validated()
        want = collections.Counter(name for stage in pipeline._READS
                                   for name in pipeline._READS[stage](cfg)
                                   if name not in pipeline._READS)
        real, reads = pipeline._read, []
        monkeypatch.setattr(pipeline, "_read", lambda *a: (reads.append(a[1]), real(*a))[1])
        for _ in range(2):  # a miss, then a full hit
            reads.clear()
            run_pipeline(cfg)
            assert collections.Counter(reads) == want
        assert want["data_paths"] == 1


# The stage that wrote a file, by the file's name.
STAGE_OF_FILE = (("clean_", "preprocess"), ("preprocess_", "preprocess"),
                 ("corr_", "correlate"), ("importance_", "importance"),
                 ("subset_", "select"), ("trace_", "select"), ("model_", "train"),
                 ("loss_", "train"), ("cm_", "evaluate"), ("run_", "run"))
EVERY_STAGE = frozenset({"preprocess", "correlate", "importance", "select", "train",
                         "evaluate", "run"})
# The functions that compute a stage's output; a full cache hit calls none.
COMPUTE = (("dataset", "load_csv"), ("correlation", "spearman_matrix"),
           ("random_forest", "train_forest"), ("subset_search", "bat_run"),
           ("subset_search", "aquila_run"), ("subset_search", "brute_force_best"),
           ("neural_net", "train"), ("random_forest", "predict"), ("neural_net", "predict"))


def _stages_of(names):
    return {stage for name in names for prefix, stage in STAGE_OF_FILE
            if name.startswith(prefix)}


def _run_and_watch(argv, out, monkeypatch):
    """Run ``argv`` in-process; returns the stages that missed the cache
    (those that wrote a file under a name new to ``out``) and the compute
    calls made.  A run that misses rewrites its record under the name it
    had, so a stage that writes a name ``out`` already held is a rewrite,
    not a miss."""
    before = set(os.listdir(out))
    calls = []
    for module, name in COMPUTE:
        owner = getattr(flowsel, module)
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **kw: (
            calls.append(_name), _real(*a, **kw))[1])
    try:
        assert main(argv) == 0
    finally:
        monkeypatch.undo()
    return _stages_of(set(os.listdir(out)) - before), calls


@pytest.fixture(scope="module")
def numeric_labels(fixture_csv, tmp_path_factory):
    """The fixture with its classes as the numbers 0, 1, 2 in two columns,
    ``Label`` and ``Class``, so either can be the label column and the other
    is one more feature; beside it a copy of its bytes and a grouping map."""
    csv_path, truth = fixture_csv
    directory = tmp_path_factory.mktemp("numeric")
    header, *rows = open(csv_path).read().splitlines()
    code = {name: str(i) for i, name in enumerate(truth["class_names"])}
    lines = [header + ",Class"]
    for row in rows:
        cells = row.split(",")
        cells[-1] = code[cells[-1]]
        lines.append(",".join(cells + cells[-1:]))
    paths = {"csv": directory / "flows.csv", "copy": directory / "copy.csv",
             "grouping": directory / "grouping.json", "ini": directory / "split.ini",
             "bat_ini": directory / "bat.ini"}
    paths["csv"].write_text("\n".join(lines) + "\n")
    shutil.copyfile(paths["csv"], paths["copy"])
    paths["grouping"].write_text(json.dumps({"0": "0", "1": "1", "2": "1"}))
    paths["ini"].write_text("[split]\nratio = 0.6\n")
    paths["bat_ini"].write_text("[bat]\nn = 7\n")
    return {name: str(path) for name, path in paths.items()}


KEY_CONTEXTS = {
    "rf": [],
    "ba": ["--method", "ba"],
    "ao": ["--method", "ao"],
    "rf-ig": ["--method", "rf-ig", "--k", "2"],
    "mlp": ["--model", "mlp"],
    "binary": ["--binary"],
    "collapse": ["--collapse"],
}

# (context, the flags the second run adds, the stages it must miss); flags
# name a file of ``numeric_labels`` by its key there, such as {copy}.
# --out and --force choose the cache itself; TestRunPipeline covers them.
KEY_CASES = [
    # settings no stage of the run reads: a full hit
    ("rf", ["--hidden", "16"], set()),
    ("rf", ["--batch-size", "8"], set()),
    ("rf", ["--epochs", "3"], set()),
    ("rf", ["--learning-rate", "0.05"], set()),
    ("rf", ["--optimizer", "adam"], set()),
    ("rf", ["--bat-n", "7", "--bat-epochs", "7", "--alpha", "0.9", "--gamma", "0.9",
            "--canonical-pulse"], set()),
    ("rf", ["--aquila-n", "7", "--aquila-epochs", "7"], set()),
    ("rf", ["--k", "2"], set()),
    ("rf", ["--workers", "2"], set()),
    ("rf", ["--categorical"], set()),
    ("rf", ["--data", "{copy}"], set()),
    ("rf", ["--config", "{bat_ini}"], set()),
    ("ba", ["--aquila-n", "7", "--aquila-epochs", "7"], set()),
    ("ba", ["--k", "3"], set()),
    ("ao", ["--bat-n", "7", "--alpha", "0.9", "--canonical-pulse"], set()),
    ("rf-ig", ["--bat-n", "7", "--aquila-n", "7"], set()),
    ("mlp", ["--workers", "2"], set()),
    ("binary", ["--averaging", "micro"], set()),
    ("collapse", ["--averaging", "micro"], set()),
    # settings the preprocess stage reads, so every stage after it too
    ("rf", ["--seed", "3"], EVERY_STAGE),
    ("rf", ["--ratio", "0.6"], EVERY_STAGE),
    ("rf", ["--config", "{ini}"], EVERY_STAGE),
    ("rf", ["--stratified"], EVERY_STAGE),
    ("rf", ["--normalize-before-split"], EVERY_STAGE),
    ("rf", ["--benign", "1"], EVERY_STAGE),
    ("rf", ["--grouping", "{grouping}"], EVERY_STAGE),
    ("rf", ["--label-column", "Class"], EVERY_STAGE),
    ("rf", ["--data", "{csv}", "{copy}"], EVERY_STAGE),
    # later stages
    ("rf", ["--binary"], EVERY_STAGE - {"preprocess"}),
    ("rf", ["--trees", "4"], {"importance", "train", "evaluate", "run"}),
    ("rf", ["--max-depth", "6"], {"importance", "train", "evaluate", "run"}),
    ("rf", ["--min-node-size", "3"], {"importance", "train", "evaluate", "run"}),
    ("rf", ["--method", "brute"], {"select", "train", "evaluate", "run"}),
    ("rf", ["--model", "mlp"], {"train", "evaluate", "run"}),
    # the counts are cached before they are averaged
    ("rf", ["--averaging", "micro"], {"run"}),
    ("rf", ["--collapse"], {"evaluate", "run"}),
    ("ba", ["--bat-n", "7"], {"select", "train", "evaluate", "run"}),
    # these searches find the subset they found before, and the model reads
    # the subset, not the search settings
    ("ba", ["--bat-epochs", "7"], {"select", "run"}),
    ("ao", ["--aquila-n", "7"], {"select", "run"}),
    ("rf-ig", ["--k", "3"], {"select", "train", "evaluate", "run"}),
    ("rf-ig", ["--trees", "4"], {"importance", "select", "train", "evaluate", "run"}),
    # the importance forest is read by the record's ig_sum, not by the MLP
    ("mlp", ["--trees", "4"], {"importance", "run"}),
    ("mlp", ["--hidden", "16"], {"train", "evaluate", "run"}),
    ("mlp", ["--epochs", "3"], {"train", "evaluate", "run"}),
    ("mlp", ["--optimizer", "adam"], {"train", "evaluate", "run"}),
]


@pytest.fixture(scope="module")
def key_bases(numeric_labels, tmp_path_factory):
    """One directory per context, filled by that context's run."""
    bases = {}
    for name, flags in KEY_CONTEXTS.items():
        out = tmp_path_factory.mktemp(f"keys_{name}")
        assert main(_key_argv(numeric_labels, out, flags)) == 0
        bases[name] = out
    return bases


def _key_argv(paths, out, flags):
    flags = [flag.format(**paths) for flag in flags]
    data = [] if "--data" in flags else ["--data", paths["csv"]]
    return ["run", *data, "--out", str(out), "--benign", "0", "--trees", "3",
            "--max-depth", "5", "--bat-n", "5", "--bat-epochs", "5", "--aquila-n", "5",
            "--aquila-epochs", "5", "--hidden", "4", "--epochs", "2", *flags]


class TestStageKeysFromReads:
    @pytest.mark.parametrize("context,flags,missed", KEY_CASES,
                             ids=[f"{c}:{' '.join(f)}" for c, f, _ in KEY_CASES])
    def test_a_run_misses_exactly_the_stages_that_read_a_change(
            self, numeric_labels, key_bases, tmp_path, monkeypatch, context, flags, missed):
        """A run that differs only in what no stage of it reads is a full
        hit: no compute call and no new file.  One that differs in what a
        stage reads misses at that stage and at the stages chained on it."""
        out = tmp_path / "runs"
        shutil.copytree(key_bases[context], out)
        argv = _key_argv(numeric_labels, out, KEY_CONTEXTS[context] + flags)
        stages, calls = _run_and_watch(argv, out, monkeypatch)
        assert stages == set(missed)
        if not missed:
            assert calls == []

    def test_an_input_edited_in_place_misses(self, tmp_path, capsys):
        """Rewritten under another seed, the same path gives what a fresh
        directory gives, not the cached result of its old bytes."""
        out, fresh = str(tmp_path / "runs"), str(tmp_path / "fresh")
        csv_path, _ = write_fixture(str(tmp_path), "flows", 3, 3, 120, seed=1)
        argv = ["run", "--data", csv_path, "--trees", "3", "--max-depth", "5"]
        assert main([*argv, "--out", out]) == 0
        write_fixture(str(tmp_path), "flows", 3, 3, 120, seed=2)
        capsys.readouterr()
        assert main([*argv, "--out", out]) == 0
        edited = capsys.readouterr().out.splitlines()[0]
        assert main([*argv, "--out", fresh]) == 0
        assert capsys.readouterr().out.splitlines()[0] == edited
        assert len(list((tmp_path / "runs").glob("clean_*.train.ds"))) == 2

    def test_mlp_runs_with_other_importance_forests_keep_a_record_each(self, fixture_csv,
                                                                      tmp_path):
        """The MLP does not read the forest settings, but the record's
        ig_sum reads the importance forest they grow."""
        csv_path, _ = fixture_csv
        out = tmp_path / "runs"
        records = [run_pipeline(quick_config(csv_path, out, model="mlp", method="ba",
                                             forest=ForestConfig(n_trees=n, max_depth=4)))
                   for n in (3, 4)]
        assert records[0]["artifacts"]["model"] == records[1]["artifacts"]["model"]
        assert records[0]["artifacts"]["record"] != records[1]["artifacts"]["record"]
        assert records[0]["artifacts"]["importance"] != records[1]["artifacts"]["importance"]
        assert len(load_records(str(out))) == 2

    def test_report_lists_one_row_per_distinct_run(self, fixture_csv, tmp_path, capsys):
        """Four runs of which two read a setting the other two change: two
        report rows and two forests."""
        csv_path, _ = fixture_csv
        out = str(tmp_path / "runs")
        base = ["run", "--data", csv_path, "--out", out, "--trees", "3", "--max-depth", "5"]
        for flags in ([], ["--hidden", "16"], ["--binary"], ["--binary", "--averaging", "micro"]):
            assert main([*base, *flags]) == 0
        capsys.readouterr()
        assert main(["report", "--out", out]) == 0
        assert "(2 rows)" in capsys.readouterr().out
        assert len(list((tmp_path / "runs").glob("model_*.bin"))) == 2
        assert len(list((tmp_path / "runs").glob("run_*.json"))) == 2

    def test_a_pipe_is_not_an_input(self, tmp_path):
        """A pipe cannot be keyed by its bytes without being used up."""
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        try:
            cfg = quick_config(f"/dev/fd/{read_fd}", tmp_path)
            with pytest.raises(PipelineError, match="not a regular file"):
                run_pipeline(cfg)
        finally:
            os.close(read_fd)


@pytest.fixture(scope="module")
def cached_runs(fixture_csv, tmp_path_factory):
    """A bat-subset run of each model, each in a directory of its own."""
    csv_path, _ = fixture_csv
    runs = {}
    for model in MODELS:
        out = tmp_path_factory.mktemp(f"cache_{model}")
        runs[model] = (out, run_pipeline(quick_config(csv_path, out, method="ba", model=model)))
    return runs


def _container(name):
    return lambda files: artifacts.container_for(files[name])


class TestCacheRecovery:
    @pytest.mark.parametrize("kind,model,entry", [
        ("dataset", "rf", lambda files: files["train"]),
        ("heatmap", "rf", _container("heatmap")),
        ("importance", "rf", _container("importance")),
        ("subset", "rf", _container("subset")),
        ("forest", "rf", lambda files: files["model"]),
        ("mlp", "mlp", lambda files: files["model"]),
        ("confusion", "rf", _container("confusion")),
        ("confusion", "mlp", _container("confusion")),
    ], ids=["dataset", "heatmap", "importance", "subset", "forest", "mlp",
            "confusion-rf", "confusion-mlp"])
    @settings(max_examples=5, deadline=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_entry_is_recomputed(self, fixture_csv, cached_runs, tmp_path_factory,
                                           kind, model, entry, cut):
        """A cut cache entry is named in one stderr line and recomputed into
        the same record; the next run hits it silently."""
        csv_path, _ = fixture_csv
        source, want = cached_runs[model]
        out = tmp_path_factory.mktemp("cut")
        shutil.copytree(source, out, dirs_exist_ok=True)
        path = out / os.path.basename(entry(want["artifacts"]))
        raw = path.read_bytes()
        path.write_bytes(raw[:int(cut * len(raw))])
        cfg = quick_config(csv_path, out, method="ba", model=model)
        messages = []
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                record = run_pipeline(cfg)
            assert comparable(record) == comparable(want)
            messages.append(err.getvalue().splitlines())
        (line,), again = messages
        assert line.startswith(f"warning: {path}: unreadable {kind} file (")
        assert again == []

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_a_cut_or_garbled_record_is_rewritten(self, fixture_csv, cached_runs,
                                                  tmp_path_factory, model, data):
        """A run record that does not parse as one is named in one stderr
        line and written again into the same record; the next run is served
        it silently."""
        csv_path, _ = fixture_csv
        source, want = cached_runs[model]
        out = tmp_path_factory.mktemp("record")
        shutil.copytree(source, out, dirs_exist_ok=True)
        path = out / os.path.basename(want["artifacts"]["record"])
        raw = path.read_bytes()
        garbled = data.draw(st.sampled_from(["cut", "byte", "list", "no metrics"]))
        if garbled == "cut":  # at least the closing brace goes
            raw = raw[:data.draw(st.integers(0, len(raw) - 2))]
        elif garbled == "byte":  # never valid UTF-8
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + b"\xff" + raw[at + 1:]
        elif garbled == "list":
            raw = b"[]\n"
        else:
            raw = json.dumps({k: v for k, v in json.loads(raw).items()
                              if k != "metrics"}).encode()
        path.write_bytes(raw)
        cfg = quick_config(csv_path, out, method="ba", model=model)
        (record, (line,)), (again, quiet) = _quietly(cfg), _quietly(cfg)
        assert line.startswith(f"warning: {path}: unreadable run record (")
        assert line.endswith("; recomputing it")
        assert quiet == []
        assert comparable(record) == comparable(want)
        assert again == record

    @pytest.mark.parametrize("fail_at", range(0, 13, 3))
    def test_failed_rename_leaves_nothing_to_hit(self, fixture_csv, cached_runs, tmp_path,
                                                 monkeypatch, fail_at):
        """A writer that dies before its rename leaves the final path absent,
        so a later run recomputes that entry rather than reading half of it."""
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path / "runs", method="ba")
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) > fail_at:
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises((PipelineError, OSError), match="no space left"):
            run_pipeline(cfg)
        monkeypatch.undo()
        assert not [n for n in os.listdir(cfg.out_dir) if n.endswith(".tmp")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            record = run_pipeline(cfg)
        assert err.getvalue() == ""
        assert comparable(record) == comparable(cached_runs["rf"][1])


# (method, model) of the runs whose files TestStageFiles checks
FILE_RUNS = {"ba-rf": ("ba", "rf"), "ba-mlp": ("ba", "mlp"), "rf-ig-rf": ("rf-ig", "rf")}


def _file_run_config(csv_path, out, run):
    method, model = FILE_RUNS[run]
    return quick_config(csv_path, out, method=method, model=model,
                        k=2 if method == "rf-ig" else None)


def _entry_names(cfg, record, stage) -> set:
    """The names of the files of ``stage``'s cache entry in ``record``'s run:
    each file _FILES gives it, and the container beside each export."""
    paths = [record["artifacts"][role] for role in pipeline._FILES[stage](cfg)]
    paths += [artifacts.container_for(record["artifacts"][role])
              for role in pipeline._FILES[stage](cfg) if role in pipeline._CONTAINED]
    return {os.path.basename(path) for path in paths}


# every file of every stage's entry, for each run: (run, stage, role, container)
ENTRY_FILES = [(run, stage, role, container) for run, (method, model) in FILE_RUNS.items()
               for stage, files in pipeline._FILES.items()
               for role in files(ExperimentConfig(method=method, model=model))
               for container in ((False, True) if role in pipeline._CONTAINED else (False,))]


@pytest.fixture(scope="module")
def file_runs(fixture_csv, tmp_path_factory):
    """For each of FILE_RUNS, a fresh directory holding its run and report,
    and the run's config and record."""
    csv_path, _ = fixture_csv
    runs = {}
    for run in FILE_RUNS:
        out = tmp_path_factory.mktemp(f"files_{run}")
        cfg = _file_run_config(csv_path, out, run)
        record = run_pipeline(cfg)
        assert main(["report", "--out", str(out)]) == 0
        runs[run] = (out, cfg, record)
    return runs


def _untimed(path):
    """The content of the file at ``path`` without its build or search
    seconds, ``time_s``, timestamps and digest."""
    name = os.path.basename(path)
    raw = open(path, "rb").read()
    if name == "report.csv":
        header, *rows = raw.decode().splitlines()
        drop = header.split(",").index("time_s")
        return [[c for i, c in enumerate(r.split(",")) if i != drop] for r in [header, *rows]]
    if name.startswith("run_"):
        return comparable(json.loads(raw))
    if raw.startswith(artifacts.MAGIC):  # a container: its header then its arrays
        start = len(artifacts.MAGIC) + 8
        end = start + int.from_bytes(raw[len(artifacts.MAGIC):][:4], "little")
        header = json.loads(raw[start:end])
        return ({k: v for k, v in header.items() if k not in ("build_seconds", "elapsed")},
                raw[end:])
    return [line for line in raw.splitlines() if not line.startswith(b"# build_seconds=")]


class TestStageFiles:
    @pytest.mark.parametrize("run", FILE_RUNS)
    def test_a_fresh_out_holds_exactly_the_files_the_table_names(self, file_runs, run):
        out, cfg, record = file_runs[run]
        assert set(record["artifacts"]) == {role for files in pipeline._FILES.values()
                                            for role in files(cfg)}
        named = set().union(*(_entry_names(cfg, record, stage) for stage in pipeline._FILES))
        assert sorted(os.listdir(out)) == sorted(named | {"report.csv", "overlap.csv"})

    @pytest.mark.parametrize("run,stage,role,container", ENTRY_FILES, ids=[
        f"{run}:{stage}:{role}{'-container' if container else ''}"
        for run, stage, role, container in ENTRY_FILES])
    def test_each_file_of_an_entry_is_read(self, file_runs, tmp_path, run, stage, role,
                                           container):
        """Without any one file of its entry a stage is computed again,
        silently: every file of the entry is written anew, no other file but
        the run record is, and each holds what it held but for its seconds,
        timestamps and digest."""
        source, cfg, record = file_runs[run]
        out = tmp_path / "runs"
        shutil.copytree(source, out)
        cfg = dataclasses.replace(cfg, out_dir=str(out))
        run_pipeline(cfg)  # a copied out rewrites the record once, naming its own paths
        gone = out / os.path.basename(record["artifacts"][role])
        if container:
            gone = pathlib.Path(artifacts.container_for(str(gone)))
        before = _files(out)
        os.remove(gone)
        _, err = _quietly(cfg)
        assert err == []
        after = _files(out)
        assert sorted(after) == sorted(before)
        rewritten = {name for name in after if after[name] != before[name]}
        entry = _entry_names(cfg, record, stage)
        assert entry <= rewritten <= entry | {os.path.basename(record["artifacts"]["record"])}
        for name in after:
            assert _untimed(out / name) == _untimed(source / name), name


def _count_body_loads(monkeypatch) -> collections.Counter:
    """Calls from now on to the loaders of split and model bodies."""
    calls = collections.Counter()
    for owner, name in ((flowsel.dataset, "load_dataset"), (flowsel.random_forest, "load_forest"),
                        (flowsel.neural_net, "load_model")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **kw: (
            calls.update([_name]), _real(*a, **kw))[1])
    return calls


def _quietly(cfg):
    """The record of a run of ``cfg`` and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        record = run_pipeline(cfg)
    return record, err.getvalue().splitlines()


def _flip(path, data, body: bool):
    """Flip one byte of the container at ``path``, drawn in its arrays when
    ``body`` is true, else in its magic, lengths or header."""
    raw = bytearray(path.read_bytes())
    end = len(artifacts.MAGIC) + 8 + int.from_bytes(raw[len(artifacts.MAGIC):][:4], "little")
    at = data.draw(st.integers(end, len(raw) - 1) if body else st.integers(0, end - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    path.write_bytes(raw)


# (kind, model, the entry, a change whose run reads that entry's arrays)
BODIES = [
    ("dataset", "rf", lambda files: files["train"],
     {"forest": ForestConfig(n_trees=4, max_depth=8, seed=0)}),
    ("dataset", "rf", lambda files: files["test"],
     {"forest": ForestConfig(n_trees=4, max_depth=8, seed=0)}),
    ("forest", "rf", lambda files: files["model"], {"collapse": True}),
    ("mlp", "mlp", lambda files: files["model"], {"collapse": True}),
]
BODY_IDS = ["train-split", "test-split", "forest", "mlp"]


class TestBodiesOnFirstUse:
    @pytest.mark.parametrize("model", MODELS)
    def test_a_full_hit_reads_no_split_or_model_body(self, fixture_csv, tmp_path, monkeypatch,
                                                     model):
        csv_path, _ = fixture_csv
        cfg = quick_config(csv_path, tmp_path, method="ba", model=model)
        cold = run_pipeline(cfg)
        calls = _count_body_loads(monkeypatch)
        hit, err = _quietly(cfg)
        assert calls == {} and err == []
        assert comparable(hit) == comparable(cold)
        assert hit["timing"] == cold["timing"]

    @pytest.mark.parametrize("kind,model,entry,change", BODIES, ids=BODY_IDS)
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_a_flipped_array_byte_is_caught_by_the_run_that_reads_it(
            self, fixture_csv, cached_runs, tmp_path_factory, kind, model, entry, change, data):
        """A full hit reads no arrays, so it is silent.  The first run that
        reads them names the file in one stderr line and records what a
        fresh directory does; the run after it hits silently."""
        csv_path, _ = fixture_csv
        source, want = cached_runs[model]
        out = tmp_path_factory.mktemp("flip")
        shutil.copytree(source, out, dirs_exist_ok=True)
        path = out / os.path.basename(entry(want["artifacts"]))
        _flip(path, data, body=True)
        cfg = quick_config(csv_path, out, method="ba", model=model)
        hit, err = _quietly(cfg)
        assert err == [] and comparable(hit) == comparable(want)
        changed = dataclasses.replace(cfg, **change)
        (record, (line,)), (again, quiet) = _quietly(changed), _quietly(changed)
        assert line.startswith(f"warning: {path}: unreadable {kind} file (body checksum mismatch)")
        assert quiet == []
        fresh = run_pipeline(dataclasses.replace(changed, out_dir=str(out / "fresh")))
        assert comparable(record) == comparable(again) == comparable(fresh)

    @pytest.mark.parametrize("kind,model,entry", [b[:3] for b in BODIES], ids=BODY_IDS)
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_a_flipped_header_byte_is_caught_at_the_hit(
            self, fixture_csv, cached_runs, tmp_path_factory, kind, model, entry, data):
        csv_path, _ = fixture_csv
        source, want = cached_runs[model]
        out = tmp_path_factory.mktemp("flip")
        shutil.copytree(source, out, dirs_exist_ok=True)
        path = out / os.path.basename(entry(want["artifacts"]))
        _flip(path, data, body=False)
        record, (line,) = _quietly(quick_config(csv_path, out, method="ba", model=model))
        assert line.startswith(f"warning: {path}: unreadable {kind} file (")
        assert comparable(record) == comparable(want)


def fake_record(method, indices, universe=6):
    return {
        "methodology": f"cat.{method}.rf",
        "method": method,
        "feature_names": [f"f{i}" for i in range(universe)],
        "subset": {"k": len(indices), "indices": list(indices),
                   "cfs_merit": 0.5, "ig_sum": 0.4},
        "metrics": {"accuracy": 0.9, "precision": 0.8, "far": 0.1, "f1": 0.82},
        "timing": {"selection_seconds": 1.0, "build_seconds": 2.0},
    }


class TestCompareAndReports:
    def test_overlap_regions(self):
        records = [fake_record("ba", [0, 1, 2]), fake_record("rf-ig", [1, 2, 3])]
        rows, overlap = compare(records)
        assert rows[0]["time_s"] == 3.0
        regions = {r["methods"]: r["count"] for r in overlap}
        assert regions == {"ba": 1, "rf-ig": 1, "ba+rf-ig": 2}

    def test_region_counts_cover_the_union(self):
        records = [
            fake_record("ba", [0, 1, 2]),
            fake_record("ao", [2, 3]),
            fake_record("rf-ig", [1, 2, 5]),
        ]
        _, overlap = compare(records)
        assert sum(r["count"] for r in overlap) == len({0, 1, 2, 3, 5})

    def test_universe_mismatch(self):
        with pytest.raises(DataError, match="feature universe"):
            compare([fake_record("ba", [0]), fake_record("ao", [0], universe=4)])
        with pytest.raises(DataError, match="no run records"):
            compare([])

    def test_report_csv_blank_for_undefined(self, tmp_path):
        row = run_record_row(fake_record("ba", [0, 1]))
        row["f1"] = None
        path = str(tmp_path / "report.csv")
        write_report_csv([row], path)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("methodology,K,cfs,ig,time_s")
        assert lines[1].endswith(",")  # undefined f1 stays blank, not 0

    def test_rows_are_ordered_by_content(self, fixture_csv, tmp_path, monkeypatch):
        """Rows follow methodology, K and subset, not the hashed record
        names, so re-keyed caches give the same report, time_s aside."""
        csv_path, _ = fixture_csv
        runs = (["--method", "rf-ig", "--k", "3"], ["--method", "ba"], [],
                ["--model", "mlp", "--hidden", "8"], ["--method", "rf-ig", "--k", "2"])
        reports = []
        for salt in (0, 1):
            monkeypatch.setattr(artifacts, "VERSION", artifacts.VERSION + salt)
            out = str(tmp_path / f"salt{salt}")
            for flags in runs:
                assert main(["run", "--data", csv_path, "--out", out, "--trees", "4",
                             "--max-depth", "6", *flags]) == 0
            assert main(["report", "--out", out]) == 0
            header, *rows = open(os.path.join(out, "report.csv")).read().splitlines()
            drop = header.split(",").index("time_s")
            reports.append([[c for i, c in enumerate(r.split(",")) if i != drop] for r in rows])
        assert reports[0] == reports[1]
        order = [(r[0], int(r[1])) for r in reports[0]]
        assert order == sorted(order) and len(order) == len(runs)

    def test_overlap_csv(self, tmp_path):
        path = str(tmp_path / "overlap.csv")
        write_overlap_csv([{"methods": "ba+ao", "count": 4}], path)
        assert open(path).read() == "methods,count\nba+ao,4\n"


    def test_report_files_are_rewritten_only_when_their_bytes_change(self, tmp_path):
        path = str(tmp_path / "overlap.csv")
        write_overlap_csv([{"methods": "ba+ao", "count": 4}], path)
        stamp = os.stat(path)
        write_overlap_csv([{"methods": "ba+ao", "count": 4}], path)
        assert os.stat(path) == stamp
        write_overlap_csv([], path)  # a prefix of what the file holds
        assert open(path).read() == "methods,count\n"

    def test_a_second_report_leaves_its_files_alone(self, fixture_csv, tmp_path):
        """A report of unchanged records rewrites neither file; after a new
        run record both hold what a report of the same records in a fresh
        directory holds."""
        csv_path, _ = fixture_csv
        out = tmp_path / "runs"
        base = ["run", "--data", csv_path, "--out", str(out), "--trees", "3", "--max-depth", "5"]
        names = ("report.csv", "overlap.csv")

        def report(directory):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["report", "--out", str(directory)]) == 0
            return {name: _files(directory)[name] for name in names}

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(base) == 0
        first = report(out)
        assert report(out) == first
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*base, "--method", "rf-ig", "--k", "2"]) == 0
        second = report(out)
        assert all(second[name] != first[name] for name in names)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for record in out.glob("run_*.json"):
            shutil.copy(record, fresh)
        report(fresh)
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()


class TestDepthSweep:
    def test_marks_exactly_one_best(self, fixture_csv):
        csv_path, _ = fixture_csv
        data, _ = make_dataset(3, 3, 120, seed=2)
        rows = depth_sweep(data, [1, 4, 12], ForestConfig(n_trees=10, seed=1))
        assert [r["depth"] for r in rows] == [1, 4, 12]
        assert sum(r["best"] for r in rows) == 1
        best = max(rows, key=lambda r: r["oob_accuracy"])
        assert best["best"]

    def test_csv_format(self, tmp_path):
        rows = [{"depth": 2, "oob_accuracy": 0.75, "oob_skipped": 3,
                 "build_seconds": 0.5, "best": True}]
        path = str(tmp_path / "sweep.csv")
        write_depth_sweep_csv(rows, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "depth,oob_accuracy,oob_skipped,build_seconds,best"
        assert lines[1] == "2,0.75,3,0.5,1"


# written with a build time or the time of the run
TIMED_FILES = ("importance_", "model_", "run_", "report.csv")


def _run_outputs(out):
    """The files a run left in ``out``: bytes where they hold no timing,
    else the report without ``time_s`` and the records without timings."""
    files = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "report.csv":
            header, *rows = open(path).read().splitlines()
            drop = header.split(",").index("time_s")
            files[name] = [[c for i, c in enumerate(r.split(",")) if i != drop] for r in rows]
        elif name.startswith("run_"):
            files[name] = comparable(json.load(open(path)))
        elif not name.startswith(TIMED_FILES):
            files[name] = open(path, "rb").read()
        else:
            files[name] = None
    return files


def _in_fresh_process(argv):
    """Exit code and stdout of ``argv`` run by a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowsel.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "flowsel.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout


class TestCli:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_one_process_matches_fresh_processes(self, fixture_csv, tmp_path, capsys):
        """A usage error, a run and a report through the one shared parser
        give the exit codes, stdout and files that new processes give."""
        csv_path, _ = fixture_csv

        def commands(out):
            return [["run", "--data", csv_path, "--out", out, "--trees", "many"],
                    ["run", "--data", csv_path, "--out", out, "--trees", "4"],
                    ["report", "--out", out]]

        shared, fresh = str(tmp_path / "shared"), str(tmp_path / "fresh")
        seen = {}
        for side, out in (("shared", shared), ("fresh", fresh)):
            results = []
            for argv in commands(out):
                if side == "fresh":
                    code, stdout = _in_fresh_process(argv)
                else:
                    capsys.readouterr()
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    stdout = capsys.readouterr().out
                results.append((code, stdout.replace(out, "<out>")))
            seen[side] = results
        assert [code for code, _ in seen["shared"]] == [1, 0, 0]
        assert seen["shared"] == seen["fresh"]
        assert _run_outputs(shared) == _run_outputs(fresh)

    def test_report_skips_records_of_another_format(self, fixture_csv, tmp_path, capsys,
                                                    monkeypatch):
        """Runs cached under container version 1, then rerun into the same
        directory, report once each, with one line naming the skipped."""
        csv_path, _ = fixture_csv
        out = str(tmp_path / "runs")
        runs = (["--trees", "4"], ["--trees", "4", "--method", "rf-ig", "--k", "2"])
        current = artifacts.VERSION
        for version in (1, current):
            monkeypatch.setattr(artifacts, "VERSION", version)
            for flags in runs:
                assert main(["run", "--data", csv_path, "--out", out, *flags]) == 0
        assert len(list((tmp_path / "runs").glob("run_*.json"))) == 2 * len(runs)
        capsys.readouterr()
        assert main(["report", "--out", out]) == 0
        captured = capsys.readouterr()
        assert f"({len(runs)} rows)" in captured.out
        assert captured.err.splitlines() == [
            f"warning: skipped {len(runs)} run record(s) under {out} from another cache "
            f"format than {current}; rerun those runs to report them"]
        rows = open(os.path.join(out, "report.csv")).read().splitlines()[1:]
        assert len(rows) == len(runs)
        assert [r["format"] for r in load_records(out)] == [current] * len(runs)

    def test_records_without_a_format_are_skipped(self, fixture_csv, tmp_path, capsys):
        """A record written before records named their format is stale too."""
        csv_path, _ = fixture_csv
        out = tmp_path / "runs"
        assert main(["run", "--data", csv_path, "--out", str(out), "--trees", "3"]) == 0
        (path,) = out.glob("run_*.json")
        record = json.loads(path.read_text())
        del record["format"]
        path.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: skipped 1 run record(s) under {out} from another cache format "
            f"than {artifacts.VERSION}; rerun those runs to report them",
            f"error: no run records under {out}"]

    def test_synth_and_run_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        assert main(["synth", "--out", out, "--stem", "flows", "--rows", "120",
                     "--informative", "3", "--noise", "3", "--seed", "2"]) == 0
        csv_path = os.path.join(out, "flows.csv")
        base = ["--data", csv_path, "--out", out, "--trees", "10", "--max-depth", "8"]
        assert main(["run", *base]) == 0
        assert main(["run", *base, "--method", "rf-ig", "--k", "3"]) == 0
        assert main(["report", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "report.csv"))
        assert os.path.exists(os.path.join(out, "overlap.csv"))
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert len(lines) == 3  # header + two runs
        assert len(load_records(out)) == 2

    def test_each_trained_model_keeps_its_record(self, fixture_csv, tmp_path):
        """Runs that differ only in the forest or the MLP are four models
        and four report rows, not two overwritten records."""
        csv_path, _ = fixture_csv
        out = str(tmp_path / "runs")
        base = ["--data", csv_path, "--out", out, "--max-depth", "6"]
        for flags in (["--trees", "2"], ["--trees", "3"],
                      ["--model", "mlp", "--hidden", "8"], ["--model", "mlp", "--hidden", "16"]):
            assert main(["run", *base, *flags]) == 0
        assert main(["report", "--out", out]) == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert len(lines) == 5  # header + four runs

    def test_text_identifier_columns_are_dropped_unparsed(self, fixture_csv, tmp_path):
        """CIC day files carry text flow ids, addresses and timestamps; they
        are dropped by name before any cell is parsed, so the file splits
        exactly like a twin whose identifier columns are numbers."""
        csv_path, _ = fixture_csv
        header, *rows = open(csv_path).read().splitlines()
        twins = {
            "text": lambda i: f"10.0.0.{i}-172.16.0.1-{i}-80-6,10.0.0.{i},02/03/2018 08:47:{i % 60:02d}",
            "numeric": lambda i: f"{i},{i * 7},{i * 13}",
        }
        splits = {}
        for name, ids in twins.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(
                ["Flow ID,Src IP,Timestamp," + header]
                + [f"{ids(i)},{row}" for i, row in enumerate(rows)]) + "\n")
            out = tmp_path / name
            assert main(["preprocess", "--data", str(path), "--out", str(out)]) == 0
            (report,) = out.glob("preprocess_*.json")
            assert json.load(open(report))["columns_dropped_named"] == [
                "Flow ID", "Src IP", "Timestamp"]
            splits[name] = [load_dataset(str(p)) for p in sorted(out.glob("clean_*.ds"))]
        for text, numeric in zip(splits["text"], splits["numeric"]):
            assert text.feature_names == numeric.feature_names
            np.testing.assert_array_equal(text.features, numeric.features)
            np.testing.assert_array_equal(text.labels_cat, numeric.labels_cat)
        assert len(splits["text"]) == 2

    def test_unreadable_run_record_exits_2(self, fixture_csv, tmp_path, capsys):
        """A cut run record is one error line naming it, not a traceback."""
        csv_path, _ = fixture_csv
        out = tmp_path / "runs"
        assert main(["run", "--data", csv_path, "--out", str(out), "--trees", "3"]) == 0
        (record,) = out.glob("run_*.json")
        record.write_bytes(record.read_bytes()[:100])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {record}: unreadable run record (")

    @pytest.mark.parametrize("command,target,line", [
        (["report"], "file", "not a directory; pass the --out of earlier runs"),
        (["report"], "missing", "no such directory; pass the --out of earlier runs"),
        (["run", "--trees", "3"], "file", "not a directory; pass a directory"),
        (["run", "--trees", "3"], "file/runs", "not a directory; pass a directory"),
        (["preprocess"], "file", "not a directory; pass a directory"),
        (["synth"], "file", "not a directory; pass a directory"),
    ], ids=["report-file", "report-missing", "run-file", "run-under-file", "preprocess-file",
            "synth-file"])
    def test_an_out_that_is_no_directory_exits_2(self, fixture_csv, tmp_path, capsys,
                                                 command, target, line):
        """One line that names the path and says what to pass, not a
        traceback or a bare OSError."""
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path / target
        data = ["--data", fixture_csv[0]] if command[0] in ("run", "preprocess") else []
        assert main([*command, *data, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --out {out}: {line}"]
        assert (tmp_path / "file").read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["file"]

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_a_repeated_input_exits_1(self, fixture_csv, tmp_path, capsys):
        """A file given twice would put each of its rows on both sides of
        the split; any spelling of the same file counts."""
        csv_path, _ = fixture_csv
        link = tmp_path / "link.csv"
        link.symlink_to(csv_path)
        spelled = os.path.join(os.path.dirname(csv_path), ".", os.path.basename(csv_path))
        out = str(tmp_path / "runs")
        for second, line in ((csv_path, f"input {csv_path} is given twice"),
                             (spelled, f"input {spelled} is the same file as {csv_path}"),
                             (str(link), f"input {link} is the same file as {csv_path}")):
            assert main(["correlate", "--data", csv_path, second, "--out", out]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {line}; give each input file once"]
        assert not os.path.exists(out)

    def test_header_only_input_exits_2_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b,Label\n")
        for command in ("preprocess", "correlate"):
            code = main([command, "--data", str(empty), "--out", str(tmp_path / "runs")])
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: {empty}: no data rows below the header; "
                "give input files that hold flows"]

    def test_alias_subcommands_are_gone(self, capsys):
        """`run` trains and scores; `train` and `evaluate` are not commands."""
        for command in ("train", "evaluate"):
            with pytest.raises(SystemExit) as err:
                main([command, "--data", "flows.csv"])
            assert err.value.code == 1
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", ["1", "-1"])
    def test_out_of_range_setting_exits_1(self, tmp_path, capsys, epochs):
        """An aquila search of one epoch would divide by (1 - t_max)^2 = 0; it
        and a negative epoch count are usage errors with one message line."""
        out = str(tmp_path / "runs")
        main(["synth", "--out", out, "--stem", "flows", "--rows", "60",
              "--informative", "2", "--noise", "2", "--seed", "3"])
        capsys.readouterr()
        code = main(["select", "--data", os.path.join(out, "flows.csv"), "--out", out,
                     "--method", "ao", "--aquila-epochs", epochs])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: bad aquila setting: t_max")
        assert lines[0].endswith(f"got {epochs}")

    @pytest.mark.parametrize("flags,ini,line", [
        (["--ratio", "1.5"], "", "bad split setting: ratio must be in (0, 1), got 1.5"),
        (["--ratio", "0"], "", "bad split setting: ratio must be in (0, 1), got 0.0"),
        ([], "[split]\nratio = 1.0\n", "bad split setting: ratio must be in (0, 1), got 1.0"),
        (["--method", "rf-ig", "--k", "0"], "", "bad run setting: k must be at least 1, got 0"),
        (["--method", "rf-ig"], "[run]\nk = -2\n",
         "bad run setting: k must be at least 1, got -2"),
    ], ids=["ratio-above", "ratio-zero", "ratio-file", "k-zero", "k-file"])
    def test_out_of_range_ratio_or_k_exits_1(self, tmp_path, capsys, flags, ini, line):
        """A split ratio outside (0, 1) or a subset size below 1, from a flag
        or the config file, is a usage error of one line, given before any
        input is read or any file written."""
        config = tmp_path / "exp.ini"
        config.write_text(ini)
        out = tmp_path / "runs"
        code = main(["run", "--data", str(tmp_path / "unread.csv"), "--out", str(out),
                     "--config", str(config), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]
        assert not out.exists()

    def test_data_error_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        assert main(["run", "--out", out]) == 2  # no input data
        assert main(["run", "--data", str(tmp_path / "ghost.csv"), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("command", ["preprocess", "correlate", "select", "run",
                                         "sweep-depth"])
    def test_no_input_files_exits_2(self, tmp_path, capsys, command):
        """Every command that reads the input files, given none, exits 2
        with one line pointing at --data, and writes nothing."""
        out = tmp_path / "runs"
        assert main([command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: no input data files given (use --data)"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correlate", "run"])
    def test_a_missing_input_exits_2_naming_it(self, fixture_csv, tmp_path, capsys, command):
        """Inputs are keyed before any stage opens them; a missing one is one
        line that names it and points at --data, not a bare OSError."""
        missing = tmp_path / "missing.csv"
        code = main([command, "--data", fixture_csv[0], str(missing),
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert f"cannot open input file {missing}: " in line
        assert line.endswith("; check --data")

    @pytest.mark.parametrize("text,line", [
        (b"a,caf\xe9,Label\n1,2,x\n", 1),
        (b"a,b,Label\n1,2,x\n3,4,caf\xe9\n", 3),
    ], ids=["header", "row"])
    def test_non_utf8_csv_exits_2(self, tmp_path, capsys, text, line):
        """A Latin-1 byte ends in one error line naming the file and line,
        not a UnicodeDecodeError traceback."""
        csv_path = tmp_path / "latin.csv"
        csv_path.write_bytes(text)
        code = main(["preprocess", "--data", str(csv_path), "--out", str(tmp_path / "runs")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {csv_path}:{line}: not UTF-8 text")
        assert lines[0].endswith("re-save the file as UTF-8")

    def test_numeric_error_exits_3(self, tmp_path, capsys):
        """A forest that cannot split anywhere has no defined importance."""
        out = str(tmp_path / "runs")
        main(["synth", "--out", out, "--stem", "flows", "--rows", "60",
              "--informative", "2", "--noise", "2", "--seed", "4"])
        csv_path = os.path.join(out, "flows.csv")
        code = main(["run", "--data", csv_path, "--out", out,
                     "--trees", "5", "--min-node-size", "100000"])
        assert code == 3
        assert "importance" in capsys.readouterr().err

    def test_subcommands_read_split_bodies_only_to_compute(self, fixture_csv, tmp_path,
                                                           monkeypatch, capsys):
        """``preprocess`` on a hit prints its rows, features and classes from
        the split headers; ``correlate`` and ``select`` on a hit read no
        split; a binary ``correlate`` and ``sweep-depth`` read the training
        split once each, to compute."""
        csv_path, _ = fixture_csv
        base = ["--data", csv_path, "--out", str(tmp_path / "runs")]
        select = ["select", *base, "--method", "ba", "--trees", "3"]
        assert main(["preprocess", *base]) == 0
        cold = capsys.readouterr().out
        assert main(select) == 0
        capsys.readouterr()
        calls = _count_body_loads(monkeypatch)
        assert main(["preprocess", *base]) == 0
        assert capsys.readouterr().out == cold
        assert main(["correlate", *base]) == 0
        assert main(select) == 0
        assert calls == {}
        assert main(["correlate", *base, "--binary"]) == 0
        assert calls == {"load_dataset": 1}
        assert main(["sweep-depth", *base, "--depths", "2", "--trees", "3"]) == 0
        assert calls == {"load_dataset": 2}

    def test_select_command_prints_the_subset(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        main(["synth", "--out", out, "--stem", "flows", "--rows", "100",
              "--informative", "2", "--noise", "2", "--seed", "6"])
        csv_path = os.path.join(out, "flows.csv")
        code = main(["select", "--data", csv_path, "--out", out, "--method",
                     "brute", "--trees", "10"])
        assert code == 0
        text = capsys.readouterr().out
        assert "selected" in text and "merit" in text

    def test_sweep_depth_command(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        main(["synth", "--out", out, "--stem", "flows", "--rows", "80",
              "--informative", "2", "--noise", "1", "--seed", "8"])
        csv_path = os.path.join(out, "flows.csv")
        code = main(["sweep-depth", "--data", csv_path, "--out", out,
                     "--depths", "2,6", "--trees", "8"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "depth_sweep.csv"))
        assert main(["sweep-depth", "--data", csv_path, "--out", out,
                     "--depths", "two"]) == 2

    def test_config_file_sits_between_defaults_and_flags(self, tmp_path):
        from flowsel.cli import build_config

        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[run]\nseed = 4\nmethod = ba\n\n"
            "[forest]\nn_trees = 33\n\n"
            "[bat]\nn = 44\n\n"
            "[mlp]\nhidden_sizes = 12,6\n"
        )
        args = build_parser().parse_args(
            ["run", "--config", str(ini), "--seed", "9", "--data", "x.csv"]
        )
        cfg = build_config(args)
        assert cfg.seed == 9  # flag beats file
        assert cfg.method == "ba"  # file beats default
        assert cfg.forest.n_trees == 33
        assert cfg.bat.n == 44
        assert cfg.mlp.hidden_sizes == (12, 6)
        assert cfg.ratio == 0.5  # untouched default

    @pytest.mark.parametrize("section,key,value", [("bat", "n", "many"),
                                                   ("split", "ratio", "half")])
    def test_bad_config_file_value_exits_2(self, tmp_path, capsys, section, key, value):
        """A config value that does not convert is a data error with one
        message line naming the key and the file, not a traceback."""
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["select", "--config", str(ini), "--data", "x.csv",
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {ini}: bad value for {section}.{key}: ")
        assert repr(value) in lines[0]

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--data", "x.csv"]) == 2
