"""Experiment orchestration with content-addressed stage artifacts.

Every stage derives a short hash from what it reads (the settings named
in ``_READS``, the keys of the stages before it, and the bytes of the
input files) and writes its artifacts under that hash; rerunning with the
same inputs and settings finds and reuses them unless forced.  One master
seed fans out to per-stage seeds, so a whole run is reproducible from a
single number, and the seeds each stage actually used are recorded in the
run's JSON record.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import artifacts, correlation, dataset, metrics, neural_net, random_forest, subset_search
from .errors import DataError, PipelineError

METHODS = ("full", "ba", "ao", "rf-ig", "brute")
MODELS = ("rf", "mlp")
MODES = ("categorical", "binary")
AVERAGINGS = ("micro", "macro", "weighted")

REPORT_COLUMNS = (
    "methodology", "K", "cfs", "ig", "time_s",
    "accuracy", "precision", "far", "f1",
)

_STAGE_IDS = {"split": 0, "select": 1, "train": 2, "importance": 3}


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, nested model configs included.

    Stage seeds are derived from ``seed``; the seed fields inside the
    nested configs are placeholders that the pipeline overwrites.
    """

    data_paths: tuple[str, ...] = ()
    label_column: str = "Label"
    benign: str = "Benign"
    grouping: str | None = None  # None, "default", or a JSON file path
    drop_columns: tuple[str, ...] = dataset.DEFAULT_DROP_COLUMNS

    ratio: float = 0.5
    stratified: bool = False
    normalize_before_split: bool = False

    mode: str = "categorical"
    method: str = "full"
    model: str = "rf"
    averaging: str = "macro"
    collapse: bool = False  # score a categorical model as a binary detector
    k: int | None = None  # rf-ig subset size

    seed: int = 0
    out_dir: str = "runs"
    force: bool = False

    bat: subset_search.BatConfig = field(default_factory=subset_search.BatConfig)
    aquila: subset_search.AquilaConfig = field(default_factory=subset_search.AquilaConfig)
    forest: random_forest.ForestConfig = field(default_factory=random_forest.ForestConfig)
    mlp: neural_net.MlpConfig = field(default_factory=neural_net.MlpConfig)

    def validated(self) -> "ExperimentConfig":
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r}; pick one of {MODELS}")
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.averaging not in AVERAGINGS:
            raise DataError(f"unknown averaging {self.averaging!r}")
        if self.method == "rf-ig" and self.k is None:
            raise DataError("method rf-ig needs an explicit subset size k")
        if self.collapse and self.mode != "categorical":
            raise DataError("collapse only applies to categorical runs")
        if not self.data_paths:
            raise DataError("no input data files given")
        return self


@functools.lru_cache(maxsize=256)
def stage_seed(master: int, stage: str) -> int:
    """Derive a stage's seed from the master seed, stable across runs;
    memoised, since one run derives each seed many times."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(_STAGE_IDS[stage],))
    return int(ss.generate_state(1)[0])


def seeded(cfg: ExperimentConfig, part: str, stage: str):
    """The nested config ``part`` of ``cfg`` (bat, aquila, forest or mlp)
    with the seed ``stage`` derives from the master seed."""
    return dataclasses.replace(getattr(cfg, part), seed=stage_seed(cfg.seed, stage))


def load_grouping(spec: str | None) -> dict | None:
    """Resolve the grouping argument: None, the packaged default, or a file."""
    if spec is None:
        return None
    if spec == "default":
        text = resources.files("flowsel").joinpath("data/cic2018_grouping.json").read_text()
        return json.loads(text)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open grouping file {spec}: {exc}") from exc


# ---------------------------------------------------------------------------
# stage keys

# What each stage reads: the stages whose keys it chains on, then the
# ExperimentConfig fields, some only under one method, model or mode
# (``<stage>_seed`` is a derived seed, ``subset`` the trained indices).  A
# key hashes exactly these, so only a setting its stage reads splits it.
_READS = {
    "preprocess": lambda c: ("data_paths", "label_column", "benign", "grouping",
                             "drop_columns", "ratio", "stratified",
                             "normalize_before_split", "split_seed"),
    "correlate": lambda c: ("preprocess", "mode"),
    "importance": lambda c: ("preprocess", "mode", "forest", "importance_seed"),
    "select": lambda c: ("correlate", "method", *{"ba": ("bat", "select_seed"),
                                                  "ao": ("aquila", "select_seed"),
                                                  "rf-ig": ("k", "importance")}.get(c.method, ())),
    "train": lambda c: ("preprocess", "mode", "subset", "model",
                        "forest" if c.model == "rf" else "mlp", "train_seed"),
    # the counts, collapsed or not; the averaging only scores them
    "evaluate": lambda c: ("train", "collapse"),
    # the record's ig_sum reads the importance forest, whatever the model
    "run": lambda c: ("select", "train", "importance", "seed", "collapse",
                      *(("averaging",) if c.mode == "categorical" and not c.collapse else ())),
}

# A stage whose output changes for the same reads is given a revision, which
# its key, and so every key chained on it, hashes: no entry cached before
# the change is served.  preprocess 1: prepare_splits folds each column's
# bounds over its rows in file order, so a zero bound may have another sign
# than in a split cached before it did.
_REVISIONS = {"preprocess": 1}

# The files of each stage's cache entry, by the role its ``artifacts`` and a
# run record name them under; ``{}`` is the stage key.  A role only some
# runs write is there only for them.  The exports in _CONTAINED have a
# container beside them, from which a hit loads.
_FILES = {
    "preprocess": lambda c: {"train": "clean_{}.train.ds", "test": "clean_{}.test.ds",
                             "report": "preprocess_{}.json"},
    "correlate": lambda c: {"heatmap": "corr_{}.csv"},
    "importance": lambda c: {"importance": "importance_{}.csv"},
    "select": lambda c: {"subset": "subset_{}.txt",
                         **({"trace": "trace_{}.csv"} if c.method in ("ba", "ao", "brute")
                            else {})},
    "train": lambda c: {"model": "model_{}.bin",
                        **({"loss_trace": "loss_{}.csv"} if c.model == "mlp" else {})},
    "evaluate": lambda c: {"confusion": "cm_{}.csv"},
    "run": lambda c: {"record": "run_{}.json"},
}
_CONTAINED = frozenset({"heatmap", "importance", "subset", "confusion"})


def _read(cfg: ExperimentConfig, name: str, subset) -> object:
    """The value of one of a stage's reads, as its key hashes it."""
    if name.endswith("_seed"):
        return stage_seed(cfg.seed, name[:-len("_seed")])
    if name == "subset":
        return [int(i) for i in subset.indices]
    value = getattr(cfg, name)
    if name == "data_paths":
        return [_input_fingerprint(path) for path in value]
    if name == "grouping":
        return load_grouping(value)
    if dataclasses.is_dataclass(value):  # seeds are stage seeds; workers share out work
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
                if f.name not in ("seed", "n_workers")}
    return value


def stage_key(cfg: ExperimentConfig, stage: str, subset=None, keys: dict | None = None) -> str:
    """The cache key of a stage in ``_READS``; each key it chains on is
    computed once.  ``keys`` maps the stages already keyed for this config
    and subset to their keys, and gains the ones computed here: one run
    passes the same dict to every stage, so it keys each stage once."""
    keys = {} if keys is None else keys

    def key(name):
        if name not in keys:
            reads = {r: key(r) if r in _READS else _read(cfg, r, subset)
                     for r in _READS[name](cfg)}
            reads["format"] = artifacts.VERSION  # a new layout re-keys every stage
            if name in _REVISIONS:
                reads["revision"] = _REVISIONS[name]
            text = json.dumps(reads, sort_keys=True)
            keys[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        return keys[name]

    return key(stage)


def _input_fingerprint(path: str) -> list:
    """An input's size and the sha256 of its bytes.  The bytes are hashed
    again only when the file's device, inode, size or times change."""
    try:
        st = os.stat(path)
    except OSError as exc:
        raise DataError(f"cannot open input file {path}: {exc.strerror}; check --data") from None
    if not stat.S_ISREG(st.st_mode):
        raise DataError(f"{path}: not a regular file; inputs are cached by their "
                        "bytes, so save it to a file first")
    return [st.st_size, _file_sha256(path, st.st_dev, st.st_ino, st.st_size,
                                     st.st_mtime_ns, st.st_ctime_ns)]


@functools.lru_cache(maxsize=64)
def _file_sha256(path: str, *identity: int) -> str:
    """The sha256 of a file's bytes, streamed; memoised on its stat identity,
    since one process keys the same inputs at every stage of every run."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# stages


def _recomputing(exc: DataError) -> None:
    print(f"warning: {exc}; recomputing it", file=sys.stderr)


def _bad_out(path: str, exc: OSError, advice: str) -> DataError:
    """The DataError for an ``--out`` that cannot serve as the directory."""
    if isinstance(exc, (FileExistsError, NotADirectoryError)):
        why = "not a directory"
    elif isinstance(exc, FileNotFoundError):
        why = "no such directory"
    else:
        why = exc.strerror
    return DataError(f"--out {path}: {why}; {advice}")


def make_out_dir(path: str) -> None:
    """Create the artifact directory ``path`` unless it exists; a path that
    cannot be one is a DataError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _bad_out(path, exc, "pass a directory") from None


def _stage_files(cfg: ExperimentConfig, stage: str, subset=None, keys: dict | None = None) -> dict:
    """The paths of the files _FILES gives ``stage`` under its key, by role."""
    key, out = stage_key(cfg, stage, subset, keys), os.path.join(cfg.out_dir, "")
    return {role: out + name.format(key) for role, name in _FILES[stage](cfg).items()}


def _run_stage(cfg: ExperimentConfig, stage: str, load, compute, subset=None,
               keys: dict | None = None):
    """Run ``stage`` through its cache entry, its files and the container
    beside each export: ``(load(files), files)`` when all exist and ``load``
    reads them, else ``(compute(files), files)``, and ``compute`` writes
    them.  An unreadable entry is named in one stderr line and recomputed."""
    files = _stage_files(cfg, stage, subset, keys)
    entry = [*files.values(), *[artifacts.container_for(files[role])
                                for role in files if role in _CONTAINED]]
    if not cfg.force and all(os.path.exists(path) for path in entry):
        try:
            return load(files), files
        except DataError as exc:
            _recomputing(exc)
    return compute(files), files


class _OnFirstUse:
    """A cache hit known by its container's header until more is needed.

    The attributes in ``known`` were read from a header that passed its
    checks.  Any other attribute loads the entry with ``load()``, which
    checks the arrays' checksum, on first use.  An entry that fails there
    is named in one stderr line and ``recompute()`` takes its place, as an
    unreadable entry does on a hit."""

    def __init__(self, load, recompute, known: dict):
        self._load, self._recompute, self._known = load, recompute, known
        self._value = None

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._known:
            return self._known[name]
        if self._value is None:
            try:
                self._value = self._load()
            except DataError as exc:
                _recomputing(exc)
                self._value = self._recompute()
                self._known = {}  # a model trained again has its own build time
        return getattr(self._value, name)


def preprocess_stage(cfg: ExperimentConfig,
                     keys: dict | None = None) -> tuple[dataset.SplitPair, dict]:
    """Load, clean, and split the input; cached as two dataset files.  A
    hit reads only their headers; each split loads on first use.  A miss
    writes the test split as it makes it and returns the training split
    it computed, with the test split read back on first use, as on a hit.
    A test container that fails then is computed and written again.
    ``keys``, here and in every stage, is the run's memo of stage keys, as
    ``stage_key`` takes it."""
    make_out_dir(cfg.out_dir)
    seed = stage_seed(cfg.seed, "split")

    def compute(files) -> dataset.Dataset:
        # Day files may disagree only on columns we drop anyway.  The parsed
        # table becomes the training split (prepare_splits takes its array
        # over), so nothing here keeps another reference to it.
        train, report = dataset.prepare_splits(
            dataset.load_csv(cfg.data_paths, cfg.label_column, cfg.drop_columns),
            benign=cfg.benign,
            grouping=load_grouping(cfg.grouping),
            ratio=cfg.ratio,
            seed=seed,
            stratified=cfg.stratified,
            normalize_before_split=cfg.normalize_before_split,
            drop_columns=cfg.drop_columns,
            test_path=files["test"],
        )
        dataset.save_dataset(train, files["train"])
        artifacts.write_atomic(files["report"],
                               json.dumps(report, indent=2, sort_keys=True) + "\n")
        return train

    def stored(files, split: str) -> _OnFirstUse:
        def recompute() -> dataset.Dataset:
            train = compute(files)
            return train if split == "train" else dataset.load_dataset(path)

        path = files[split]
        return _OnFirstUse(lambda: dataset.load_dataset(path), recompute,
                           dataset.load_dataset_header(path))

    splits, files = _run_stage(cfg, "preprocess",
                               lambda files: (stored(files, "train"), stored(files, "test")),
                               lambda files: (compute(files), stored(files, "test")), keys=keys)
    return dataset.SplitPair(*splits, seed=seed, ratio=cfg.ratio), files


def correlate_stage(cfg: ExperimentConfig, pair: dataset.SplitPair, keys: dict | None = None):
    """Spearman matrix over the training partition, cached as a container
    beside its heatmap CSV."""
    def compute(files):
        class_cols, class_names = dataset.class_indicator_columns(
            pair.train, binary=cfg.mode == "binary"
        )
        corr = correlation.spearman_matrix(
            pair.train.features, class_cols, pair.train.feature_names, class_names
        )
        correlation.export_heatmap(corr, files["heatmap"])
        return corr

    return _run_stage(cfg, "correlate", lambda files: correlation.load_heatmap(files["heatmap"]),
                      compute, keys=keys)


def train_view(cfg: ExperimentConfig, pair: dataset.SplitPair) -> dataset.Dataset:
    """The training split as ``cfg.mode`` labels it."""
    if cfg.mode == "binary":
        return dataset.binary_view(pair.train, cfg.benign)
    return pair.train


def importance_stage(cfg: ExperimentConfig, pair: dataset.SplitPair, keys: dict | None = None):
    """Full-feature forest importances, cached as a container beside a
    sorted CSV.

    Used both to drive rf-ig selection and to report the importance mass a
    subset captures.
    """
    names = pair.train.feature_names

    def compute(files):
        forest = random_forest.train_forest(train_view(cfg, pair),
                                            seeded(cfg, "forest", "importance"))
        save_importance(forest, names, files["importance"])
        return forest.importances, forest.build_seconds

    (importances, seconds), files = _run_stage(
        cfg, "importance", lambda files: load_importance(files["importance"], names), compute,
        keys=keys)
    return importances, seconds, files


def save_importance(forest: random_forest.TrainedForest, feature_names, path: str) -> None:
    """The importances as a CSV at ``path``, largest first under a
    ``# key=value`` block, and as a container beside it."""
    lines = [
        f"# seed={forest.config.seed}",
        f"# n_trees={forest.config.n_trees}",
        f"# max_depth={forest.config.max_depth}",
        f"# oob_accuracy={forest.oob_accuracy!r}",
        f"# oob_skipped={forest.oob_skipped}",
        f"# build_seconds={forest.build_seconds!r}",
        "feature,importance",
    ]
    for i in np.argsort(-forest.importances, kind="stable"):
        lines.append(f"{feature_names[i]},{float(forest.importances[i])!r}")
    artifacts.write_atomic(path, "\n".join(lines) + "\n")
    artifacts.save(artifacts.container_for(path), "importance",
                   {"importances": forest.importances},
                   feature_names=list(feature_names), build_seconds=forest.build_seconds)


def load_importance(path: str, feature_names) -> tuple[np.ndarray, float]:
    """The importances, in feature order, and the build seconds of the
    forest save_importance wrote for ``path``."""
    def decode(header, arrays):
        if header["feature_names"] != list(feature_names):
            raise ValueError("saved for other features")
        return arrays["importances"], float(header["build_seconds"])

    return artifacts.load(artifacts.container_for(path), "importance", decode)


def _search(cfg: ExperimentConfig, corr, n_features: int, importances, importance_seconds):
    """The configured method's subset indices, seconds and search result."""
    if cfg.method == "full":
        return tuple(range(n_features)), 0.0, None
    if cfg.method == "ba":
        result = subset_search.bat_run(corr, seeded(cfg, "bat", "select"))
    elif cfg.method == "ao":
        result = subset_search.aquila_run(corr, seeded(cfg, "aquila", "select"))
    elif cfg.method == "brute":
        result = subset_search.brute_force_best(corr)
    else:  # rf-ig
        if importances is None:
            raise DataError("rf-ig selection needs importances")
        return random_forest.select_top_k(importances, cfg.k).indices, importance_seconds, None
    return result.best.indices, result.elapsed, result


def select_stage(cfg: ExperimentConfig, corr, pair: dataset.SplitPair,
                 importances=None, importance_seconds: float = 0.0, keys: dict | None = None):
    """Produce the feature subset for the configured method.

    Returns (subset, selection_seconds, artifacts).  Selection time for
    rf-ig is the importance forest's build time, since that forest is the
    selector.  Scores are computed afresh, also on a cache hit.
    """
    names = pair.train.feature_names

    def load(files):
        subset, fields = subset_search.load_subset(files["subset"], names)
        return subset.indices, float(fields["elapsed"])

    def compute(files):
        indices, elapsed, trace = _search(cfg, corr, len(names), importances, importance_seconds)
        subset_search.save_subset(subset_search.FeatureSubset(indices), names, files["subset"],
                                  method=cfg.method, seed=stage_seed(cfg.seed, "select"),
                                  elapsed=elapsed)
        if trace is not None:
            subset_search.save_trace(trace, files["trace"])
        return indices, elapsed

    (indices, elapsed), files = _run_stage(cfg, "select", load, compute, keys=keys)
    subset = subset_search.FeatureSubset(
        indices,
        cfs=correlation.cfs_merit(corr, indices),
        ig=correlation.ig_sum(importances, indices) if importances is not None else None,
    )
    return subset, elapsed, files


def _slice_features(cfg: ExperimentConfig, data: dataset.Dataset,
                    subset: subset_search.FeatureSubset) -> dataset.Dataset:
    """The columns ``subset`` of ``data``, as ``cfg.model`` is given them.

    A forest reads every column of the split itself: it gathers its own
    blocks and routes its rows wherever the values lie.  Any other subset,
    and any subset for an MLP, is a copy, since an MLP's products can
    differ in their last bits with the layout of their operands."""
    idx = list(subset.indices)
    if cfg.model == "rf" and idx == list(range(len(data.feature_names))):
        return data
    return dataset.Dataset(
        data.features[:, idx],
        tuple(data.feature_names[i] for i in idx),
        data.labels_cat,
        data.labels_bin,
        data.class_names,
    )


def train_stage(cfg: ExperimentConfig, pair: dataset.SplitPair,
                subset: subset_search.FeatureSubset, keys: dict | None = None):
    """Fit the configured model on the selected features; cached on disk.
    A hit reads only the model's header; the model loads on first use."""
    def compute(files):
        features = _slice_features(cfg, train_view(cfg, pair), subset)
        if cfg.model == "rf":
            model = random_forest.train_forest(features, seeded(cfg, "forest", "train"))
            random_forest.save_forest(model, files["model"])
        else:
            head = "binary" if cfg.mode == "binary" else "categorical"
            model = neural_net.train(features, seeded(cfg, "mlp", "train"), head=head)
            neural_net.save_model(model, files["model"])
            neural_net.save_loss_trace(model, files["loss_trace"])
        return model

    if cfg.model == "rf":
        load, load_header = random_forest.load_forest, random_forest.load_forest_header
    else:
        load, load_header = neural_net.load_model, neural_net.load_model_header

    def stored(files) -> _OnFirstUse:
        path = files["model"]
        return _OnFirstUse(lambda: load(path), lambda: compute(files), load_header(path))

    return _run_stage(cfg, "train", stored, compute, subset, keys)


def _predict(cfg: ExperimentConfig, model, features) -> np.ndarray:
    if cfg.model == "rf":
        return random_forest.predict(model, features)
    return neural_net.predict(model, features)


def _scored_binary(cfg: ExperimentConfig) -> bool:
    return cfg.mode == "binary" or cfg.collapse


def evaluate_stage(cfg: ExperimentConfig, model, pair: dataset.SplitPair,
                   subset: subset_search.FeatureSubset, keys: dict | None = None):
    """Metric report for the configured view, scored from the test-set
    confusion matrix.

    The counts, collapsed when ``collapse`` asks, are cached as a container
    beside their CSV; the report is scored from them whenever the run
    record is written, so the averaging does not key them."""
    def compute(files):
        test_view = _slice_features(
            cfg, dataset.binary_view(pair.test, cfg.benign) if cfg.mode == "binary" else pair.test,
            subset,
        )
        preds = _predict(cfg, model, test_view.features)
        cm = metrics.confusion(test_view.labels_cat, preds, test_view.class_names)
        if cfg.collapse:
            cm = metrics.collapse_to_binary(cm, cfg.benign)
        metrics.save_confusion(cm, files["confusion"])
        return cm

    cm, files = _run_stage(cfg, "evaluate",
                           lambda files: metrics.load_confusion(files["confusion"]),
                           compute, subset, keys)
    if _scored_binary(cfg):
        report = metrics.binary_metrics(cm, positive="attack")
    else:
        report = metrics.multiclass_metrics(cm, cfg.averaging)
    return report, files


# ---------------------------------------------------------------------------
# run records and reports


def _methodology(cfg: ExperimentConfig) -> str:
    mode = "bi" if _scored_binary(cfg) else "cat"
    return f"{mode}.{cfg.method}.{cfg.model}"


def _report_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_record_row(record: dict) -> dict:
    """The report-table row derived from one run record."""
    m = record["metrics"]
    return {
        "methodology": record["methodology"],
        "K": record["subset"]["k"],
        "cfs": record["subset"]["cfs_merit"],
        "ig": record["subset"]["ig_sum"],
        "time_s": record["timing"]["selection_seconds"] + record["timing"]["build_seconds"],
        "accuracy": m["accuracy"],
        "precision": m["precision"],
        "far": m["far"],
        "f1": m["f1"],
    }


def write_report_csv(rows: list[dict], path: str) -> None:
    lines = [",".join(REPORT_COLUMNS)]
    lines += [",".join(_report_value(row[c]) for c in REPORT_COLUMNS) for row in rows]
    _write_if_changed(path, "\n".join(lines) + "\n")


def _write_if_changed(path: str, text: str) -> None:
    """Write ``text`` to ``path`` unless the file holds it already, so a
    report of unchanged records leaves its files as they were."""
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return
    except OSError:  # missing, or not a file: writing it says what is wrong
        pass
    artifacts.write_atomic(path, data)


# The scores in a run record, each read from the evaluate stage's report.
_METRICS = ("accuracy", "precision", "recall", "far", "f1", "undefined", "skipped")
# A run record's digest as its text holds it while the digest is taken.
_EMPTY_DIGEST = '"digest": ""'


def _record_text(record: dict) -> str:
    """The text of the run record file for ``record``, after setting its
    ``digest``: a sha256 of that text with the digest's value left empty,
    so it covers every other byte of the file."""
    text = json.dumps({**record, "digest": ""}, indent=2, sort_keys=True) + "\n"
    record["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text.replace(_EMPTY_DIGEST, f'"digest": "{record["digest"]}"', 1)


def _digest_fault(text: str, record: dict) -> str | None:
    """Why the run record ``record``, parsed from ``text``, fails its digest
    check, or None when it passes."""
    if "digest" not in record:
        return "no digest"
    empty = text.replace(f'"digest": "{record["digest"]}"', _EMPTY_DIGEST, 1)
    if hashlib.sha256(empty.encode("utf-8")).hexdigest() != record["digest"]:
        return "digest mismatch"
    return None


def _unscored_record(cfg: ExperimentConfig, pair: dataset.SplitPair,
                     subset: subset_search.FeatureSubset, selection_seconds: float,
                     model, files: dict) -> dict:
    """A run's record without its ``metrics`` and ``timestamps``: what a
    stored record must match to be served."""
    return {
        "methodology": _methodology(cfg),
        "mode": cfg.mode,
        "method": cfg.method,
        "model": cfg.model,
        # as the evaluate stage's report names it
        "averaging": "binary" if _scored_binary(cfg) else cfg.averaging,
        "feature_names": list(pair.train.feature_names),
        "subset": {
            "k": subset.k,
            "indices": list(subset.indices),
            "names": [pair.train.feature_names[i] for i in subset.indices],
            "cfs_merit": subset.cfs.merit if subset.cfs else None,
            "r_cf": subset.cfs.r_cf if subset.cfs else None,
            "r_ff": subset.cfs.r_ff if subset.cfs else None,
            "ig_sum": subset.ig,
        },
        "timing": {
            "selection_seconds": selection_seconds,
            "build_seconds": model.build_seconds,
        },
        "forest": model.summary if cfg.model == "rf" else None,
        "seeds": {"master": cfg.seed,
                  **{stage: stage_seed(cfg.seed, stage) for stage in _STAGE_IDS}},
        "artifacts": files,
        # the cache layout it was computed under; report skips other layouts
        "format": artifacts.VERSION,
    }


def _stored_record(path: str, unscored: dict) -> dict | None:
    """The run record at ``path`` when it passes its digest check, is
    ``unscored`` with metrics, timestamps and digest added, and the
    confusion counts it names pass their header check; else None.  An
    unreadable record, or one whose digest does not match, is named in one
    stderr line; one from before records held a digest is not.

    The run key covers all that the metrics are scored from, and a stage
    that recomputes records its own seconds, so a record that matches was
    scored from the counts this run would score."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stored = json.loads(text)
        if sorted(stored["metrics"]) != sorted(_METRICS) or "timestamps" not in stored:
            raise ValueError("not a run record")
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _recomputing(DataError(f"{path}: unreadable run record ({exc})"))
        return None
    fault = _digest_fault(text, stored)
    if fault is not None:
        if fault != "no digest":
            _recomputing(DataError(f"{path}: unreadable run record ({fault})"))
        return None
    rest = {name: value for name, value in stored.items()
            if name not in ("metrics", "timestamps", "digest")}
    # compared as JSON text, in which a tuple reads as the list it is
    # stored as and NaN equals itself
    if json.dumps(rest, sort_keys=True) != json.dumps(unscored, sort_keys=True):
        return None
    confusion = unscored["artifacts"]["confusion"]
    if not os.path.exists(confusion):
        return None
    try:
        metrics.load_confusion_header(confusion)
    except DataError:  # the evaluate stage names it as it recomputes it
        return None
    return stored


def run_pipeline(cfg: ExperimentConfig) -> dict:
    """Execute every stage and write the run record JSON.

    A stored record that passes its digest check and matches what this
    run would write, but for its metrics, timestamps and digest, is
    returned as it is: nothing is scored and nothing is written.  Any
    stage failure is re-raised as PipelineError naming the stage and the
    artifacts completed before it.
    """
    cfg = cfg.validated()
    make_out_dir(cfg.out_dir)
    completed: dict = {}
    keys: dict = {}  # every stage key of this run, each computed once
    started = datetime.now(timezone.utc).isoformat()
    stage = "preprocess"
    try:
        pair, files = preprocess_stage(cfg, keys)
        completed.update(files)
        stage = "correlate"
        corr, files = correlate_stage(cfg, pair, keys)
        completed.update(files)
        stage = "importance"
        importances, imp_seconds, files = importance_stage(cfg, pair, keys)
        completed.update(files)
        stage = "select"
        subset, selection_seconds, files = select_stage(
            cfg, corr, pair, importances, imp_seconds, keys
        )
        completed.update(files)
        stage = "train"
        model, files = train_stage(cfg, pair, subset, keys)
        completed.update(files)
        stage = "evaluate"
        record_path = _stage_files(cfg, "run", subset, keys)["record"]
        files = _stage_files(cfg, "evaluate", subset, keys)
        stored = None if cfg.force else _stored_record(record_path, _unscored_record(
            cfg, pair, subset, selection_seconds, model, {**completed, **files}))
        if stored is None:
            report, files = evaluate_stage(cfg, model, pair, subset, keys)
        completed.update(files)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc), completed) from exc

    if stored is not None:
        stored["artifacts"]["record"] = record_path
        return stored
    # built after evaluate, which trains again when a cached model fails
    # its checksum there, so the build seconds are those of the model scored
    record = _unscored_record(cfg, pair, subset, selection_seconds, model, completed)
    record["metrics"] = {name: getattr(report, name) for name in _METRICS}
    record["metrics"]["undefined"] = list(report.undefined)  # as it reads back
    record["timestamps"] = {"started": started,
                            "finished": datetime.now(timezone.utc).isoformat()}
    artifacts.write_atomic(record_path, _record_text(record))
    record["artifacts"]["record"] = record_path
    return record


def load_records(out_dir: str) -> list[dict]:
    """Every run record under ``out_dir`` of the current cache format,
    ordered by methodology, K and subset, then by file name.  Records of
    another format, left by a run before a re-key, are skipped and counted
    in one stderr line; a record that fails its digest check is left out
    and named in one stderr line; an unreadable record is a DataError."""
    try:
        names = os.listdir(out_dir)
    except OSError as exc:
        raise _bad_out(out_dir, exc, "pass the --out of earlier runs") from None
    keyed = []
    skipped = 0
    for name in names:
        if name.startswith("run_") and name.endswith(".json"):
            path = os.path.join(out_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
                record = json.loads(text)
                order = (record["methodology"], record["subset"]["k"],
                         record["subset"]["indices"], name)
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}: unreadable run record ({exc}); "
                                "delete it or rerun its run") from None
            if record.get("format") != artifacts.VERSION:
                skipped += 1
                continue
            fault = _digest_fault(text, record)
            if fault is not None:
                print(f"warning: {path}: unreadable run record ({fault}); "
                      "rerun its run to report it", file=sys.stderr)
                continue
            keyed.append((order, record))
    if skipped:
        print(f"warning: skipped {skipped} run record(s) under {out_dir} from another "
              f"cache format than {artifacts.VERSION}; rerun those runs to report them",
              file=sys.stderr)
    keyed.sort(key=lambda pair: pair[0])
    return [record for _, record in keyed]


def compare(records: list[dict]):
    """Report rows plus subset-overlap region counts across methods.

    All records must share one feature universe; the overlap counts cover
    every non-empty combination of the distinct methods present (the
    regions of a Venn diagram).
    """
    if not records:
        raise DataError("no run records to compare")
    universe = records[0]["feature_names"]
    for r in records[1:]:
        if r["feature_names"] != universe:
            raise DataError("run records disagree on the feature universe")

    rows = [run_record_row(r) for r in records]

    method_sets: dict[str, set] = {}
    for r in records:
        method_sets.setdefault(r["method"], set()).update(r["subset"]["indices"])
    methods = sorted(method_sets)
    overlap_rows = []
    for code in range(1, 1 << len(methods)):
        members = [m for i, m in enumerate(methods) if code >> i & 1]
        others = [m for m in methods if m not in members]
        region = set(range(len(universe)))
        for m in members:
            region &= method_sets[m]
        for m in others:
            region -= method_sets[m]
        overlap_rows.append({"methods": "+".join(members), "count": len(region)})
    return rows, overlap_rows


def write_overlap_csv(overlap_rows: list[dict], path: str) -> None:
    rows = "".join(f"{row['methods']},{row['count']}\n" for row in overlap_rows)
    _write_if_changed(path, "methods,count\n" + rows)


def depth_sweep(train: dataset.Dataset, depths, forest_cfg: random_forest.ForestConfig):
    """Out-of-bag accuracy across tree depth caps; the best row is marked."""
    rows = []
    for depth in depths:
        cfg = dataclasses.replace(forest_cfg, max_depth=int(depth))
        forest = random_forest.train_forest(train, cfg)
        rows.append({
            "depth": int(depth),
            "oob_accuracy": forest.oob_accuracy,
            "oob_skipped": forest.oob_skipped,
            "build_seconds": forest.build_seconds,
        })
    best = max(range(len(rows)), key=lambda i: rows[i]["oob_accuracy"])
    for i, row in enumerate(rows):
        row["best"] = i == best
    return rows


def write_depth_sweep_csv(rows: list[dict], path: str) -> None:
    lines = "".join(f"{r['depth']},{r['oob_accuracy']!r},{r['oob_skipped']},"
                    f"{r['build_seconds']!r},{int(r['best'])}\n" for r in rows)
    artifacts.write_atomic(path, "depth,oob_accuracy,oob_skipped,build_seconds,best\n" + lines)
