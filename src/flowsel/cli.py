"""Command-line front end.

Subcommands map onto pipeline stages (preprocess, correlate, select),
plus report/sweep-depth/synth utilities and `run` for the whole chain,
which trains and scores the model.  Exit codes: 0 success, 1 usage error
(including a setting out of its range), 2 data error, 3 numeric failure.

Settings resolve in three layers: built-in defaults, then an INI config
file (--config), then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import os
import sys

from . import pipeline, synth
from .dataset import binary_view
from .errors import DataError, NumericError, PipelineError
from .neural_net import MlpConfig
from .random_forest import ForestConfig
from .subset_search import AquilaConfig, BatConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """A setting that parsed but lies outside its documented range."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; our contract reserves 2 for data
    # errors, so route usage failures to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="runs", help="artifact directory")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--force", action="store_true",
                   help="recompute stages even when cached artifacts exist")


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", nargs="+", default=None, help="input CSV file(s)")
    p.add_argument("--label-column", default=None)
    p.add_argument("--benign", default=None, help="benign label value")
    p.add_argument("--grouping", default=None,
                   help="'default' for the bundled signature map, or a JSON file")
    p.add_argument("--ratio", type=float, default=None, help="train fraction")
    p.add_argument("--stratified", action="store_true", default=None)
    p.add_argument("--normalize-before-split", action="store_true", default=None,
                   help="fit normalization bounds on all rows before splitting")


def _add_mode(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--binary", dest="mode", action="store_const", const="binary")
    g.add_argument("--categorical", dest="mode", action="store_const",
                   const="categorical")
    p.set_defaults(mode=None)


def _add_selection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=pipeline.METHODS, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="subset size (required for rf-ig)")
    p.add_argument("--bat-n", type=int, default=None)
    p.add_argument("--bat-epochs", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="loudness decay")
    p.add_argument("--gamma", type=float, default=None, help="pulse decay")
    p.add_argument("--canonical-pulse", action="store_true", default=None,
                   help="use the gamma*epoch pulse schedule")
    p.add_argument("--aquila-n", type=int, default=None)
    p.add_argument("--aquila-epochs", type=int, default=None)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=pipeline.MODELS, default=None)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-node-size", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--hidden", default=None,
                   help="comma-separated hidden layer sizes, e.g. 50,25")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default=None)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: it depends
    on nothing but constants, and parse_args leaves it as it was."""
    parser = _Parser(prog="flowsel",
                     description="feature-selection benchmarking for flow classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean, normalize, and split the input")
    _add_common(p); _add_data(p)

    p = sub.add_parser("correlate", help="rank-correlation matrix over the training split")
    _add_common(p); _add_data(p); _add_mode(p)

    p = sub.add_parser("select", help="pick a feature subset")
    _add_common(p); _add_data(p); _add_mode(p); _add_selection(p)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("run", help="run the full pipeline end to end")
    _add_common(p); _add_data(p); _add_mode(p); _add_selection(p); _add_model(p)
    p.add_argument("--averaging", choices=pipeline.AVERAGINGS, default=None)
    p.add_argument("--collapse", action="store_true", default=None,
                   help="score a categorical model as a binary detector")

    p = sub.add_parser("report", help="tabulate run records and subset overlap")
    _add_common(p)

    p = sub.add_parser("sweep-depth", help="out-of-bag accuracy across depth caps")
    _add_common(p); _add_data(p); _add_mode(p)
    p.add_argument("--depths", default="2,5,10,20,40,100,200",
                   help="comma-separated depth caps")
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("synth", help="write a synthetic fixture with known truth")
    _add_common(p)
    p.add_argument("--stem", default="fixture")
    p.add_argument("--informative", type=int, default=3)
    p.add_argument("--noise", type=int, default=9)
    p.add_argument("--rows", type=int, default=400)
    p.add_argument("--classes", type=int, default=3)

    return parser


def _read_config_file(path: str) -> dict:
    """Flatten an INI file into {section.key: string} pairs."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataError(f"cannot open config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DataError(f"bad config file {path}: {exc}") from exc
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise DataError(f"expected a boolean, got {text!r}")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise DataError(f"bad hidden layer spec {text!r}") from None


def _settings(section: str, cls, **values):
    """Construct one config section; an out-of-range value is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(f"bad {section} setting: {exc}") from None


def _check_distinct_inputs(paths) -> None:
    """A file given twice, under any spelling, would put each of its rows
    on both sides of the split; inputs that do not exist are left for the
    loader to report."""
    seen: dict[tuple[int, int], str] = {}
    for path in paths:
        try:
            st = os.stat(path)
        except OSError:
            continue
        first = seen.get((st.st_dev, st.st_ino))
        if first is not None:
            same = "is given twice" if first == path else f"is the same file as {first}"
            raise UsageError(f"input {path} {same}; give each input file once")
        seen[(st.st_dev, st.st_ino)] = path


# Commands that read the input files; each needs at least one.
_READS_DATA = ("preprocess", "correlate", "select", "run", "sweep-depth")


def build_config(args: argparse.Namespace) -> pipeline.ExperimentConfig:
    """Defaults, then config file, then flags.  A command that reads the
    input files and is given none is a data error."""
    cfg = pipeline.ExperimentConfig()
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def file_get(key, convert=str):
        if key not in file_values:
            return None
        try:
            return convert(file_values[key])
        except (ValueError, DataError) as exc:
            raise DataError(f"{args.config}: bad value for {key}: {exc}") from None

    def pick(flag_value, file_value, default):
        if flag_value is not None:
            return flag_value
        if file_value is not None:
            return file_value
        return default

    data_file = file_get("data.paths")
    if data_file is not None:
        data_file = tuple(p.strip() for p in data_file.replace(";", ",").split(",") if p.strip())
    data_flag = getattr(args, "data", None)
    cfg.data_paths = tuple(pick(tuple(data_flag) if data_flag else None, data_file, ()))
    _check_distinct_inputs(cfg.data_paths)

    cfg.label_column = pick(getattr(args, "label_column", None),
                            file_get("data.label_column"), cfg.label_column)
    cfg.benign = pick(getattr(args, "benign", None), file_get("data.benign"), cfg.benign)
    cfg.grouping = pick(getattr(args, "grouping", None), file_get("data.grouping"), cfg.grouping)
    cfg.ratio = pick(getattr(args, "ratio", None), file_get("split.ratio", float), cfg.ratio)
    cfg.stratified = pick(getattr(args, "stratified", None),
                          file_get("split.stratified", _parse_bool), cfg.stratified)
    cfg.normalize_before_split = pick(
        getattr(args, "normalize_before_split", None),
        file_get("split.normalize_before_split", _parse_bool),
        cfg.normalize_before_split,
    )

    cfg.mode = pick(getattr(args, "mode", None), file_get("run.mode"), cfg.mode)
    cfg.method = pick(getattr(args, "method", None), file_get("run.method"), cfg.method)
    cfg.model = pick(getattr(args, "model", None), file_get("run.model"), cfg.model)
    cfg.averaging = pick(getattr(args, "averaging", None),
                         file_get("run.averaging"), cfg.averaging)
    cfg.collapse = pick(getattr(args, "collapse", None),
                        file_get("run.collapse", _parse_bool), cfg.collapse)
    cfg.k = pick(getattr(args, "k", None), file_get("run.k", int), cfg.k)
    cfg.seed = pick(getattr(args, "seed", None), file_get("run.seed", int), cfg.seed)
    cfg.out_dir = pick(getattr(args, "out", None), file_get("run.out_dir"), cfg.out_dir)
    cfg.force = bool(getattr(args, "force", False))
    if not 0.0 < cfg.ratio < 1.0:
        raise UsageError(f"bad split setting: ratio must be in (0, 1), got {cfg.ratio}")
    if cfg.k is not None and cfg.k < 1:
        raise UsageError(f"bad run setting: k must be at least 1, got {cfg.k}")

    cfg.bat = _settings(
        "bat", BatConfig,
        n=pick(getattr(args, "bat_n", None), file_get("bat.n", int), cfg.bat.n),
        t_max=pick(getattr(args, "bat_epochs", None), file_get("bat.t_max", int), cfg.bat.t_max),
        alpha=pick(getattr(args, "alpha", None), file_get("bat.alpha", float), cfg.bat.alpha),
        gamma=pick(getattr(args, "gamma", None), file_get("bat.gamma", float), cfg.bat.gamma),
        canonical_pulse=pick(getattr(args, "canonical_pulse", None),
                             file_get("bat.canonical_pulse", _parse_bool),
                             cfg.bat.canonical_pulse),
    )
    cfg.aquila = _settings(
        "aquila", AquilaConfig,
        n=pick(getattr(args, "aquila_n", None), file_get("aquila.n", int), cfg.aquila.n),
        t_max=pick(getattr(args, "aquila_epochs", None),
                   file_get("aquila.t_max", int), cfg.aquila.t_max),
    )
    cfg.forest = _settings(
        "forest", ForestConfig,
        n_trees=pick(getattr(args, "trees", None), file_get("forest.n_trees", int),
                     cfg.forest.n_trees),
        max_depth=pick(getattr(args, "max_depth", None),
                       file_get("forest.max_depth", int), cfg.forest.max_depth),
        min_node_size=pick(getattr(args, "min_node_size", None),
                           file_get("forest.min_node_size", int),
                           cfg.forest.min_node_size),
        n_workers=pick(getattr(args, "workers", None),
                       file_get("forest.n_workers", int), cfg.forest.n_workers),
    )
    cfg.mlp = _settings(
        "mlp", MlpConfig,
        hidden_sizes=pick(
            _parse_hidden(args.hidden) if getattr(args, "hidden", None) else None,
            file_get("mlp.hidden_sizes", _parse_hidden),
            cfg.mlp.hidden_sizes,
        ),
        batch_size=pick(getattr(args, "batch_size", None),
                        file_get("mlp.batch_size", int), cfg.mlp.batch_size),
        epochs=pick(getattr(args, "epochs", None), file_get("mlp.epochs", int),
                    cfg.mlp.epochs),
        learning_rate=pick(getattr(args, "learning_rate", None),
                           file_get("mlp.learning_rate", float),
                           cfg.mlp.learning_rate),
        optimizer=pick(getattr(args, "optimizer", None),
                       file_get("mlp.optimizer"), cfg.mlp.optimizer),
    )
    if getattr(args, "command", None) in _READS_DATA and not cfg.data_paths:
        raise DataError("no input data files given (use --data)")
    return cfg


def _cmd_preprocess(args) -> int:
    cfg = build_config(args)
    pair, artifacts = pipeline.preprocess_stage(cfg)
    print(f"train rows: {pair.train.n_rows}, test rows: {pair.test.n_rows}, "
          f"features: {pair.train.n_features}, classes: {len(pair.train.class_names)}")
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_correlate(args) -> int:
    cfg = build_config(args)
    pair, _ = pipeline.preprocess_stage(cfg)
    corr, artifacts = pipeline.correlate_stage(cfg, pair)
    print(f"matrix: {len(corr.names)}x{len(corr.names)} "
          f"({corr.n_features} features, {corr.n_class_columns} class columns)")
    print(f"heatmap: {artifacts['heatmap']}")
    return EXIT_OK


def _cmd_select(args) -> int:
    cfg = build_config(args)
    pair, _ = pipeline.preprocess_stage(cfg)
    corr, _ = pipeline.correlate_stage(cfg, pair)
    importances, imp_seconds, _ = pipeline.importance_stage(cfg, pair)
    subset, elapsed, artifacts = pipeline.select_stage(
        cfg, corr, pair, importances, imp_seconds
    )
    print(f"selected {subset.k} features "
          f"(merit {subset.cfs.merit:.6f}, ig {subset.ig:.6f}, {elapsed:.2f}s)")
    print(f"subset: {artifacts['subset']}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = build_config(args)
    record = pipeline.run_pipeline(cfg)
    m = record["metrics"]
    parts = [f"accuracy={m['accuracy']:.4f}"]
    for name in ("precision", "recall", "far", "f1"):
        value = m[name]
        parts.append(f"{name}={'undefined' if value is None else f'{value:.4f}'}")
    print(f"{record['methodology']} K={record['subset']['k']} " + " ".join(parts))
    print(f"record: {record['artifacts']['record']}")
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = build_config(args)
    records = pipeline.load_records(cfg.out_dir)
    if not records:
        raise DataError(f"no run records under {cfg.out_dir}")
    rows, overlap = pipeline.compare(records)
    report_path = os.path.join(cfg.out_dir, "report.csv")
    overlap_path = os.path.join(cfg.out_dir, "overlap.csv")
    pipeline.write_report_csv(rows, report_path)
    pipeline.write_overlap_csv(overlap, overlap_path)
    print(f"report: {report_path} ({len(rows)} rows)")
    print(f"overlap: {overlap_path}")
    return EXIT_OK


def _cmd_sweep_depth(args) -> int:
    cfg = build_config(args)
    try:
        depths = [int(d) for d in args.depths.split(",") if d.strip()]
    except ValueError:
        raise DataError(f"bad depth list {args.depths!r}") from None
    if not depths:
        raise DataError("empty depth list")
    pair, _ = pipeline.preprocess_stage(cfg)
    forest_cfg = dataclasses.replace(
        cfg.forest, seed=pipeline.stage_seed(cfg.seed, "importance")
    )
    if cfg.mode == "binary":
        train = binary_view(pair.train, cfg.benign)
    else:
        train = pair.train
    rows = pipeline.depth_sweep(train, depths, forest_cfg)
    path = os.path.join(cfg.out_dir, "depth_sweep.csv")
    pipeline.write_depth_sweep_csv(rows, path)
    for row in rows:
        marker = " <- best" if row["best"] else ""
        print(f"depth {row['depth']:>4}: oob {row['oob_accuracy']:.4f} "
              f"(skipped {row['oob_skipped']}){marker}")
    print(f"sweep: {path}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = build_config(args)
    pipeline.make_out_dir(cfg.out_dir)
    csv_path, sidecar = synth.write_fixture(
        cfg.out_dir, args.stem, args.informative, args.noise,
        args.rows, cfg.seed, args.classes,
    )
    print(f"fixture: {csv_path}")
    print(f"truth: {sidecar}")
    return EXIT_OK


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "correlate": _cmd_correlate,
    "select": _cmd_select,
    "run": _cmd_run,
    "report": _cmd_report,
    "sweep-depth": _cmd_sweep_depth,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PipelineError as exc:
        cause = exc.__cause__
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, NumericError):
            return EXIT_NUMERIC
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
