"""Command-line front end.

Subcommands map onto pipeline stages (preprocess, correlate, select),
plus report/sweep-depth/synth utilities and `run` for the whole chain,
which trains and scores the model.  Exit codes: 0 success, 1 usage error
(including a setting out of its range, a config-file value outside its
choices and an unknown config-file key), 2 data error, 3 numeric failure.

Every option is one row of OPTIONS, and a setting's row also names its
INI ``section.key`` and the ExperimentConfig field it sets; the parser's
flags and build_config both come from that table.  Settings resolve in
three layers: built-in defaults, then an INI config file (--config),
then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import itertools
import os
import sys
from typing import Callable, NamedTuple

from . import pipeline, synth
from .errors import DataError, NumericError, PipelineError

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


def _parse_paths(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.replace(";", ",").split(",") if p.strip())


class _Option(NamedTuple):
    flag: str | tuple[str, ...]  # a tuple: one store_const flag per value, at most one given
    dest: str
    key: str | None  # INI section.key of a setting; None for a flag alone
    field: str | None  # the ExperimentConfig field it sets, nested as forest.n_trees
    convert: Callable  # the value's type: of the flag to argparse, and of a file value
    from_flag: Callable | None  # converts a flag value that argparse leaves raw
    options: dict  # the other add_argument keywords; choices also bind a file value


def _opt(flag, key=None, convert=str, *, field=None, from_flag=None, dest=None, **options):
    return _Option(flag, dest or flag[2:].replace("-", "_"), key, field or key, convert,
                   from_flag, options)


# Every option of every subcommand, in groups.  A subcommand takes the
# groups and single flags _COMMANDS names for it, in this order.
OPTIONS = {
    "common": (
        _opt("--out", "run.out_dir", field="out_dir", help="artifact directory (default: runs)"),
        _opt("--config", help="INI config file; flags override it"),
        _opt("--seed", "run.seed", int, field="seed", help="master seed"),
        _opt("--force", action="store_true",
             help="recompute stages even when cached artifacts exist"),
    ),
    "data": (
        _opt("--data", "data.paths", _parse_paths, field="data_paths", from_flag=tuple,
             nargs="+", help="input CSV file(s)"),
        _opt("--label-column", "data.label_column", field="label_column"),
        _opt("--benign", "data.benign", field="benign", help="benign label value"),
        _opt("--grouping", "data.grouping", field="grouping",
             help="'default' for the bundled signature map, or a JSON file"),
        _opt("--ratio", "split.ratio", float, field="ratio", help="train fraction"),
        _opt("--stratified", "split.stratified", _parse_bool, field="stratified"),
        _opt("--normalize-before-split", "split.normalize_before_split", _parse_bool,
             field="normalize_before_split",
             help="fit normalization bounds on all rows before splitting"),
    ),
    "mode": (_opt(("--binary", "--categorical"), "run.mode", field="mode", dest="mode",
                  choices=pipeline.MODES),),
    "selection": (
        _opt("--method", "run.method", field="method", choices=pipeline.METHODS),
        _opt("--k", "run.k", int, field="k", help="subset size (required for rf-ig)"),
        _opt("--bat-n", "bat.n", int),
        _opt("--bat-epochs", "bat.t_max", int),
        _opt("--alpha", "bat.alpha", float, help="loudness decay"),
        _opt("--gamma", "bat.gamma", float, help="pulse decay"),
        _opt("--canonical-pulse", "bat.canonical_pulse", _parse_bool,
             help="use the gamma*epoch pulse schedule"),
        _opt("--aquila-n", "aquila.n", int),
        _opt("--aquila-epochs", "aquila.t_max", int),
    ),
    "sweep": (_opt("--depths", default="2,5,10,20,40,100,200",
                   help="comma-separated depth caps"),),
    "model": (
        _opt("--model", "run.model", field="model", choices=pipeline.MODELS),
        _opt("--trees", "forest.n_trees", int),
        _opt("--max-depth", "forest.max_depth", int),
        _opt("--min-node-size", "forest.min_node_size", int),
        _opt("--workers", "forest.n_workers", int),
        _opt("--hidden", "mlp.hidden_sizes", _parse_hidden, from_flag=_parse_hidden,
             help="comma-separated hidden layer sizes, e.g. 50,25"),
        _opt("--batch-size", "mlp.batch_size", int),
        _opt("--epochs", "mlp.epochs", int),
        _opt("--learning-rate", "mlp.learning_rate", float),
        _opt("--optimizer", "mlp.optimizer", choices=("sgd", "adam")),
    ),
    "scoring": (
        _opt("--averaging", "run.averaging", field="averaging", choices=pipeline.AVERAGINGS),
        _opt("--collapse", "run.collapse", _parse_bool, field="collapse",
             help="score a categorical model as a binary detector"),
    ),
    "synth": (
        _opt("--stem", default="fixture"),
        _opt("--informative", convert=int, default=3),
        _opt("--noise", convert=int, default=9),
        _opt("--rows", convert=int, default=400),
        _opt("--classes", convert=int, default=3),
    ),
}


def _add_option(p: argparse.ArgumentParser, o: _Option) -> None:
    if isinstance(o.flag, tuple):  # its flags are its choices
        group = p.add_mutually_exclusive_group()
        for flag in o.flag:
            group.add_argument(flag, dest=o.dest, action="store_const", const=flag[2:])
        return
    kind = {int: {"type": int}, float: {"type": float},
            _parse_bool: {"action": "store_true", "default": None}}.get(o.convert, {})
    p.add_argument(o.flag, dest=o.dest, **kind, **o.options)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: it depends
    on nothing but constants, and parse_args leaves it as it was."""
    parser = _Parser(prog="flowsel",
                     description="feature-selection benchmarking for flow classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, takes) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for group, options in OPTIONS.items():
            for o in options:
                if group in takes or o.flag in takes:
                    _add_option(p, o)
    return parser


# build_config settles the settings an INI section at a time in
# ExperimentConfig's field order, so of several bad values it reports the
# first field's (a nested config's rows already are in its field order)
_FIELDS = [f.name for f in dataclasses.fields(pipeline.ExperimentConfig)]
_SETTINGS = sorted((o for group in OPTIONS.values() for o in group if o.key),
                   key=lambda o: _FIELDS.index(o.field.partition(".")[0]))
_BY_SECTION = [(section, tuple(rows)) for section, rows
               in itertools.groupby(_SETTINGS, lambda o: o.key.partition(".")[0])]
_SECTIONS = frozenset(section for section, _ in _BY_SECTION)
_KEYS = frozenset(o.key for o in _SETTINGS)


def _read_config_file(path: str) -> dict:
    """Flatten an INI file into {section.key: string} pairs.  A section or
    key that no setting reads is a usage error, as an unknown flag is."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        # items() interpolates, so a lone % fails here
        flat = {f"{s}.{k}": v for s in parser.sections() for k, v in parser.items(s)}
    except OSError as exc:
        raise DataError(f"cannot open config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DataError(f"bad config file {path}: {exc}") from exc
    unknown = [*(f"DEFAULT.{k}" for k in parser.defaults()), *(k for k in flat if k not in _KEYS),
               *(f"[{s}]" for s in parser.sections() if s not in _SECTIONS)]
    if unknown:
        raise UsageError(f"{path}: unknown config key {unknown[0]}")
    return flat


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


def build_config(args: argparse.Namespace) -> pipeline.ExperimentConfig:
    """Defaults, then config file, then flags, for every setting.

    A file value is converted, and checked against its row's choices,
    even when a flag overrides it.  Settings are
    settled an INI section at a time: the data section's inputs must be
    distinct files, the run section's ratio and k in range, and a nested
    config (bat, aquila, forest, mlp) passes its own checks.  A command
    that reads the input files and is given none is a data error."""
    path = getattr(args, "config", None)
    file_values = _read_config_file(path) if path else {}
    cfg = pipeline.ExperimentConfig(force=bool(getattr(args, "force", False)))
    for section, settings in _BY_SECTION:
        owner = getattr(cfg, section, cfg)  # data, split and run set cfg's own fields
        values = {}
        for o in settings:
            value = getattr(args, o.dest, None)
            if value is not None and o.from_flag is not None:
                value = o.from_flag(value)
            in_file = None
            if o.key in file_values:
                try:
                    in_file = o.convert(file_values[o.key])
                except (ValueError, DataError) as exc:
                    raise DataError(f"{path}: bad value for {o.key}: {exc}") from None
                choices = o.options.get("choices")
                if choices and in_file not in choices:
                    raise UsageError(f"{path}: bad value for {o.key}: {in_file!r} is not one "
                                     f"of {', '.join(choices)}")
            name = o.field.rpartition(".")[2]
            if value is None:
                value = getattr(owner, name) if in_file is None else in_file
            values[name] = value
        if owner is not cfg:
            setattr(cfg, section, _settings(section, type(owner), **values))
            continue
        for name, value in values.items():
            setattr(cfg, name, value)
        if section == "data":
            _check_distinct_inputs(cfg.data_paths)
        elif section == "run":
            if not 0.0 < cfg.ratio < 1.0:
                raise UsageError(f"bad split setting: ratio must be in (0, 1), got {cfg.ratio}")
            if cfg.k is not None and cfg.k < 1:
                raise UsageError(f"bad run setting: k must be at least 1, got {cfg.k}")
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
    rows = pipeline.depth_sweep(pipeline.train_view(cfg, pair), depths,
                                pipeline.seeded(cfg, "forest", "importance"))
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


# Each subcommand: its handler, its help, and the groups and single flags
# of OPTIONS it takes.
_COMMANDS = {
    "preprocess": (_cmd_preprocess, "clean, normalize, and split the input", {"common", "data"}),
    "correlate": (_cmd_correlate, "rank-correlation matrix over the training split",
                  {"common", "data", "mode"}),
    "select": (_cmd_select, "pick a feature subset",
               {"common", "data", "mode", "selection", "--trees", "--max-depth", "--workers"}),
    "run": (_cmd_run, "run the full pipeline end to end",
            {"common", "data", "mode", "selection", "model", "scoring"}),
    "report": (_cmd_report, "tabulate run records and subset overlap", {"common"}),
    "sweep-depth": (_cmd_sweep_depth, "out-of-bag accuracy across depth caps",
                    {"common", "data", "mode", "sweep", "--trees", "--workers"}),
    "synth": (_cmd_synth, "write a synthetic fixture with known truth", {"common", "synth"}),
}

# Commands that read the input files; each needs at least one.
_READS_DATA = frozenset(name for name, (_, _, takes) in _COMMANDS.items() if "data" in takes)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
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
