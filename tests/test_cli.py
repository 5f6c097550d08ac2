"""The command line's option table against the hand-written parser and
build_config it replaced, kept here as the reference, and the three ways
the table's config file differs from it: ``[run] out_dir`` is read, a key
no setting reads is refused, and a value outside its row's choices is
refused as its flag's value is."""

import argparse
import configparser
import contextlib
import dataclasses
import functools
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsel import cli, pipeline
from flowsel.cli import (
    _check_distinct_inputs,
    _parse_bool,
    _parse_hidden,
    _Parser,
    _settings,
    UsageError,
    build_config,
    build_parser,
    main,
)
from flowsel.errors import DataError
from flowsel.neural_net import MlpConfig
from flowsel.random_forest import ForestConfig
from flowsel.subset_search import AquilaConfig, BatConfig

# --- the reference: every setting written out in the parser and in build_config


def _ref_add_common(p):
    p.add_argument("--out", default="runs", help="artifact directory")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--force", action="store_true",
                   help="recompute stages even when cached artifacts exist")


def _ref_add_data(p):
    p.add_argument("--data", nargs="+", default=None, help="input CSV file(s)")
    p.add_argument("--label-column", default=None)
    p.add_argument("--benign", default=None, help="benign label value")
    p.add_argument("--grouping", default=None,
                   help="'default' for the bundled signature map, or a JSON file")
    p.add_argument("--ratio", type=float, default=None, help="train fraction")
    p.add_argument("--stratified", action="store_true", default=None)
    p.add_argument("--normalize-before-split", action="store_true", default=None,
                   help="fit normalization bounds on all rows before splitting")


def _ref_add_mode(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--binary", dest="mode", action="store_const", const="binary")
    g.add_argument("--categorical", dest="mode", action="store_const",
                   const="categorical")
    p.set_defaults(mode=None)


def _ref_add_selection(p):
    p.add_argument("--method", choices=pipeline.METHODS, default=None)
    p.add_argument("--k", type=int, default=None, help="subset size (required for rf-ig)")
    p.add_argument("--bat-n", type=int, default=None)
    p.add_argument("--bat-epochs", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="loudness decay")
    p.add_argument("--gamma", type=float, default=None, help="pulse decay")
    p.add_argument("--canonical-pulse", action="store_true", default=None,
                   help="use the gamma*epoch pulse schedule")
    p.add_argument("--aquila-n", type=int, default=None)
    p.add_argument("--aquila-epochs", type=int, default=None)


def _ref_add_model(p):
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
def reference_parser():
    parser = _Parser(prog="flowsel",
                     description="feature-selection benchmarking for flow classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("preprocess", help="clean, normalize, and split the input")
    _ref_add_common(p); _ref_add_data(p)
    p = sub.add_parser("correlate", help="rank-correlation matrix over the training split")
    _ref_add_common(p); _ref_add_data(p); _ref_add_mode(p)
    p = sub.add_parser("select", help="pick a feature subset")
    _ref_add_common(p); _ref_add_data(p); _ref_add_mode(p); _ref_add_selection(p)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p = sub.add_parser("run", help="run the full pipeline end to end")
    _ref_add_common(p); _ref_add_data(p); _ref_add_mode(p); _ref_add_selection(p)
    _ref_add_model(p)
    p.add_argument("--averaging", choices=pipeline.AVERAGINGS, default=None)
    p.add_argument("--collapse", action="store_true", default=None,
                   help="score a categorical model as a binary detector")
    p = sub.add_parser("report", help="tabulate run records and subset overlap")
    _ref_add_common(p)
    p = sub.add_parser("sweep-depth", help="out-of-bag accuracy across depth caps")
    _ref_add_common(p); _ref_add_data(p); _ref_add_mode(p)
    p.add_argument("--depths", default="2,5,10,20,40,100,200",
                   help="comma-separated depth caps")
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p = sub.add_parser("synth", help="write a synthetic fixture with known truth")
    _ref_add_common(p)
    p.add_argument("--stem", default="fixture")
    p.add_argument("--informative", type=int, default=3)
    p.add_argument("--noise", type=int, default=9)
    p.add_argument("--rows", type=int, default=400)
    p.add_argument("--classes", type=int, default=3)
    return parser


def _ref_read_config_file(path):
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


def reference_build_config(args):
    cfg = pipeline.ExperimentConfig()
    file_values = _ref_read_config_file(args.config) if getattr(args, "config", None) else {}

    def file_get(key, convert=str, choices=()):
        if key not in file_values:
            return None
        try:
            value = convert(file_values[key])
        except (ValueError, DataError) as exc:
            raise DataError(f"{args.config}: bad value for {key}: {exc}") from None
        # not in the reference as written: the table binds a file value to
        # its flag's choices
        if choices and value not in choices:
            raise UsageError(f"{args.config}: bad value for {key}: {value!r} is not one "
                             f"of {', '.join(choices)}")
        return value

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

    cfg.mode = pick(getattr(args, "mode", None), file_get("run.mode", choices=pipeline.MODES),
                    cfg.mode)
    cfg.method = pick(getattr(args, "method", None),
                      file_get("run.method", choices=pipeline.METHODS), cfg.method)
    cfg.model = pick(getattr(args, "model", None), file_get("run.model", choices=pipeline.MODELS),
                     cfg.model)
    cfg.averaging = pick(getattr(args, "averaging", None),
                         file_get("run.averaging", choices=pipeline.AVERAGINGS), cfg.averaging)
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
            # an empty --hidden is refused as --hidden , is, not taken as absent
            _parse_hidden(args.hidden) if getattr(args, "hidden", None) is not None else None,
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
                       file_get("mlp.optimizer", choices=("sgd", "adam")), cfg.mlp.optimizer),
    )
    reads_data = ("preprocess", "correlate", "select", "run", "sweep-depth")
    if getattr(args, "command", None) in reads_data and not cfg.data_paths:
        raise DataError("no input data files given (use --data)")
    return cfg


# --- drawing command lines and config files


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def outcome(parser, build, argv):
    """("config", the ExperimentConfig, args), or ("exit", code, stderr)
    as ``main`` would report it, or ("raised", type, text) for the config
    parser's own errors, which the reference does not catch."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return "exit", exc.code, err.getvalue()
    try:
        return "config", build(args), args
    except UsageError as exc:
        return "exit", 1, f"error: {exc}"
    except DataError as exc:
        return "exit", 2, f"error: {exc}"
    except configparser.Error as exc:  # a bad % interpolation in the reference
        return "raised", type(exc).__name__, str(exc)


def mostly(valid, bad):
    """Valid values three draws in four."""
    return st.one_of(valid, valid, valid, st.sampled_from(bad))


INTS = mostly(st.integers(1, 40).map(str), ["many", "1.5", "", "0", "-1"])
FLOATS = mostly(st.floats(0.01, 0.99).map(repr), ["half", "nan", "inf", "0", "1", "-0.5"])
TEXTS = st.sampled_from(["Label", "Class", "0", "1", "", "x y", "default", "-x", "100%"])
BOOLS = mostly(st.sampled_from(["yes", "no", "on", "OFF", "1", "0", "True"]), ["maybe", ""])
HIDDEN = st.sampled_from(["8", "50,25", "", ",", "a,b", "0", "4,0", " 3 , 2 "])

# every key the reference reads, with the values drawn for it
FILE_KEYS = {
    "data.paths": None,  # drawn from the fixture's files
    "data.label_column": TEXTS, "data.benign": TEXTS, "data.grouping": TEXTS,
    "split.ratio": FLOATS, "split.stratified": BOOLS, "split.normalize_before_split": BOOLS,
    "run.mode": st.sampled_from(["binary", "categorical", "weird"]),
    "run.method": st.sampled_from([*pipeline.METHODS, "bogus"]),
    "run.model": st.sampled_from([*pipeline.MODELS, "bogus"]),
    "run.averaging": st.sampled_from([*pipeline.AVERAGINGS, "bogus"]),
    "run.collapse": BOOLS, "run.k": INTS, "run.seed": INTS,
    "run.out_dir": st.sampled_from(["elsewhere", "runs", "out dir"]),
    "bat.n": INTS, "bat.t_max": INTS, "bat.alpha": FLOATS, "bat.gamma": FLOATS,
    "bat.canonical_pulse": BOOLS, "aquila.n": INTS, "aquila.t_max": INTS,
    "forest.n_trees": INTS, "forest.max_depth": INTS, "forest.min_node_size": INTS,
    "forest.n_workers": INTS, "mlp.hidden_sizes": HIDDEN, "mlp.batch_size": INTS,
    "mlp.epochs": INTS, "mlp.learning_rate": FLOATS,
    "mlp.optimizer": st.sampled_from(["sgd", "adam", "bogus"]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two input files, a second spelling of the first, one that does not
    exist, and a directory for the drawn config files."""
    directory = tmp_path_factory.mktemp("inputs")
    for name in ("a.csv", "b.csv"):
        (directory / name).write_text("f,Label\n1,x\n")
    return {"paths": [str(directory / "a.csv"), str(directory / "b.csv"),
                      os.path.join(str(directory), ".", "a.csv"), str(directory / "gone.csv")],
            "dir": directory}


def draw_value(data, action, paths):
    if action.nargs == "+":
        return data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
    if action.nargs == 0:
        return []
    if action.choices:
        return [data.draw(st.sampled_from([*action.choices, "bogus"]))]
    if action.type is int:
        return [data.draw(INTS)]
    if action.type is float:
        return [data.draw(FLOATS)]
    if action.dest == "hidden":
        return [data.draw(HIDDEN)]
    return [data.draw(TEXTS)]


def draw_ini(data, inputs):
    keys = data.draw(st.lists(st.sampled_from(sorted(FILE_KEYS)), unique=True, max_size=6))
    values = {}
    for key in keys:
        if key == "data.paths":
            values[key] = data.draw(st.lists(st.sampled_from(inputs["paths"]), min_size=0,
                                             max_size=3).map(lambda ps: ", ".join(ps)))
        else:
            values[key] = data.draw(FILE_KEYS[key]).strip()
    text = ""
    for section in dict.fromkeys(key.partition(".")[0] for key in keys):
        text += f"[{section}]\n"
        for key, value in values.items():
            section_of, _, name = key.partition(".")
            if section_of == section:
                name = name.upper() if data.draw(st.booleans()) else name
                text += f"{name} = {value}\n"
    path = inputs["dir"] / "drawn.ini"
    path.write_text(text)
    return str(path), values


def assert_same_as_reference(argv, ini_values):
    """``argv`` gives the reference's ExperimentConfig, or its exit code
    and stderr; but [run] out_dir from ``ini_values`` is read when --out
    is not given, and a lone % that the reference raises on exits 2 with
    one line naming the file."""
    want = outcome(reference_parser(), reference_build_config, argv)
    got = outcome(build_parser(), build_config, argv)
    if want[0] == "raised":
        ini = argv[argv.index("--config") + 1]
        want = ("exit", 2, f"error: bad config file {ini}: {want[2]}")
    if got[0] == "config" and got[2].out is None and "run.out_dir" in ini_values:
        want = (want[0], dataclasses.replace(want[1], out_dir=ini_values["run.out_dir"]),
                want[2])
    # reprs, so that a NaN setting compares equal to itself
    assert repr(got[:2]) == repr(want[:2]), argv
    if got[0] != "config":
        assert got[2] == want[2], argv


class TestOptionTable:
    def test_each_subcommand_takes_the_options_it_took(self):
        """The same option strings, declared in the same order, so usage
        lines and abbreviation errors read as before; --out alone has a new
        default, so the config file can set it."""
        new, old = _subparsers(build_parser()), _subparsers(reference_parser())
        assert list(new) == list(old)
        for name in old:
            assert list(new[name]._option_string_actions) == \
                list(old[name]._option_string_actions), name
            assert new[name].format_usage() == old[name].format_usage()
            for flag, was in old[name]._option_string_actions.items():
                now = new[name]._option_string_actions[flag]
                for attr in ("dest", "type", "choices", "nargs", "const", "default"):
                    if (flag, attr) != ("--out", "default"):
                        assert getattr(now, attr) == getattr(was, attr), (name, flag, attr)
                assert type(now) is type(was)

    @pytest.mark.parametrize("part", ["bat", "aquila", "forest", "mlp"])
    def test_every_nested_setting_is_set_by_one_row(self, part):
        """The table is all a run can vary: each field of a nested config
        but its seed, which the pipeline derives, is one row's."""
        rows = [o.field for group in cli.OPTIONS.values() for o in group if o.key]
        cls = type(getattr(pipeline.ExperimentConfig(), part))
        for f in dataclasses.fields(cls):
            if f.name != "seed":
                assert rows.count(f"{part}.{f.name}") == 1, f"{part}.{f.name}"

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_same_config_or_same_error_as_the_reference(self, inputs, data):
        """Drawn command lines of every subcommand, with abbreviated and
        unknown flags and bad values, and config files of every key: the
        same ExperimentConfig, or the same exit code and stderr.  The
        differences allowed are that [run] out_dir is read when --out is not
        given, and that a file value outside its row's choices exits 1 (the
        reference's file_get checks them too)."""
        command = data.draw(st.sampled_from(list(_subparsers(reference_parser()))))
        actions = _subparsers(reference_parser())[command]._option_string_actions
        flags = sorted(f for f in actions if f.startswith("--") and f not in ("--help",
                                                                              "--config"))
        argv = [command]
        if "--data" in actions and data.draw(st.integers(0, 4)):
            argv += ["--data", inputs["paths"][1]]  # most draws read an input
        for flag in data.draw(st.lists(st.sampled_from([*flags, "--bogus"]), max_size=6)):
            values = [] if flag == "--bogus" else draw_value(data, actions[flag],
                                                            inputs["paths"])
            cut = data.draw(st.sampled_from([len(flag)] * 5 + [3, 4, 6]))
            argv += [flag[:cut], *values]
        ini_values = {}
        if data.draw(st.booleans()):
            ini, ini_values = draw_ini(data, inputs)
            argv += ["--config", ini]
        assert_same_as_reference(argv, ini_values)

    @pytest.mark.parametrize("argv,ini", [
        (["--hidden", ""], ""),
        (["--hidden", "x"], "[mlp]\nhidden_sizes = y\n"),
        (["--hidden", ""], "[mlp]\nhidden_sizes = ,\n"),
        (["--hidden", ""], "[mlp]\nhidden_sizes = 8\n"),
        (["--trees", "5"], "[forest]\nn_trees = many\n"),
        (["--data", "{a}", "{a2}"], "[split]\nratio = half\n"),
        (["--ratio", "2"], "[bat]\nn = many\n"),
        (["--bat-n", "0"], "[forest]\nn_trees = many\n"),
        (["--k", "0"], "[run]\nseed = x\n"),
        ([], "[run]\nseed = x\nk = y\ncollapse = z\n"),
        ([], "[run]\nseed = x\nk = y\n"),
        ([], "[data]\npaths = {a}; {a2}\n[split]\nratio = 7\n"),
        (["--out", "runs"], "[run]\nout_dir = elsewhere\n"),
        ([], "[run]\nout_dir = elsewhere\n"),
    ])
    def test_precedence_and_order_of_errors_as_the_reference(self, inputs, argv, ini):
        """A bad file value fails even when a flag overrides it, an empty
        --hidden is refused even when the file's value is good, and of
        several errors the one the reference met first is reported."""
        a, _, a2, _ = inputs["paths"]
        argv = ["run", *([] if "--data" in argv else ["--data", inputs["paths"][1]]),
                *(arg.format(a=a, a2=a2) for arg in argv)]
        path = inputs["dir"] / "case.ini"
        path.write_text(ini.format(a=a, a2=a2))
        parsed = configparser.ConfigParser()
        parsed.read_string(ini.format(a=a, a2=a2))
        assert_same_as_reference([*argv, "--config", str(path)],
                                 {f"{s}.{k}": v for s in parsed.sections()
                                  for k, v in parsed.items(s)})


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    def test_run_out_dir_is_read_and_out_beats_it(self, tmp_path):
        ini = self.write(tmp_path, "[run]\nout_dir = elsewhere\n")
        for command in (["run", "--data", "x.csv"], ["report"]):
            args = build_parser().parse_args([*command, "--config", ini])
            assert build_config(args).out_dir == "elsewhere"
            args = build_parser().parse_args([*command, "--config", ini, "--out", "mine"])
            assert build_config(args).out_dir == "mine"
        assert build_config(build_parser().parse_args(["report"])).out_dir == "runs"

    def test_report_looks_in_the_files_out_dir(self, tmp_path, capsys):
        elsewhere = tmp_path / "elsewhere"
        ini = self.write(tmp_path, f"[run]\nout_dir = {elsewhere}\n")
        assert main(["report", "--config", ini]) == 2
        assert str(elsewhere) in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("[forest]\nntrees = 3\n", "forest.ntrees"),
        ("[Run]\nseed = 4\n", "Run.seed"),
        ("[run]\nseed = 4\n[extra]\n", "[extra]"),
        ("[DEFAULT]\nseed = 4\n[run]\n", "DEFAULT.seed"),
        ("[bat]\nn = 5\nwhatever = 1\n", "bat.whatever"),
    ], ids=["misspelled", "section-case", "empty-section", "default", "new-key"])
    def test_an_unknown_key_exits_1_naming_file_and_key(self, tmp_path, capsys, text, key):
        """An unknown section or key is refused as an unknown flag is, with
        one stderr line, before any input is read or any file written."""
        ini = self.write(tmp_path, text)
        out = tmp_path / "runs"
        assert main(["run", "--data", str(tmp_path / "unread.csv"), "--out", str(out),
                     "--config", ini]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {ini}: unknown config key {key}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "correlate"])
    @pytest.mark.parametrize("key", ["mode", "method", "model", "averaging"])
    def test_a_value_outside_its_choices_exits_1_naming_them(self, tmp_path, capsys, command,
                                                             key):
        """A file value binds as its flag's does, for every command, before
        any input is read or any file written."""
        choices = {"mode": pipeline.MODES, "method": pipeline.METHODS,
                   "model": pipeline.MODELS, "averaging": pipeline.AVERAGINGS}[key]
        ini = self.write(tmp_path, f"[run]\n{key} = foo\n")
        out = tmp_path / "runs"
        assert main([command, "--data", str(tmp_path / "unread.csv"), "--out", str(out),
                     "--config", ini]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {ini}: bad value for run.{key}: 'foo' is not one of {', '.join(choices)}"]
        assert not out.exists()

    def test_a_lone_percent_exits_2_naming_the_file(self, tmp_path, capsys):
        """Values are interpolated, so a lone % is a bad config file: one
        stderr line, before any input is read or any file written."""
        ini = self.write(tmp_path, "[data]\nbenign = 100%\n")
        out = tmp_path / "runs"
        assert main(["preprocess", "--data", str(tmp_path / "unread.csv"), "--out", str(out),
                     "--config", ini]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: bad config file {ini}: ")
        assert "'%' must be followed by '%' or '('" in line
        assert not out.exists()

    def test_a_doubled_percent_reads_as_one(self, tmp_path):
        ini = self.write(tmp_path, "[data]\nbenign = 100%%\n")
        args = build_parser().parse_args(["preprocess", "--data", "x.csv", "--config", ini])
        assert build_config(args).benign == "100%"

    def test_every_key_and_empty_known_sections_are_accepted(self, tmp_path):
        text = "[bat]\n[mlp]\n" + "".join(
            f"[{section}]\n{name} = {value}\n" for section, name, value in (
                ("forest", "n_trees", "3"), ("run", "seed", "4"), ("split", "ratio", "0.25")))
        args = build_parser().parse_args(["run", "--data", "x.csv", "--config",
                                          self.write(tmp_path, text)])
        cfg = build_config(args)
        assert (cfg.forest.n_trees, cfg.seed, cfg.ratio) == (3, 4, 0.25)

    def test_the_readme_lists_every_key_beside_its_flag(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        listed = {m.group(1): re.findall(r"`(--[a-z-]+)`", m.group(2)) for m in re.finditer(
            r"^\| `([a-z_]+\.[a-z_]+)` \| ([^|]+) \|", open(readme).read(), re.M)}
        assert listed == {o.key: list(o.flag) if isinstance(o.flag, tuple) else [o.flag]
                          for group in cli.OPTIONS.values() for o in group if o.key}
