"""The timed operations of each workload and the checks on their outputs.

A workload is a set-up (``fixtures.prepare``, run in a child process) and a
round: a fixed list of operations on the set-up's files.  A run repeats
whole rounds, so every run attempts the same operations in the same
proportions.  Rounds call flowsel only through its public functions and
its command line, looked up on the module at call time so that the tracer
can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
import fixtures
from flowsel import cli, correlation, dataset, subset_search

# The paper's comparison at corpus shape: every method with a forest, the
# bat subset with an MLP, then the report.  Searches run at k = 63, above
# the exhaustive cap.  Every run shares --trees, so the importance forest
# is grown once per grid and read from the cache after that.
GRID_TREES = "2"
GRID_SEARCH = ("--bat-n", "30", "--bat-epochs", "300", "--aquila-n", "30", "--aquila-epochs", "300")
GRID_K = 16
GRID_RUNS = (
    ("--method", "full", "--model", "rf"),
    ("--method", "ba", "--model", "rf"),
    ("--method", "ao", "--model", "rf"),
    ("--method", "rf-ig", "--k", str(GRID_K), "--model", "rf"),
    ("--method", "ba", "--model", "mlp"),
)

# Round r of a run with seed s searches with seed s * SEEDS_PER_RUN + r.
SEEDS_PER_RUN = 1000


def _flowsel(argv) -> bool:
    """Run one flowsel command in-process, its stdout discarded; True on exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv)) == 0


def grid_commands(csv_path: str, out_dir: str) -> list[list[str]]:
    common = ["--data", csv_path, "--out", out_dir, "--trees", GRID_TREES, *GRID_SEARCH]
    runs = [["run", *spec, *common] for spec in GRID_RUNS]
    return runs + [["report", "--out", out_dir]]


def run_grid(csv_path: str, out_dir: str) -> int:
    """Run the grid; returns the number of commands that failed."""
    return sum(not _flowsel(argv) for argv in grid_commands(csv_path, out_dir))


def ingest_commands(paths, out_dir: str) -> list[list[str]]:
    common = ["--data", *paths, "--out", out_dir, "--grouping", "default"]
    return [["correlate", *common], ["correlate", "--binary", *common]]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Workload:
    """One workload bound to its set-up directory.

    ``run(index, out_dir)`` performs round ``index``, which attempts
    ``ops`` operations, and returns (failed, output).  After the round's
    timer has stopped, ``artifacts(output)`` names the directory the round
    wrote, if any, and ``keep(output)`` returns what ``check`` needs of the
    round; ``check(kept)`` returns the failed checks over every round.
    """

    ops = 0

    def __init__(self, setup_dir: str, seed: int):
        self.setup_dir = setup_dir
        self.seed = seed

    def artifacts(self, output):
        return output

    def keep(self, output):
        return output


class SearchSeeds(Workload):
    ops = 4

    def __init__(self, setup_dir, seed):
        super().__init__(setup_dir, seed)
        with np.load(os.path.join(setup_dir, "search.npz")) as z:
            self.features = z["features"]
            self.labels = z["labels"]
            self.feature_names = tuple(z["feature_names"].tolist())
            self.class_names = tuple(z["class_names"].tolist())
        self.indicators = dataset.one_hot(self.labels, self.class_names)

    def run(self, index, out_dir):
        search_seed = self.seed * SEEDS_PER_RUN + index
        out, failed = {}, 0
        steps = (
            ("corr", lambda: correlation.spearman_matrix(
                self.features, self.indicators, self.feature_names, self.class_names)),
            ("ba", lambda: subset_search.bat_run(
                out["corr"], subset_search.BatConfig(seed=search_seed))),
            ("ao", lambda: subset_search.aquila_run(
                out["corr"], subset_search.AquilaConfig(seed=search_seed))),
            ("brute", lambda: subset_search.brute_force_best(out["corr"])),
        )
        for name, call in steps:
            if name != "corr" and "corr" not in out:
                failed += 1
                continue
            try:
                out[name] = call()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
        return failed, out

    def artifacts(self, output):
        return None

    def check(self, kept):
        bat, ao = subset_search.BatConfig(), subset_search.AquilaConfig()
        indicators = (self.labels[:, None] == np.arange(len(self.class_names)))
        errors = []
        for out in kept:
            errors += checks.check_search_round(out, self.features, indicators,
                                                bat.n, bat.t_max, ao.n, ao.t_max)
        return errors


class GridCold(Workload):
    ops = len(GRID_RUNS) + 1

    def run(self, index, out_dir):
        csv_path = os.path.join(self.setup_dir, "corpus.csv")
        return run_grid(csv_path, out_dir), out_dir

    def check(self, kept):
        truth = json.loads(_read(os.path.join(self.setup_dir, "corpus.truth.json")))
        errors = []
        for out_dir in kept:
            errors += checks.check_grid(out_dir, truth, len(GRID_RUNS), GRID_K)
        return errors


class GridWarm(GridCold):
    """Repeats the grid against the cache its set-up filled."""

    def run(self, index, out_dir):
        grid = os.path.join(self.setup_dir, "grid")
        return run_grid(os.path.join(self.setup_dir, "corpus.csv"), grid), grid

    def keep(self, output):
        return _read(os.path.join(output, "report.csv"))

    def check(self, kept):
        cold = _read(os.path.join(self.setup_dir, "report.cold.csv"))
        errors = super().check([os.path.join(self.setup_dir, "grid")])
        for warm in kept:
            errors += checks.check_warm_report(warm, cold)
        return errors


class Ingest(Workload):
    ops = 2

    def run(self, index, out_dir):
        paths = [os.path.join(self.setup_dir, f"day{d + 1}.csv") for d in range(fixtures.DAY_FILES)]
        return sum(not _flowsel(argv) for argv in ingest_commands(paths, out_dir)), out_dir

    def check(self, kept):
        rows = fixtures.DAY_FILES * (fixtures.DAY_ROWS - fixtures.DAY_NONFINITE_ROWS)
        dropped = (*fixtures.DAY_ID_COLUMNS, fixtures.DAY_CONSTANT_COLUMN)
        errors = []
        for out_dir in kept:
            errors += checks.check_ingest(out_dir, rows, dropped, fixtures.DAY_FEATURES + 1)
        return errors


ROUNDS = {
    "search-seeds": SearchSeeds,
    "grid-cold": GridCold,
    "grid-warm": GridWarm,
    "ingest": Ingest,
}
