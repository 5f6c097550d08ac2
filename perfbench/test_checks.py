"""The benchmark's checks accept the program's real outputs and reject each
output after one deliberate change.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import workloads  # noqa: E402
from flowsel import subset_search  # noqa: E402


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("search"))
    fixtures.write_search_fixture(directory)
    rnd = workloads.SearchSeeds(directory, seed=0)
    failed, out = rnd.run(0, directory)
    assert failed == 0
    return rnd, out


def _search_errors(rnd, out):
    return rnd.check([out])


def test_search_round_passes(search):
    rnd, out = search
    assert _search_errors(rnd, out) == []


def test_merit_off_by_one_ulp_is_rejected(search):
    rnd, out = search
    ba = out["ba"]
    merit = float(np.nextafter(ba.best_merit, 2.0))
    bumped = dataclasses.replace(ba, best_merit=merit, merit_trace=(*ba.merit_trace[:-1], merit))
    assert _search_errors(rnd, {**out, "ba": bumped})


def test_decreasing_trace_is_rejected(search):
    rnd, out = search
    ao = out["ao"]
    trace = list(ao.merit_trace)
    trace[1] = trace[0] - 1e-9
    assert _search_errors(rnd, {**out, "ao": dataclasses.replace(ao, merit_trace=tuple(trace))})


def test_wrong_evaluation_count_is_rejected(search):
    rnd, out = search
    ba = out["ba"]
    assert _search_errors(rnd, {**out, "ba": dataclasses.replace(ba, evaluations=ba.evaluations - 1)})


def test_brute_subset_that_is_not_the_optimum_is_rejected(search):
    rnd, out = search
    brute = out["brute"]
    other = subset_search.FeatureSubset(tuple(range(brute.best.k + 1)))
    assert _search_errors(rnd, {**out, "brute": dataclasses.replace(brute, best=other)})


def test_nudged_spearman_entry_is_rejected(search):
    rnd, out = search
    corr = out["corr"]
    values = corr.values.copy()
    values[0, 1] += 1e-9
    assert _search_errors(rnd, {**out, "corr": dataclasses.replace(corr, values=values)})


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("grid"))
    csv_path = fixtures.write_corpus(directory, seed=1, rows=1500)
    assert workloads.run_grid(csv_path, os.path.join(directory, "grid")) == 0
    return directory


def _grid_copy(grid, tmp_path):
    directory = str(tmp_path / "copy")
    shutil.copytree(grid, directory)
    return directory


def _grid_errors(directory):
    return workloads.GridCold(directory, seed=1).check([os.path.join(directory, "grid")])


def _edit(path, old, new):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def test_grid_passes(grid):
    assert _grid_errors(grid) == []


def test_report_row_with_one_accuracy_changed_is_rejected(grid, tmp_path):
    directory = _grid_copy(grid, tmp_path)
    report = os.path.join(directory, "grid", "report.csv")
    row = checks.read_csv_rows(report)[2]
    changed = repr(float(np.nextafter(float(row["accuracy"]), 0.0)))
    _edit(report, f",{row['accuracy']},{row['precision']},", f",{changed},{row['precision']},")
    assert _grid_errors(directory)


def test_missing_report_row_is_rejected(grid, tmp_path):
    directory = _grid_copy(grid, tmp_path)
    report = os.path.join(directory, "grid", "report.csv")
    with open(report, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(report, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert _grid_errors(directory)


def test_rf_ig_subset_that_is_not_the_top_k_is_rejected(grid, tmp_path):
    directory = _grid_copy(grid, tmp_path)
    [(path, record)] = [(p, r) for p, r in checks.read_records(os.path.join(directory, "grid"))
                        if r["method"] == "rf-ig"]
    indices = record["subset"]["indices"]
    spare = next(i for i in range(len(record["feature_names"])) if i not in indices)
    record["subset"]["indices"] = sorted([spare, *indices[1:]])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert _grid_errors(directory)


def test_warm_row_that_differs_from_its_cold_row_is_rejected(grid):
    cold = open(os.path.join(grid, "grid", "report.csv"), encoding="utf-8").read()
    assert checks.check_warm_report(cold, cold) == []
    header, first, *rest = cold.strip().split("\n")
    cells = first.split(",")
    time_col = header.split(",").index("time_s")
    retimed = cells.copy()
    retimed[time_col] = "0.5"
    assert checks.check_warm_report("\n".join([header, ",".join(retimed), *rest]), cold) == []
    cells[-1] = repr(float(np.nextafter(float(cells[-1]), 0.0)))
    assert checks.check_warm_report("\n".join([header, ",".join(cells), *rest]), cold)


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("ingest"))
    fixtures.write_day_files(directory, seed=1)
    rnd = workloads.Ingest(directory, seed=1)
    out_dir = os.path.join(directory, "out")
    failed, _ = rnd.run(0, out_dir)
    assert failed == 0
    return rnd, out_dir


def test_ingest_passes(ingest):
    rnd, out_dir = ingest
    assert rnd.check([out_dir]) == []


def test_nudged_heatmap_entry_is_rejected(ingest, tmp_path):
    rnd, out_dir = ingest
    copy = str(tmp_path / "out")
    shutil.copytree(out_dir, copy)
    heatmap = sorted(p for p in os.listdir(copy) if p.startswith("corr_") and p.endswith(".csv"))[1]
    path = os.path.join(copy, heatmap)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[1].rstrip("\n").split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[1] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert rnd.check([copy])


def test_wrong_row_count_is_rejected(ingest):
    _, out_dir = ingest
    rows = fixtures.DAY_FILES * fixtures.DAY_ROWS  # non-finite rows not removed
    dropped = (*fixtures.DAY_ID_COLUMNS, fixtures.DAY_CONSTANT_COLUMN)
    assert checks.check_ingest(out_dir, rows, dropped, fixtures.DAY_FEATURES + 1)
