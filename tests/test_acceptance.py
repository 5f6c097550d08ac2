"""Release gate: ten checks, one per shipping criterion.

Each test appends a verdict line to ``GATE_LINES`` before asserting, so
the terminal summary lists every criterion even when one fails.  The
tolerances here are frozen; loosening them is a release decision, not a
test fix.

Criterion 10 needs the real flow corpus and is skipped unless
``FLOWSEL_DATA_DIR`` points at its CSV directory.
"""

import glob
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import GATE_LINES, gradient_check
from flowsel import dataset
from flowsel.correlation import MeritEvaluator, cfs_merit, merit_formula, spearman_matrix
from flowsel.dataset import Dataset, one_hot, split_indices
from flowsel.metrics import (
    ConfusionMatrix,
    binary_metrics,
    collapse_to_binary,
    multiclass_metrics,
)
from flowsel.neural_net import MlpConfig, init_model, sigmoid, softmax, train
from flowsel.neural_net import predict as mlp_predict
from flowsel.pipeline import ExperimentConfig, load_grouping, run_pipeline, run_record_row
from flowsel.random_forest import ForestConfig, entropy, gini, select_top_k, train_forest
from flowsel.random_forest import predict as forest_predict
from flowsel.subset_search import BatConfig, _pulse_value, bat_epoch, bat_init, seed_incumbent
from flowsel.synth import make_dataset, write_fixture


def naive_rank(col):
    """1-based average ranks by explicit tie-group scanning."""
    order = np.argsort(col, kind="stable")
    ranks = np.empty(col.size)
    vals = col[order]
    i = 0
    while i < col.size:
        j = i
        while j + 1 < col.size and vals[j + 1] == vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def naive_spearman(columns):
    ranked = np.column_stack([naive_rank(c) for c in columns.T])
    return np.corrcoef(ranked, rowvar=False)


def row_slice(data, idx):
    return Dataset(
        features=data.features[idx],
        feature_names=data.feature_names,
        labels_cat=data.labels_cat[idx],
        labels_bin=data.labels_bin[idx],
        class_names=data.class_names,
    )


def column_slice(data, indices):
    return Dataset(
        features=data.features[:, list(indices)],
        feature_names=tuple(data.feature_names[i] for i in indices),
        labels_cat=data.labels_cat,
        labels_bin=data.labels_bin,
        class_names=data.class_names,
    )


def test_criterion_01_formula_exactness():
    t0 = time.perf_counter()
    cm = ConfusionMatrix(np.array([[80, 20], [10, 90]]), ("benign", "attack"))
    rep = binary_metrics(cm, positive="attack")
    precision = 90 / 110
    f1 = 2 * precision * 0.9 / (precision + 0.9)
    errs = [
        abs(gini([5, 5]) - 0.5),
        abs(entropy([5, 5]) - math.log(2.0)),
        float(np.abs(softmax(np.array([[0.0, 0.0]])) - 0.5).max()),
        abs(float(sigmoid(np.array([0.0]))[0]) - 0.5),
        abs(merit_formula(2, 0.5, 0.2) - 1.0 / math.sqrt(2.4)),
        abs(rep.accuracy - 0.85),
        abs(rep.precision - precision),
        abs(rep.recall - 0.9),
        abs(rep.far - 0.2),
        abs(rep.f1 - f1),
    ]
    worst = max(errs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    GATE_LINES.append(
        f"criterion 1 (formula exactness): {'PASS' if ok else 'FAIL'} "
        f"max_err={worst:.2e} {elapsed:.3f}s"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_rank_correlation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    worst_inv = 0.0
    for _ in range(200):
        rows = int(rng.integers(5, 51))
        n_class = int(rng.integers(2, 5))
        n_feat = int(rng.integers(2, 21 - n_class))
        feats = rng.uniform(size=(rows, n_feat))
        if rng.random() < 0.5:  # force tied feature values into the mix
            feats = np.round(feats, 1)
        labels = rng.integers(0, n_class, size=rows)
        labels[:n_class] = np.arange(n_class)  # every class occurs
        names = tuple(f"f{i}" for i in range(n_feat))
        classes = tuple(f"c{i}" for i in range(n_class))
        indicators = one_hot(labels, classes)
        corr = spearman_matrix(feats, indicators, names, classes)
        oracle = naive_spearman(np.column_stack([feats, indicators]))
        worst = max(worst, float(np.abs(corr.values - oracle).max()))
        # strictly increasing transform leaves ranks, hence the matrix, alone
        again = spearman_matrix(np.exp(feats), indicators, names, classes)
        worst_inv = max(worst_inv, float(np.abs(corr.values - again.values).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_inv <= 1e-12 and elapsed < 30.0
    GATE_LINES.append(
        f"criterion 2 (rank correlation oracle): {'PASS' if ok else 'FAIL'} "
        f"200 matrices, max_err={worst:.2e}, invariance_err={worst_inv:.2e}, {elapsed:.1f}s"
    )
    assert worst <= 1e-12
    assert worst_inv <= 1e-12
    assert elapsed < 30.0


def test_criterion_03_search_vs_oracle(selection_oracle, ba_results, ao_results):
    target = selection_oracle.best_merit
    ba_hits = sum(1 for r in ba_results if abs(r.best_merit - target) <= 1e-12)
    ao_hits = sum(1 for r in ao_results if abs(r.best_merit - target) <= 1e-12)
    ao_rate = ao_hits / len(ao_results)
    monotone = sum(
        1
        for r in ba_results + ao_results
        if all(b >= a for a, b in zip(r.merit_trace, r.merit_trace[1:]))
    )
    total = sum(r.elapsed for r in ba_results + ao_results) + selection_oracle.elapsed
    ok = ba_hits >= 19 and ao_rate > 0.5 and monotone == 40 and total < 300.0
    GATE_LINES.append(
        f"criterion 3 (search vs oracle): {'PASS' if ok else 'FAIL'} "
        f"ba {ba_hits}/20 (need 19), ao rate {ao_rate:.2f}, "
        f"monotone {monotone}/40, {total:.0f}s"
    )
    assert monotone == 40
    assert ao_rate > 0.5
    assert total < 300.0
    assert ba_hits >= 19


def test_criterion_04_loudness_and_pulse_schedules():
    data, _ = make_dataset(3, 9, 400, seed=13)
    indicators = one_hot(data.labels_cat, data.class_names)
    corr = spearman_matrix(
        data.features, indicators, data.feature_names, data.class_names
    )
    evaluator = MeritEvaluator(corr)
    cfg = BatConfig(n=8, t_max=1000, seed=3)
    pop = bat_init(cfg, corr.n_features)
    seed_incumbent(pop, evaluator)
    a0 = pop.loudness.copy()
    r0 = pop.pulse_init.copy()
    last_accept = np.full(cfg.n, -1)
    clamped = True
    for epoch in range(1000):
        before = pop.accept_counts.copy()
        bat_epoch(pop, evaluator, cfg, epoch)
        clamped = clamped and pop.x.min() >= -1.0 and pop.x.max() <= 1.0
        clamped = clamped and float(np.abs(pop.v).max()) <= 1.0
        last_accept[pop.accept_counts > before] = epoch

    loud_err = float(np.abs(pop.loudness - a0 * 0.95**pop.accept_counts).max())
    pulse_err = 0.0
    for i in np.nonzero(last_accept >= 0)[0]:
        want = r0[i] * (1.0 - math.exp(-(0.95 ** last_accept[i])))
        pulse_err = max(pulse_err, abs(float(pop.pulse[i]) - want))
    formula_err = max(
        abs(_pulse_value(r, t, cfg) - r * (1.0 - math.exp(-(0.95**t))))
        for r in (0.0, 0.3, 1.0)
        for t in (0, 1, 7, 40)
    )
    accepts = int(pop.accept_counts.sum())
    ok = loud_err <= 1e-12 and pulse_err <= 1e-12 and formula_err <= 1e-12 and clamped
    GATE_LINES.append(
        f"criterion 4 (loudness and pulse schedules): {'PASS' if ok else 'FAIL'} "
        f"loudness_err={loud_err:.2e}, pulse_err={pulse_err:.2e}, "
        f"accepts={accepts}, clamped={clamped}"
    )
    assert accepts >= 1  # otherwise the schedule checks are vacuous
    assert loud_err <= 1e-12
    assert pulse_err <= 1e-12
    assert formula_err <= 1e-12
    assert clamped


def test_criterion_05_forest_properties(selection_fixture):
    t0 = time.perf_counter()
    big, _ = make_dataset(3, 2, 1000, seed=11)
    boot = train_forest(big, ForestConfig(n_trees=50, seed=0))
    in_bag_fraction = float(boot.in_bag.mean())

    data, truth = selection_fixture
    runs = [
        train_forest(data, ForestConfig(seed=0, n_workers=w)) for w in (1, 2, 8)
    ]
    forest = runs[0]
    identical = all(
        np.array_equal(forest.importances, r.importances) for r in runs[1:]
    )
    imp_sum_err = abs(float(forest.importances.sum()) - 1.0)
    noise = [j for j in range(len(data.feature_names)) if j not in truth.informative]
    noise_mass = float(forest.importances[noise].sum())
    elapsed = time.perf_counter() - t0

    ok = (
        abs(in_bag_fraction - 0.632) <= 0.03
        and imp_sum_err <= 1e-9
        and noise_mass < 0.05
        and forest.oob_accuracy >= 0.95
        and identical
        and elapsed < 120.0
    )
    GATE_LINES.append(
        f"criterion 5 (forest properties): {'PASS' if ok else 'FAIL'} "
        f"in_bag={in_bag_fraction:.3f}, noise_mass={noise_mass:.4f}, "
        f"oob={forest.oob_accuracy:.3f}, workers_identical={identical}, {elapsed:.0f}s"
    )
    assert abs(in_bag_fraction - 0.632) <= 0.03
    assert imp_sum_err <= 1e-9
    assert noise_mass < 0.05
    assert forest.oob_accuracy >= 0.95
    assert identical
    assert elapsed < 120.0


def test_criterion_06_selection_end_to_end(selection_fixture, ba_results):
    data, truth = selection_fixture
    want = set(truth.informative)
    k = len(want)

    ba_hits = sum(
        1 for r in ba_results if len(set(r.best.indices) & want) >= 2
    )
    ig_hits = 0
    ig_first = None
    for s in range(20):
        forest = train_forest(data, ForestConfig(seed=s))
        subset = select_top_k(forest.importances, k)
        if s == 0:
            ig_first = subset.indices
        if len(set(subset.indices) & want) >= 2:
            ig_hits += 1

    train_idx, test_idx = split_indices(
        data.n_rows, 0.5, seed=0, stratified=True, labels=data.labels_cat
    )
    train_part, test_part = row_slice(data, train_idx), row_slice(data, test_idx)

    def test_accuracy(part_train, part_test):
        forest = train_forest(part_train, ForestConfig(seed=0))
        preds = forest_predict(forest, part_test.features)
        return float(np.mean(preds == part_test.labels_cat))

    full_acc = test_accuracy(train_part, test_part)
    ba_idx = ba_results[0].best.indices
    ba_acc = test_accuracy(
        column_slice(train_part, ba_idx), column_slice(test_part, ba_idx)
    )
    ig_acc = test_accuracy(
        column_slice(train_part, ig_first), column_slice(test_part, ig_first)
    )
    floor = full_acc - 0.01
    ok = ba_hits >= 18 and ig_hits >= 18 and ba_acc >= floor and ig_acc >= floor
    GATE_LINES.append(
        f"criterion 6 (selection end-to-end): {'PASS' if ok else 'FAIL'} "
        f"ba {ba_hits}/20, rf-ig {ig_hits}/20, full={full_acc:.4f}, "
        f"ba_subset={ba_acc:.4f}, ig_subset={ig_acc:.4f}"
    )
    assert ba_hits >= 18
    assert ig_hits >= 18
    assert ba_acc >= floor
    assert ig_acc >= floor


def test_criterion_07_mlp(blob_fixture):
    t0 = time.perf_counter()
    model = init_model(4, (4, 3), 3, "categorical", seed=0)
    rng = np.random.default_rng(7)
    grad_err = gradient_check(
        model, rng.uniform(size=(4, 4)), np.array([0, 1, 2, 0]), seed=1
    )

    sums_err = float(
        np.abs(softmax(rng.normal(scale=8.0, size=(300, 7))).sum(axis=1) - 1.0).max()
    )

    data, _ = blob_fixture
    trained = train(data, MlpConfig(hidden_sizes=(50, 25), epochs=10, seed=0))
    acc = float(np.mean(mlp_predict(trained, data.features) == data.labels_cat))
    elapsed = time.perf_counter() - t0
    ok = grad_err < 1e-5 and sums_err <= 1e-9 and acc >= 0.98 and elapsed < 60.0
    GATE_LINES.append(
        f"criterion 7 (mlp): {'PASS' if ok else 'FAIL'} grad_err={grad_err:.2e}, "
        f"softmax_err={sums_err:.2e}, train_acc={acc:.4f}, {elapsed:.0f}s"
    )
    assert grad_err < 1e-5
    assert sums_err <= 1e-9
    assert acc >= 0.98
    assert elapsed < 60.0


def test_criterion_08_metric_identities():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        counts = rng.integers(0, 40, size=(n, n))
        if rng.random() < 0.3:
            counts[int(rng.integers(0, n))] = 0  # a class the data never shows
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts, tuple(f"c{i}" for i in range(n)))
        micro = multiclass_metrics(cm, "micro")
        assert micro.precision == micro.recall == micro.f1 == micro.accuracy
        weighted = multiclass_metrics(cm, "weighted")
        assert weighted.recall == weighted.accuracy

    conserved = True
    for _ in range(100):
        counts = rng.integers(0, 40, size=(4, 4))
        counts[0, 0] += 1  # keep the matrix non-empty
        cm = ConfusionMatrix(counts, ("Benign", "dos", "probe", "worm"))
        flat = collapse_to_binary(cm, "Benign")
        conserved = conserved and flat.counts.sum() == cm.counts.sum()
    GATE_LINES.append(
        f"criterion 8 (metric identities): {'PASS' if conserved else 'FAIL'} "
        f"1000 matrices exact, collapse conserves counts={conserved}"
    )
    assert conserved


def test_criterion_09_determinism(tmp_path):
    csv_path, _ = write_fixture(str(tmp_path), "flows", 3, 3, 160, seed=6)

    def run(out_name, workers):
        cfg = ExperimentConfig(
            data_paths=(csv_path,),
            benign="Benign",
            out_dir=str(tmp_path / out_name),
            method="ba",
            seed=5,
            bat=BatConfig(n=20, t_max=40, seed=0),
            forest=ForestConfig(n_trees=20, max_depth=10, seed=0, n_workers=workers),
        )
        row = run_record_row(run_pipeline(cfg))
        row.pop("time_s")  # wall-clock durations are not reproducible
        return json.dumps(row, sort_keys=True).encode()

    first = run("a", workers=1)
    rerun = run("b", workers=1)
    threaded = run("c", workers=2)
    ok = first == rerun and first == threaded
    GATE_LINES.append(
        f"criterion 9 (determinism): {'PASS' if ok else 'FAIL'} "
        f"rerun_identical={first == rerun}, workers_identical={first == threaded}"
    )
    assert first == rerun
    assert first == threaded


def test_criterion_10_full_data_mode(tmp_path):
    data_dir = os.environ.get("FLOWSEL_DATA_DIR", "")
    if not data_dir:
        GATE_LINES.append(
            "criterion 10 (full-data mode): SKIP, FLOWSEL_DATA_DIR unset"
        )
        pytest.skip("FLOWSEL_DATA_DIR not set; the full corpus is optional")

    paths = sorted(glob.glob(os.path.join(data_dir, "*.csv")))
    assert paths, f"no CSV files under {data_dir}"
    test_path = str(tmp_path / "test.ds")
    train, _ = dataset.prepare_splits(
        dataset.load_csv(paths, drop_columns=dataset.DEFAULT_DROP_COLUMNS),
        benign="Benign",
        grouping=load_grouping("default"),
        ratio=0.5,
        seed=0,
        test_path=test_path,
    )
    pair = dataset.SplitPair(train, dataset.load_dataset(test_path), seed=0, ratio=0.5)
    all_features = tuple(range(len(pair.train.feature_names)))

    def full_set_merit(binary):
        cols, names = dataset.class_indicator_columns(pair.train, binary=binary)
        corr = spearman_matrix(
            pair.train.features, cols, pair.train.feature_names, names
        )
        return cfs_merit(corr, all_features).merit

    cat_merit = full_set_merit(binary=False)
    bin_merit = full_set_merit(binary=True)
    forest = train_forest(pair.train, ForestConfig(seed=0))
    acc = float(
        np.mean(forest_predict(forest, pair.test.features) == pair.test.labels_cat)
    )
    ok = (
        abs(cat_merit - 0.119) <= 0.005
        and abs(bin_merit - 0.248) <= 0.005
        and acc >= 0.975
    )
    GATE_LINES.append(
        f"criterion 10 (full-data mode): {'PASS' if ok else 'FAIL'} "
        f"cfs_cat={cat_merit:.4f} (want 0.119±0.005), "
        f"cfs_bin={bin_merit:.4f} (want 0.248±0.005), rf_acc={acc:.4f}"
    )
    assert abs(cat_merit - 0.119) <= 0.005
    assert abs(bin_merit - 0.248) <= 0.005
    assert acc >= 0.975
