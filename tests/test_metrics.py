"""Confusion tallies and the detection metric suite.

The reference below classifies every cell of the matrix against each
one-vs-rest split by explicit case analysis, then averages with exact
fractions.  The identities the module promises exactly (micro precision =
accuracy, weighted recall = accuracy) are asserted with ==, not allclose.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsel.errors import DataError
from flowsel.metrics import (
    ConfusionMatrix,
    binary_metrics,
    collapse_to_binary,
    confusion,
    multiclass_metrics,
    save_confusion,
)


def oracle_per_class(counts):
    """(tp, fn, fp, tn) per class by walking every cell."""
    n = len(counts)
    out = []
    for k in range(n):
        tp = fn = fp = tn = 0
        for i in range(n):
            for j in range(n):
                c = int(counts[i][j])
                if i == k and j == k:
                    tp += c
                elif i == k:
                    fn += c
                elif j == k:
                    fp += c
                else:
                    tn += c
        out.append((tp, fn, fp, tn))
    return out


def frac(num, den):
    return None if den == 0 else Fraction(num, den)


def oracle_f1(p, r):
    if p is None or r is None or p == 0 or r == 0:
        return None
    return 2 * p * r / (p + r)


def oracle_average(counts, averaging):
    stats = oracle_per_class(counts)
    total = sum(sum(row) for row in counts)
    out = {}
    if averaging == "micro":
        tp, fn, fp, tn = (sum(s[i] for s in stats) for i in range(4))
        out["precision"] = frac(tp, tp + fp)
        out["recall"] = frac(tp, tp + fn)
        out["far"] = frac(fp, fp + tn)
        out["f1"] = oracle_f1(out["precision"], out["recall"])
        return out
    per = {
        "precision": [frac(tp, tp + fp) for tp, fn, fp, tn in stats],
        "recall": [frac(tp, tp + fn) for tp, fn, fp, tn in stats],
        "far": [frac(fp, fp + tn) for tp, fn, fp, tn in stats],
    }
    per["f1"] = [oracle_f1(p, r) for p, r in zip(per["precision"], per["recall"])]
    supports = [tp + fn for tp, fn, fp, tn in stats]
    for name, values in per.items():
        if averaging == "macro":
            kept = [v for v in values if v is not None]
            out[name] = sum(kept) / len(kept) if kept else None
        else:
            pairs = [
                (Fraction(s, total), v)
                for s, v in zip(supports, values)
                if s > 0 and v is not None
            ]
            mass = sum(w for w, _ in pairs)
            out[name] = sum(w * v for w, v in pairs) / mass if pairs else None
    return out


def random_cm(rng, n_classes, sparse=False):
    counts = rng.integers(0, 30, size=(n_classes, n_classes))
    if sparse:  # knock out rows/columns to hit the undefined paths
        for k in range(n_classes):
            if rng.random() < 0.3:
                counts[k, :] = 0
            if rng.random() < 0.3:
                counts[:, k] = 0
    if counts.sum() == 0:
        counts[0, 0] = 1
    return ConfusionMatrix(counts, tuple(f"c{i}" for i in range(n_classes)))


def reference_confusion(y_true, y_pred, class_names):
    """The per-row tally that confusion ran before its bincount."""
    names = tuple(class_names)
    lookup = {name: i for i, name in enumerate(names)}

    def to_index(values, which):
        out = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            if isinstance(v, str):
                if v not in lookup:
                    raise DataError(f"unknown {which} label {v!r}")
                out[i] = lookup[v]
            else:
                idx = int(v)
                if not 0 <= idx < len(names):
                    raise DataError(f"{which} label index {idx} out of range")
                out[i] = idx
        return out

    t = to_index(list(y_true), "true")
    p = to_index(list(y_pred), "predicted")
    if t.size != p.size:
        raise DataError("true and predicted label counts differ")
    if t.size == 0:
        raise DataError("cannot build a confusion matrix from zero rows")
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts, names)


LABEL_FORMS = ("int64 array", "uint8 array", "int list", "name list", "name array")


@st.composite
def label_pairs(draw):
    """Class names and two label sequences in one of LABEL_FORMS, now and
    then holding an index out of range or an unknown name."""
    k = draw(st.integers(1, 5))
    names = tuple(f"c{i}" for i in range(k))
    form = draw(st.sampled_from(LABEL_FORMS))
    n = draw(st.integers(0, 30))
    wild = draw(st.booleans())
    index = st.integers(-2 if wild and form != "uint8 array" else 0, k + 1 if wild else k - 1)

    def labels(size):
        values = draw(st.lists(index, min_size=size, max_size=size))
        if form == "int64 array":
            return np.array(values, dtype=np.int64)
        if form == "uint8 array":
            return np.array(values, dtype=np.uint8)
        if form == "int list":
            return values
        text = [names[v] if 0 <= v < k else f"x{v}" for v in values]
        return text if form == "name list" else np.array(text)

    y_pred = labels(n if draw(st.booleans()) else draw(st.integers(0, 30)))
    return labels(n), y_pred, names


def outcome(tally, y_true, y_pred, names):
    try:
        cm = tally(y_true, y_pred, names)
    except DataError as exc:
        return f"DataError: {exc}"
    assert cm.counts.dtype == np.int64 and cm.class_names == names
    return cm.counts.tolist()


class TestConfusion:
    @settings(max_examples=300, deadline=None)
    @given(case=label_pairs())
    def test_matches_the_per_row_reference(self, case):
        """Equal matrices, or the same DataError, for index arrays and
        lists and for name lists and arrays."""
        y_true, y_pred, names = case
        assert outcome(confusion, y_true, y_pred, names) == \
            outcome(reference_confusion, y_true, y_pred, names)

    def test_error_messages_match_the_reference(self):
        cases = [
            (np.array([0, 3, 1]), np.array([0, 0, 0]), "true label index 3 out of range"),
            (np.array([0, 1]), np.array([-1, 5]), "predicted label index -1 out of range"),
            ([0, 1], [1, 9], "predicted label index 9 out of range"),
            (np.array(["a", "z"]), np.array(["a", "b"]),
             f"unknown true label {np.str_('z')!r}"),
            (["a", "b"], ["a", "q"], "unknown predicted label 'q'"),
        ]
        for y_true, y_pred, message in cases:
            for tally in (confusion, reference_confusion):
                with pytest.raises(DataError) as err:
                    tally(y_true, y_pred, ("a", "b"))
                assert str(err.value) == message

    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], ("a", "b", "c"))
        np.testing.assert_array_equal(
            cm.counts, [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
        )
        assert cm.total == 5

    def test_accepts_names_and_indices(self):
        by_name = confusion(["a", "b", "b"], ["b", "b", "a"], ("a", "b"))
        by_index = confusion([0, 1, 1], [1, 1, 0], ("a", "b"))
        np.testing.assert_array_equal(by_name.counts, by_index.counts)

    def test_unknown_label(self):
        with pytest.raises(DataError, match="unknown true label"):
            confusion(["z"], ["a"], ("a", "b"))
        with pytest.raises(DataError, match="out of range"):
            confusion([0], [5], ("a", "b"))

    def test_length_mismatch_and_empty(self):
        with pytest.raises(DataError, match="differ"):
            confusion([0, 1], [0], ("a", "b"))
        with pytest.raises(DataError, match="zero rows"):
            confusion([], [], ("a", "b"))

    def test_matrix_validation(self):
        with pytest.raises(DataError, match="square"):
            ConfusionMatrix(np.zeros((2, 3)), ("a", "b"))
        with pytest.raises(DataError, match="name count"):
            ConfusionMatrix(np.zeros((2, 2)), ("a",))
        with pytest.raises(DataError, match="negative"):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]), ("a", "b"))


class TestBinaryMetrics:
    def cm(self, tn, fp, fn, tp):
        return ConfusionMatrix(np.array([[tn, fp], [fn, tp]]), ("benign", "attack"))

    def test_hand_example_is_exact(self):
        """tp=3 fp=1 fn=0 tn=2: precision 3/4, recall 1, f1 = 6/7."""
        report = binary_metrics(self.cm(tn=2, fp=1, fn=0, tp=3))
        assert report.accuracy == 5 / 6
        assert report.precision == 3 / 4
        assert report.recall == 1.0
        assert report.far == 1 / 3
        assert report.f1 == 6 / 7
        assert report.undefined == ()

    def test_positive_by_name_matches_index(self):
        cm = self.cm(tn=4, fp=2, fn=1, tp=5)
        assert binary_metrics(cm, positive="attack") == binary_metrics(cm, positive=1)

    def test_swapping_positive_swaps_roles(self):
        cm = self.cm(tn=4, fp=2, fn=1, tp=5)
        flipped = binary_metrics(cm, positive=0)
        assert flipped.precision == 4 / 5  # old tn over predicted-negative
        assert flipped.recall == 4 / 6
        assert flipped.far == 1 / 6

    def test_no_positive_rows_leaves_recall_undefined(self):
        report = binary_metrics(self.cm(tn=5, fp=0, fn=0, tp=0))
        assert report.recall is None
        assert report.precision is None  # nothing predicted positive either
        assert report.f1 is None
        assert report.far == 0.0
        assert set(report.undefined) == {"precision", "recall", "f1"}

    def test_zero_recall_leaves_f1_undefined_not_zero(self):
        report = binary_metrics(self.cm(tn=3, fp=2, fn=4, tp=0))
        assert report.recall == 0.0
        assert report.precision == 0.0
        assert report.f1 is None
        assert "f1" in report.undefined

    def test_validation(self):
        with pytest.raises(DataError, match="2x2"):
            binary_metrics(ConfusionMatrix(np.zeros((3, 3)), ("a", "b", "c")))
        with pytest.raises(DataError, match="empty"):
            binary_metrics(self.cm(0, 0, 0, 0))
        with pytest.raises(DataError, match="unknown positive"):
            binary_metrics(self.cm(1, 0, 0, 1), positive="malware")
        with pytest.raises(DataError):
            binary_metrics(self.cm(1, 0, 0, 1), positive=2)


class TestMulticlassMetrics:
    def test_matches_cell_walking_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(150):
            n = int(rng.integers(2, 6))
            cm = random_cm(rng, n, sparse=trial % 3 == 0)
            for averaging in ("micro", "macro", "weighted"):
                want = oracle_average(cm.counts.tolist(), averaging)
                got = multiclass_metrics(cm, averaging)
                for name in ("precision", "recall", "far", "f1"):
                    w = want[name]
                    g = getattr(got, name)
                    if w is None:
                        assert g is None, (averaging, name)
                    else:
                        assert g == float(w), (averaging, name)

    def test_micro_identity_is_exact(self):
        """Pooled one-vs-rest tp equals the diagonal and every fp pairs
        with an fn, so micro precision, recall, f1 and accuracy coincide."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            cm = random_cm(rng, int(rng.integers(2, 7)))
            report = multiclass_metrics(cm, "micro")
            assert report.precision == report.accuracy
            assert report.recall == report.accuracy
            assert report.f1 == report.accuracy or report.f1 is None

    def test_weighted_recall_is_accuracy_exactly(self):
        rng = np.random.default_rng(37)
        for trial in range(200):
            cm = random_cm(rng, int(rng.integers(2, 7)), sparse=trial % 2 == 0)
            report = multiclass_metrics(cm, "weighted")
            assert report.recall == report.accuracy

    def test_macro_skips_absent_classes_and_counts_them(self):
        counts = np.array(
            [
                [8, 2, 0],
                [1, 9, 0],
                [0, 0, 0],  # class never present, never predicted
            ]
        )
        cm = ConfusionMatrix(counts, ("a", "b", "ghost"))
        report = multiclass_metrics(cm, "macro")
        assert report.skipped == {"precision": 1, "recall": 1, "f1": 1}
        p0, p1 = Fraction(8, 9), Fraction(9, 11)
        assert report.precision == float((p0 + p1) / 2)

    def test_accuracy_ignores_averaging(self):
        rng = np.random.default_rng(41)
        cm = random_cm(rng, 4)
        accs = {
            multiclass_metrics(cm, a).accuracy
            for a in ("micro", "macro", "weighted")
        }
        assert len(accs) == 1

    def test_validation(self):
        cm = ConfusionMatrix(np.array([[1, 0], [0, 1]]), ("a", "b"))
        with pytest.raises(DataError, match="averaging"):
            multiclass_metrics(cm, "harmonic")


class TestCollapseToBinary:
    def hand_cm(self):
        counts = np.array(
            [
                [50, 3, 2],  # benign row
                [4, 30, 6],  # attack a: 30 + 6 hit some attack class
                [1, 5, 20],
            ]
        )
        return ConfusionMatrix(counts, ("benign", "dos", "scan"))

    def test_hand_case(self):
        """Cross-attack confusion still counts as detected."""
        collapsed = collapse_to_binary(self.hand_cm(), "benign")
        assert collapsed.class_names == ("benign", "attack")
        np.testing.assert_array_equal(collapsed.counts, [[50, 5], [5, 61]])

    def test_counts_conserved(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            cm = random_cm(rng, n)
            collapsed = collapse_to_binary(cm, "c0")
            assert collapsed.total == cm.total

    def test_attack_label_order_does_not_matter(self):
        counts = self.hand_cm().counts
        perm = [0, 2, 1]  # swap the two attack classes
        permuted = ConfusionMatrix(
            counts[np.ix_(perm, perm)], ("benign", "scan", "dos")
        )
        np.testing.assert_array_equal(
            collapse_to_binary(permuted, "benign").counts,
            collapse_to_binary(self.hand_cm(), "benign").counts,
        )

    def test_missing_benign(self):
        with pytest.raises(DataError, match="benign"):
            collapse_to_binary(self.hand_cm(), "normal")


class TestSaveConfusion:
    def test_file_contents(self, tmp_path):
        cm = confusion([0, 1, 1], [0, 1, 0], ("a", "b"))
        path = str(tmp_path / "cm.csv")
        save_confusion(cm, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "true\\predicted,a,b"
        assert lines[1] == "a,1,0"
        assert lines[2] == "b,1,1"
