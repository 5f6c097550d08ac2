"""Confusion matrices and detection metrics.

Counts are integers, so every metric here is a ratio of integers: the
internals run on exact fractions and convert to float only at the edge.
That makes the textbook identities (micro precision = accuracy, weighted
recall = accuracy) hold exactly instead of within an ulp or two.

A metric whose denominator is zero is reported as None and named in the
report's ``undefined`` list; it is never silently folded to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import artifacts
from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix; rows are true classes, columns predicted."""

    counts: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError("confusion matrix must be square")
        if c.shape[0] != len(self.class_names):
            raise DataError("class name count does not match the matrix")
        if (c < 0).any():
            raise DataError("negative cell count")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(y_true, y_pred, class_names) -> ConfusionMatrix:
    """Tally true/predicted label pairs; labels may be indices or names."""
    names = tuple(class_names)
    k = len(names)
    lookup = {name: i for i, name in enumerate(names)}

    def to_index(values, which):
        if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
            # index labels: one range check in numpy, reporting the first
            # bad index as the per-row loop below would
            bad = (values < 0) | (values >= k)
            if bad.any():
                raise DataError(f"{which} label index {int(values[bad.argmax()])} out of range")
            return values.astype(np.int64, copy=False)
        values = list(values)
        out = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            if isinstance(v, str):
                if v not in lookup:
                    raise DataError(f"unknown {which} label {v!r}")
                out[i] = lookup[v]
            else:
                idx = int(v)
                if not 0 <= idx < k:
                    raise DataError(f"{which} label index {idx} out of range")
                out[i] = idx
        return out

    t = to_index(y_true, "true")
    p = to_index(y_pred, "predicted")
    if t.size != p.size:
        raise DataError("true and predicted label counts differ")
    if t.size == 0:
        raise DataError("cannot build a confusion matrix from zero rows")
    counts = np.bincount(t * k + p, minlength=k * k).astype(np.int64, copy=False)
    return ConfusionMatrix(counts.reshape(k, k), names)


@dataclass
class MetricReport:
    """Scores plus bookkeeping for the ones that could not be computed.

    ``undefined`` names metrics left as None; ``skipped`` counts, per
    metric, the classes a macro/weighted average had to leave out.
    """

    accuracy: float
    precision: float | None
    recall: float | None
    far: float | None
    f1: float | None
    averaging: str
    undefined: tuple[str, ...] = ()
    skipped: dict[str, int] = field(default_factory=dict)


def _ratio(num: int, den: int) -> Fraction | None:
    if den == 0:
        return None
    return Fraction(num, den)


def _f1_from(precision: Fraction | None, recall: Fraction | None) -> Fraction | None:
    # harmonic mean written with reciprocals, so either score at zero
    # leaves it undefined rather than zero
    if precision is None or recall is None or precision == 0 or recall == 0:
        return None
    return 2 / (1 / recall + 1 / precision)


def _to_float(value: Fraction | None) -> float | None:
    return None if value is None else float(value)


def _scores(tp: int, fn: int, fp: int, tn: int) -> dict[str, Fraction | None]:
    """Precision, recall, false alarm rate and F1 of one (tp, fn, fp, tn)
    tally; each is None where its denominator is zero."""
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return {"precision": precision, "recall": recall, "far": _ratio(fp, fp + tn),
            "f1": _f1_from(precision, recall)}


def _report(accuracy: Fraction, scores: dict, averaging: str, **extra) -> MetricReport:
    return MetricReport(accuracy=float(accuracy),
                        **{name: _to_float(value) for name, value in scores.items()},
                        averaging=averaging,
                        undefined=tuple(name for name, value in scores.items() if value is None),
                        **extra)


def binary_metrics(cm: ConfusionMatrix, positive=1) -> MetricReport:
    """Attack-as-positive scores for a 2x2 matrix.

    ``positive`` is the positive class, by index or name.  The false alarm
    rate is the fraction of truly-negative rows flagged positive.
    """
    counts = np.asarray(cm.counts, dtype=np.int64)
    if counts.shape != (2, 2):
        raise DataError("binary metrics need a 2x2 confusion matrix")
    if isinstance(positive, str):
        if positive not in cm.class_names:
            raise DataError(f"unknown positive class {positive!r}")
        pos = cm.class_names.index(positive)
    else:
        pos = int(positive)
        if pos not in (0, 1):
            raise DataError("positive index must be 0 or 1")
    neg = 1 - pos
    tp = int(counts[pos, pos])
    fn = int(counts[pos, neg])
    fp = int(counts[neg, pos])
    tn = int(counts[neg, neg])
    total = tp + fn + fp + tn
    if total == 0:
        raise DataError("empty confusion matrix")
    return _report(Fraction(tp + tn, total), _scores(tp, fn, fp, tn), "binary")


def _per_class_stats(counts: np.ndarray):
    """One-vs-rest (tp, fn, fp, tn) per class."""
    total = int(counts.sum())
    stats = []
    for k in range(counts.shape[0]):
        tp = int(counts[k, k])
        fn = int(counts[k, :].sum()) - tp
        fp = int(counts[:, k].sum()) - tp
        tn = total - tp - fn - fp
        stats.append((tp, fn, fp, tn))
    return stats, total


def multiclass_metrics(cm: ConfusionMatrix, averaging: str = "macro") -> MetricReport:
    """One-vs-rest scores pooled micro, averaged macro, or support-weighted.

    Macro and weighted averages skip classes whose per-class value is
    undefined and record how many were skipped per metric.  Accuracy is
    always the diagonal fraction, independent of the averaging choice.
    """
    if averaging not in ("micro", "macro", "weighted"):
        raise DataError(f"unknown averaging {averaging!r}")
    counts = np.asarray(cm.counts, dtype=np.int64)
    if counts.shape[0] < 2:
        raise DataError("multiclass metrics need at least 2 classes")
    stats, total = _per_class_stats(counts)
    if total == 0:
        raise DataError("empty confusion matrix")
    trace = int(np.trace(counts))
    accuracy = Fraction(trace, total)

    if averaging == "micro":
        return _report(accuracy, _scores(*(sum(column) for column in zip(*stats))), "micro")

    per_class = [_scores(*s) for s in stats]
    supports = [tp + fn for tp, fn, _, _ in stats]
    out: dict[str, Fraction | None] = {}
    skipped: dict[str, int] = {}
    for name in ("precision", "recall", "far", "f1"):
        values = [scores[name] for scores in per_class]
        if averaging == "macro":
            defined = [v for v in values if v is not None]
            n_skipped = len(values) - len(defined)
            out[name] = sum(defined) / len(defined) if defined else None
        else:
            # support weights; a zero-support class carries no weight, and a
            # supported class with an undefined score drops out with its
            # weight mass renormalized away
            pairs = [
                (Fraction(s, total), v)
                for s, v in zip(supports, values)
                if s > 0 and v is not None
            ]
            n_skipped = sum(1 for s, v in zip(supports, values)
                            if s > 0 and v is None)
            if pairs:
                mass = sum(w for w, _ in pairs)
                out[name] = sum(w * v for w, v in pairs) / mass
            else:
                out[name] = None
        if n_skipped:
            skipped[name] = n_skipped

    return _report(accuracy, out, averaging, skipped=skipped)


def collapse_to_binary(cm: ConfusionMatrix, benign: str) -> ConfusionMatrix:
    """Pool every non-benign class into one attack class.

    An attack row predicted as any attack class counts as a true positive,
    whichever attack it was called.  Cell totals are conserved.
    """
    if benign not in cm.class_names:
        raise DataError(f"benign class {benign!r} not in the matrix")
    b = cm.class_names.index(benign)
    counts = np.asarray(cm.counts, dtype=np.int64)
    attack = [i for i in range(counts.shape[0]) if i != b]
    tn = int(counts[b, b])
    fp = int(counts[b, attack].sum())
    fn = int(counts[attack, b].sum())
    tp = int(counts[np.ix_(attack, attack)].sum())
    collapsed = np.array([[tn, fp], [fn, tp]], dtype=np.int64)
    return ConfusionMatrix(collapsed, (benign, "attack"))


def save_confusion(cm: ConfusionMatrix, path: str) -> None:
    """CSV with named rows and columns at ``path``, and the counts as a
    container beside it."""
    rows = "".join(f"{name}," + ",".join(str(int(v)) for v in cm.counts[i]) + "\n"
                   for i, name in enumerate(cm.class_names))
    artifacts.write_atomic(path, "true\\predicted," + ",".join(cm.class_names) + "\n" + rows)
    artifacts.save(artifacts.container_for(path), "confusion",
                   {"counts": np.asarray(cm.counts, dtype=np.int64)},
                   class_names=list(cm.class_names))


def load_confusion(path: str) -> ConfusionMatrix:
    """The matrix save_confusion wrote for ``path``, from its container."""
    return artifacts.load(artifacts.container_for(path), "confusion", lambda header, arrays:
                          ConfusionMatrix(arrays["counts"], tuple(header["class_names"])))


def load_confusion_header(path: str) -> tuple[str, ...]:
    """The class names of the matrix save_confusion wrote for ``path``,
    from its container's header alone."""
    return artifacts.load_header(artifacts.container_for(path), "confusion",
                                 lambda header: tuple(header["class_names"]))
