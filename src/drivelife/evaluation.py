"""Evaluation protocol: grouped cross-validation, undersampling, ROC/AUROC, sweeps.

Protocol invariants enforced here:

* folds are partitioned by drive ID, so no drive's observations appear in
  both training and testing;
* only training folds are undersampled (default 1:1 class ratio); test
  folds keep their raw class ratio;
* all randomness flows from explicit seeds, so serial and parallel runs
  produce byte-identical reports.

AUROC is computed from integer win/tie counts with a single final
division, which makes the trapezoidal value *exactly* equal to the
pairwise-concordance probability (ties counted half); it is a pure rank
statistic and is not clamped to the (0.5, 1) range.

Threshold semantics: ``confusion_at_threshold`` predicts a failure when
the score is strictly larger than alpha. Each ROC point is labeled with
the smallest score predicted positive at that point (the anchor (0, 0)
point carries threshold 1.0, where a strict comparison predicts nothing).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.random

from . import learners
from .featurize import LabeledExamples, PartitionRule, partition_dataset
from .ingest import SchemaError

__all__ = [
    "FoldAssignment",
    "RocCurve",
    "ConfusionMatrix",
    "EvalReport",
    "PartitionedReport",
    "ModelSpec",
    "kfold_by_drive",
    "undersample",
    "roc_curve",
    "auroc",
    "confusion_at_threshold",
    "cross_validated_eval",
    "lookahead_sweep",
    "cross_model_matrix",
    "partitioned_eval",
    "tpr_vs_attribute",
]


@dataclass(frozen=True)
class FoldAssignment:
    """Drive -> fold index; all of a drive's examples share its fold."""

    mapping: dict
    k: int


def kfold_by_drive(drive_ids: Iterable[str], k: int = 5,
                   seed: int = 0) -> FoldAssignment:
    """Seeded shuffle + round-robin assignment of drives to k folds."""
    if k < 2:
        raise ValueError("k must be >= 2")
    distinct = sorted(set(drive_ids))
    if len(distinct) < k:
        raise ValueError(f"need at least {k} distinct drives, got {len(distinct)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(distinct))
    mapping = {distinct[j]: i % k for i, j in enumerate(order)}
    return FoldAssignment(mapping, k)


def _drive_folds(examples: LabeledExamples, k: int, seed: int,
                 folds: FoldAssignment | None = None
                 ) -> tuple[FoldAssignment, np.ndarray]:
    """The folds (by default ``kfold_by_drive`` over the drives that have
    rows) and the fold of every row, looked up once per drive."""
    present = np.unique(examples.drive)
    names = [examples.drive_ids[c] for c in present.tolist()]
    if folds is None:
        folds = kfold_by_drive(names, k, seed)
    fold = np.zeros(len(examples.drive_ids), dtype=np.int64)
    fold[present] = [folds.mapping[d] for d in names]
    return folds, fold[examples.drive]


def _balanced_rows(y: np.ndarray, ratio: float, seed: int) -> np.ndarray:
    """The rows, increasing, that ``undersample`` keeps of labels ``y``."""
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("undersample needs both classes present")
    minority_is_pos = pos <= neg
    target = int(round(min(pos, neg) * ratio))
    majority_idx = np.flatnonzero(y != minority_is_pos)
    if majority_idx.size <= target:
        return np.arange(y.size)
    rng = np.random.default_rng(seed)
    keep = y == minority_is_pos
    keep[rng.choice(majority_idx, size=target, replace=False)] = True
    return np.flatnonzero(keep)


def undersample(examples: LabeledExamples, ratio: float = 1.0,
                seed: int = 0) -> LabeledExamples:
    """Downsample the majority class to ``minority count * ratio`` examples.

    All minority examples are kept; majority examples are chosen without
    replacement; input order is preserved. Never upsamples: a majority
    already at or below the target is kept whole. Raises if either class
    is empty (training sets must contain both).
    """
    rows = _balanced_rows(examples.y, ratio, seed)
    return examples if rows.size == examples.n else examples.subset(rows)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """ROC vertices, one per index of three read-only float64 arrays.

    One vertex per change of direction: index 0 is the (0, 0) anchor with
    threshold 1.0, the last point is (1, 1), and no point lies strictly
    inside a horizontal or vertical run.
    """

    threshold: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def rows(self) -> list:
        """[threshold, fpr, tpr] per point, as Python floats."""
        return np.column_stack((self.threshold, self.fpr, self.tpr)).tolist()


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


def _paired(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """``scores`` as floats and ``labels`` as bools, 1-D and of equal length."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D of equal length")
    return scores, labels


def _score_groups(scores, labels) -> tuple:
    """Descending-score tie groups (tp counts, fp counts, scores), plus class totals."""
    scores, labels = _paired(scores, labels)
    pos_total = int(labels.sum())
    neg_total = labels.size - pos_total
    if pos_total == 0 or neg_total == 0:
        raise ValueError("need at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(s)) + 1))
    tp = np.add.reduceat(labels[order].astype(np.int64), starts)
    fp = np.diff(np.append(starts, s.size)) - tp
    return tp, fp, s[starts], pos_total, neg_total


def roc_curve(scores, labels) -> RocCurve:
    """ROC polyline, one vertex per change of direction; tied scores flip together.

    Starts at (0, 0) and ends at (1, 1); each non-anchor point gives the
    rates when every example scoring at least that point's threshold is
    predicted positive. A point whose tie groups in and out both hold only
    negatives (or both only positives) lies inside a horizontal (vertical)
    run, is dominated by an end of that run, and is dropped.
    """
    return _roc(_score_groups(scores, labels))


def _roc(groups: tuple) -> RocCurve:
    """The ROC vertices of ``_score_groups``' groups (see :func:`roc_curve`)."""
    tp, fp, thresholds, pos_total, neg_total = groups
    keep = np.ones(tp.size + 1, dtype=bool)
    keep[1:-1] = ~((tp[:-1] == 0) & (tp[1:] == 0) | (fp[:-1] == 0) & (fp[1:] == 0))
    columns = (np.concatenate(([1.0], thresholds))[keep],
               np.concatenate(([0.0], np.cumsum(fp) / neg_total))[keep],
               np.concatenate(([0.0], np.cumsum(tp) / pos_total))[keep])
    for column in columns:
        column.flags.writeable = False
    return RocCurve(*columns)


def auroc(scores, labels) -> float:
    """Area under the ROC curve via exact pairwise concordance counting.

    Equals P(random positive outscores random negative) with ties counted
    half; computed as (2*wins + ties) / (2*P*N) in integer arithmetic.
    """
    return _area(_score_groups(scores, labels))


def _area(groups: tuple) -> float:
    """The AUROC of ``_score_groups``' groups (see :func:`auroc`)."""
    tp, fp, _, pos_total, neg_total = groups
    tp_above = np.cumsum(tp) - tp
    total = int(np.sum(fp * (2 * tp_above + tp)))
    return total / (2.0 * pos_total * neg_total)


def confusion_at_threshold(scores, labels, alpha: float
                           ) -> tuple[ConfusionMatrix, float | None, float | None]:
    """Confusion counts and (TPR, FPR) when predicting failure iff score > alpha.

    Degenerate classes give None for the corresponding rate rather than
    0/0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    scores, labels = _paired(scores, labels)
    pred = scores > alpha
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    tn = int(np.sum(~pred & ~labels))
    tpr = tp / (tp + fn) if tp + fn else None
    fpr = fp / (fp + tn) if fp + tn else None
    return ConfusionMatrix(tp, fp, tn, fn), tpr, fpr


@dataclass(frozen=True)
class ModelSpec:
    """Which classifier to train, with its hyperparameters."""

    kind: str = "rf"  # rf | tree | logreg
    forest: learners.ForestParams = learners.ForestParams()
    tree: learners.TreeParams = learners.TreeParams()
    l2: float = 1e-3
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("rf", "tree", "logreg"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        learners._check(learners._finite(self.l2) and self.l2 >= 0, "l2", self.l2,
                        "a finite number >= 0")
        learners._check(learners._whole(self.max_iter, 1), "max_iter",
                        self.max_iter, "an integer >= 1")
        learners._check(learners._finite(self.tol) and self.tol > 0, "tol", self.tol,
                        "a finite number > 0")

    def train(self, X, y, seed: int, feature_names=None, jobs: int = 1):
        if self.kind == "rf":
            return learners.train_forest(X, y, self.forest, seed,
                                         feature_names, jobs=jobs)
        if self.kind == "tree":
            return learners.train_tree(X, y, self.tree, seed, feature_names)
        return learners.train_logistic(X, y, self.l2, self.max_iter, self.tol,
                                       feature_names)

    def config(self) -> dict:
        if self.kind == "rf":
            params = asdict(self.forest)
        elif self.kind == "tree":
            params = asdict(self.tree)
        else:
            params = {"l2": self.l2, "max_iter": self.max_iter, "tol": self.tol}
        return {"kind": self.kind, "params": params}


@dataclass
class EvalReport:
    """Cross-validation result: per-fold AUROC, dispersion, and pooled ROC.

    ``fold_auroc`` has one entry per fold, None where the fold was skipped
    (reason recorded in ``warnings``). ``pooled_auroc`` is computed over
    all out-of-fold scores together; the ROC curve is pooled likewise.
    Standard deviation uses the n-1 denominator.
    """

    config: dict
    fold_auroc: list
    mean_auroc: float | None
    std_auroc: float | None
    pooled_auroc: float | None
    roc: RocCurve | None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's summaries; the pooled ROC is written apart, as a CSV."""
        return {
            "config": self.config,
            "per_fold_auroc": self.fold_auroc,
            "mean": self.mean_auroc,
            "stdev": self.std_auroc,
            "pooled_auroc": self.pooled_auroc,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _mean_std(values: list) -> tuple[float | None, float | None]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var)


def _masked_auroc(scores: np.ndarray, y: np.ndarray,
                  mask: np.ndarray) -> float | None:
    """AUROC of the masked rows; None when they lack a class."""
    ys = y[mask]
    if 0 < ys.sum() < ys.size:
        return auroc(scores[mask], ys)
    return None


def _run_cv(examples: LabeledExamples, spec: ModelSpec, fold_of: np.ndarray,
            k: int, seed: int, jobs: int = 1, train_mask: np.ndarray | None = None
            ) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The one fold loop: fit once per fold, score that fold's held-out rows.

    ``fold_of`` is the fold of every row (``_drive_folds``), computed once
    by each evaluation; ``k`` is the number of folds. Fold
    f trains on the undersampled rows outside fold f (restricted to
    ``train_mask`` when given, e.g. one drive model's rows) and scores
    every row inside it; both sides index the one examples table. A fold
    whose test or training side lacks a class is skipped with a warning;
    a logistic fit that stops at ``max_iter`` adds a warning but its fold
    is still scored. Returns (per-fold AUROC or None, warnings,
    out-of-fold scores, mask of the rows that were scored).
    """
    X, y = examples.X, examples.y
    oof_scores = np.full(examples.n, np.nan)
    scored = np.zeros(examples.n, dtype=bool)
    fold_auroc: list = []
    warnings: list = []
    if train_mask is None:
        train_mask = np.ones(examples.n, dtype=bool)

    for f in range(k):
        test = fold_of == f
        train = np.flatnonzero(~test & train_mask)
        if not 0 < np.count_nonzero(y[test]) < np.count_nonzero(test):
            fold_auroc.append(None)
            warnings.append(f"fold {f}: test side lacks a class; skipped")
            continue
        if not 0 < np.count_nonzero(y[train]) < train.size:
            fold_auroc.append(None)
            warnings.append(f"fold {f}: training complement lacks a class; skipped")
            continue
        rows = train[_balanced_rows(y[train], 1.0, _derived_seed(seed, f, 0))]
        model = spec.train(X[rows], y[rows], _derived_seed(seed, f, 1),
                           feature_names=examples.names, jobs=jobs)
        if isinstance(model, learners.LogisticModel) and not model.converged:
            warnings.append(f"fold {f}: logistic fit did not converge in "
                            f"{model.n_iter} iterations")
        scores = learners.predict_proba(model, X[test])
        fold_auroc.append(auroc(scores, y[test]))
        oof_scores[test] = scores
        scored[test] = True
    return fold_auroc, warnings, oof_scores, scored


def _eval_config(spec: ModelSpec, folds: FoldAssignment, seed: int,
                 examples: LabeledExamples, **extra) -> dict:
    """The ``config`` of an EvalReport: model, folds, seed and the data's size."""
    return {"model": spec.config(), "k": folds.k, "seed": seed,
            "lookahead": examples.lookahead, "n_examples": examples.n,
            "n_positive": examples.n_positive, **extra}


def _eval_report(examples: LabeledExamples, spec: ModelSpec, fold_of: np.ndarray,
                 k: int, seed: int, config: dict, jobs: int = 1
                 ) -> tuple[EvalReport, np.ndarray, np.ndarray]:
    """Run the CV engine and pool its out-of-fold scores into an EvalReport."""
    fold_auroc, warnings, oof_scores, scored = _run_cv(
        examples, spec, fold_of, k, seed, jobs)
    mean, std = _mean_std(fold_auroc)
    pooled = curve = None
    ys = examples.y[scored]
    if 0 < ys.sum() < ys.size:  # one sort serves the AUROC and the curve
        groups = _score_groups(oof_scores[scored], ys)
        pooled, curve = _area(groups), _roc(groups)
    report = EvalReport(config, fold_auroc, mean, std, pooled, curve, warnings)
    return report, oof_scores, scored


def cross_validated_eval(examples: LabeledExamples, spec: ModelSpec,
                         k: int = 5, seed: int = 0, jobs: int = 1,
                         folds: FoldAssignment | None = None) -> EvalReport:
    """Drive-grouped k-fold CV: 1:1 undersampled training, untouched test folds."""
    folds, fold_of = _drive_folds(examples, k, seed, folds)
    config = _eval_config(spec, folds, seed, examples, undersample_ratio=1.0)
    return _eval_report(examples, spec, fold_of, folds.k, seed, config, jobs)[0]


def lookahead_sweep(builder: Callable[[int], LabeledExamples],
                    lookaheads: Sequence[int], spec: ModelSpec,
                    k: int = 5, seed: int = 0, jobs: int = 1) -> dict:
    """One cross-validated evaluation per lookahead N, same folds throughout.

    The rows' folds are looked up again only when an N's rows are not the
    previous N's (the same ``drive`` and ``drive_ids`` objects), so one
    :func:`drivelife.featurize.example_builder`'s tables share one lookup.
    """
    if list(lookaheads) != sorted(lookaheads):
        raise ValueError("lookahead list must be sorted ascending")
    reports = {}
    folds = shared = None
    for n in lookaheads:
        examples = builder(n)
        if (shared is None or shared.drive is not examples.drive
                or shared.drive_ids is not examples.drive_ids):
            shared = examples
            folds, fold_of = _drive_folds(examples, k, seed, folds)
        config = _eval_config(spec, folds, seed, examples, undersample_ratio=1.0)
        reports[n] = _eval_report(examples, spec, fold_of, folds.k, seed, config, jobs)[0]
    return reports


def cross_model_matrix(examples: LabeledExamples, spec: ModelSpec,
                       k: int = 5, seed: int = 0, jobs: int = 1) -> dict:
    """Train-model x test-model AUROC matrix, plus an "All" training row.

    One global drive-grouped fold assignment serves every cell: cell
    (i, j) averages, over folds, the AUROC of a model trained on model-i
    examples outside the fold and tested on model-j examples inside it.
    Each training row runs the CV engine once, so one fit per (training
    model, fold) scores every column. Cells whose training or testing
    side lacks a class in every fold are None. Examples with fewer than two
    drive models, or with one named "All" (the all-models row's label),
    raise SchemaError (a ValueError).
    """
    if examples.drive_models is None:
        raise ValueError("examples lack drive models")
    model_names = sorted({examples.drive_models[c]
                          for c in np.unique(examples.drive).tolist()})
    if len(model_names) < 2:
        raise SchemaError("need at least two drive models")
    if "All" in model_names:
        raise SchemaError('a drive model is named "All", the label of the '
                          "matrix's all-models training row")
    code = {m: i for i, m in enumerate(model_names)}
    row_model = np.array([code.get(m, -1) for m in examples.drive_models],
                         dtype=np.int64)[examples.drive]
    folds, fold_of = _drive_folds(examples, k, seed)
    cells: dict[tuple[str, str], float | None] = {}
    for m, i in enumerate(model_names + ["All"]):
        train_mask = None if m == len(model_names) else row_model == m
        _, _, oof_scores, scored = _run_cv(examples, spec, fold_of, folds.k, seed,
                                           jobs=jobs, train_mask=train_mask)
        for n, j in enumerate(model_names):
            test_base = scored & (row_model == n)
            cells[(i, j)] = _mean_std(
                [_masked_auroc(oof_scores, examples.y, test_base & (fold_of == f))
                 for f in range(folds.k)])[0]
    return {"train_labels": model_names + ["All"], "test_labels": model_names,
            "auroc": cells}


@dataclass
class PartitionedReport:
    """Per-side evaluations plus the unsplit baseline, on shared folds.

    ``unsplit_on_below``/``unsplit_on_above`` are the unsplit model's
    pooled out-of-fold AUROCs restricted to each side's test examples, the
    apples-to-apples comparison for the per-side reports' pooled AUROCs.
    """

    rule: PartitionRule
    below: EvalReport | None
    above: EvalReport | None
    unsplit: EvalReport
    unsplit_on_below: float | None
    unsplit_on_above: float | None


def partitioned_eval(examples: LabeledExamples, rule: PartitionRule,
                     spec: ModelSpec, k: int = 5, seed: int = 0,
                     jobs: int = 1) -> PartitionedReport:
    """Evaluate below-threshold, above-threshold, and unsplit models comparably."""
    folds, fold_of = _drive_folds(examples, k, seed)
    below_mask = examples.partition_key <= rule.threshold
    below, above = partition_dataset(examples, rule)
    rule_doc = {"attribute": rule.attribute, "threshold": rule.threshold}

    def side_report(side: LabeledExamples, side_folds: np.ndarray, tag: str):
        config = _eval_config(spec, folds, seed, side, partition=tag, rule=rule_doc)
        return _eval_report(side, spec, side_folds, folds.k, seed, config, jobs)

    below_report, above_report = (
        side_report(side, fold_of[mask], tag)[0]
        if 0 < side.n_positive < side.n else None
        for side, mask, tag in ((below, below_mask, "below"),
                                (above, ~below_mask, "above")))
    unsplit, oof_scores, scored = side_report(examples, fold_of, "none")
    return PartitionedReport(
        rule, below_report, above_report, unsplit,
        _masked_auroc(oof_scores, examples.y, scored & below_mask),
        _masked_auroc(oof_scores, examples.y, scored & ~below_mask))


def tpr_vs_attribute(examples: LabeledExamples, spec: ModelSpec,
                     alphas: Sequence[float], bin_edges: Sequence[float],
                     k: int = 5, seed: int = 0, jobs: int = 1) -> dict:
    """Cross-validated TPR of test positives per partition-key bin, per alpha.

    Bin b covers [bin_edges[b], bin_edges[b+1]); alphas must lie in
    [0.5, 1.0]; bins with no scored positives map to None.
    """
    if any(not 0.5 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha values must be in [0.5, 1.0]")
    if list(bin_edges) != sorted(bin_edges) or len(bin_edges) < 2:
        raise ValueError("bin_edges must be sorted with at least two edges")
    folds, fold_of = _drive_folds(examples, k, seed)
    _, _, oof_scores, scored = _run_cv(examples, spec, fold_of, folds.k, seed,
                                       jobs=jobs)
    result: dict[float, list] = {}
    key = examples.partition_key
    positives = examples.y & scored
    for alpha in alphas:
        per_bin = []
        for b in range(len(bin_edges) - 1):
            in_bin = positives & (key >= bin_edges[b]) & (key < bin_edges[b + 1])
            n_pos = int(in_bin.sum())
            per_bin.append(float(np.sum(oof_scores[in_bin] > alpha)) / n_pos
                           if n_pos else None)
        result[alpha] = per_bin
    return {"alphas": list(alphas), "bin_edges": list(bin_edges), "tpr": result}
