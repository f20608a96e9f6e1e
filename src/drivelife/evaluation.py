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
the score is strictly larger than alpha. ROC points are labeled with the
smallest score predicted positive at that point (the anchor (0, 0) point
carries threshold 1.0, where a strict comparison predicts nothing).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import learners
from .featurize import LabeledExamples, PartitionRule, partition_dataset

__all__ = [
    "FoldAssignment",
    "RocPoint",
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

    def fold_of(self, drives: np.ndarray) -> np.ndarray:
        return np.array([self.mapping[d] for d in drives], dtype=np.int64)


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


def undersample(examples: LabeledExamples, ratio: float = 1.0,
                seed: int = 0) -> LabeledExamples:
    """Downsample the majority class to ``minority count * ratio`` examples.

    All minority examples are kept; majority examples are chosen without
    replacement; input order is preserved. Never upsamples: a majority
    already at or below the target is kept whole. Raises if either class
    is empty (training sets must contain both).
    """
    y = examples.y
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("undersample needs both classes present")
    minority_is_pos = pos <= neg
    minority_count = min(pos, neg)
    target = int(round(minority_count * ratio))
    majority_idx = np.flatnonzero(y != minority_is_pos)
    if majority_idx.size <= target:
        return examples
    rng = np.random.default_rng(seed)
    chosen = rng.choice(majority_idx, size=target, replace=False)
    keep = np.zeros(y.size, dtype=bool)
    keep[y == minority_is_pos] = True
    keep[chosen] = True
    return examples.subset(keep)


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class RocCurve:
    points: tuple[RocPoint, ...]

    @property
    def fpr(self) -> np.ndarray:
        return np.array([p.fpr for p in self.points])

    @property
    def tpr(self) -> np.ndarray:
        return np.array([p.tpr for p in self.points])


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


def _score_groups(scores, labels) -> tuple:
    """Descending-score tie groups (tp counts, fp counts, scores), plus class totals."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D of equal length")
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
    """ROC polyline with one point per distinct score; tied scores flip together.

    Starts at (0, 0) and ends at (1, 1); each non-anchor point gives the
    rates when every example scoring at least that point's threshold is
    predicted positive.
    """
    tp, fp, thresholds, pos_total, neg_total = _score_groups(scores, labels)
    fpr = np.cumsum(fp) / neg_total
    tpr = np.cumsum(tp) / pos_total
    return RocCurve((RocPoint(1.0, 0.0, 0.0),
                     *(RocPoint(float(t), float(f), float(p))
                       for t, f, p in zip(thresholds, fpr, tpr))))


def auroc(scores, labels) -> float:
    """Area under the ROC curve via exact pairwise concordance counting.

    Equals P(random positive outscores random negative) with ties counted
    half; computed as (2*wins + ties) / (2*P*N) in integer arithmetic.
    """
    tp, fp, _, pos_total, neg_total = _score_groups(scores, labels)
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
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
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

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "per_fold_auroc": self.fold_auroc,
            "mean": self.mean_auroc,
            "stdev": self.std_auroc,
            "pooled_auroc": self.pooled_auroc,
            "warnings": self.warnings,
            "roc": [[p.threshold, p.fpr, p.tpr] for p in self.roc.points]
                   if self.roc else None,
        }
        return json.dumps(doc, sort_keys=True)


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


def _run_cv(examples: LabeledExamples, spec: ModelSpec, folds: FoldAssignment,
            seed: int, ratio: float = 1.0, jobs: int = 1,
            train_mask: np.ndarray | None = None
            ) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The one fold loop: fit once per fold, score that fold's held-out rows.

    Fold f trains on the undersampled rows outside fold f (restricted to
    ``train_mask`` when given, e.g. one drive model's rows) and scores
    every row inside it. A fold whose test or training side lacks a class
    is skipped with a warning; a logistic fit that stops at ``max_iter``
    adds a warning but its fold is still scored. Returns (per-fold AUROC
    or None, warnings, out-of-fold scores, mask of the rows that were
    scored).
    """
    fold_of = folds.fold_of(examples.drives)
    oof_scores = np.full(examples.n, np.nan)
    scored = np.zeros(examples.n, dtype=bool)
    fold_auroc: list = []
    warnings: list = []
    if train_mask is None:
        train_mask = np.ones(examples.n, dtype=bool)

    for f in range(folds.k):
        test_mask = fold_of == f
        test = examples.subset(test_mask)
        train = examples.subset(~test_mask & train_mask)
        if test.n_positive in (0, test.n):
            fold_auroc.append(None)
            warnings.append(f"fold {f}: test side lacks a class; skipped")
            continue
        if train.n_positive in (0, train.n):
            fold_auroc.append(None)
            warnings.append(f"fold {f}: training complement lacks a class; skipped")
            continue
        balanced = undersample(train, ratio, _derived_seed(seed, f, 0))
        model = spec.train(balanced.X, balanced.y, _derived_seed(seed, f, 1),
                           feature_names=examples.names, jobs=jobs)
        if isinstance(model, learners.LogisticModel) and not model.converged:
            warnings.append(f"fold {f}: logistic fit did not converge in "
                            f"{model.n_iter} iterations")
        scores = learners.predict_proba(model, test.X)
        fold_auroc.append(auroc(scores, test.y))
        oof_scores[test_mask] = scores
        scored[test_mask] = True
    return fold_auroc, warnings, oof_scores, scored


def _eval_report(examples: LabeledExamples, spec: ModelSpec,
                 folds: FoldAssignment, seed: int, config: dict,
                 ratio: float = 1.0, jobs: int = 1
                 ) -> tuple[EvalReport, np.ndarray, np.ndarray]:
    """Run the CV engine and pool its out-of-fold scores into an EvalReport."""
    fold_auroc, warnings, oof_scores, scored = _run_cv(
        examples, spec, folds, seed, ratio, jobs)
    mean, std = _mean_std(fold_auroc)
    pooled = _masked_auroc(oof_scores, examples.y, scored)
    curve = (roc_curve(oof_scores[scored], examples.y[scored])
             if pooled is not None else None)
    report = EvalReport(config, fold_auroc, mean, std, pooled, curve, warnings)
    return report, oof_scores, scored


def cross_validated_eval(examples: LabeledExamples, spec: ModelSpec,
                         k: int = 5, seed: int = 0, ratio: float = 1.0,
                         jobs: int = 1,
                         folds: FoldAssignment | None = None) -> EvalReport:
    """Drive-grouped k-fold CV: undersampled training, untouched test folds."""
    if folds is None:
        folds = kfold_by_drive(examples.drives, k, seed)
    config = {"model": spec.config(), "k": folds.k, "seed": seed,
              "lookahead": examples.lookahead, "undersample_ratio": ratio,
              "n_examples": examples.n, "n_positive": examples.n_positive}
    return _eval_report(examples, spec, folds, seed, config, ratio, jobs)[0]


def lookahead_sweep(builder: Callable[[int], LabeledExamples],
                    lookaheads: Sequence[int], spec: ModelSpec,
                    k: int = 5, seed: int = 0, jobs: int = 1) -> dict:
    """One cross-validated evaluation per lookahead N, same folds throughout."""
    if list(lookaheads) != sorted(lookaheads):
        raise ValueError("lookahead list must be sorted ascending")
    reports = {}
    folds = None
    for n in lookaheads:
        examples = builder(n)
        if folds is None:
            folds = kfold_by_drive(examples.drives, k, seed)
        reports[n] = cross_validated_eval(examples, spec, k, seed,
                                          jobs=jobs, folds=folds)
    return reports


def cross_model_matrix(examples: LabeledExamples, spec: ModelSpec,
                       k: int = 5, seed: int = 0, jobs: int = 1) -> dict:
    """Train-model x test-model AUROC matrix, plus an "All" training row.

    One global drive-grouped fold assignment serves every cell: cell
    (i, j) averages, over folds, the AUROC of a model trained on model-i
    examples outside the fold and tested on model-j examples inside it.
    Each training row runs the CV engine once, so one fit per (training
    model, fold) scores every column. Cells whose training or testing
    side lacks a class in every fold are None.
    """
    if examples.models is None:
        raise ValueError("examples lack per-row drive models")
    model_names = sorted(set(examples.models))
    if len(model_names) < 2:
        raise ValueError("need at least two drive models")
    folds = kfold_by_drive(examples.drives, k, seed)
    fold_of = folds.fold_of(examples.drives)
    cells: dict[tuple[str, str], float | None] = {}
    for i in model_names + ["All"]:
        train_mask = None if i == "All" else examples.models == i
        _, _, oof_scores, scored = _run_cv(examples, spec, folds, seed,
                                           jobs=jobs, train_mask=train_mask)
        for j in model_names:
            test_base = scored & (examples.models == j)
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
    folds = kfold_by_drive(examples.drives, k, seed)
    below_mask = examples.partition_key <= rule.threshold
    below, above = partition_dataset(examples, rule)

    def side_report(side: LabeledExamples, tag: str) -> EvalReport | None:
        if side.n == 0 or side.n_positive in (0, side.n):
            return None
        config = {"model": spec.config(), "k": folds.k, "seed": seed,
                  "lookahead": side.lookahead, "partition": tag,
                  "rule": {"attribute": rule.attribute, "threshold": rule.threshold},
                  "n_examples": side.n, "n_positive": side.n_positive}
        return _eval_report(side, spec, folds, seed, config, jobs=jobs)[0]

    below_report = side_report(below, "below")
    above_report = side_report(above, "above")
    config = {"model": spec.config(), "k": folds.k, "seed": seed,
              "lookahead": examples.lookahead, "partition": "none",
              "rule": {"attribute": rule.attribute, "threshold": rule.threshold},
              "n_examples": examples.n, "n_positive": examples.n_positive}
    unsplit, oof_scores, scored = _eval_report(examples, spec, folds, seed,
                                               config, jobs=jobs)
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
    folds = kfold_by_drive(examples.drives, k, seed)
    _, _, oof_scores, scored = _run_cv(examples, spec, folds, seed, jobs=jobs)
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
