import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import learners
from drivelife.evaluation import (ModelSpec, _derived_seed, _score_groups, auroc,
                                  confusion_at_threshold,
                                  cross_model_matrix, cross_validated_eval,
                                  kfold_by_drive, lookahead_sweep,
                                  partitioned_eval, roc_curve, tpr_vs_attribute,
                                  undersample)
from drivelife.featurize import PartitionRule
from drivelife.learners import ForestParams

from conftest import drive_names, labeled_examples, row_folds


def pairwise_concordance(scores, labels):
    """Oracle: 2 * wins + ties over all (positive, negative) pairs, O(P*N)."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return 2 * wins + ties


def pairwise_auroc(scores, labels):
    """Oracle: the concordance over its 2 * P * N pairs."""
    pos = int(np.count_nonzero(labels))
    return pairwise_concordance(scores, labels) / (2.0 * pos * (len(labels) - pos))


def full_sweep(scores, labels):
    """Reference: the ROC with one point per distinct score, run interiors kept."""
    tp, fp, thresholds, pos_total, neg_total = _score_groups(scores, labels)
    return (np.concatenate(([1.0], thresholds)),
            np.concatenate(([0.0], np.cumsum(fp) / neg_total)),
            np.concatenate(([0.0], np.cumsum(tp) / pos_total)))


def toy_examples(n_drives=20, per_drive=10, signal=2.0, seed=0,
                 models=None, infant_drives=0):
    """Synthetic LabeledExamples: one informative feature plus noise."""
    rng = np.random.default_rng(seed)
    rows = n_drives * per_drive
    X = rng.normal(size=(rows, 3))
    y = np.zeros(rows, dtype=bool)
    drives = np.repeat([f"d{i}" for i in range(n_drives)], per_drive)
    days = np.tile(np.arange(per_drive), n_drives)
    for i in range(0, n_drives, 2):  # every other drive fails on its last day
        row = i * per_drive + per_drive - 1
        y[row] = True
        X[row, 0] += signal
    key = days.astype(float)
    if infant_drives:
        key = key.copy()
        key[:infant_drives * per_drive] = 10.0
        key[infant_drives * per_drive:] = 200.0
    model_col = None
    if models:
        # interleave in pairs so failing (even-index) drives appear in
        # every model
        model_col = np.array([models[(i // 2) % len(models)]
                              for i in range(n_drives)], dtype=object).repeat(per_drive)
    return labeled_examples(("s", "n1", "n2"), X, y, drives, days, key, 0,
                            model_col)


class TestKfold:
    def test_even_fold_sizes(self):
        folds = kfold_by_drive([f"d{i}" for i in range(10)], k=5, seed=0)
        sizes = [0] * 5
        for fold in folds.mapping.values():
            sizes[fold] += 1
        assert sizes == [2] * 5

    def test_deterministic(self):
        drives = [f"d{i}" for i in range(17)]
        assert (kfold_by_drive(drives, 5, seed=3).mapping
                == kfold_by_drive(drives, 5, seed=3).mapping)

    def test_too_few_drives(self):
        with pytest.raises(ValueError):
            kfold_by_drive(["a", "b"], k=5, seed=0)

    def test_no_drive_in_two_folds(self):
        rng = random.Random(0)
        for _ in range(10):
            drives = [f"d{i}" for i in range(rng.randint(5, 40))]
            folds = kfold_by_drive(drives, 5, seed=rng.randint(0, 99))
            assert set(folds.mapping) == set(drives)
            assert all(0 <= f < 5 for f in folds.mapping.values())


class TestUndersample:
    def test_one_to_one(self):
        ex = toy_examples(22, 10)
        out = undersample(ex, 1.0, seed=1)
        assert out.n_positive == ex.n_positive
        assert out.n == 2 * ex.n_positive

    def test_majority_below_target_kept_whole(self):
        ex = toy_examples(4, 2)  # 2 positives, 6 negatives
        out = undersample(ex, 10.0, seed=0)
        assert out.n == ex.n

    def test_deterministic(self):
        ex = toy_examples(20, 10)
        a = undersample(ex, 1.0, seed=7)
        b = undersample(ex, 1.0, seed=7)
        assert np.array_equal(a.days, b.days)
        assert list(drive_names(a)) == list(drive_names(b))

    def test_empty_class_rejected(self):
        ex = toy_examples(4, 2)
        ex.y[:] = False
        with pytest.raises(ValueError):
            undersample(ex, 1.0, seed=0)

    def test_minority_all_kept_order_preserved(self):
        ex = toy_examples(20, 10)
        out = undersample(ex, 1.0, seed=5)
        pos_days = out.days[out.y]
        assert np.array_equal(pos_days, ex.days[ex.y])
        assert list(out.days) == sorted_by_original_order(ex, out)


def sorted_by_original_order(original, subset):
    index = {}
    names, subset_names = drive_names(original), drive_names(subset)
    for i in range(original.n):
        index.setdefault((names[i], original.days[i]), i)
    positions = [index[(subset_names[i], subset.days[i])]
                 for i in range(subset.n)]
    assert positions == sorted(positions)
    return list(subset.days)


def points(curve):
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


class TestRoc:
    def test_perfect_separation_passes_corner(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert (0.0, 1.0) in points(curve)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_all_equal_scores_is_diagonal(self):
        curve = roc_curve([0.5, 0.5, 0.5], [True, False, True])
        assert points(curve) == [(0.0, 0.0), (1.0, 1.0)]

    def test_hand_walked_sweep(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        labels = [True, False, True, True, False, False]
        curve = roc_curve(scores, labels)
        # (1/3, 2/3) is inside a vertical run, (2/3, 1) inside a horizontal one
        expected = [(0.0, 0.0), (0.0, 1 / 3), (1 / 3, 1 / 3), (1 / 3, 1.0),
                    (1.0, 1.0)]
        assert points(curve) == expected

    def test_fpr_non_decreasing(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.random(50) < 0.4
        labels[0], labels[1] = True, False
        curve = roc_curve(scores, labels)
        fprs = curve.fpr.tolist()
        assert fprs == sorted(fprs)

    def test_arrays_are_read_only_float64_with_the_anchor_first(self):
        curve = roc_curve([0.9, 0.4, 0.4, 0.1], [True, False, True, False])
        assert curve.rows() == [[1.0, 0.0, 0.0], [0.9, 0.0, 0.5],
                                [0.4, 0.5, 1.0], [0.1, 1.0, 1.0]]
        for column in (curve.threshold, curve.fpr, curve.tpr):
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [True, True])


def vertex_cases():
    """(scores, labels) with heavy ties, all-equal scores, perfect separation
    and a single positive."""
    rng = np.random.default_rng(18)
    cases = [([0.5] * 6, [True, False, True, False, False, True]),
             ([0.9, 0.8, 0.7, 0.2, 0.1], [True, True, True, False, False]),
             (rng.random(40).tolist(), [i == 17 for i in range(40)]),
             ([1.0, 1.0, 0.3, 0.0], [True, False, True, False])]
    while len(cases) < 60:
        n = int(rng.integers(2, 250))
        scores = np.round(rng.random(n), int(rng.integers(0, 3)))
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        if 0 < labels.sum() < n:
            cases.append((scores, labels))
    return cases


class TestRocVertices:
    """The kept points against the full sweep (one point per distinct score)."""

    @pytest.mark.parametrize("scores, labels", vertex_cases())
    def test_vertices_against_the_full_sweep(self, scores, labels):
        full = list(zip(*(c.tolist() for c in full_sweep(scores, labels))))
        curve = roc_curve(scores, labels)
        kept = [tuple(row) for row in curve.rows()]

        # a subsequence of the full sweep's points, with both ends kept
        index, it = [], iter(enumerate(full))
        for row in kept:
            index.append(next(i for i, f in it if f == row))
        assert index[0] == 0 and index[-1] == len(full) - 1

        # a point is dropped iff it lies strictly inside an axis-parallel run
        for i in range(1, len(full) - 1):
            (_, f0, t0), (_, f1, t1), (_, f2, t2) = full[i - 1:i + 2]
            assert (i in index) != (f0 == f1 == f2 or t0 == t1 == t2), i

        def best_within(points, budget):
            return max((t, -f, th) for th, f, t in points if f <= budget)

        fprs = sorted({f for _, f, _ in full})
        for budget in fprs + [(a + b) / 2 for a, b in zip(fprs, fprs[1:])]:
            assert best_within(kept, budget) == best_within(full, budget)
        tprs = sorted({t for _, _, t in full})
        for target in tprs + [(a + b) / 2 for a, b in zip(tprs, tprs[1:])]:
            assert (min(f for _, f, t in kept if t >= target)
                    == min(f for _, f, t in full if t >= target))

        pos = int(np.count_nonzero(labels))
        neg = len(labels) - pos
        fp = [round(f * neg) for f in curve.fpr.tolist()]
        tp = [round(t * pos) for t in curve.tpr.tolist()]
        assert ([c / neg for c in fp], [c / pos for c in tp]) == (
            curve.fpr.tolist(), curve.tpr.tolist())
        trapezoid = sum((fp[k] - fp[k - 1]) * (tp[k - 1] + tp[k])
                        for k in range(1, len(fp)))
        assert trapezoid == pairwise_concordance(scores, labels)
        assert auroc(scores, labels) == trapezoid / (2.0 * pos * neg)


class TestAuroc:
    def test_perfect(self):
        assert auroc([0.9, 0.8, 0.1], [True, True, False]) == 1.0

    def test_all_equal_is_half(self):
        assert auroc([0.3, 0.3, 0.3], [True, False, True]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            scores = np.round(rng.random(n), 2)  # force ties
            labels = rng.random(n) < rng.uniform(0.1, 0.9)
            if labels.all() or not labels.any():
                continue
            assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                              st.booleans()), min_size=2, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_rank_invariance(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [l for _, l in pairs]
        if all(labels) or not any(labels):
            return
        base = auroc(scores, labels)
        # doubling is exact for [0, 1] floats (subnormals included):
        # strictly increasing and injective
        squashed = auroc([s * 2.0 for s in scores], labels)
        assert base == squashed


class TestConfusion:
    def test_alpha_one_predicts_nothing(self):
        cm, tpr, fpr = confusion_at_threshold([1.0, 0.9], [True, False], 1.0)
        assert (cm.tp, cm.fp) == (0, 0)
        assert tpr == 0.0 and fpr == 0.0

    def test_alpha_zero_with_positive_scores_predicts_all(self):
        cm, tpr, fpr = confusion_at_threshold([0.4, 0.2], [True, False], 0.0)
        assert tpr == 1.0 and fpr == 1.0

    def test_hand_counted_matrix(self):
        cm, tpr, fpr = confusion_at_threshold([0.9, 0.6, 0.4, 0.2],
                                              [True, False, True, False], 0.5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 1, 1)
        assert tpr == 0.5 and fpr == 0.5

    def test_degenerate_classes_give_none(self):
        _, tpr, fpr = confusion_at_threshold([0.9], [True], 0.5)
        assert fpr is None and tpr == 1.0

    @pytest.mark.parametrize("scores, labels", [
        ([0.9], [True, False, True]), ([0.9, 0.1, 0.7], [True])],
        ids=["one_score", "one_label"])
    def test_unequal_lengths_raise(self, scores, labels):
        with pytest.raises(ValueError, match="1-D of equal length"):
            confusion_at_threshold(scores, labels, 0.5)

    def test_counts_partition_population(self):
        rng = np.random.default_rng(1)
        scores = rng.random(80)
        labels = rng.random(80) < 0.3
        cm, _, _ = confusion_at_threshold(scores, labels, 0.35)
        assert cm.tp + cm.fn == labels.sum()
        assert cm.fp + cm.tn == (~labels).sum()


SMALL_RF = ModelSpec("rf", forest=ForestParams(n_trees=10))


class TestCrossValidatedEval:
    def test_deterministic_report_bytes(self):
        ex = toy_examples(30, 8, seed=4)
        a = cross_validated_eval(ex, SMALL_RF, k=5, seed=11)
        b = cross_validated_eval(ex, SMALL_RF, k=5, seed=11)
        assert a.to_json() == b.to_json()
        assert a.roc.rows() == b.roc.rows()

    def test_planted_signal_is_learnable(self):
        ex = toy_examples(40, 10, signal=3.0, seed=2)
        report = cross_validated_eval(ex, SMALL_RF, k=5, seed=0)
        assert report.mean_auroc is not None and report.mean_auroc > 0.8

    def test_mean_within_fold_range(self):
        ex = toy_examples(40, 10, seed=3)
        report = cross_validated_eval(ex, SMALL_RF, k=5, seed=1)
        folds = [v for v in report.fold_auroc if v is not None]
        assert min(folds) <= report.mean_auroc <= max(folds)

    def test_stdev_uses_n_minus_one(self):
        ex = toy_examples(40, 10, seed=5)
        report = cross_validated_eval(ex, SMALL_RF, k=5, seed=2)
        folds = [v for v in report.fold_auroc if v is not None]
        mean = sum(folds) / len(folds)
        expected = math.sqrt(sum((v - mean) ** 2 for v in folds)
                             / (len(folds) - 1))
        assert report.std_auroc == pytest.approx(expected)

    def test_fold_without_positives_skipped_with_warning(self):
        ex = toy_examples(10, 4, seed=6)
        # concentrate all positives on two drives so some folds lack them
        ex.y[:] = False
        ex.y[[3, 7]] = True
        report = cross_validated_eval(ex, SMALL_RF, k=5, seed=0)
        assert None in report.fold_auroc
        assert report.warnings

    def test_unconverged_logistic_fold_warns(self):
        ex = toy_examples(30, 8, seed=4)
        stopped = cross_validated_eval(ex, ModelSpec("logreg", max_iter=2),
                                       k=5, seed=11)
        assert stopped.warnings == [
            f"fold {f}: logistic fit did not converge in 2 iterations"
            for f in range(5)]
        assert None not in stopped.fold_auroc
        converged = cross_validated_eval(ex, ModelSpec("logreg", tol=1e-2),
                                         k=5, seed=11)
        assert converged.warnings == []


class TestSweepAndMatrix:
    def test_single_point_sweep(self):
        ex = toy_examples(24, 6, seed=7)
        reports = lookahead_sweep(lambda n: ex, [0], SMALL_RF, k=4, seed=0)
        assert list(reports) == [0]
        assert reports[0].mean_auroc is not None

    def test_matrix_shape_and_all_row(self):
        ex = toy_examples(30, 6, seed=8, models=["M1", "M2"])
        result = cross_model_matrix(ex, SMALL_RF, k=3, seed=0)
        assert result["train_labels"] == ["M1", "M2", "All"]
        assert result["test_labels"] == ["M1", "M2"]
        assert len(result["auroc"]) == 6

    def test_drive_model_named_all_is_rejected(self):
        # Its row would take the all-models row's label and be overwritten.
        ex = toy_examples(40, 6, models=["All", "M2"])
        with pytest.raises(ValueError, match='named "All"'):
            cross_model_matrix(ex, SMALL_RF, k=3, seed=0)

    def test_shared_signal_transfers(self):
        ex = toy_examples(60, 8, signal=3.0, seed=9, models=["M1", "M2"])
        result = cross_model_matrix(ex, SMALL_RF, k=3, seed=1)
        cells = result["auroc"]
        for i in ("M1", "M2"):
            for j in ("M1", "M2"):
                assert cells[(i, j)] is not None
        diag = (cells[("M1", "M1")] + cells[("M2", "M2")]) / 2
        off = (cells[("M1", "M2")] + cells[("M2", "M1")]) / 2
        assert abs(diag - off) < 0.1

    @pytest.mark.parametrize("spec", [
        ModelSpec("tree", tree=learners.TreeParams(max_depth=3)),
        ModelSpec("logreg")])
    def test_cells_equal_per_cell_reference(self, spec):
        # reference: one fit per (train model, test model, fold), scoring
        # only the test model's rows; the matrix fits once per (train
        # model, fold) and must give the same cells bit for bit
        ex = toy_examples(45, 6, signal=1.0, seed=16,
                          models=["M1", "M2", "M3"])
        k, seed = 3, 2
        result = cross_model_matrix(ex, spec, k=k, seed=seed)
        fold_of = row_folds(ex, kfold_by_drive(drive_names(ex), k, seed))
        models = np.array(ex.drive_models, dtype=object)[ex.drive]
        for i in ("M1", "M2", "M3", "All"):
            train_base = (np.ones(ex.n, dtype=bool) if i == "All"
                          else models == i)
            for j in ("M1", "M2", "M3"):
                values = []
                for f in range(k):
                    train = ex.subset(train_base & (fold_of != f))
                    test = ex.subset((models == j) & (fold_of == f))
                    if (train.n_positive in (0, train.n)
                            or test.n_positive in (0, test.n)):
                        continue
                    balanced = undersample(train, 1.0, _derived_seed(seed, f, 0))
                    model = spec.train(balanced.X, balanced.y,
                                       _derived_seed(seed, f, 1),
                                       feature_names=ex.names)
                    values.append(auroc(learners.predict_proba(model, test.X),
                                        test.y))
                expected = sum(values) / len(values) if values else None
                assert result["auroc"][(i, j)] == expected


class TestPartitionedEval:
    def test_reports_on_both_sides(self):
        ex = toy_examples(40, 10, signal=3.0, seed=10, infant_drives=20)
        report = partitioned_eval(ex, PartitionRule("age", 90), SMALL_RF,
                                  k=4, seed=0)
        assert report.below is not None and report.above is not None
        assert report.unsplit.pooled_auroc is not None
        assert report.unsplit_on_below is not None

    def test_jobs_reach_every_forest_fit(self, monkeypatch):
        seen = []
        train_forest = learners.train_forest

        def recording(*args, jobs=1, **kwargs):
            seen.append(jobs)
            return train_forest(*args, jobs=jobs, **kwargs)

        monkeypatch.setattr(learners, "train_forest", recording)
        ex = toy_examples(40, 10, signal=3.0, seed=10, infant_drives=20)
        partitioned_eval(ex, PartitionRule("age", 90), SMALL_RF, k=4, seed=0,
                         jobs=2)
        assert seen and all(j == 2 for j in seen)

    def test_degenerate_side_absent(self):
        ex = toy_examples(20, 6, seed=11)
        ex.partition_key[:] = 10.0  # everything below
        report = partitioned_eval(ex, PartitionRule("age", 90), SMALL_RF,
                                  k=4, seed=0)
        assert report.above is None
        assert report.unsplit_on_above is None


class TestTprVsAttribute:
    def test_alpha_one_gives_zero_tpr(self):
        ex = toy_examples(30, 8, signal=3.0, seed=12)
        out = tpr_vs_attribute(ex, SMALL_RF, alphas=[1.0],
                               bin_edges=[0, 5, 10], k=3, seed=0)
        assert all(v in (0.0, None) for v in out["tpr"][1.0])

    def test_bins_without_positives_absent(self):
        ex = toy_examples(30, 8, signal=3.0, seed=13)
        # positives live on day 7 only; bin [0, 3) has no positives
        out = tpr_vs_attribute(ex, SMALL_RF, alphas=[0.5],
                               bin_edges=[0, 3, 10], k=3, seed=0)
        assert out["tpr"][0.5][0] is None
        assert out["tpr"][0.5][1] is not None

    def test_alpha_range_enforced(self):
        ex = toy_examples(20, 6, seed=14)
        with pytest.raises(ValueError):
            tpr_vs_attribute(ex, SMALL_RF, alphas=[0.2], bin_edges=[0, 10])

    def test_planted_infant_fleet_has_higher_young_tpr(self):
        import drivelife as dl
        from drivelife import featurize, lifecycle

        cfg = dl.SynthConfig(
            family="ssd", n_drives=800, horizon_days=365, seed=31,
            models={"M": 0.18},
            infant_hazard_multiplier=3.0,
            bursts=(dl.BurstSpec(kind="uncorrectable", mean=12.0, days=2,
                                 probability=0.95, age_class="young"),
                    dl.BurstSpec(kind="uncorrectable", mean=2.0, days=2,
                                 probability=0.4, age_class="old")))
        ds, _ = dl.generate_fleet(cfg)
        failures = lifecycle.detect_failures(ds)
        periods = lifecycle.extract_operational_periods(ds, failures)
        feats = featurize.make_features(ds)
        ex = featurize.label_lookahead(feats, failures, 0, periods)
        spec = ModelSpec("rf", forest=ForestParams(n_trees=40))
        out = tpr_vs_attribute(ex, spec, alphas=[0.5], bin_edges=[0, 90, 365],
                               k=4, seed=3)
        young_tpr, old_tpr = out["tpr"][0.5]
        assert young_tpr > old_tpr


class TestDriveCodes:
    def test_drive_ids_without_rows_change_nothing(self):
        # ids with no rows, before, between and after the others, shift
        # every code; the folds and the report must not move
        ex = toy_examples(12, 6, seed=4)
        ids = ["0-none", *ex.drive_ids[:3], "d10a-none", *ex.drive_ids[3:], "z-none"]
        assert ids == sorted(ids)
        code = {d: i for i, d in enumerate(ids)}
        wider = dataclasses.replace(ex, drive_ids=ids, drive=np.array(
            [code[d] for d in drive_names(ex)], dtype=np.int64))
        spec = ModelSpec("tree", tree=learners.TreeParams(max_depth=3))
        a = cross_validated_eval(wider, spec, k=3, seed=5)
        b = cross_validated_eval(ex, spec, k=3, seed=5)
        assert a.to_json() == b.to_json()
        assert a.roc.rows() == b.roc.rows()


class TestProtocolInvariants:
    def test_no_drive_leakage_and_test_untouched(self):
        # instrumented re-implementation of the fold loop, checking the
        # same masks _run_cv uses
        ex = toy_examples(25, 8, seed=15)
        fold_of = row_folds(ex, kfold_by_drive(drive_names(ex), 5, seed=3))
        for f in range(5):
            train = ex.subset(fold_of != f)
            test = ex.subset(fold_of == f)
            assert not (set(drive_names(train)) & set(drive_names(test)))
            if test.n_positive and train.n_positive:
                balanced = undersample(train, 1.0, seed=f)
                assert balanced.n_positive == balanced.n - balanced.n_positive
                # test side keeps its raw ratio
                assert test.n_positive == int(ex.y[fold_of == f].sum())
