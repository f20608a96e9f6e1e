"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 11 needs the
public HDD snapshot corpus on disk (set BACKBLAZE_DATA_DIR) and is skipped
otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import drivelife as dl
from drivelife import charstats, featurize, lifecycle
from drivelife.evaluation import (ModelSpec, auroc, cross_validated_eval,
                                  kfold_by_drive, lookahead_sweep,
                                  partitioned_eval, undersample)
from drivelife.featurize import PartitionRule, label_lookahead
from drivelife.learners import (ForestParams, TreeParams, feature_importance,
                                logistic_loss_grad, train_forest, train_tree)

from conftest import (drive_names, labeled_examples, row_folds, ssd_dataset,
                      ssd_rec, table_of)
from test_charstats import rank_then_pearson
from test_learners import exhaustive_best_split, gini


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_01_auroc_oracle_equivalence():
    rng = np.random.default_rng(0xA1)
    start = time.monotonic()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), 2)  # coarse grid plants ties
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        if labels.all() or not labels.any():
            continue
        pos = scores[labels]
        neg = scores[~labels]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        oracle = (2 * wins + ties) / (2.0 * pos.size * neg.size)
        assert auroc(scores, labels) == oracle
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"1000 exact AUROC oracle matches in {elapsed:.1f}s")


def test_criterion_02_spearman_oracle_equivalence():
    rng = np.random.default_rng(0xA2)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 101))
        x = rng.integers(0, 12, size=n).astype(float)  # planted ties
        y = rng.integers(0, 12, size=n).astype(float)
        result = charstats.spearman(x, y)
        if np.all(x == x[0]) or np.all(y == y[0]):
            assert result is None
            continue
        assert abs(result - rank_then_pearson(x, y)) <= 1e-12
        checked += 1
    for _ in range(200):  # exact invariance on tie-free data
        n = int(rng.integers(3, 80))
        x = rng.choice(100_000, size=n, replace=False).astype(float)
        y = rng.choice(100_000, size=n, replace=False).astype(float)
        base = charstats.spearman(x, y)
        transformed = charstats.spearman(x, np.exp(y / 1000.0))
        assert transformed == base
    _report(2, "1000 oracle matches within 1e-12; monotone invariance exact")


def test_criterion_03_tree_split_oracle():
    rng = np.random.default_rng(0xA3)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 51))
        p = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, p)) * 2, 1)
        y = rng.random(n) < rng.uniform(0.2, 0.8)
        if y.all() or not y.any():
            continue
        model = train_tree(X, y)
        expected = exhaustive_best_split(X, y)
        if expected is None or expected[0] >= gini(list(y)):
            assert model.root.is_leaf
        else:
            assert (model.root.feature, model.root.threshold) == expected[1:]
        checked += 1
    _report(3, "200 root splits equal exhaustive enumeration incl. tie-breaks")


def test_criterion_04_logistic_gradient_check():
    rng = np.random.default_rng(0xA4)
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < 0.5).astype(float)
        l2 = float(rng.uniform(0, 0.5))
        w = rng.normal(size=p + 1)
        _, grad = logistic_loss_grad(w, X, y, l2)
        for j in range(p + 1):
            e = np.zeros(p + 1)
            e[j] = h
            lp, _ = logistic_loss_grad(w + e, X, y, l2)
            lm, _ = logistic_loss_grad(w - e, X, y, l2)
            fd = (lp - lm) / (2 * h)
            assert abs(grad[j] - fd) / max(abs(fd), 1e-10) < 1e-5
    _report(4, "analytic gradient within 1e-5 of central differences, 50 points")


def _random_examples(rng) -> featurize.LabeledExamples:
    n_drives = int(rng.integers(6, 17))
    per_drive = int(rng.integers(3, 7))
    rows = n_drives * per_drive
    X = rng.normal(size=(rows, 3))
    y = rng.random(rows) < 0.25
    y[per_drive - 1] = True            # guarantee both classes
    y[2 * per_drive - 1] = False
    drives = np.repeat([f"d{i}" for i in range(n_drives)], per_drive)
    days = np.tile(np.arange(per_drive), n_drives)
    return labeled_examples(("a", "b", "c"), X, y, drives, days,
                            days.astype(float), 0)


def test_criterion_05_protocol_invariants():
    spec = ModelSpec("tree", tree=TreeParams(max_depth=3))
    rng = np.random.default_rng(0xA5)
    for trial in range(100):
        examples = _random_examples(rng)
        k = int(rng.integers(3, 6))
        seed = int(rng.integers(0, 10_000))
        fold_of = row_folds(examples,
                            kfold_by_drive(drive_names(examples), k, seed))
        for f in range(k):
            train = examples.subset(fold_of != f)
            test = examples.subset(fold_of == f)
            assert not (set(drive_names(train)) & set(drive_names(test)))  # no leakage
            # test side keeps its raw class counts untouched
            assert test.n_positive == int(examples.y[fold_of == f].sum())
            if 0 < train.n_positive < train.n:
                balanced = undersample(train, 1.0, seed)
                assert balanced.n_positive * 2 == balanced.n  # exactly 1:1
        a = cross_validated_eval(examples, spec, k, seed)
        b = cross_validated_eval(examples, spec, k, seed)
        assert a.to_json().encode() == b.to_json().encode()
        assert (a.roc is None) == (b.roc is None)
        assert a.roc is None or a.roc.rows() == b.roc.rows()
    _report(5, "100 evaluations: no leakage, 1:1 training ratio, raw test "
               "ratio, byte-identical reports for equal seeds")


def _labeling_fixture():
    def drive(name, days):
        return [ssd_rec(name, d) for d in days]

    ds = ssd_dataset({
        "A": drive("A", range(11)),
        "B": drive("B", range(15)),
        "C": drive("C", range(7)),
        "D": drive("D", [0]),
        "E": drive("E", range(10)),
    })
    failures = table_of([dl.FailureEvent("A", 8, 1, "ssd"),
                         dl.FailureEvent("B", 5, 1, "ssd"),
                         dl.FailureEvent("B", 12, 2, "ssd"),
                         dl.FailureEvent("D", 0, 1, "ssd"),
                         dl.FailureEvent("E", 9, 1, "ssd")])
    return ds, failures


def test_criterion_06_labeling_correctness():
    ds, failures = _labeling_fixture()
    feats = featurize.make_features_ssd(ds)
    expected = {
        0: {("A", 8), ("B", 5), ("B", 12), ("D", 0), ("E", 9)},
        1: {("A", 7), ("A", 8), ("B", 4), ("B", 5), ("B", 11), ("B", 12),
            ("D", 0), ("E", 8), ("E", 9)},
        2: {("A", 6), ("A", 7), ("A", 8), ("B", 3), ("B", 4), ("B", 5),
            ("B", 10), ("B", 11), ("B", 12), ("D", 0),
            ("E", 7), ("E", 8), ("E", 9)},
        7: ({("A", d) for d in range(1, 9)}
            | {("B", d) for d in range(0, 13)}
            | {("D", 0)}
            | {("E", d) for d in range(2, 10)}),
    }
    counts = []
    for n, want in expected.items():
        examples = label_lookahead(feats, failures, n)
        names = drive_names(examples)
        got = {(names[i], int(examples.days[i]))
               for i in range(examples.n) if examples.y[i]}
        assert got == want, f"N={n}"
        counts.append(examples.n_positive)
    assert counts == sorted(counts)
    _report(6, "hand-enumerated labels exact for N in {0,1,2,7}; counts monotone")


def test_criterion_07_ssd_failure_rule_recovery():
    start = time.monotonic()
    cfg = dl.SynthConfig(family="ssd", n_drives=2000, horizon_days=730,
                         models={"MLC-X": 0.1129}, seed=11)
    ds, truth = dl.generate_fleet(cfg)
    detected = dl.detect_failures(ds)
    planted = {(e.drive, e.ordinal): e.age_days for e in truth}
    found = {(e.drive, e.ordinal): e.age_days for e in detected}
    assert set(found) == set(planted)
    exact = sum(1 for key in planted if planted[key] == found[key])
    assert exact / len(planted) >= 0.99
    from drivelife.synth import _MAX_INACTIVITY_RUN
    for key in planted:
        assert abs(planted[key] - found[key]) <= _MAX_INACTIVITY_RUN
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(7, f"{exact}/{len(planted)} failure days exact "
               f"({exact / len(planted):.1%}) in {elapsed:.1f}s")


def test_criterion_08_end_to_end_predictive_sanity():
    start = time.monotonic()
    cfg = dl.SynthConfig(
        family="ssd", n_drives=2000, horizon_days=365, seed=101,
        models={"MLC-A": 0.11, "MLC-B": 0.12},
        bursts=(dl.BurstSpec(kind="uncorrectable", mean=6.0, days=2,
                             probability=0.8),))
    ds, _ = dl.generate_fleet(cfg)
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    feats = featurize.make_features(ds)

    def build(n):
        return label_lookahead(feats, failures, n, periods)

    rf = ModelSpec("rf", forest=ForestParams(n_trees=100))
    reports = lookahead_sweep(build, [0, 1, 2, 7], rf, k=5, seed=11)
    aurocs = [reports[n].mean_auroc for n in (0, 1, 2, 7)]
    assert aurocs[0] >= 0.85, f"RF AUROC at N=0 is {aurocs[0]:.3f}"
    for earlier, later in zip(aurocs, aurocs[1:]):
        assert later <= earlier + 0.01, f"AUROC increased: {aurocs}"
    logreg = cross_validated_eval(build(0), ModelSpec("logreg", l2=1e-3,
                                                      max_iter=300),
                                  k=5, seed=11)
    assert aurocs[0] >= logreg.mean_auroc - 0.02, (
        f"RF {aurocs[0]:.3f} vs logistic {logreg.mean_auroc:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(8, "RF N=0 AUROC "
               f"{aurocs[0]:.3f} >= 0.85; sweep {[f'{a:.3f}' for a in aurocs]} "
               f"non-increasing; logistic {logreg.mean_auroc:.3f}; "
               f"{elapsed:.0f}s single-threaded")


def test_criterion_09_partition_improvement():
    # A deep forest given the age feature can partition internally, which
    # washes out the planted subpopulation effect; the linear classifier
    # cannot represent the age-conditional sign flip, so the improvement
    # from explicit partitioning is structural. The partitioned_eval
    # protocol under test is identical for every model spec.
    cfg = dl.SynthConfig(
        family="ssd", n_drives=2500, horizon_days=365, seed=202,
        models={"M": 0.2},
        infant_hazard_multiplier=2.5,
        bursts=(dl.BurstSpec(kind="write", mean=7.0, days=2, probability=0.85,
                             age_class="young"),
                dl.BurstSpec(kind="correctable", mean=80.0, days=2,
                             probability=0.95, age_class="old")),
        confounders=(dl.ConfounderSpec(feature="write", rate=0.65, mean=7.0,
                                       age_class="old"),))
    ds, _ = dl.generate_fleet(cfg)
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    feats = featurize.make_features(ds)
    examples = label_lookahead(feats, failures, 0, periods)
    spec = ModelSpec("logreg", l2=1e-3, max_iter=400)
    report = partitioned_eval(examples, PartitionRule("age", 90), spec,
                              k=5, seed=7)
    young = report.below.pooled_auroc
    baseline = report.unsplit_on_below
    assert young >= baseline + 0.02, (
        f"young-trained {young:.4f} vs unsplit-on-young {baseline:.4f}")
    _report(9, f"young-side AUROC {young:.4f} beats unsplit-on-young "
               f"{baseline:.4f} by {young - baseline:+.4f} (>= 0.02)")


def test_criterion_10_feature_importance_sanity():
    hits = 0
    for seed in range(10):
        cfg = dl.SynthConfig(
            family="ssd", n_drives=400, horizon_days=180, seed=1000 + seed,
            models={"M": 0.25},
            bursts=(dl.BurstSpec(kind="uncorrectable", mean=15.0, days=3,
                                 probability=1.0),))
        ds, _ = dl.generate_fleet(cfg)
        failures = lifecycle.detect_failures(ds)
        periods = lifecycle.extract_operational_periods(ds, failures)
        feats = featurize.make_features(ds)
        examples = label_lookahead(feats, failures, 0, periods)
        balanced = undersample(examples, 1.0, seed=seed)
        forest = train_forest(balanced.X, balanced.y, ForestParams(n_trees=50),
                              seed=seed, feature_names=examples.names)
        if "err_uncorrectable" in feature_importance(forest).top(2):
            hits += 1
    assert hits >= 9, f"only {hits}/10 runs ranked the burst feature top-2"
    _report(10, f"uncorrectable-error feature in importance top-2 in {hits}/10 runs")


BACKBLAZE_MODELS = {"ST12000NM0007", "ST3000DM001", "ST4000DM000",
                    "ST8000DM002", "ST8000NM0055"}


@pytest.mark.skipif("BACKBLAZE_DATA_DIR" not in os.environ,
                    reason="optional: set BACKBLAZE_DATA_DIR to the extracted "
                           "public HDD snapshot CSVs (2014-01-17..2019-12-31)")
def test_criterion_11_optional_real_data_characterization():
    import datetime as dt

    root = Path(os.environ["BACKBLAZE_DATA_DIR"])
    paths = sorted(root.rglob("*.csv"))
    assert paths, f"no CSVs under {root}"
    merged: dict[str, list] = {}
    for path in paths:
        with path.open() as handle:
            ds = dl.parse_hdd_csv(handle, source=str(path))
        for serial, seq in ds.records.items():
            merged.setdefault(serial, []).extend(seq)
    for serial in merged:
        merged[serial].sort(key=lambda r: r.date)
    fleet = dl.FleetDataset.from_records("hdd", merged)
    fleet = dl.filter_hdd(fleet, BACKBLAZE_MODELS, dt.date(2014, 1, 17),
                          dt.date(2019, 12, 31))
    failures = dl.detect_failures(fleet)

    failed_drives = {e.drive for e in failures}
    share_all = len(failed_drives) / fleet.n_drives
    assert abs(share_all - 0.0701) <= 0.005, f"overall failed share {share_all:.4f}"

    st3000 = [d for d, model in fleet.model_of.items() if model == "ST3000DM001"]
    st3000_failed = sum(1 for d in st3000 if d in failed_drives)
    share_st3000 = st3000_failed / len(st3000)
    assert abs(share_st3000 - 0.3189) <= 0.005

    sweep = charstats.hfh_threshold_sweep(failures, fleet, [40_000])
    small_rate, large_rate, large_share = sweep["per_threshold"][40_000]
    assert abs(large_share - 0.20) <= 0.03
    assert abs(large_rate - 0.17) <= 0.02
    _report(11, f"real-data shares: all {share_all:.4f}, ST3000DM001 "
                f"{share_st3000:.4f}, HFH {large_share:.3f}/{large_rate:.3f}")
