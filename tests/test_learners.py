import json
import math

import numpy as np
import pytest

import drivelife as dl
from drivelife import featurize, learners, lifecycle
from drivelife.evaluation import undersample
from drivelife.featurize import label_lookahead
from drivelife.learners import (ForestParams, TreeParams, feature_importance,
                                logistic_loss_grad, model_from_json,
                                model_to_json, predict_proba, train_forest,
                                train_logistic, train_tree)


def exhaustive_best_split(X, y, min_samples_leaf=1):
    """Oracle: plain-loop enumeration of every (feature, midpoint) candidate.

    Scores with the textbook weighted-Gini formula; first strict
    improvement wins, scanning features then thresholds in ascending
    order (the documented tie-break).
    """
    n, p = X.shape
    best = None
    for f in range(p):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            score = 0.0
            for side in (left, right):
                m = len(side)
                pos = sum(1 for i in side if y[i])
                pl = pos / m
                ql = (m - pos) / m
                score += m * (1.0 - pl * pl - ql * ql)
            score /= n
            if best is None or score < best[0]:
                best = (score, f, thr)
    return best


def gini(y):
    pos = sum(y) / len(y)
    return 1.0 - pos * pos - (1 - pos) * (1 - pos)


class TestTree:
    def test_pure_positive_is_single_leaf(self):
        model = train_tree([[0.0], [1.0]], [True, True])
        assert model.root.is_leaf
        assert model.root.fraction == 1.0

    def test_midpoint_split_on_1d_step(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([False, False, True, True])
        model = train_tree(X, y)
        assert model.root.feature == 0
        assert model.root.threshold == 1.5

    def test_root_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(4, 51))
            p = int(rng.integers(1, 5))
            X = np.round(rng.normal(size=(n, p)) * 3, 1)  # induce ties
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                continue
            model = train_tree(X, y)
            expected = exhaustive_best_split(X, y)
            root_gini = gini(list(y))
            if expected is None or expected[0] >= root_gini:
                assert model.root.is_leaf
            else:
                assert model.root.feature == expected[1]
                assert model.root.threshold == expected[2]

    def test_constant_features_give_leaf(self):
        model = train_tree([[3.0], [3.0], [3.0]], [True, False, True])
        assert model.root.is_leaf

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.empty((0, 2)), np.empty(0, dtype=bool))

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.array([False] * 5 + [True] * 5)
        model = train_tree(X, y, TreeParams(min_samples_leaf=3))

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 3
            else:
                check(node.left)
                check(node.right)
        check(model.root)

    def test_duplicated_dataset_same_structure(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.random(30) < 0.4
        if y.all() or not y.any():
            y[0] = ~y[0]
        single = train_tree(X, y)
        doubled = train_tree(np.vstack([X, X]), np.concatenate([y, y]))

        def strip(node):
            if node.is_leaf:
                return ("leaf", node.fraction)
            return ("split", node.feature, node.threshold,
                    strip(node.left), strip(node.right))
        assert strip(single.root) == strip(doubled.root)


class TestForest:
    def _blobs(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        X = np.vstack([rng.normal(loc=(-2, -2), scale=0.5, size=(half, 2)),
                       rng.normal(loc=(2, 2), scale=0.5, size=(half, 2))])
        y = np.array([False] * half + [True] * half)
        return X, y

    def test_degenerates_to_single_tree(self):
        X, y = self._blobs(40)
        params = ForestParams(n_trees=1, features_per_split=None, bootstrap=False)
        forest = train_forest(X, y, params, seed=5)
        tree = train_tree(X, y, TreeParams(), seed=5)
        grid = np.random.default_rng(1).normal(size=(50, 2)) * 3
        assert np.array_equal(predict_proba(forest, grid),
                              predict_proba(tree, grid))

    def test_same_seed_identical_model(self):
        X, y = self._blobs(60)
        a = train_forest(X, y, ForestParams(n_trees=10), seed=9)
        b = train_forest(X, y, ForestParams(n_trees=10), seed=9)
        assert model_to_json(a) == model_to_json(b)

    def test_parallel_equals_serial(self):
        X, y = self._blobs(60)
        serial = train_forest(X, y, ForestParams(n_trees=8), seed=2, jobs=1)
        threaded = train_forest(X, y, ForestParams(n_trees=8), seed=2, jobs=4)
        assert model_to_json(serial) == model_to_json(threaded)

    def test_separable_blobs_accuracy(self):
        X, y = self._blobs(200, seed=7)
        forest = train_forest(X, y, ForestParams(n_trees=30), seed=1)
        pred = predict_proba(forest, X) > 0.5
        assert (pred == y).mean() >= 0.95

    def test_forest_probability_is_mean_of_trees(self):
        X, y = self._blobs(80, seed=3)
        forest = train_forest(X, y, ForestParams(n_trees=7), seed=4)
        x = np.array([0.3, -1.2])
        per_tree = [predict_proba(t, x) for t in forest.trees]
        acc = 0.0
        for v in per_tree:
            acc += v
        assert predict_proba(forest, x) == acc / len(per_tree)

    def test_monotone_feature_transform_preserves_ranking(self):
        # Thresholds are midpoints, so only training points (whose routing
        # is determined by order statistics) transform exactly; assert the
        # probability ordering over the training set itself.
        X, y = self._blobs(100, seed=11)
        shifted = np.exp(X / 4)  # strictly monotone per feature
        a = train_forest(X, y, ForestParams(n_trees=15), seed=6)
        b = train_forest(shifted, y, ForestParams(n_trees=15), seed=6)
        pa = predict_proba(a, X)
        pb = predict_proba(b, shifted)
        assert np.array_equal(np.argsort(pa, kind="stable"),
                              np.argsort(pb, kind="stable"))


class TestPredict:
    def test_forest_of_pure_positive_leaves(self):
        forest = train_forest([[1.0], [2.0]], [True, True],
                              ForestParams(n_trees=5), seed=0)
        assert predict_proba(forest, [1.5]) == 1.0

    def test_logistic_zero_weights_gives_half(self):
        from drivelife.learners import LogisticModel
        model = LogisticModel(np.zeros(3), np.zeros(2), np.ones(2), 0.0,
                              True, 0)
        assert predict_proba(model, [4.0, -2.0]) == 0.5

    def test_hand_built_tree_routing(self):
        from drivelife.learners import TreeModel, TreeNode
        left = TreeNode(4, 0.25, 0.375)
        right = TreeNode(4, 0.75, 0.375)
        root = TreeNode(8, 0.5, 0.5, feature=0, threshold=1.0,
                        left=left, right=right)
        model = TreeModel(root, 1, TreeParams())
        assert predict_proba(model, [0.5]) == 0.25
        assert predict_proba(model, [1.5]) == 0.75

    def test_dimension_mismatch(self):
        model = train_tree([[0.0, 1.0]], [True])
        with pytest.raises(ValueError):
            predict_proba(model, [1.0])


class TestLogistic:
    def test_all_positive_with_l2_saturates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = np.ones(50, dtype=bool)
        model = train_logistic(X, y, l2=1e-3, max_iter=2000)
        probs = predict_proba(model, X)
        assert np.all(probs > 0.95)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = rng.random(20) < 0.5
        h = 1e-6
        for _ in range(10):
            w = rng.normal(size=4)
            _, grad = logistic_loss_grad(w, X, y.astype(float), l2=0.1)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                lp, _ = logistic_loss_grad(w + e, X, y.astype(float), l2=0.1)
                lm, _ = logistic_loss_grad(w - e, X, y.astype(float), l2=0.1)
                fd = (lp - lm) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_symmetric_data_near_zero_intercept(self):
        rng = np.random.default_rng(8)
        Xp = rng.normal(loc=1.0, size=(100, 1))
        X = np.vstack([Xp, -Xp])
        y = np.array([True] * 100 + [False] * 100)
        model = train_logistic(X, y, l2=1e-2, max_iter=2000)
        assert abs(model.weights[-1]) < 1e-3

    def test_loss_decreases_monotonically(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60)) > 0
        mean = X.mean(axis=0)
        scale = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        Xs = (X - mean) / scale
        losses = []
        w = np.zeros(4)
        loss, grad = logistic_loss_grad(w, Xs, y.astype(float), 1e-3)
        losses.append(loss)
        step = 1.0
        for _ in range(50):
            step = min(step * 2, 1e6)
            gnorm2 = float(grad @ grad)
            while True:
                w_next = w - step * grad
                loss_next, grad_next = logistic_loss_grad(w_next, Xs,
                                                          y.astype(float), 1e-3)
                if loss_next <= loss - 1e-4 * step * gnorm2 or step < 1e-12:
                    break
                step *= 0.5
            w, loss, grad = w_next, loss_next, grad_next
            losses.append(loss)
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            train_logistic([[np.inf], [0.0]], [True, False])


def standardized(X):
    X = np.asarray(X, dtype=float)
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)


def gradient_descent_loss(Xs, y, l2, max_iter=500):
    """Loss after the backtracking gradient descent the Newton solver replaced."""
    w = np.zeros(Xs.shape[1] + 1)
    loss, grad = logistic_loss_grad(w, Xs, y, l2)
    step = 1.0
    for _ in range(max_iter):
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) < 1e-6:
            break
        step = min(step * 2.0, 1e6)
        while True:
            w_next = w - step * grad
            loss_next, grad_next = logistic_loss_grad(w_next, Xs, y, l2)
            if loss_next <= loss - 1e-4 * step * gnorm2 or step < 1e-12:
                break
            step *= 0.5
        w, loss, grad = w_next, loss_next, grad_next
    return loss


@pytest.fixture(scope="module")
def planted_fleet():
    """Undersampled SSD training set, lookahead 7, with planted error bursts."""
    cfg = dl.SynthConfig(
        family="ssd", n_drives=300, horizon_days=120, seed=41,
        models={"M": 0.25},
        bursts=(dl.BurstSpec(kind="uncorrectable", mean=15.0, days=3,
                             probability=1.0),))
    ds, _ = dl.generate_fleet(cfg)
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    examples = label_lookahead(featurize.make_features(ds), failures, 7, periods)
    balanced = undersample(examples, 1.0, seed=3)
    return balanced.X, balanced.y


class TestNewtonSolver:
    def test_converges_in_few_steps(self, planted_fleet):
        X, y = planted_fleet
        model = train_logistic(X, y, l2=1e-3, tol=1e-6)
        assert model.converged and model.n_iter <= 25
        _, grad = logistic_loss_grad(model.weights, standardized(X),
                                     y.astype(float), 1e-3)
        assert np.linalg.norm(grad) < 1e-6

    def test_loss_at_most_gradient_descent_loss(self, planted_fleet):
        X, y = planted_fleet
        Xs, yf = standardized(X), y.astype(float)
        model = train_logistic(X, y, l2=1e-3)
        loss, _ = logistic_loss_grad(model.weights, Xs, yf, 1e-3)
        assert loss <= gradient_descent_loss(Xs, yf, 1e-3)

    @pytest.mark.parametrize("case", ["planted", "near_separable",
                                      "duplicated_column"])
    def test_every_step_satisfies_armijo(self, case, planted_fleet,
                                         monkeypatch):
        # A fit stopped after k steps holds the k-th iterate, so the
        # iterates are recovered one fit per step. Armijo on the step
        # delta = w_k - w_{k-1} reads f(w_k) <= f(w_{k-1}) + 1e-4 g.delta.
        if case == "planted":
            (X, y), l2 = planted_fleet, 1e-3
        elif case == "near_separable":
            rng = np.random.default_rng(198)
            X = rng.normal(size=(30, 3))
            y = X[:, 0] + 0.1 * rng.normal(size=30) > 0
            l2 = 1e-8
        else:  # singular Hessian: most steps fall back to the gradient
            rng = np.random.default_rng(12)
            X = rng.normal(size=(80, 3))
            y = X[:, 0] + 0.5 * rng.normal(size=80) > 0
            X, l2 = np.hstack([X, X[:, :1]]), 0.0
        Xs, yf = standardized(X), y.astype(float)
        evaluations = []

        def counted(*args):
            evaluations.append(args)
            return logistic_loss_grad(*args)

        monkeypatch.setattr(learners, "logistic_loss_grad", counted)
        model = train_logistic(X, y, l2=l2)
        assert model.converged
        steps = model.n_iter - 1
        if case == "near_separable":
            # the start plus one evaluation per step, plus each halving
            assert len(evaluations) > 1 + steps, "no step was damped"
        w = np.zeros(X.shape[1] + 1)
        loss, grad = logistic_loss_grad(w, Xs, yf, l2)
        for k in range(1, steps + 1):
            w_k = train_logistic(X, y, l2=l2, max_iter=k).weights
            loss_k, grad_k = logistic_loss_grad(w_k, Xs, yf, l2)
            delta = w_k - w
            assert float(grad @ delta) < 0.0
            assert loss_k <= loss + 1e-4 * float(grad @ delta)
            w, loss, grad = w_k, loss_k, grad_k

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["all_positive", "constant_column",
                                      "duplicated_column"])
    def test_degenerate_inputs_give_finite_weights(self, case):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + 0.5 * rng.normal(size=80) > 0
        l2 = 0.0
        if case == "all_positive":
            y, l2 = np.ones(80, dtype=bool), 1e-3
        elif case == "constant_column":
            X = np.hstack([X, np.full((80, 1), 7.0)])
        else:
            X = np.hstack([X, X[:, :1]])
        model = train_logistic(X, y, l2=l2)
        assert np.isfinite(model.weights).all()
        assert np.isfinite(predict_proba(model, X)).all()

    @pytest.mark.parametrize("direction", [
        lambda grad: None,                       # singular Hessian
        lambda grad: grad.copy(),                # ascent direction
        lambda grad: np.full_like(grad, np.nan),  # NaN slope
    ], ids=["singular", "ascent", "nan"])
    def test_bad_direction_falls_back_to_gradient(self, direction,
                                                  monkeypatch):
        monkeypatch.setattr(learners, "_newton_direction",
                            lambda w, X, grad, l2: direction(grad))
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + rng.normal(size=60) > 0
        model = train_logistic(X, y, l2=1e-2, max_iter=2000)
        assert model.converged and np.isfinite(model.weights).all()

    def test_refit_and_reload_bit_identical(self, planted_fleet):
        X, y = planted_fleet
        model = train_logistic(X, y)
        again = train_logistic(X, y)
        clone = model_from_json(model_to_json(model))
        for other in (again, clone):
            assert other.weights.tobytes() == model.weights.tobytes()
            assert (other.converged, other.n_iter) == (model.converged,
                                                       model.n_iter)


class TestImportance:
    def _planted(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 300
        X = rng.normal(size=(n, 5))
        y = X[:, 2] > 0.1  # only feature 2 is informative
        return X, y

    def test_informative_feature_ranks_first(self):
        X, y = self._planted()
        forest = train_forest(X, y, ForestParams(n_trees=20), seed=1,
                              feature_names=["a", "b", "signal", "c", "d"])
        ranking = feature_importance(forest)
        assert ranking.top(1) == ["signal"]

    def test_scores_sum_to_one(self):
        X, y = self._planted(3)
        forest = train_forest(X, y, ForestParams(n_trees=10), seed=2)
        ranking = feature_importance(forest)
        assert sum(s for _, s in ranking.entries) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for _, s in ranking.entries)

    def test_pure_forest_raises(self):
        forest = train_forest([[1.0], [2.0]], [True, True],
                              ForestParams(n_trees=3), seed=0)
        with pytest.raises(ValueError):
            feature_importance(forest)

    def test_column_permutation_permutes_ranking(self):
        X, y = self._planted(5)
        names = ["a", "b", "signal", "c", "d"]
        perm = [3, 0, 4, 2, 1]
        forest1 = train_forest(X, y, ForestParams(n_trees=12,
                                                  features_per_split=None),
                               seed=7, feature_names=names)
        forest2 = train_forest(X[:, perm], y,
                               ForestParams(n_trees=12, features_per_split=None),
                               seed=7, feature_names=[names[i] for i in perm])
        r1 = {n: s for n, s in feature_importance(forest1).entries}
        r2 = {n: s for n, s in feature_importance(forest2).entries}
        assert r1 == r2


class TestSerialization:
    def test_round_trip_bit_identical_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 4))
        y = X[:, 1] - X[:, 3] > 0
        grid = rng.normal(size=(50, 4))
        for model in (train_tree(X, y, TreeParams(max_depth=4)),
                      train_forest(X, y, ForestParams(n_trees=6), seed=3),
                      train_logistic(X, y, l2=1e-2)):
            clone = model_from_json(model_to_json(model))
            assert np.array_equal(predict_proba(model, grid),
                                  predict_proba(clone, grid))

    def test_json_is_self_describing(self):
        model = train_tree([[0.0], [1.0]], [False, True])
        doc = json.loads(model_to_json(model))
        assert doc["kind"] == "tree"
        assert "root" in doc and "params" in doc
