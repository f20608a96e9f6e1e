import json
import math

import numpy as np
import pytest

import drivelife as dl
from drivelife import featurize, learners, lifecycle
from drivelife.evaluation import ModelSpec, undersample
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


def best_split_per_feature(X, y, feature_ids, min_samples_leaf):
    """Reference for the batched ``learners._best_split``: one sort, one
    cumulative sum and one running-best comparison per sampled feature, in
    ascending index order, with no feature skipped."""
    n = y.shape[0]
    best = None
    y_int = y.astype(np.int64)
    for f in sorted(feature_ids):
        xs_all = X[:, f]
        order = np.argsort(xs_all, kind="stable")
        xs = xs_all[order]
        pos_cum = np.cumsum(y_int[order])
        total_pos = pos_cum[-1]
        nl = np.arange(1, n, dtype=np.int64)
        valid = xs[:-1] != xs[1:]
        if min_samples_leaf > 1:
            valid &= (nl >= min_samples_leaf) & ((n - nl) >= min_samples_leaf)
        if not valid.any():
            continue
        lp = pos_cum[:-1]
        nr = n - nl
        rp = total_pos - lp
        pl = lp / nl
        ql = (nl - lp) / nl
        gl = 1.0 - pl * pl - ql * ql
        pr = rp / nr
        qr = (nr - rp) / nr
        gr = 1.0 - pr * pr - qr * qr
        scores = (nl * gl + nr * gr) / n
        scores[~valid] = np.inf
        i = int(np.argmin(scores))
        score = float(scores[i])
        if best is None or score < best[0]:
            best = (score, int(f), float((xs[i] + xs[i + 1]) / 2))
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
        mirrored_winners = 0
        for trial in range(60):
            n = int(rng.integers(4, 51))
            p = int(rng.integers(1, 5))
            X = np.round(rng.normal(size=(n, p)) * 3, 1)  # induce ties
            # Constant columns, which have no candidate, at random places.
            for value in rng.choice([0.0, -2.5, 7.0], size=int(rng.integers(0, 3))):
                X = np.insert(X, int(rng.integers(0, X.shape[1] + 1)), value, axis=1)
            # A negated copy of a column splits the rows as it does, at the
            # mirrored candidate, so the two tie on every split: the lower
            # index must win, wherever the candidate lies in its column.
            X = np.insert(X, int(rng.integers(0, X.shape[1] + 1)),
                          -X[:, int(rng.integers(0, X.shape[1]))], axis=1)
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                continue
            root_gini = gini(list(y))
            for leaf in (1, 2, 3):
                model = train_tree(X, y, TreeParams(min_samples_leaf=leaf))
                expected = exhaustive_best_split(X, y, leaf)
                if expected is None or expected[0] >= root_gini:
                    assert model.root.is_leaf
                else:
                    assert model.root.feature == expected[1]
                    assert model.root.threshold == expected[2]
                    f = expected[1]
                    mirrored_winners += any((X[:, g] == -X[:, f]).all()
                                          for g in range(X.shape[1]) if g != f)
        assert mirrored_winners > 10  # the cross-feature tie was exercised

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_search_equals_per_feature_loop(self, monkeypatch, seed):
        """Forests and trees equal those grown by the per-feature reference
        search, down to the JSON."""
        rng = np.random.default_rng(seed)
        n = 120
        X = np.column_stack([
            np.round(rng.normal(size=n), 1), np.zeros(n), np.full(n, 3.0),
            rng.integers(0, 2, n).astype(float),  # constant in many nodes
            np.round(rng.normal(size=n) * 2, 0), np.where(rng.random(n) < 0.05, 1.0, 0.0)])
        y = rng.random(n) < 0.3 + 0.4 * (X[:, 3] > 0)
        params = ForestParams(n_trees=6, min_samples_leaf=int(rng.integers(1, 4)),
                              max_depth=None if seed % 2 else 5,
                              features_per_split=("sqrt", 2, None, 3)[seed],
                              bootstrap=seed != 1)
        fitted = [model_to_json(train_forest(X, y, params, seed=seed)),
                  model_to_json(train_tree(X, y))]
        monkeypatch.setattr(learners, "_best_split", best_split_per_feature)
        assert fitted == [model_to_json(train_forest(X, y, params, seed=seed)),
                          model_to_json(train_tree(X, y))]

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


class TestExpit:
    """``learners.expit`` gives ``scipy.special.expit``'s bits, numpy alone."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 709.78, -709.78, 709.79, -709.79,
             710.0, -710.0, 745.2, -745.2, 746.0, -746.0, math.inf, -math.inf,
             math.nan]

    @staticmethod
    def assert_scipy_bits(z):
        from scipy.special import expit
        got, want = learners.expit(z), expit(z)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == z.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("draw", ["normal", "uniform"])
    def test_two_million_draws(self, draw):
        rng = np.random.default_rng(16)
        z = (rng.normal(0.0, 5.0, 2_000_000) if draw == "normal"
             else rng.uniform(-800.0, 800.0, 2_000_000))
        self.assert_scipy_bits(z)

    def test_edges(self):
        z = np.array(self.EDGES)
        self.assert_scipy_bits(z)
        assert learners.expit(np.array([-710.0, -746.0, -math.inf])).tolist() == [0.0] * 3
        for v in self.EDGES:
            self.assert_scipy_bits(np.array([v]))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (7,), (4, 5)])
    def test_shapes(self, shape):
        z = np.random.default_rng(3).normal(0.0, 30.0, shape)
        self.assert_scipy_bits(z)

    def test_overflow_in_a_matrix(self):
        z = np.array([[1.0, -800.0], [math.nan, 2.0]])
        self.assert_scipy_bits(z)

    def test_input_untouched(self):
        z = np.array([[-800.0, 0.5], [3.0, -math.inf]])
        kept = z.copy()
        learners.expit(z)
        assert z.tobytes() == kept.tobytes()


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
        # A fit stopped after k steps holds the k-th iterate of the solver.
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60)) > 0
        Xs = standardized(X)
        losses = [logistic_loss_grad(train_logistic(X, y, max_iter=k).weights,
                                     Xs, y.astype(float), 1e-3)[0]
                  for k in range(1, 11)]
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
        else:  # singular Hessian: the steps take the minimum-norm direction
            rng = np.random.default_rng(12)
            X = rng.normal(size=(80, 3))
            y = X[:, 0] + 0.5 * rng.normal(size=80) > 0
            X, l2 = np.hstack([X, X[:, :1]]), 0.0
        Xs, yf = standardized(X), y.astype(float)
        evaluations = []
        loss_grad_sigmoid = learners._loss_grad_sigmoid

        def counted(*args):
            evaluations.append(args)
            return loss_grad_sigmoid(*args)

        monkeypatch.setattr(learners, "_loss_grad_sigmoid", counted)
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

    @pytest.mark.parametrize("extra", ["duplicated_column", "constant_column"])
    def test_singular_hessian_converges_in_few_steps(self, extra):
        for seed in range(28):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 3))
            y = X[:, 0] + 0.5 * rng.normal(size=80) > 0
            column = X[:, :1] if extra == "duplicated_column" else np.full((80, 1), 7.0)
            model = train_logistic(np.hstack([X, column]), y, l2=0.0)
            assert model.converged and model.n_iter <= 25, seed

    @pytest.mark.parametrize("direction", [
        lambda grad: None,                       # singular Hessian
        lambda grad: grad.copy(),                # ascent direction
        lambda grad: np.full_like(grad, np.nan),  # NaN slope
    ], ids=["singular", "ascent", "nan"])
    def test_bad_direction_falls_back_to_gradient(self, direction,
                                                  monkeypatch):
        monkeypatch.setattr(learners, "_newton_direction",
                            lambda s, X, grad, l2: direction(grad))
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + rng.normal(size=60) > 0
        model = train_logistic(X, y, l2=1e-2, max_iter=2000)
        assert model.converged and np.isfinite(model.weights).all()

    @pytest.mark.parametrize("case", ["planted", "near_separable"])
    def test_one_sigmoid_per_loss_evaluation(self, case, planted_fleet,
                                             monkeypatch):
        # the Newton step reuses the sigmoid of the loss evaluation that
        # accepted its weights
        if case == "planted":
            (X, y), l2 = planted_fleet, 1e-3
        else:
            rng = np.random.default_rng(198)
            X = rng.normal(size=(30, 3))
            y = X[:, 0] + 0.1 * rng.normal(size=30) > 0
            l2 = 1e-8
        calls = {"expit": 0, "loss": 0}
        expit, loss_grad_sigmoid = learners.expit, learners._loss_grad_sigmoid

        def counted_expit(z):
            calls["expit"] += 1
            return expit(z)

        def counted_loss(*args):
            calls["loss"] += 1
            return loss_grad_sigmoid(*args)

        monkeypatch.setattr(learners, "expit", counted_expit)
        monkeypatch.setattr(learners, "_loss_grad_sigmoid", counted_loss)
        model = train_logistic(X, y, l2=l2)
        assert model.converged and model.n_iter > 1
        assert calls["expit"] == calls["loss"] >= model.n_iter

    def test_refit_and_reload_bit_identical(self, planted_fleet):
        X, y = planted_fleet
        model = train_logistic(X, y)
        again = train_logistic(X, y)
        clone = model_from_json(model_to_json(model))
        for other in (again, clone):
            assert other.weights.tobytes() == model.weights.tobytes()
            assert (other.converged, other.n_iter) == (model.converged,
                                                       model.n_iter)


def recursive_importance(model):
    """``feature_importance(model).entries`` by the recursive walk that the
    preorder walk replaced, as the reference that it adds the same terms in
    the same order."""
    def accumulate(node, acc, n_root):
        if node.is_leaf:
            return
        acc[node.feature] += (node.n_samples * node.impurity
                              - node.left.n_samples * node.left.impurity
                              - node.right.n_samples * node.right.impurity) / n_root
        accumulate(node.left, acc, n_root)
        accumulate(node.right, acc, n_root)

    total = np.zeros(model.n_features)
    for tree in model.trees:
        accumulate(tree.root, total, tree.root.n_samples)
    total /= len(model.trees)
    scores = total / total.sum()
    names = model.feature_names or tuple(f"f{i}" for i in range(model.n_features))
    order = sorted(range(len(names)), key=lambda i: (-scores[i], names[i]))
    return tuple((names[i], float(scores[i])) for i in order)


class TestImportance:
    @pytest.mark.parametrize("seed", range(4))
    def test_entries_equal_recursive_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 160
        X = np.round(rng.normal(size=(n, 7)), 1)  # ties within and across columns
        X[:, 5] = X[:, 1]
        y = rng.random(n) < 0.2 + 0.5 * (X[:, 2] > 0)
        params = ForestParams(n_trees=8, max_depth=(None, 4, 7, None)[seed],
                              min_samples_leaf=1 + seed % 3,
                              features_per_split=("sqrt", 3, None, 1)[seed],
                              bootstrap=seed != 2)
        forest = train_forest(X, y, params, seed=seed)
        assert feature_importance(forest).entries == recursive_importance(forest)

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


class TestParams:
    @pytest.mark.parametrize("make, name", [
        (lambda: ForestParams(n_trees=0), "n_trees"),
        (lambda: ForestParams(n_trees=-1), "n_trees"),
        (lambda: ForestParams(n_trees=True), "n_trees"),
        (lambda: ForestParams(n_trees=10.0), "n_trees"),
        (lambda: ForestParams(bootstrap="no"), "bootstrap"),
        (lambda: ForestParams(bootstrap=1), "bootstrap"),
        (lambda: ForestParams(max_depth=-1), "max_depth"),
        (lambda: ForestParams(features_per_split=0), "features_per_split"),
        (lambda: TreeParams(max_depth=1.5), "max_depth"),
        (lambda: TreeParams(max_depth=False), "max_depth"),
        (lambda: TreeParams(min_samples_leaf=-3), "min_samples_leaf"),
        (lambda: TreeParams(min_samples_leaf=0), "min_samples_leaf"),
        (lambda: TreeParams(features_per_split="log2"), "features_per_split"),
        (lambda: TreeParams(features_per_split=2.0), "features_per_split"),
        (lambda: TreeParams(features_per_split=True), "features_per_split"),
        (lambda: ModelSpec("logreg", l2="x"), "l2"),
        (lambda: ModelSpec("logreg", l2=-1), "l2"),
        (lambda: ModelSpec("logreg", l2=math.inf), "l2"),
        (lambda: ModelSpec("logreg", l2=math.nan), "l2"),
        (lambda: ModelSpec("logreg", max_iter=0), "max_iter"),
        (lambda: ModelSpec("logreg", max_iter=True), "max_iter"),
        (lambda: ModelSpec("logreg", max_iter=50.0), "max_iter"),
        (lambda: ModelSpec("logreg", tol=-1), "tol"),
        (lambda: ModelSpec("logreg", tol=0.0), "tol"),
        (lambda: ModelSpec("logreg", tol=math.nan), "tol"),
    ])
    def test_bad_value_raises(self, make, name):
        with pytest.raises(ValueError, match=f"^bad {name} "):
            make()

    def test_boundary_values_accepted(self):
        ForestParams(n_trees=1, max_depth=0, min_samples_leaf=1,
                     features_per_split=1, bootstrap=False)
        TreeParams(max_depth=None, features_per_split="sqrt")
        ModelSpec("logreg", l2=0, max_iter=1, tol=1e-300)

    def test_features_per_split_past_the_features_raises(self):
        with pytest.raises(ValueError, match="features_per_split 3 exceeds the 2"):
            train_forest(np.eye(4)[:, :2], [True, False, True, False],
                         ForestParams(n_trees=2, features_per_split=3))


def _recursive_count(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _recursive_count(node.left) + _recursive_count(node.right)


def _json_count(doc: dict) -> int:
    return 1 + sum(_json_count(doc[side]) for side in ("left", "right") if side in doc)


class TestNodeCount:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 5))
        return X, (X[:, 0] + rng.normal(scale=0.7, size=300)) > 0.3

    @pytest.mark.parametrize("depth", [0, 1, 3, None])
    def test_tree(self, data, depth):
        model = train_tree(*data, TreeParams(max_depth=depth))
        doc = json.loads(model_to_json(model))
        assert model.n_nodes == _recursive_count(model.root) == _json_count(doc["root"])
        if depth in (0, 1):
            assert model.n_nodes == 2 * depth + 1

    def test_forest(self, data):
        forest = train_forest(*data, ForestParams(n_trees=7, max_depth=6), seed=2)
        doc = json.loads(model_to_json(forest))
        counts = [tree.n_nodes for tree in forest.trees]
        assert counts == [_recursive_count(t.root) for t in forest.trees]
        assert counts == [_json_count(root) for root in doc["trees"]]
        assert len(set(counts)) > 1 and min(counts) > 1
