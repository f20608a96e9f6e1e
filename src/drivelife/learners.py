"""From-scratch probabilistic classifiers: CART tree, random forest, logistic regression.

All three expose the same contract: ``predict_proba(model, x)`` returns a
failure probability in [0, 1], so the evaluation harness accepts any of
them (or an external model meeting the contract).

Split search notes: candidate thresholds are midpoints between
consecutive distinct sorted values; the winning candidate minimizes the
weighted Gini impurity ``(n_l*g_l + n_r*g_r) / n``, ties broken by lowest
feature index then lowest threshold. The score is computed from integer
class counts with one division per term, so an exhaustive re-enumeration
using the same textbook formula reproduces it bit for bit.

Models are immutable once trained and serialize to self-describing JSON;
a reloaded model predicts bit-identically (floats round-trip via repr).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

__all__ = [
    "TreeParams",
    "ForestParams",
    "TreeNode",
    "ForestModel",
    "LogisticModel",
    "ImportanceRanking",
    "train_tree",
    "train_forest",
    "train_logistic",
    "predict_proba",
    "feature_importance",
    "logistic_loss_grad",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | str | None = None  # None=all, "sqrt"=ceil(sqrt(p))


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | str | None = "sqrt"
    bootstrap: bool = True


def _tree_params(params: ForestParams) -> TreeParams:
    """The per-tree parameters of a forest."""
    return TreeParams(params.max_depth, params.min_samples_leaf,
                      params.features_per_split)


@dataclass(frozen=True)
class TreeNode:
    """Binary CART node: a split when ``feature`` is set, else a leaf.

    ``fraction`` is the positive share of the node's training samples;
    ``impurity`` its Gini impurity. Both are kept on internal nodes too,
    for impurity-decrease feature importances.
    """

    n_samples: int
    fraction: float
    impurity: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    n_features: int
    params: TreeParams
    seed: int | None = None
    feature_names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeModel, ...]
    n_features: int
    params: ForestParams
    seed: int
    feature_names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class LogisticModel:
    """L2-regularized logistic regression on standardized features.

    ``weights`` has one entry per feature plus the intercept (last).
    ``mean``/``scale`` are the training-set standardization constants,
    applied inside predict_proba so callers always pass raw features.
    """

    weights: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    l2: float
    converged: bool
    n_iter: int
    feature_names: tuple[str, ...] | None = None

    @property
    def n_features(self) -> int:
        return self.weights.shape[0] - 1


@dataclass(frozen=True)
class ImportanceRanking:
    """Per-feature importance scores, descending, normalized to sum 1."""

    entries: tuple[tuple[str, float], ...]

    def top(self, k: int) -> list[str]:
        return [name for name, _ in self.entries[:k]]

    def score(self, name: str) -> float:
        for n, s in self.entries:
            if n == name:
                return s
        raise KeyError(name)


def _gini(n: int, pos: int) -> float:
    p = pos / n
    q = (n - pos) / n
    return 1.0 - p * p - q * q


def _best_split(X: np.ndarray, y: np.ndarray, feature_ids: Sequence[int],
                min_samples_leaf: int) -> tuple[float, int, float] | None:
    """Lowest-weighted-Gini (score, feature, midpoint threshold), or None.

    Features are scanned in ascending index order and candidates in
    ascending threshold order with strict improvement, which realizes the
    tie-break: lowest feature index, then lowest threshold.
    """
    n = y.shape[0]
    best: tuple[float, int, float] | None = None
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
        i = int(np.argmin(scores))  # first minimum: lowest threshold wins
        score = float(scores[i])
        if best is None or score < best[0]:
            best = (score, int(f), float((xs[i] + xs[i + 1]) / 2))
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, params: TreeParams,
          rng: np.random.Generator | None, n_subset: int | None) -> TreeNode:
    n = y.shape[0]
    pos = int(y.sum())
    impurity = _gini(n, pos)
    node = TreeNode(n, pos / n, impurity)
    if pos in (0, n) or (params.max_depth is not None and depth >= params.max_depth):
        return node
    p = X.shape[1]
    if n_subset is not None and n_subset < p:
        feature_ids = rng.choice(p, size=n_subset, replace=False)
    else:
        feature_ids = range(p)
    found = _best_split(X, y, feature_ids, params.min_samples_leaf)
    if found is None:
        return node
    score, f, thr = found
    if score >= impurity:  # no impurity decrease: stop
        return node
    mask = X[:, f] <= thr
    if not mask.any() or mask.all():
        return node
    left = _grow(X[mask], y[mask], depth + 1, params, rng, n_subset)
    right = _grow(X[~mask], y[~mask], depth + 1, params, rng, n_subset)
    return TreeNode(n, pos / n, impurity, f, thr, left, right)


def _resolve_subset(spec: int | str | None, p: int) -> int | None:
    if spec is None:
        return None
    if spec == "sqrt":
        return math.ceil(math.sqrt(p))
    k = int(spec)
    if not 1 <= k <= p:
        raise ValueError(f"features_per_split {k} outside [1, {p}]")
    return k


def _check_training_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).astype(bool)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be 2-D with at least one feature")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y lengths differ")
    if X.shape[0] == 0:
        raise ValueError("cannot train on zero samples")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    return X, y


def train_tree(X, y, params: TreeParams = TreeParams(), seed: int | None = None,
               feature_names: Sequence[str] | None = None) -> TreeModel:
    """Greedy CART with Gini impurity; deterministic given (data, params, seed)."""
    X, y = _check_training_input(X, y)
    rng = np.random.default_rng(seed)
    n_subset = _resolve_subset(params.features_per_split, X.shape[1])
    root = _grow(X, y, 0, params, rng, n_subset)
    return TreeModel(root, X.shape[1], params, seed,
                     tuple(feature_names) if feature_names else None)


def train_forest(X, y, params: ForestParams = ForestParams(), seed: int = 0,
                 feature_names: Sequence[str] | None = None,
                 jobs: int = 1) -> ForestModel:
    """Bootstrap-aggregated CART trees with per-split random feature subsets.

    Per-tree randomness derives from ``seed`` via spawned seed sequences,
    so results are identical whether trees are built serially or in
    parallel (``jobs`` > 1 uses a thread pool).
    """
    X, y = _check_training_input(X, y)
    tree_params = _tree_params(params)
    n = X.shape[0]
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees)
    n_subset = _resolve_subset(params.features_per_split, X.shape[1])

    def build(ss) -> TreeModel:
        rng = np.random.default_rng(ss)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        root = _grow(Xb, yb, 0, tree_params, rng, n_subset)
        return TreeModel(root, X.shape[1], tree_params)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trees = tuple(pool.map(build, seeds))
    else:
        trees = tuple(build(ss) for ss in seeds)
    return ForestModel(trees, X.shape[1], params, seed,
                       tuple(feature_names) if feature_names else None)


def logistic_loss_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                       l2: float) -> tuple[float, np.ndarray]:
    """Mean log-loss with L2 penalty (intercept unpenalized) and its gradient.

    ``w`` holds the feature weights followed by the intercept.
    """
    n, p = X.shape
    z = X @ w[:p] + w[p]
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += 0.5 * l2 * float(w[:p] @ w[:p])
    resid = expit(z) - y
    grad = np.empty(p + 1)
    grad[:p] = X.T @ resid / n + l2 * w[:p]
    grad[p] = resid.mean()
    return loss, grad


def train_logistic(X, y, l2: float = 1e-3, max_iter: int = 500,
                   tol: float = 1e-6,
                   feature_names: Sequence[str] | None = None) -> LogisticModel:
    """Gradient descent with backtracking line search on the regularized log-loss.

    Features are standardized internally (constant columns get unit
    scale); convergence is declared when the gradient norm drops below
    ``tol``. The returned model records whether that happened.
    """
    X, y = _check_training_input(X, y)
    yf = y.astype(float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    Xs = (X - mean) / scale

    w = np.zeros(X.shape[1] + 1)
    loss, grad = logistic_loss_grad(w, Xs, yf, l2)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) < tol:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while True:
            w_next = w - step * grad
            loss_next, grad_next = logistic_loss_grad(w_next, Xs, yf, l2)
            if loss_next <= loss - 1e-4 * step * gnorm2 or step < 1e-12:
                break
            step *= 0.5
        w, loss, grad = w_next, loss_next, grad_next
    return LogisticModel(w, mean, scale, l2, converged, it,
                         tuple(feature_names) if feature_names else None)


def _tree_scores(node: TreeNode, X: np.ndarray, out: np.ndarray,
                 idx: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.fraction
        return
    mask = X[idx, node.feature] <= node.threshold
    _tree_scores(node.left, X, out, idx[mask])
    _tree_scores(node.right, X, out, idx[~mask])


def predict_proba(model, x) -> float | np.ndarray:
    """Failure probability for one feature vector or a batch (2-D) of them.

    Tree: leaf positive fraction. Forest: arithmetic mean over trees.
    Logistic: sigmoid of the affine score on standardized features.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    n_features = model.n_features
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got shape {x.shape}")
    if isinstance(model, TreeModel):
        out = np.empty(X.shape[0])
        _tree_scores(model.root, X, out, np.arange(X.shape[0]))
    elif isinstance(model, ForestModel):
        out = np.zeros(X.shape[0])
        buf = np.empty(X.shape[0])
        for tree in model.trees:
            _tree_scores(tree.root, X, buf, np.arange(X.shape[0]))
            out += buf
        out /= len(model.trees)
    elif isinstance(model, LogisticModel):
        Xs = (X - model.mean) / model.scale
        z = Xs @ model.weights[:-1] + model.weights[-1]
        out = expit(z)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return float(out[0]) if single else out


def _accumulate_decreases(node: TreeNode, acc: np.ndarray, n_root: int) -> None:
    if node.is_leaf:
        return
    decrease = (node.n_samples * node.impurity
                - node.left.n_samples * node.left.impurity
                - node.right.n_samples * node.right.impurity) / n_root
    acc[node.feature] += decrease
    _accumulate_decreases(node.left, acc, n_root)
    _accumulate_decreases(node.right, acc, n_root)


def feature_importance(model: ForestModel) -> ImportanceRanking:
    """Mean decrease in Gini impurity per feature, normalized to sum 1.

    Raises ValueError for a forest with no splits anywhere (all trees are
    pure leaves): importances would be uniformly zero.
    """
    total = np.zeros(model.n_features)
    for tree in model.trees:
        _accumulate_decreases(tree.root, total, tree.root.n_samples)
    total /= len(model.trees)
    mass = total.sum()
    if mass <= 0:
        raise ValueError("forest has no splits; importances are uniformly zero")
    scores = total / mass
    names = model.feature_names or tuple(f"f{i}" for i in range(model.n_features))
    order = sorted(range(len(names)), key=lambda i: (-scores[i], names[i]))
    return ImportanceRanking(tuple((names[i], float(scores[i])) for i in order))


def _node_to_dict(node: TreeNode) -> dict:
    d = {"n": node.n_samples, "fraction": node.fraction, "impurity": node.impurity}
    if not node.is_leaf:
        d.update(feature=node.feature, threshold=node.threshold,
                 left=_node_to_dict(node.left), right=_node_to_dict(node.right))
    return d


def _node_from_dict(d: dict) -> TreeNode:
    if "feature" in d:
        return TreeNode(d["n"], d["fraction"], d["impurity"], d["feature"],
                        d["threshold"], _node_from_dict(d["left"]),
                        _node_from_dict(d["right"]))
    return TreeNode(d["n"], d["fraction"], d["impurity"])


def model_to_json(model) -> str:
    """Serialize any trained model to self-describing JSON."""
    if isinstance(model, TreeModel):
        doc = {"kind": "tree", "n_features": model.n_features,
               "params": asdict(model.params),
               "seed": model.seed, "feature_names": model.feature_names,
               "root": _node_to_dict(model.root)}
    elif isinstance(model, ForestModel):
        doc = {"kind": "forest", "n_features": model.n_features,
               "params": asdict(model.params),
               "seed": model.seed, "feature_names": model.feature_names,
               "trees": [_node_to_dict(t.root) for t in model.trees]}
    elif isinstance(model, LogisticModel):
        doc = {"kind": "logistic", "weights": model.weights.tolist(),
               "mean": model.mean.tolist(), "scale": model.scale.tolist(),
               "l2": model.l2, "converged": model.converged,
               "n_iter": model.n_iter, "feature_names": model.feature_names}
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str):
    """Inverse of model_to_json; the loaded model predicts bit-identically."""
    doc = json.loads(text)
    names = tuple(doc["feature_names"]) if doc.get("feature_names") else None
    kind = doc["kind"]
    if kind == "tree":
        return TreeModel(_node_from_dict(doc["root"]), doc["n_features"],
                         TreeParams(**doc["params"]), doc["seed"], names)
    if kind == "forest":
        params = ForestParams(**doc["params"])
        tree_params = _tree_params(params)
        trees = tuple(TreeModel(_node_from_dict(t), doc["n_features"], tree_params)
                      for t in doc["trees"])
        return ForestModel(trees, doc["n_features"], params, doc["seed"], names)
    if kind == "logistic":
        return LogisticModel(np.asarray(doc["weights"]), np.asarray(doc["mean"]),
                             np.asarray(doc["scale"]), doc["l2"],
                             doc["converged"], doc["n_iter"], names)
    raise ValueError(f"unknown model kind {kind!r}")
