"""Span recorder that traces drivelife from outside, by patching module attributes.

Every public function of a drivelife layer module is replaced, in every
drivelife namespace that holds it (including names that one module imports
from another, such as ``drivelife.cli.parse_ssd_log``), by a wrapper that
records a span: name, layer, start, end, parent span and run id. Calls that
resolve the name through a module at call time therefore nest: a
``featurize.make_features`` called from ``charstats.spearman_matrix`` is a
child span, and its time counts toward ``featurize``, not ``charstats``.

Spans are kept in memory. Hooks attached to a few functions record exact
counts (records parsed, tree nodes, logistic iterations, ROC tie groups)
at the same boundary, from the arguments and return values.

Only calls on the main thread are recorded; the forest's worker threads call
private functions only, so no public call is lost that way.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("ingest", "lifecycle", "charstats", "featurize", "learners",
          "evaluation", "synth", "cli")

BENCH = "bench"


class Tracer:
    """Holds the spans and counts of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.failure_counts: set[int] = set()  # one per detect_failures result
        self.matrix_fit_keys: set[str] = set()
        self._stack: list[int] = []
        self._main = threading.main_thread()

    # -- recording -------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, layer: str = BENCH):
        return _Span(self, name, layer)

    def _open(self, name: str, layer: str) -> dict:
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """True when an open span on the stack has this name."""
        return any(self.spans[i]["name"] == name for i in self._stack)

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public layer function in every drivelife namespace."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__name__ == "main"):
                    continue
                origin = value.__module__.rsplit(".", 1)[-1]
                if not value.__module__.startswith(package.__name__ + ".") \
                        or origin not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, origin)
                setattr(module, attr, wrappers[value])

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            # hooks run in spans of their own, so their cost is charged to
            # the harness and not to the layer that made the call
            if hook is not None and hook.before is not None:
                with tracer.span("trace.hook"):
                    hook.before(tracer, args, kwargs)
            record = tracer._open(_span_name(name, args), layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook is not None and hook.after is not None:
                with tracer.span("trace.hook"):
                    hook.after(tracer, args, kwargs, result,
                               record["end"] - record["start"])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.record = self.tracer._open(self.name, self.layer)
        return self.record

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


def _span_name(name: str, args: tuple) -> str:
    # cli.run spans carry the subcommand, so per-subcommand time is a lookup
    if name == "cli.run" and args and args[0]:
        return f"cli.run:{args[0][0]}"
    return name


# -- count hooks -----------------------------------------------------------


class _Hook:
    def __init__(self, before=None, after=None):
        self.before, self.after = before, after


def _after_parse(t, args, kwargs, ds, dt):
    t.add("ingest.parse_calls")
    t.add("ingest.records_parsed", ds.n_records)
    t.add("ingest.rejected_rows", ds.provenance.get("rejected_count", 0))


def _after_write(t, args, kwargs, result, dt):
    t.add("ingest.records_written", args[0].n_records)


def _after_detect(t, args, kwargs, failures, dt):
    t.failure_counts.add(len(failures))


def _before_features(t, args, kwargs):
    # only the outermost build of a feature matrix counts as a build
    if not any(t.inside(n) for n in _FEATURE_BUILDERS):
        t.add("featurize.builds")
        t.add("featurize.records_featurized", args[0].n_records)


def _after_examples_write(t, args, kwargs, result, dt):
    t.add("featurize.examples_written", args[0].n)


def _after_examples_read(t, args, kwargs, examples, dt):
    t.add("featurize.examples_read", examples.n)


def _count_nodes(node) -> int:
    total, stack = 0, [node]
    while stack:
        n = stack.pop()
        total += 1
        if n.feature is not None:
            stack.extend((n.left, n.right))
    return total


def _before_fit(t, args, kwargs):
    if t.inside("evaluation.cross_model_matrix"):
        X = np.ascontiguousarray(args[0], dtype=float)
        y = np.ascontiguousarray(args[1], dtype=bool)
        digest = hashlib.sha256(X.tobytes() + y.tobytes())
        t.matrix_fit_keys.add(digest.hexdigest())
        t.add("evaluation.matrix_fits")


def _after_tree_fit(t, args, kwargs, model, dt):
    trees = model.trees if hasattr(model, "trees") else (model,)
    t.add("learners.fits")
    t.add("learners.trees", len(trees))
    t.add("learners.nodes", sum(_count_nodes(tree.root) for tree in trees))
    t.add("learners.tree_fit_s", dt)


def _after_logreg_fit(t, args, kwargs, model, dt):
    t.add("learners.fits")
    t.add("learners.logreg_iters", model.n_iter)
    t.add("learners.logreg_unconverged", 0 if model.converged else 1)


def _after_predict(t, args, kwargs, out, dt):
    model = args[0]
    if hasattr(model, "trees") or hasattr(model, "root"):
        n_trees = len(model.trees) if hasattr(model, "trees") else 1
        rows = np.shape(args[1])[0] if np.ndim(args[1]) == 2 else 1
        t.add("learners.tree_predict_row_trees", rows * n_trees)
        t.add("learners.tree_predict_s", dt)


def _before_scores(t, args, kwargs):
    t.add("evaluation.score_groups", int(np.unique(np.asarray(args[0])).size))


def _after_generate(t, args, kwargs, result, dt):
    t.add("synth.records_generated", result[0].n_records)


_FEATURE_BUILDERS = ("featurize.make_features", "featurize.make_features_ssd",
                     "featurize.make_features_hdd")

_HOOKS = {
    "ingest.parse_ssd_log": _Hook(after=_after_parse),
    "ingest.parse_hdd_csv": _Hook(after=_after_parse),
    "ingest.write_ssd_csv": _Hook(after=_after_write),
    "ingest.write_hdd_csv": _Hook(after=_after_write),
    "lifecycle.detect_failures": _Hook(after=_after_detect),
    "featurize.make_features": _Hook(before=_before_features),
    "featurize.make_features_ssd": _Hook(before=_before_features),
    "featurize.make_features_hdd": _Hook(before=_before_features),
    "featurize.write_examples_csv": _Hook(after=_after_examples_write),
    "featurize.read_examples_csv": _Hook(after=_after_examples_read),
    "learners.train_tree": _Hook(before=_before_fit, after=_after_tree_fit),
    "learners.train_forest": _Hook(before=_before_fit, after=_after_tree_fit),
    "learners.train_logistic": _Hook(before=_before_fit, after=_after_logreg_fit),
    "learners.predict_proba": _Hook(after=_after_predict),
    "evaluation.auroc": _Hook(before=_before_scores),
    "evaluation.roc_curve": _Hook(before=_before_scores),
    "synth.generate_fleet": _Hook(after=_after_generate),
}


# -- reduction to per-layer metrics ------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(tracer: Tracer) -> dict:
    """Reduce one process's spans and counts to plain per-name numbers.

    Returns {"self": {name: s}, "total": {name: s}, "layer_self": {layer: s},
    "counts": {name: n}}, where ``total`` sums only outermost spans of a name so
    that recursion or nesting within one name is not counted twice.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS + (BENCH,)}
    for s, mine in zip(spans, own):
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + mine
        layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + mine
        parent, nested = s["parent"], False
        while parent is not None:
            if spans[parent]["name"] == s["name"]:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total_by_name[s["name"]] = (total_by_name.get(s["name"], 0.0)
                                        + s["end"] - s["start"])
    counts = dict(tracer.counts)
    counts["lifecycle.failures_detected"] = max(tracer.failure_counts, default=0)
    counts["lifecycle.failure_counts_seen"] = len(tracer.failure_counts)
    counts["evaluation.matrix_distinct_fits"] = len(tracer.matrix_fit_keys)
    return {"self": self_by_name, "total": total_by_name,
            "layer_self": layer_self, "counts": counts}
