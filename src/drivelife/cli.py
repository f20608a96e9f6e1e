"""Command-line pipeline: ingest -> lifecycle -> characterize -> featurize -> train -> evaluate.

Configuration comes from an optional JSON file (``--config``) with flag
overrides (flags win); the seed falls back to the ``DRIVELIFE_SEED``
environment variable and is mandatory for stochastic subcommands. Every
artifact embeds {tool version, config hash, seed} (a ``_meta`` object in
JSON files, a leading ``#`` comment in CSVs) and is written atomically
(temp file + rename). Two runs with the same config, seed and input path
strings produce byte-identical artifacts.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 schema error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

from . import __version__, charstats, evaluation, featurize, learners, lifecycle, synth
from .ingest import (FleetDataset, SchemaError, filter_hdd, parse_hdd_csv,
                     parse_ssd_log, write_hdd_csv, write_ssd_csv)

EXIT_USAGE, EXIT_IO, EXIT_SCHEMA = 2, 3, 4

_STOCHASTIC = {"synth", "characterize", "train", "evaluate", "sweep",
               "matrix", "partition-eval"}

_REPAIR_HORIZONS = (1, 10, 30, 100, 365, 730, 1095, math.inf)

_SSD_CORR_FEATURES = [f"err_{k}_cum" for k in
                      ("erase", "final_read", "final_write", "meta", "read",
                       "response", "timeout", "uncorrectable", "write")]
_SSD_CORR_FEATURES += ["pe_cycles_cum", "bad_blocks_cum", "age_days"]
_HDD_CORR_FEATURES = ["failed", "smart_5", "smart_197", "smart_199", "smart_187",
                      "smart_192", "smart_188", "smart_9", "smart_12", "smart_194"]


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(kind: str, message: str, code: int) -> "CliError":
    return CliError(json.dumps({"error": kind, "message": message}), code)


class _Run:
    """Resolved run context: config values, seed, output dir, artifact meta."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        config: dict = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise _fail("io", f"config file not found: {path}", EXIT_IO)
            config = json.loads(path.read_text())
        self.config = config
        self.args = args
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = config.get("seed")
        if seed is None and os.environ.get("DRIVELIFE_SEED"):
            seed = int(os.environ["DRIVELIFE_SEED"])
        if seed is None:
            if self.command in _STOCHASTIC:
                raise _fail("usage", f"{self.command} is stochastic: provide "
                            "--seed, a config seed, or DRIVELIFE_SEED", EXIT_USAGE)
            seed = 0
        self.seed = int(seed)
        out = self.opt("out")
        if out is None:
            raise _fail("usage", "--out is required", EXIT_USAGE)
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.jobs = int(self.opt("jobs") or 1)

    def opt(self, name: str, default=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None:
            value = self.config.get(name, default)
        return value

    def need(self, name: str):
        value = self.opt(name)
        if value is None:
            raise _fail("usage", f"missing required option --{name}", EXIT_USAGE)
        return value

    def echo(self) -> dict:
        doc = {"command": self.command, "seed": self.seed}
        for key in ("family", "input", "examples", "models", "from", "to",
                    "lookahead", "partition", "model", "folds", "analysis",
                    "jobs"):
            value = self.opt(key)
            if value is not None:
                doc[key] = value
        return doc

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.echo(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def meta(self) -> dict:
        return {"tool_version": __version__, "config_hash": self.config_hash,
                "seed": self.seed}

    def comment(self) -> str:
        return (f"drivelife {__version__} config_hash={self.config_hash} "
                f"seed={self.seed}")

    # -- atomic artifact writers ------------------------------------------

    def _atomic(self, name: str, write) -> Path:
        target = self.out / name
        fd, tmp = tempfile.mkstemp(dir=self.out, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                write(handle)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    def write_json(self, name: str, doc: dict) -> Path:
        doc = {"_meta": self.meta(), **doc}
        return self._atomic(name, lambda h: h.write(
            json.dumps(doc, sort_keys=True, indent=1) + "\n"))

    def write_csv(self, name: str, header: list, rows, comment: bool = True) -> Path:
        import csv

        def write(handle):
            if comment:
                handle.write(f"# {self.comment()}\n")
            w = csv.writer(handle, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        return self._atomic(name, write)


def _load_dataset(run: _Run) -> FleetDataset:
    family = run.need("family")
    path = Path(run.need("input"))
    if not path.exists():
        raise _fail("io", f"input file not found: {path}", EXIT_IO)
    try:
        with path.open() as handle:
            if family == "hdd":
                ds = parse_hdd_csv(handle, source=str(path))
            elif family == "ssd":
                ds = parse_ssd_log(handle, source=str(path))
            else:
                raise _fail("usage", f"unknown family {family!r}", EXIT_USAGE)
    except SchemaError as exc:
        raise _fail("schema", str(exc), EXIT_SCHEMA)
    models = run.opt("models")
    date_from, date_to = run.opt("from"), run.opt("to")
    if family == "hdd" and (models or date_from or date_to):
        model_set = (set(str(models).split(",")) if models else set(ds.models()))
        lo = dt.date.fromisoformat(date_from) if date_from else dt.date.min
        hi = dt.date.fromisoformat(date_to) if date_to else dt.date.max
        ds = filter_hdd(ds, model_set, lo, hi)
    return ds


def _model_spec(run: _Run) -> evaluation.ModelSpec:
    kind = str(run.opt("model", "rf"))
    hyper = run.opt("hyper") or {}
    if isinstance(hyper, str):
        hyper = json.loads(hyper)
    if kind == "rf":
        return evaluation.ModelSpec("rf", forest=learners.ForestParams(**hyper))
    if kind == "tree":
        return evaluation.ModelSpec("tree", tree=learners.TreeParams(**hyper))
    if kind == "logreg":
        return evaluation.ModelSpec("logreg", **hyper)
    raise _fail("usage", f"unknown model kind {kind!r}", EXIT_USAGE)


def _parse_partition(text: str) -> featurize.PartitionRule | None:
    if text == "none":
        return None
    try:
        attr, threshold = text.split(":")
        return featurize.PartitionRule(attr, float(threshold))
    except ValueError:
        raise _fail("usage", f"bad --partition {text!r}; expected "
                    "age:<days>, hfh:<hours>, or none", EXIT_USAGE)


def _lookahead_list(run: _Run) -> list[int]:
    raw = run.opt("lookahead", "0")
    if isinstance(raw, int):
        return [raw]
    if isinstance(raw, list):
        return [int(v) for v in raw]
    return [int(v) for v in str(raw).split(",")]


def _example_builder(ds: FleetDataset, partition_attr: str | None = None
                     ) -> Callable[[int], featurize.LabeledExamples]:
    """Build failures, periods and features once; label per lookahead N."""
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    feats = featurize.make_features(ds)
    attr = partition_attr or ("hfh" if ds.family == "hdd" else "age")
    model_of = {d: ds.records[d][0].model for d in ds.drives if ds.records[d]}
    return lambda lookahead: featurize.label_lookahead(
        feats, failures, lookahead, periods, partition_attr=attr,
        models=model_of)


def _examples_for(run: _Run, lookahead: int,
                  partition_attr: str | None = None) -> featurize.LabeledExamples:
    examples_path = run.opt("examples")
    if examples_path:
        path = Path(examples_path)
        if not path.exists():
            raise _fail("io", f"examples file not found: {path}", EXIT_IO)
        with path.open() as handle:
            return featurize.read_examples_csv(handle, lookahead)
    return _example_builder(_load_dataset(run), partition_attr)(lookahead)


# -- subcommands -----------------------------------------------------------


def _cmd_synth(run: _Run) -> None:
    raw = dict(run.config)
    raw.pop("seed", None)
    bursts = tuple(synth.BurstSpec(**b) for b in raw.pop("bursts", [{}]))
    confounders = tuple(synth.ConfounderSpec(**c)
                        for c in raw.pop("confounders", []))
    try:
        config = synth.SynthConfig(**raw, bursts=bursts, confounders=confounders,
                                   seed=run.seed)
    except (TypeError, ValueError) as exc:
        raise _fail("usage", f"bad synth config: {exc}", EXIT_USAGE)
    ds, truth = synth.generate_fleet(config)
    name = f"{config.family}_telemetry.csv"
    if config.family == "ssd":
        run._atomic(name, lambda h: write_ssd_csv(ds, h))
    else:
        run._atomic(name, lambda h: write_hdd_csv(ds, h))
    run.write_csv("truth.csv", ["drive", "failure_day", "ordinal"],
                  [[ev.drive, ev.age_days, ev.ordinal] for ev in truth])
    report = synth.verify_fleet(ds, truth, config)
    run.write_json("manifest.json", {
        "config": run.config | {"seed": run.seed},
        "telemetry": name,
        "n_drives": ds.n_drives,
        "n_records": ds.n_records,
        "n_failures": len(truth),
        "calibration": [dataclasses.asdict(c) for c in report.checks],
        "calibration_ok": report.ok,
    })


def _cmd_ingest(run: _Run) -> None:
    ds = _load_dataset(run)
    name = f"{ds.family}_dataset.csv"
    if ds.family == "ssd":
        run._atomic(name, lambda h: write_ssd_csv(ds, h))
    else:
        run._atomic(name, lambda h: write_hdd_csv(ds, h))
    prov = ds.provenance
    run.write_json("ingest_report.json", {
        "family": ds.family,
        "n_drives": ds.n_drives,
        "n_records": ds.n_records,
        "models": ds.models(),
        "rejected_count": prov.get("rejected_count", 0),
        "rejected": [[line, reason] for line, reason in prov.get("rejected", [])],
        "quarantined": [list(q) for q in prov.get("quarantined", [])],
        "filters": prov.get("filters", []),
        "normalized": name,
    })


def _write_cdf(run: _Run, stem: str, sample: lifecycle.CensoredSample) -> None:
    if sample.total == 0:
        return
    grid = sorted(set(sample.values)) or [0]
    points, censored_mass = lifecycle.censored_cdf(sample, grid)
    run.write_csv(f"{stem}.csv", ["t", "F"], [[t, f] for t, f in points])
    run.write_json(f"{stem}.json", {"censored_mass": censored_mass,
                                    "n": sample.total})


def _cmd_lifecycle(run: _Run) -> None:
    ds = _load_dataset(run)
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    spells = lifecycle.build_repair_spells(ds, failures)
    run.write_csv("failures.csv", ["drive", "family", "age_days", "ordinal"],
                  [[e.drive, e.family, e.age_days, e.ordinal] for e in failures])
    run.write_csv("periods.csv", ["drive", "start_day", "end_day", "terminal"],
                  [[p.drive, p.start_day, p.end_day, p.terminal] for p in periods])
    run.write_csv("repairs.csv",
                  ["drive", "fail_day", "reentry_day", "preswap_gap_days"],
                  [[s.drive, s.fail_day,
                    "" if s.reentry_day is None else s.reentry_day,
                    "" if s.preswap_gap_days is None else s.preswap_gap_days]
                   for s in spells])
    _write_cdf(run, "ttf_cdf", lifecycle.period_length_sample(periods))
    _write_cdf(run, "repair_cdf", lifecycle.repair_duration_sample(spells))
    if ds.family == "ssd":
        _write_cdf(run, "preswap_cdf", lifecycle.preswap_gap_sample(spells))
    stats = lifecycle.repair_stats(spells, _REPAIR_HORIZONS, ds.n_drives)
    dist = lifecycle.failure_count_distribution(failures, ds.n_drives)
    run.write_json("lifecycle_summary.json", {
        "family": ds.family,
        "n_drives": ds.n_drives,
        "n_failures": len(failures),
        "failure_count_distribution": {
            str(k): {"share_of_drives": a, "share_of_failed": b}
            for k, (a, b) in dist.items()},
        "repaired_within": {
            ("inf" if math.isinf(h) else str(h)): {"of_failed": a, "of_all": b}
            for h, (a, b) in stats.items()},
        "long_limbo_spells": sum(1 for s in spells if s.long_limbo),
    })


def _rate_rows(curve: charstats.RateCurve):
    edges = curve.bin_edges
    for i in range(len(curve.failures)):
        rate = curve.rate[i]
        yield [edges[i], edges[i + 1], int(curve.failures[i]),
               int(curve.exposure[i]), "" if rate is None else rate]


def _cmd_characterize(run: _Run) -> None:
    ds = _load_dataset(run)
    failures = lifecycle.detect_failures(ds)
    which = str(run.opt("analysis", "all"))
    summary: dict = {"family": ds.family, "n_drives": ds.n_drives,
                     "n_failures": len(failures)}
    wanted = {w.strip() for w in which.split(",")}
    def on(name): return "all" in wanted or name in wanted

    rate_header = ["bin_lo", "bin_hi", "failures", "exposure", "rate"]
    if on("correlations"):
        names = _SSD_CORR_FEATURES if ds.family == "ssd" else _HDD_CORR_FEATURES
        matrix = charstats.spearman_matrix(ds, names)
        rows = []
        for i, a in enumerate(matrix.labels):
            for j, b in enumerate(matrix.labels):
                if j < i:
                    continue
                defined = bool(matrix.defined[i, j])
                rows.append([a, b, matrix.rho[i, j] if defined else "",
                             int(defined)])
        run.write_csv("correlations.csv",
                      ["feature_a", "feature_b", "rho", "defined"], rows)
        summary["correlations"] = {"features": list(matrix.labels),
                                   "artifact": "correlations.csv"}
    if on("monthly-rate"):
        curve = charstats.monthly_failure_rate(failures, ds)
        run.write_csv("rates_monthly.csv", rate_header, _rate_rows(curve))
        summary["monthly-rate"] = {"bins": len(curve.failures),
                                   "artifact": "rates_monthly.csv"}
    if on("pe-rate") and ds.family == "ssd":
        curve, cdf = charstats.pe_binned_failure_rate(failures, ds)
        run.write_csv("rates_pe.csv", rate_header, _rate_rows(curve))
        run.write_csv("pe_failure_cdf.csv", ["pe_upper_edge", "F"], cdf)
        summary["pe-rate"] = {"bins": len(curve.failures),
                              "artifact": "rates_pe.csv"}
    if on("hfh-sweep") and ds.family == "hdd":
        raw = run.opt("thresholds", "10000,20000,30000,40000,50000,60000")
        thresholds = ([float(t) for t in raw.split(",")]
                      if isinstance(raw, str) else [float(t) for t in raw])
        sweep = charstats.hfh_threshold_sweep(failures, ds, thresholds)
        rows = [[t,
                 "" if small is None else small,
                 "" if large is None else large,
                 "" if share is None else share]
                for t, (small, large, share) in sweep["per_threshold"].items()]
        run.write_csv("rates_hfh.csv",
                      ["threshold", "small_rate", "large_rate", "large_share"],
                      rows)
        summary["hfh-sweep"] = {"excluded_drives": sweep["excluded"],
                                "artifact": "rates_hfh.csv"}
    if on("prefailure-prob"):
        kind = str(run.opt("error-kind",
                           "uncorrectable" if ds.family == "ssd" else "smart_187"))
        windows = [1, 2, 3, 5, 7, 14, 30]
        probs = charstats.prefailure_error_probability(failures, ds, kind,
                                                       windows, seed=run.seed)
        run.write_csv("prefailure_prob.csv", ["window_days", "probability",
                                              "baseline"],
                      [[n, "" if probs["probability"][n] is None
                        else probs["probability"][n], probs["baseline"][n]]
                       for n in windows])
        summary["prefailure-prob"] = {"kind": kind,
                                      "artifact": "prefailure_prob.csv"}
    if on("prefailure-percentiles"):
        kind = str(run.opt("error-kind",
                           "uncorrectable" if ds.family == "ssd" else "smart_187"))
        pct = (90.0, 99.0)
        table = charstats.prefailure_error_percentiles(failures, ds, kind, pct)
        rows = []
        for offset, values in table.items():
            for p in pct:
                rows.append([offset, p,
                             "" if values is None else values[p]])
        run.write_csv("prefailure_percentiles.csv",
                      ["days_before_failure", "percentile", "count"], rows)
        summary["prefailure-percentiles"] = {
            "kind": kind, "artifact": "prefailure_percentiles.csv"}
    if on("write-quartiles") and ds.family == "ssd":
        quartiles = charstats.write_intensity_quartiles(ds)
        run.write_csv("write_quartiles.csv", ["age_month", "q1", "median", "q3"],
                      [[m, q1, q2, q3] for m, (q1, q2, q3) in quartiles.items()])
        summary["write-quartiles"] = {"months": len(quartiles),
                                      "artifact": "write_quartiles.csv"}
    run.write_json("characterization.json", summary)


def _cmd_featurize(run: _Run) -> None:
    ds = _load_dataset(run)
    build = _example_builder(ds, run.opt("partition-attr"))
    index = {}
    for n in _lookahead_list(run):
        examples = build(n)
        name = f"examples_{ds.family}_N{n}.csv"
        run._atomic(name, lambda h, e=examples: featurize.write_examples_csv(
            e, h, header_comment=run.comment()))
        index[str(n)] = {"artifact": name, "n_examples": examples.n,
                         "n_positive": examples.n_positive}
    run.write_json("featurize_report.json",
                   {"family": ds.family, "lookaheads": index})


def _cmd_train(run: _Run) -> None:
    lookaheads = _lookahead_list(run)
    examples = _examples_for(run, lookaheads[0])
    spec = _model_spec(run)
    balanced = evaluation.undersample(examples, 1.0,
                                      evaluation._derived_seed(run.seed, 0, 0))
    model = spec.train(balanced.X, balanced.y,
                       evaluation._derived_seed(run.seed, 0, 1),
                       feature_names=examples.names, jobs=run.jobs)
    model_doc = {"_meta": run.meta(), **json.loads(learners.model_to_json(model))}
    run._atomic("model.json", lambda h: h.write(
        json.dumps(model_doc, sort_keys=True) + "\n"))
    doc = {"model": spec.config(), "lookahead": lookaheads[0],
           "n_train": balanced.n, "n_positive": balanced.n_positive,
           "artifact": "model.json"}
    if spec.kind == "logreg":
        doc.update(converged=model.converged, n_iter=model.n_iter)
    if spec.kind == "rf":
        ranking = learners.feature_importance(model)
        doc["feature_importance"] = [[n, s] for n, s in ranking.entries]
    run.write_json("train_report.json", doc)


def _cmd_evaluate(run: _Run) -> None:
    lookaheads = _lookahead_list(run)
    examples = _examples_for(run, lookaheads[0])
    spec = _model_spec(run)
    k = int(run.opt("folds", 5))
    report = evaluation.cross_validated_eval(examples, spec, k, run.seed,
                                             jobs=run.jobs)
    run._atomic("eval_report.json", lambda h: h.write(
        json.dumps({"_meta": run.meta(), **json.loads(report.to_json())},
                   sort_keys=True) + "\n"))
    if report.roc is not None:
        run.write_csv("roc.csv", ["threshold", "fpr", "tpr"],
                      [[p.threshold, p.fpr, p.tpr] for p in report.roc.points])


def _cmd_sweep(run: _Run) -> None:
    ds = _load_dataset(run)
    spec = _model_spec(run)
    k = int(run.opt("folds", 5))
    lookaheads = sorted(_lookahead_list(run))
    reports = evaluation.lookahead_sweep(_example_builder(ds), lookaheads, spec,
                                         k, run.seed, jobs=run.jobs)
    rows = []
    for n, report in reports.items():
        run._atomic(f"eval_report_N{n}.json", lambda h, r=report: h.write(
            json.dumps({"_meta": run.meta(), **json.loads(r.to_json())},
                       sort_keys=True) + "\n"))
        rows.append([n, "" if report.mean_auroc is None else report.mean_auroc,
                     "" if report.std_auroc is None else report.std_auroc])
    run.write_csv("sweep.csv", ["lookahead", "mean_auroc", "std_auroc"], rows)


def _cmd_matrix(run: _Run) -> None:
    ds = _load_dataset(run)
    spec = _model_spec(run)
    examples = _example_builder(ds)(_lookahead_list(run)[0])
    result = evaluation.cross_model_matrix(examples, spec,
                                           int(run.opt("folds", 5)), run.seed,
                                           jobs=run.jobs)
    rows = []
    for i in result["train_labels"]:
        for j in result["test_labels"]:
            value = result["auroc"][(i, j)]
            rows.append([i, j, "" if value is None else value])
    run.write_csv("matrix.csv", ["train_model", "test_model", "auroc"], rows)


def _cmd_partition_eval(run: _Run) -> None:
    rule = _parse_partition(str(run.need("partition")))
    if rule is None:
        raise _fail("usage", "partition-eval needs a rule, not 'none'", EXIT_USAGE)
    spec = _model_spec(run)
    examples = _examples_for(run, _lookahead_list(run)[0],
                             partition_attr=rule.attribute)
    report = evaluation.partitioned_eval(examples, rule, spec,
                                         int(run.opt("folds", 5)), run.seed,
                                         jobs=run.jobs)

    def side(r):
        return None if r is None else json.loads(r.to_json())

    run.write_json("partition_report.json", {
        "rule": {"attribute": rule.attribute, "threshold": rule.threshold},
        "below": side(report.below),
        "above": side(report.above),
        "unsplit": side(report.unsplit),
        "unsplit_on_below": report.unsplit_on_below,
        "unsplit_on_above": report.unsplit_on_above,
    })


_REPORT_SOURCES = {
    "manifest.json": "synth",
    "ingest_report.json": "ingest",
    "lifecycle_summary.json": "lifecycle",
    "characterization.json": "characterize",
    "featurize_report.json": "featurize",
    "train_report.json": "train",
    "eval_report.json": "evaluate",
    "sweep.csv": "sweep",
    "matrix.csv": "matrix",
    "partition_report.json": "partition-eval",
}


def _cmd_report(run: _Run) -> None:
    found = {}
    for name, producer in _REPORT_SOURCES.items():
        path = run.out / name
        if path.exists():
            found[name] = producer
    if not found:
        missing = ", ".join(f"{cmd} -> {name}"
                            for name, cmd in _REPORT_SOURCES.items())
        raise _fail("io", "no artifacts found in output directory; run one of: "
                    + missing, EXIT_IO)
    sections = {}
    for name in sorted(found):
        if name.endswith(".json"):
            doc = json.loads((run.out / name).read_text())
            doc.pop("_meta", None)
            sections[name] = doc
        else:
            sections[name] = {"artifact": name}
    missing_cmds = sorted(set(_REPORT_SOURCES.values())
                          - set(found.values()))
    run.write_json("report.json", {"artifacts": sorted(found),
                                   "missing_subcommands": missing_cmds,
                                   "sections": sections})

    lines = ["# drivelife run report", "",
             f"Tool version {__version__}, config hash {run.config_hash}, "
             f"seed {run.seed}; artifacts in `{run.out}`.", "",
             "## Artifacts", ""]
    for name in sorted(found):
        lines.append(f"- `{name}` (from `{found[name]}`)")
    if missing_cmds:
        lines += ["", "## Not yet produced", ""]
        lines += [f"- `{cmd}`" for cmd in missing_cmds]
    lines.append("")
    run._atomic("report.md", lambda h: h.write("\n".join(lines)))


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "lifecycle": _cmd_lifecycle,
    "characterize": _cmd_characterize,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "matrix": _cmd_matrix,
    "partition-eval": _cmd_partition_eval,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivelife",
        description="Storage-fleet reliability analysis and failure prediction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--jobs", type=int, help="worker pool size (default 1)")
        if name in ("ingest", "lifecycle", "characterize", "featurize",
                    "sweep", "matrix", "train", "evaluate", "partition-eval"):
            p.add_argument("--family", choices=["hdd", "ssd"])
            p.add_argument("--input", help="telemetry CSV")
            p.add_argument("--models", help="comma-separated model whitelist (hdd)")
            p.add_argument("--from", dest="from_", metavar="YYYY-MM-DD")
            p.add_argument("--to", metavar="YYYY-MM-DD")
        if name in ("featurize", "train", "evaluate", "sweep", "matrix",
                    "partition-eval"):
            p.add_argument("--lookahead", help="days, comma-separated for sweep")
        if name in ("train", "evaluate", "partition-eval"):
            p.add_argument("--examples", help="examples CSV from featurize")
        if name in ("train", "evaluate", "sweep", "matrix", "partition-eval"):
            p.add_argument("--model", choices=["rf", "tree", "logreg"])
            p.add_argument("--hyper", help="hyperparameter JSON object")
            p.add_argument("--folds", type=int)
        if name == "partition-eval":
            p.add_argument("--partition", help="age:90 | hfh:40000 | none")
        if name == "featurize":
            p.add_argument("--partition-attr", choices=["age", "hfh"])
        if name == "characterize":
            p.add_argument("--analysis", help="comma list or 'all'")
            p.add_argument("--error-kind", dest="error_kind")
            p.add_argument("--thresholds", help="HFH sweep thresholds")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # argparse stores --from as from_; normalize for _Run.opt lookups
    if hasattr(args, "from_"):
        setattr(args, "from", args.from_)
    try:
        context = _Run(args)
        _COMMANDS[args.command](context)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(json.dumps({"error": "schema", "message": str(exc)}), file=sys.stderr)
        return EXIT_SCHEMA
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
