"""Command-line pipeline: ingest -> lifecycle -> characterize -> featurize -> train -> evaluate.

Configuration comes from an optional JSON file (``--config``) with flag
overrides (flags win); the seed falls back to the ``DRIVELIFE_SEED``
environment variable and is mandatory for stochastic subcommands. A
subcommand takes only the options it reads (:data:`_OPTIONS`) and resolves
and checks them before it opens an input or makes ``--out``, but for three
checks against the data (``features_per_split``, ``--folds`` and ``train``'s
two classes), made after the read and before any fit.
Every artifact but the telemetry tables and the stored dataset embeds
{tool version, config hash, seed} (a ``_meta`` object in JSON files, a
leading ``#`` comment in CSVs); ``{family}_telemetry.csv`` (synth) and
``{family}_dataset.csv`` (ingest) start at their header, as the input files
they copy do. Every artifact is written atomically (temp file + rename).
The config hash digests :attr:`_Run.settings`, the options as resolved, so
two runs that decide the same results from the same input bytes, however
their options are spelled, produce byte-identical artifacts.

Parse once: ``ingest`` also stores the dataset it parsed as
``{family}_dataset.npz`` (see :func:`drivelife.ingest.write_dataset_npz`)
with a key: the input's sha256, the family, the resolved HDD filter and the
tool version. A later subcommand whose ``--out`` holds that file under its
own key loads it instead of parsing ``--input``; any other file, or one
that cannot be read, and it parses. ``ingest`` itself always parses.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 schema error,
5 internal error. Every error but argparse's own usage messages is one
JSON line on stderr, ``{"error": kind, "message": text}``; an internal
error (an exception no other code covers) adds its ``traceback``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as dt
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Collection

import numpy as np

from . import __version__, charstats, evaluation, featurize, learners, lifecycle, synth
from .ingest import (FleetDataset, SchemaError, _write_columns, _write_csv, filter_hdd,
                     parse_hdd_csv, parse_ssd_log, read_dataset_npz,
                     write_dataset_npz, write_hdd_csv, write_ssd_csv)

EXIT_USAGE, EXIT_IO, EXIT_SCHEMA, EXIT_INTERNAL = 2, 3, 4, 5

#: The subcommands that fit models, and the ones that draw random numbers.
_FITS = ("train", "evaluate", "sweep", "matrix", "partition-eval")
_STOCHASTIC = {"synth", "characterize", *_FITS}

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


def _integer(name: str, value, minimum: int) -> int:
    """``value`` if it is an integer of at least ``minimum``, else a usage error.

    A bool, a float and a numeric string are not integers here.
    """
    if not learners._whole(value, minimum):
        raise _fail("usage", f"bad {name} {value!r}; expected an integer "
                    f">= {minimum}", EXIT_USAGE)
    return value


#: The options that name and filter the telemetry input.
_INPUT_OPTIONS = ("input", "family", "models", "from", "to")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """Resolved run context: config values, seed, output dir, artifact meta,
    and every option the subcommand reads (:data:`_OPTIONS`), checked before
    any input is opened or ``--out`` is made; one it does not read is None."""

    jobs = examples = family = input = window = lookaheads = spec = folds = None
    partition = partition_attr = error_kind = thresholds = analyses = synth = None

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.config: dict = {}
        if args.config:
            path = Path(args.config)
            try:
                self.config = json.loads(path.read_text())
                if not isinstance(self.config, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                raise _fail("usage", f"bad config file {path}: {exc}", EXIT_USAGE)
        self.args = args
        seed, source = args.seed, "--seed"
        if seed is None:
            seed, source = self.config.get("seed"), "config seed"
        if seed is None and os.environ.get("DRIVELIFE_SEED"):
            seed, source = os.environ["DRIVELIFE_SEED"], "DRIVELIFE_SEED"
            try:
                seed = int(seed)
            except ValueError:
                pass  # rejected below, as text
        if seed is None:
            if self.command in _STOCHASTIC:
                raise _fail("usage", f"{self.command} is stochastic: provide "
                            "--seed, a config seed, or DRIVELIFE_SEED", EXIT_USAGE)
            seed = 0
        self.seed = _integer(source, seed, 0)
        self.out = Path(self.need("out"))
        def reads(name): return self.command in _OPTIONS[name][0]
        if self.command == "synth":
            self.synth = _synth_config(self)
        if reads("jobs"):
            self.jobs = _integer("--jobs", self.opt("jobs", 1), 1)
        if reads("examples") and (examples := self.opt("examples")):
            self.examples = Path(examples)
        if reads("input") and not self.examples:
            self.family, self.input, self.window = _input(self)
        if reads("lookahead"):
            self.lookaheads = _lookahead_list(self)
        if reads("model"):
            self.spec = _model_spec(self)
        if reads("folds"):
            self.folds = _integer("--folds", self.opt("folds", 5), 2)
        if reads("partition"):
            self.partition = _partition_rule(self)
        if reads("partition-attr"):
            self.partition_attr = _partition_attr(self, self.opt("partition-attr"))
        if reads("analysis"):
            self.error_kind, self.thresholds, self.analyses = _characterize_options(self)
        if self.examples and (flags := [f"--{name}" for name in _INPUT_OPTIONS
                                        if getattr(args, name) is not None]):
            raise _fail("usage", f"bad {', '.join(flags)} with --examples; the "
                        "examples table is the input, so they would be ignored",
                        EXIT_USAGE)

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

    @functools.cached_property
    def settings(self) -> dict:
        """What decides the run's results: the command, the seed and each option
        the subcommand reads, as resolved, with a file as the sha256 of its
        bytes; not ``jobs``, ``out`` or ``config``, which decide none."""
        doc = {"command": self.command, "seed": self.seed, "synth": self.synth,
               "family": self.family, "input": self.input, **(self.window or {}),
               "examples": self.examples, "lookahead": self.lookaheads,
               "model": self.spec and self.spec.config(), "folds": self.folds,
               "partition": self.partition, "partition-attr": self.partition_attr,
               "analysis": self.analyses, "error-kind": self.error_kind,
               "thresholds": self.thresholds}
        return {name: _sha256(value) if isinstance(value, Path) else value
                for name, value in doc.items() if value is not None}

    @functools.cached_property
    def config_hash(self) -> str:
        blob = json.dumps(self.settings, sort_keys=True, default=dataclasses.asdict)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def meta(self) -> dict:
        return {"tool_version": __version__, "config_hash": self.config_hash,
                "seed": self.seed}

    def comment(self) -> str:
        return (f"drivelife {__version__} config_hash={self.config_hash} "
                f"seed={self.seed}")

    # -- atomic artifact writers ------------------------------------------

    @contextlib.contextmanager
    def _replacing(self, name: str, binary: bool = False):
        """A temp file in ``--out``, renamed to ``name`` when the block ends
        and removed when it raises."""
        self.out.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.out, prefix=f".{name}.")
        mode = {"mode": "wb"} if binary else {"mode": "w", "newline": ""}
        try:
            with os.fdopen(fd, **mode) as handle:
                yield handle
            os.replace(tmp, self.out / name)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _atomic(self, name: str, write, binary: bool = False) -> None:
        with self._replacing(name, binary) as handle:
            write(handle)

    def write_json(self, name: str, doc: dict, indent: int | None = 1) -> None:
        """``doc`` after its ``_meta``, keys sorted; ``indent=None`` is one line."""
        doc = {"_meta": self.meta(), **doc}
        self._atomic(name, lambda h: h.write(
            json.dumps(doc, sort_keys=True, indent=indent) + "\n"))

    def write_csv(self, name: str, header: list, rows) -> None:
        self._atomic(name, lambda h: _write_csv(h, header, rows, self.comment()))

    def write_columns(self, name: str, header: list, n: int, columns) -> None:
        """``write_csv`` of ``n`` rows given as column batches (see
        :func:`drivelife.ingest._write_columns`)."""
        self._atomic(name, lambda h: _write_columns(h, header, n, columns,
                                                    self.comment()))


def _input(run: _Run) -> tuple[str, Path, dict | None]:
    """The family, the input path and the HDD filter: the ``--models`` sorted
    (None: every model) and the ``--from``/``--to`` window as ISO dates, or
    None when none of them is given. SSDs take none of them."""
    family = run.need("family")
    if family not in ("hdd", "ssd"):
        raise _fail("usage", f"unknown family {family!r}", EXIT_USAGE)
    path = Path(run.need("input"))
    models, date_from, date_to = run.opt("models"), run.opt("from"), run.opt("to")
    if not (models or date_from or date_to):
        return family, path, None
    if family == "ssd":
        raise _fail("usage", "bad --models/--from/--to for --family ssd; they "
                    "filter HDD data only", EXIT_USAGE)
    try:
        lo = dt.date.fromisoformat(date_from) if date_from else dt.date.min
        hi = dt.date.fromisoformat(date_to) if date_to else dt.date.max
    except (TypeError, ValueError) as exc:
        raise _fail("usage", f"bad --from/--to: {exc}", EXIT_USAGE)
    if lo > hi:
        raise _fail("usage", f"empty date window: --from {lo} > --to {hi}", EXIT_USAGE)
    return family, path, {"models": sorted(set(_list_opt(run, "models"))) if models
                          else None, "from": lo.isoformat(), "to": hi.isoformat()}


def _dataset_key(run: _Run) -> dict:
    """What decides the dataset that parsing the input gives: the input's
    sha256, the family, the resolved filter and the tool version."""
    return {"input_sha256": run.settings["input"], "family": run.family,
            **(run.window or dict.fromkeys(("models", "from", "to"))),
            "version": __version__}


#: A character that a text read with ``errors="surrogateescape"`` made of
#: a byte it could not decode.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _read_text(path: Path, read: Callable):
    """``read`` of ``path`` opened as text; a byte that does not decode is a
    SchemaError naming its line, counted as the text read counts lines."""
    try:
        with path.open() as handle:
            return read(handle)
    except UnicodeDecodeError as exc:
        reason, encoding = exc.reason, exc.encoding
    line = 1
    with path.open(errors="surrogateescape") as handle:
        while text := handle.read(1 << 20):
            if bad := _UNDECODED.search(text):
                line += text.count("\n", 0, bad.start())
                break
            line += text.count("\n")
    raise SchemaError(f"line {line} of {path}: {reason}, not {encoding} text")


def _parse(run: _Run) -> FleetDataset:
    parse = parse_hdd_csv if run.family == "hdd" else parse_ssd_log
    ds = _read_text(run.input, lambda handle: parse(handle, source=str(run.input)))
    if run.window is not None:
        models, *window = run.window.values()
        ds = filter_hdd(ds, set(models or ds.models()), *map(dt.date.fromisoformat, window))
    return ds


def _load_dataset(run: _Run) -> FleetDataset:
    """The dataset of ``--input``: the one ``ingest`` stored in ``--out``
    when its key is this run's, else the input parsed."""
    stored = run.out / f"{run.family}_dataset.npz"
    ds = (read_dataset_npz(stored, _dataset_key(run), str(run.input))
          if stored.exists() else None)
    return _parse(run) if ds is None else ds


def _synth_config(run: _Run) -> synth.SynthConfig:
    """The config file as a fleet to generate, with the run's seed."""
    raw = {key: value for key, value in run.config.items() if key != "seed"}
    try:
        bursts = tuple(synth.BurstSpec(**b) for b in raw.pop("bursts", [{}]))
        confounders = tuple(synth.ConfounderSpec(**c)
                            for c in raw.pop("confounders", []))
        return synth.SynthConfig(**raw, bursts=bursts, confounders=confounders,
                                 seed=run.seed)
    except (TypeError, ValueError) as exc:
        raise _fail("usage", f"bad synth config: {exc}", EXIT_USAGE)


def _model_spec(run: _Run) -> evaluation.ModelSpec:
    kind = str(run.opt("model", "rf"))
    hyper = run.opt("hyper") or {}
    try:
        if isinstance(hyper, str):
            hyper = json.loads(hyper)
        if kind == "rf":
            return evaluation.ModelSpec("rf", forest=learners.ForestParams(**hyper))
        if kind == "tree":
            return evaluation.ModelSpec("tree", tree=learners.TreeParams(**hyper))
        return evaluation.ModelSpec(kind, **hyper)  # logreg; raises on unknown kinds
    except (TypeError, ValueError) as exc:
        raise _fail("usage", f"bad --model {kind!r} or --hyper: {exc}", EXIT_USAGE)


def _list_opt(run: _Run, name: str, default: str | None = None) -> list[str]:
    """The items of a comma-list option, stripped: a comma-separated string,
    or a scalar or a JSON list of scalars from a config file."""
    raw = run.opt(name, default)
    items = raw.split(",") if isinstance(raw, str) else (
        raw if isinstance(raw, list) else [raw])
    if not all(type(v) in (str, int, float) for v in items):
        raise _fail("usage", f"bad --{name} {raw!r}; expected a comma-separated "
                    "string or a JSON list of scalars", EXIT_USAGE)
    return [str(v).strip() for v in items]


#: The calendar's span in days: no failure lies farther ahead than this.
_MAX_LOOKAHEAD = (dt.date.max - dt.date.min).days


def _lookahead_list(run: _Run) -> list[int]:
    cells = _list_opt(run, "lookahead", "0")
    days = [int(v) for v in cells if v.isdecimal()]
    if not cells or len(days) < len(cells) or max(days) > _MAX_LOOKAHEAD:
        raise _fail("usage", f"bad --lookahead {run.opt('lookahead')!r}; expected "
                    f"days from 0 to {_MAX_LOOKAHEAD}, comma-separated", EXIT_USAGE)
    if len(days) > 1 and run.command not in ("featurize", "sweep"):
        raise _fail("usage", f"bad --lookahead {run.opt('lookahead')!r}; {run.command} "
                    "fits one lookahead, only featurize and sweep take a list", EXIT_USAGE)
    return sorted(set(days))


def _fittable(run: _Run, examples: featurize.LabeledExamples
              ) -> featurize.LabeledExamples:
    """``examples``, when the run's model and ``--folds`` (if it reads them)
    fit them and, for ``train``'s one fit on every row, they hold both classes;
    else a usage error, raised before any fit."""
    spec, k = run.spec, run.folds
    subset = {"rf": spec.forest.features_per_split,
              "tree": spec.tree.features_per_split}.get(spec.kind)
    n_features = examples.X.shape[1]
    if isinstance(subset, int) and subset > n_features:
        raise _fail("usage", f"bad --hyper features_per_split {subset}; expected at "
                    f"most {n_features}, the examples' feature count", EXIT_USAGE)
    if k is not None and k > (n_drives := np.unique(examples.drive).size):
        raise _fail("usage", f"bad --folds {k}; expected at most {n_drives}, the "
                    "examples' drive count", EXIT_USAGE)
    if k is None and (positive := examples.n_positive) in (0, examples.n):
        raise _fail("usage", f"bad --lookahead {examples.lookahead}: its examples hold "
                    f"{positive} positive and {examples.n - positive} negative rows; "
                    f"{run.command} needs both classes", EXIT_USAGE)
    return examples


def _partition_attr(run: _Run, attr: str | None) -> str:
    """``attr``, or the default when None, if the ``--family`` fleet has it."""
    known = ("hfh", "age") if run.family == "hdd" else ("age",)
    if attr not in (None, *known):
        raise _fail("usage", f"bad partition attribute {attr!r} for --family "
                    f"{run.family}; expected {' or '.join(sorted(known))}", EXIT_USAGE)
    return attr or known[0]


def _partition_rule(run: _Run) -> featurize.PartitionRule:
    text = str(run.need("partition"))
    try:
        attr, threshold = text.split(":")
        rule = featurize.PartitionRule(attr, float(threshold))
    except ValueError:
        raise _fail("usage", f"bad --partition {text!r}; expected "
                    "age:<days> or hfh:<hours>", EXIT_USAGE)
    if run.examples:
        raise _fail("usage", "partition-eval needs --input, not --examples: an "
                    "examples table does not record which attribute its "
                    "partition_key holds", EXIT_USAGE)
    _partition_attr(run, rule.attribute)
    return rule


def _example_builder(ds: FleetDataset, partition_attr: str | None = None
                     ) -> Callable[[int], featurize.LabeledExamples]:
    """Build failures, periods, features and the kept rows once; label per
    lookahead N."""
    failures = lifecycle.failure_table(ds)
    return featurize.example_builder(
        featurize.make_features(ds), failures, lifecycle.period_table(ds, failures),
        partition_attr or ("hfh" if ds.family == "hdd" else "age"), ds.drive_models)


def _examples_for(run: _Run, lookahead: int) -> featurize.LabeledExamples:
    if run.examples:
        return _read_text(run.examples, lambda handle:
                          featurize.read_examples_csv(handle, lookahead))
    return _example_builder(_load_dataset(run))(lookahead)


# -- subcommands -----------------------------------------------------------


def _write_dataset(run: _Run, name: str, ds: FleetDataset) -> None:
    writer = write_ssd_csv if ds.family == "ssd" else write_hdd_csv
    run._atomic(name, lambda h: writer(ds, h))


def _cmd_synth(run: _Run) -> None:
    ds, truth = synth.generate_fleet(run.synth)
    name = f"{run.synth.family}_telemetry.csv"
    _write_dataset(run, name, ds)
    run.write_csv("truth.csv", ["drive", "failure_day", "ordinal"],
                  [[ev.drive, ev.age_days, ev.ordinal] for ev in truth])
    report = synth.verify_fleet(ds, truth, run.synth)
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
    key = _dataset_key(run)
    ds = _parse(run)
    name = f"{run.family}_dataset.csv"
    _write_dataset(run, name, ds)
    run._atomic(f"{run.family}_dataset.npz", lambda h: write_dataset_npz(ds, h, key),
                binary=True)
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
    failures = lifecycle.failure_table(ds)
    periods = lifecycle.period_table(ds, failures)
    spells = lifecycle.build_repair_spells(ds, failures)
    run.write_columns("failures.csv", ["drive", "family", "age_days", "ordinal"],
                      len(failures), lambda rows: (
                          (ds.drives, failures.drive[rows]),
                          ((ds.family,), np.zeros_like(failures.drive[rows])),
                          failures.day[rows], failures.ordinal[rows]))
    run.write_columns("periods.csv", ["drive", "start_day", "end_day", "terminal"],
                      len(periods), lambda rows: (
                          (ds.drives, periods.drive[rows]), periods.start[rows],
                          periods.end[rows], (("censored", "failure"),
                                              periods.failed[rows].astype(np.int64))))
    run.write_csv("repairs.csv",
                  ["drive", "fail_day", "reentry_day", "preswap_gap_days"],
                  [[s.drive, s.fail_day, s.reentry_day, s.preswap_gap_days]
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
        yield [edges[i], edges[i + 1], int(curve.failures[i]),
               int(curve.exposure[i]), curve.rate[i]]


#: Each analysis and the families it applies to; ``all`` selects every
#: analysis that applies to the ``--family``.
_ANALYSES = {"correlations": ("hdd", "ssd"), "monthly-rate": ("hdd", "ssd"),
             "pe-rate": ("ssd",), "hfh-sweep": ("hdd",),
             "prefailure-prob": ("hdd", "ssd"), "prefailure-percentiles": ("hdd", "ssd"),
             "write-quartiles": ("ssd",)}


def _characterize_options(run: _Run) -> tuple[str | None, list[float] | None, list[str]]:
    """The error kind, the HFH thresholds and the analyses to run, each one the
    ``--family`` has. The first two are None unless an analysis that runs
    reads them, and one must when they are given by flag."""
    wanted = set(_list_opt(run, "analysis", "all"))
    applies = [name for name, families in _ANALYSES.items() if run.family in families]
    if bad := sorted(wanted - {"all", *applies}):
        raise _fail("usage", f"bad --analysis {', '.join(bad)} for --family {run.family}"
                    f"; expected a comma list of all, {', '.join(applies)}", EXIT_USAGE)
    analyses = [name for name in applies if "all" in wanted or name in wanted]
    reads = {}
    for option, readers in (("error-kind", {"prefailure-prob", "prefailure-percentiles"}),
                            ("thresholds", {"hfh-sweep"})):
        reads[option] = bool(readers.intersection(analyses))
        if getattr(run.args, option.replace("-", "_")) is not None and not reads[option]:
            raise _fail("usage", f"bad --{option} without {' or '.join(sorted(readers))}"
                        "; no other analysis reads it", EXIT_USAGE)
    kind = thresholds = None
    if reads["error-kind"]:
        kind = str(run.opt("error-kind",
                           "uncorrectable" if run.family == "ssd" else "smart_187"))
        try:
            charstats.check_error_kind(run.family, kind)
        except ValueError as exc:
            raise _fail("usage", f"bad --error-kind: {exc}", EXIT_USAGE)
    if reads["thresholds"]:
        try:
            thresholds = [float(t) for t in _list_opt(
                run, "thresholds", "10000,20000,30000,40000,50000,60000")]
            if any(map(math.isnan, thresholds)):
                raise ValueError("NaN threshold")
        except ValueError:
            raise _fail("usage", f"bad --thresholds {run.opt('thresholds')!r}; "
                        "expected numbers, comma-separated", EXIT_USAGE)
    return kind, thresholds, analyses


def _cmd_characterize(run: _Run) -> None:
    kind, wanted = run.error_kind, run.analyses
    ds = _load_dataset(run)
    failures = lifecycle.detect_failures(ds)
    summary: dict = {"family": ds.family, "n_drives": ds.n_drives,
                     "n_failures": len(failures)}

    rate_header = ["bin_lo", "bin_hi", "failures", "exposure", "rate"]
    if "correlations" in wanted:
        names = _SSD_CORR_FEATURES if ds.family == "ssd" else _HDD_CORR_FEATURES
        matrix = charstats.spearman_matrix(ds, names)
        rows = []
        for i, a in enumerate(matrix.labels):
            for j, b in enumerate(matrix.labels[i:], start=i):
                defined = bool(matrix.defined[i, j])
                rows.append([a, b, matrix.rho[i, j] if defined else "",
                             int(defined)])
        run.write_csv("correlations.csv",
                      ["feature_a", "feature_b", "rho", "defined"], rows)
        summary["correlations"] = {"features": list(matrix.labels),
                                   "artifact": "correlations.csv"}
    if "monthly-rate" in wanted:
        curve = charstats.monthly_failure_rate(failures, ds)
        run.write_csv("rates_monthly.csv", rate_header, _rate_rows(curve))
        summary["monthly-rate"] = {"bins": len(curve.failures),
                                   "artifact": "rates_monthly.csv"}
    if "pe-rate" in wanted:
        curve, cdf = charstats.pe_binned_failure_rate(failures, ds)
        run.write_csv("rates_pe.csv", rate_header, _rate_rows(curve))
        run.write_csv("pe_failure_cdf.csv", ["pe_upper_edge", "F"], cdf)
        summary["pe-rate"] = {"bins": len(curve.failures),
                              "artifact": "rates_pe.csv"}
    if "hfh-sweep" in wanted:
        sweep = charstats.hfh_threshold_sweep(failures, ds, run.thresholds)
        run.write_csv("rates_hfh.csv",
                      ["threshold", "small_rate", "large_rate", "large_share"],
                      [[t, *rates] for t, rates in sweep["per_threshold"].items()])
        summary["hfh-sweep"] = {"excluded_drives": sweep["excluded"],
                                "artifact": "rates_hfh.csv"}
    if "prefailure-prob" in wanted:
        windows = [1, 2, 3, 5, 7, 14, 30]
        probs = charstats.prefailure_error_probability(failures, ds, kind,
                                                       windows, seed=run.seed)
        run.write_csv("prefailure_prob.csv", ["window_days", "probability",
                                              "baseline"],
                      [[n, probs["probability"][n], probs["baseline"][n]]
                       for n in windows])
        summary["prefailure-prob"] = {"kind": kind,
                                      "artifact": "prefailure_prob.csv"}
    if "prefailure-percentiles" in wanted:
        pct = (90.0, 99.0)
        table = charstats.prefailure_error_percentiles(failures, ds, kind, pct)
        run.write_csv("prefailure_percentiles.csv",
                      ["days_before_failure", "percentile", "count"],
                      [[offset, p, None if values is None else values[p]]
                       for offset, values in table.items() for p in pct])
        summary["prefailure-percentiles"] = {
            "kind": kind, "artifact": "prefailure_percentiles.csv"}
    if "write-quartiles" in wanted:
        quartiles = charstats.write_intensity_quartiles(ds)
        run.write_csv("write_quartiles.csv", ["age_month", "q1", "median", "q3"],
                      [[m, q1, q2, q3] for m, (q1, q2, q3) in quartiles.items()])
        summary["write-quartiles"] = {"months": len(quartiles),
                                      "artifact": "write_quartiles.csv"}
    run.write_json("characterization.json", summary)


def _cmd_featurize(run: _Run) -> None:
    ds = _load_dataset(run)
    build = _example_builder(ds, run.partition_attr)
    tables = [build(n) for n in run.lookaheads]
    names = [f"examples_{ds.family}_N{n}.csv" for n in run.lookaheads]
    with contextlib.ExitStack() as files:
        featurize.write_examples_tables(
            tables, [files.enter_context(run._replacing(name)) for name in names],
            header_comment=run.comment())
    index = {str(n): {"artifact": name, "n_examples": examples.n,
                      "n_positive": examples.n_positive}
             for n, name, examples in zip(run.lookaheads, names, tables)}
    run.write_json("featurize_report.json",
                   {"family": ds.family, "lookaheads": index})


def _cmd_train(run: _Run) -> None:
    spec, lookahead = run.spec, run.lookaheads[0]
    examples = _fittable(run, _examples_for(run, lookahead))
    balanced = evaluation.undersample(examples, 1.0,
                                      evaluation._derived_seed(run.seed, 0, 0))
    model = spec.train(balanced.X, balanced.y,
                       evaluation._derived_seed(run.seed, 0, 1),
                       feature_names=examples.names, jobs=run.jobs)
    run.write_json("model.json", json.loads(learners.model_to_json(model)),
                   indent=None)
    doc = {"model": spec.config(), "lookahead": lookahead,
           "n_train": balanced.n, "n_positive": balanced.n_positive,
           "artifact": "model.json"}
    if spec.kind == "logreg":
        doc.update(converged=model.converged, n_iter=model.n_iter)
    if spec.kind == "rf":
        ranking = learners.feature_importance(model)
        doc["feature_importance"] = [[n, s] for n, s in ranking.entries]
    run.write_json("train_report.json", doc)


def _write_roc(run: _Run, name: str, report: evaluation.EvalReport | None) -> None:
    """Write the pooled ROC as ``name``; with none, remove an earlier run's file."""
    if report is not None and report.roc is not None:
        run.write_csv(name, ["threshold", "fpr", "tpr"], report.roc.rows())
    else:
        (run.out / name).unlink(missing_ok=True)


def _cmd_evaluate(run: _Run) -> None:
    examples = _fittable(run, _examples_for(run, run.lookaheads[0]))
    report = evaluation.cross_validated_eval(examples, run.spec, run.folds, run.seed,
                                             jobs=run.jobs)
    run.write_json("eval_report.json", report.to_dict(), indent=None)
    _write_roc(run, "roc.csv", report)


def _cmd_sweep(run: _Run) -> None:
    build = _example_builder(_load_dataset(run))
    _fittable(run, build(run.lookaheads[0]))  # every N's table has the same rows
    reports = evaluation.lookahead_sweep(build, run.lookaheads, run.spec, run.folds,
                                         run.seed, jobs=run.jobs)
    rows = []
    for n, report in reports.items():
        run.write_json(f"eval_report_N{n}.json", report.to_dict(), indent=None)
        _write_roc(run, f"roc_N{n}.csv", report)
        rows.append([n, report.mean_auroc, report.std_auroc])
    run.write_csv("sweep.csv", ["lookahead", "mean_auroc", "std_auroc"], rows)


def _cmd_matrix(run: _Run) -> None:
    examples = _fittable(run, _example_builder(_load_dataset(run))(run.lookaheads[0]))
    result = evaluation.cross_model_matrix(examples, run.spec, run.folds, run.seed,
                                           jobs=run.jobs)
    run.write_csv("matrix.csv", ["train_model", "test_model", "auroc"],
                  [[i, j, result["auroc"][(i, j)]] for i in result["train_labels"]
                   for j in result["test_labels"]])


def _cmd_partition_eval(run: _Run) -> None:
    rule = run.partition
    build = _example_builder(_load_dataset(run), rule.attribute)
    report = evaluation.partitioned_eval(_fittable(run, build(run.lookaheads[0])), rule,
                                         run.spec, run.folds, run.seed, jobs=run.jobs)
    for side in ("below", "above", "unsplit"):
        _write_roc(run, f"roc_{side}.csv", getattr(report, side))
    run.write_json("partition_report.json", {
        "rule": {"attribute": rule.attribute, "threshold": rule.threshold},
        "below": None if report.below is None else report.below.to_dict(),
        "above": None if report.above is None else report.above.to_dict(),
        "unsplit": report.unsplit.to_dict(),
        "unsplit_on_below": report.unsplit_on_below,
        "unsplit_on_above": report.unsplit_on_above,
    })


_REPORT_SOURCES = {
    "manifest.json": "synth", "ingest_report.json": "ingest",
    "lifecycle_summary.json": "lifecycle", "characterization.json": "characterize",
    "featurize_report.json": "featurize", "train_report.json": "train",
    "eval_report.json": "evaluate", "sweep.csv": "sweep", "matrix.csv": "matrix",
    "partition_report.json": "partition-eval",
}


def _cmd_report(run: _Run) -> None:
    found = {name: producer for name, producer in _REPORT_SOURCES.items()
             if (run.out / name).exists()}
    if not found:
        missing = ", ".join(f"{cmd} -> {name}"
                            for name, cmd in _REPORT_SOURCES.items())
        raise _fail("io", "no artifacts found in output directory; run one of: "
                    + missing, EXIT_IO)
    missing_cmds = sorted(set(_REPORT_SOURCES.values()) - set(found.values()))
    run.write_json("report.json", {"artifacts": sorted(found),
                                   "missing_subcommands": missing_cmds,
                                   "sections": found})

    lines = ["# drivelife run report", "",
             f"Tool version {__version__}, config hash {run.config_hash}, "
             f"seed {run.seed}.", "",
             "## Artifacts", ""]
    lines += [f"- `{name}` (from `{found[name]}`)" for name in sorted(found)]
    if missing_cmds:
        lines += ["", "## Not yet produced", ""]
        lines += [f"- `{cmd}`" for cmd in missing_cmds]
    lines.append("")
    run._atomic("report.md", lambda h: h.write("\n".join(lines)))


_COMMANDS = {
    "synth": _cmd_synth, "ingest": _cmd_ingest, "lifecycle": _cmd_lifecycle,
    "characterize": _cmd_characterize, "featurize": _cmd_featurize,
    "train": _cmd_train, "evaluate": _cmd_evaluate, "sweep": _cmd_sweep,
    "matrix": _cmd_matrix, "partition-eval": _cmd_partition_eval, "report": _cmd_report,
}
_READERS = tuple(name for name in _COMMANDS if name not in ("synth", "report"))

#: Each option, the subcommands that read it and its argparse keywords. A
#: subcommand accepts exactly the options it reads, and :class:`_Run` checks
#: each of them before any input is opened.
_OPTIONS: dict[str, tuple[Collection[str], dict]] = {
    "config": (_COMMANDS, {"help": "JSON config file; flags override it"}),
    "seed": (_COMMANDS, {"type": int}),
    "out": (_COMMANDS, {"help": "output directory"}),
    "jobs": (_FITS, {"type": int, "help": "worker pool size (default 1)"}),
    "family": (_READERS, {"choices": ["hdd", "ssd"]}),
    "input": (_READERS, {"help": "telemetry CSV"}),
    "models": (_READERS, {"help": "comma-separated model whitelist (hdd)"}),
    "from": (_READERS, {"metavar": "YYYY-MM-DD"}),
    "to": (_READERS, {"metavar": "YYYY-MM-DD"}),
    "lookahead": (("featurize", *_FITS), {"help": "days; featurize, sweep: a list"}),
    "examples": (("train", "evaluate", "partition-eval"), {"help": "examples CSV"}),
    "model": (_FITS, {"choices": ["rf", "tree", "logreg"]}),
    "hyper": (_FITS, {"help": "hyperparameter JSON object"}),
    "folds": (_FITS[1:], {"type": int}),
    "partition": (("partition-eval",), {"help": "age:90 | hfh:40000"}),
    "partition-attr": (("featurize",), {"choices": ["age", "hfh"]}),
    "analysis": (("characterize",), {"help": "comma list or 'all'"}),
    "error-kind": (("characterize",), {}),
    "thresholds": (("characterize",), {"help": "HFH sweep thresholds"}),
}


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivelife",
        description="Storage-fleet reliability analysis and failure prediction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for option, (commands, keywords) in _OPTIONS.items():
            if name in commands:
                p.add_argument(f"--{option}", **keywords)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        context = _Run(args)
        context.settings  # hashes every input file before anything is read or fit
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
    except Exception as exc:
        print(json.dumps({"error": "internal",
                          "message": f"{type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc()}), file=sys.stderr)
        return EXIT_INTERNAL
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
