"""The benchmark's workloads: fleet configs, set-up, timed pipeline and output checks.

Each workload is closed loop: one pipeline in one process, each call issued
after the previous one returned. Set-up generates a synthetic fleet through
``drivelife.synth`` and writes it as a CSV file with the ``drivelife.ingest``
writers; the timed run starts from that file and calls only public drivelife
functions, looked up on their modules at call time so that a traced run sees
them. The run never receives the seed: planted ground truth reaches the
checks through ``truth.json``, which only the benchmark reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from pathlib import Path
from typing import Callable

from drivelife import (charstats, cli, evaluation, featurize, ingest, learners,
                       lifecycle, synth)

#: Seed of the cross-validation folds, undersampling and models inside the
#: pipeline; fixed, so that the workload seed changes only the fleet.
MODEL_SEED = 11

LOOKAHEADS = [0, 1, 2, 7]

#: The HDD feature list the ``characterize`` subcommand correlates.
HDD_CORR_FEATURES = ["failed", "smart_5", "smart_197", "smart_199", "smart_187",
                     "smart_192", "smart_188", "smart_9", "smart_12", "smart_194"]

HFH_THRESHOLDS = [10000, 20000, 30000, 40000, 50000, 60000]
PREFAILURE_WINDOWS = [1, 2, 3, 5, 7, 14, 30]


class Abort(Exception):
    """A stage raised; the pipeline cannot go on."""


class Ops:
    """Counts operations, the ones that failed, and hashes the outputs.

    An operation is one stage call or CLI subcommand. It fails if it raises,
    exits non-zero, or fails its output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self._digest = hashlib.sha256()

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed[name] = f"raised {type(exc).__name__}: {exc}"
            raise Abort(name) from exc

    def check(self, name: str, ok: bool, message: str) -> None:
        if not ok and name not in self.failed:
            self.failed[name] = message

    def feed(self, *parts) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else repr(part).encode()
            self._digest.update(len(data).to_bytes(8, "little") + data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def synth_config(fleet: dict, seed: int) -> synth.SynthConfig:
    raw = dict(fleet)
    bursts = tuple(synth.BurstSpec(**b) for b in raw.pop("bursts", []))
    return synth.SynthConfig(**raw, bursts=bursts, seed=seed)


def _failure_keys(events) -> list[tuple[str, int, int]]:
    return sorted((e.drive, e.age_days, e.ordinal) for e in events)


def _setup_fleet(work: Path, fleet: dict, seed: int, ops: Ops) -> None:
    """Generate the fleet, write its telemetry CSV and the planted truth."""
    config = synth_config(fleet, seed)
    ds, truth = ops.call("generate_fleet", synth.generate_fleet, config)
    writer = ingest.write_ssd_csv if ds.family == "ssd" else ingest.write_hdd_csv
    with open(work / _telemetry(fleet), "w", newline="") as handle:
        ops.call("write_csv", writer, ds, handle)
    (work / "truth.json").write_text(json.dumps(_failure_keys(truth)))


def _telemetry(fleet: dict) -> str:
    return f"{fleet['family']}_telemetry.csv"


# -- ssd_forest_sweep --------------------------------------------------------


def _run_ssd_forest_sweep(work: Path, params: dict, ops: Ops) -> dict:
    path = work / _telemetry(params["fleet"])
    planted = {(d, o): day for d, day, o in json.loads((work / "truth.json").read_text())}
    with open(path) as handle:
        ds = ops.call("parse_ssd_log", ingest.parse_ssd_log, handle, source=path.name)
    prov = ds.provenance
    ops.check("parse_ssd_log", prov["rejected_count"] == 0 and not prov["quarantined"],
              f"{prov['rejected_count']} rejected, {len(prov['quarantined'])} quarantined")

    failures = ops.call("detect_failures", lifecycle.detect_failures, ds)
    found = {(e.drive, e.ordinal): e.age_days for e in failures}
    exact = sum(1 for key, day in planted.items() if found.get(key) == day)
    ops.check("detect_failures",
              set(found) == set(planted)
              and exact >= 0.99 * len(planted)
              and all(abs(found[k] - planted[k]) <= 7 for k in planted),
              f"{len(found)} found, {len(planted)} planted, {exact} exact days")
    periods = ops.call("extract_operational_periods",
                       lifecycle.extract_operational_periods, ds, failures)
    feats = ops.call("make_features", featurize.make_features, ds)

    def build(n):
        return featurize.label_lookahead(feats, failures, n, periods)

    forest = learners.ForestParams(n_trees=params["n_trees"],
                                   max_depth=params["max_depth"])
    reports = ops.call("lookahead_sweep", evaluation.lookahead_sweep, build,
                       LOOKAHEADS, evaluation.ModelSpec("rf", forest=forest),
                       k=5, seed=MODEL_SEED, jobs=1)
    aurocs = [reports[n].mean_auroc for n in LOOKAHEADS]
    ops.check("lookahead_sweep",
              None not in aurocs and aurocs[0] >= 0.85
              and all(b <= a + 0.01 for a, b in zip(aurocs, aurocs[1:])),
              f"mean AUROC per lookahead {aurocs}")
    examples = ops.call("label_lookahead", build, 0)
    logreg = ops.call("cross_validated_eval", evaluation.cross_validated_eval,
                      examples, evaluation.ModelSpec("logreg", l2=1e-3, max_iter=300),
                      k=5, seed=MODEL_SEED)
    ops.check("cross_validated_eval", logreg.mean_auroc is not None,
              "logistic CV produced no AUROC")

    ops.feed(_failure_keys(failures),
             [(p.drive, p.start_day, p.end_day, p.terminal) for p in periods],
             feats.X.tobytes(), examples.y.tobytes(),
             [(r.fold_auroc, r.pooled_auroc) for r in reports.values()],
             (logreg.fold_auroc, logreg.pooled_auroc))
    return {"input_records": ds.n_records, "input_bytes": path.stat().st_size}


# -- hdd_characterize ---------------------------------------------------------


def _run_hdd_characterize(work: Path, params: dict, ops: Ops) -> dict:
    path = work / _telemetry(params["fleet"])
    planted = [tuple(k) for k in json.loads((work / "truth.json").read_text())]
    with open(path) as handle:
        ds = ops.call("parse_hdd_csv", ingest.parse_hdd_csv, handle, source=path.name)
    prov = ds.provenance
    ops.check("parse_hdd_csv",
              prov["rejected_count"] == 0 and prov["data_rows"] == ds.n_records,
              f"{prov['rejected_count']} rejected; data_rows {prov['data_rows']} "
              f"vs {ds.n_records} records kept")

    failures = ops.call("detect_failures", lifecycle.detect_failures, ds)
    ops.check("detect_failures", _failure_keys(failures) == planted,
              f"{len(failures)} detected, {len(planted)} planted")
    periods = ops.call("extract_operational_periods",
                       lifecycle.extract_operational_periods, ds, failures)
    spells = ops.call("build_repair_spells", lifecycle.build_repair_spells, ds, failures)
    cdfs = []
    for sample in (lifecycle.period_length_sample(periods),
                   lifecycle.repair_duration_sample(spells)):
        if sample.total:
            cdfs.append(ops.call("censored_cdf", lifecycle.censored_cdf, sample,
                                 sorted(set(sample.values)) or [0]))

    matrix = ops.call("spearman_matrix", charstats.spearman_matrix, ds,
                      HDD_CORR_FEATURES)
    rho, defined = matrix.rho, matrix.defined
    ops.check("spearman_matrix",
              bool((defined == defined.T).all())
              and bool((rho[defined] == rho.T[defined]).all())
              and all(rho[i, i] == 1.0 for i in range(len(rho)) if defined[i, i]),
              "Spearman matrix not symmetric with a unit diagonal")
    curve = ops.call("monthly_failure_rate", charstats.monthly_failure_rate,
                     failures, ds)
    sweep = ops.call("hfh_threshold_sweep", charstats.hfh_threshold_sweep,
                     failures, ds, HFH_THRESHOLDS)
    probs = ops.call("prefailure_error_probability",
                     charstats.prefailure_error_probability, failures, ds,
                     "smart_187", PREFAILURE_WINDOWS, seed=MODEL_SEED)
    pct = ops.call("prefailure_error_percentiles",
                   charstats.prefailure_error_percentiles, failures, ds,
                   "smart_187", (90.0, 99.0))
    feats = ops.call("make_features", featurize.make_features, ds)
    model_of = {d: ds.records[d][0].model for d in ds.drives if ds.records[d]}
    examples = ops.call("label_lookahead", featurize.label_lookahead, feats,
                        failures, 7, periods, partition_attr="hfh", models=model_of)

    ops.feed(_failure_keys(failures),
             [(p.drive, p.start_day, p.end_day, p.terminal) for p in periods],
             [(s.drive, s.fail_day, s.reentry_day) for s in spells], cdfs,
             rho.tobytes(), defined.tobytes(),
             curve,
             sweep, probs, pct, feats.X.tobytes(), examples.y.tobytes(),
             examples.partition_key.tobytes())
    return {"input_records": ds.n_records, "input_bytes": path.stat().st_size}


# -- ssd_cli_roundtrip --------------------------------------------------------

_OUT = "run"


def _cli(ops: Ops, argv: list[str]) -> None:
    """Run one subcommand in-process; an exit code other than 0 fails it."""
    name = argv[0]
    try:
        code = ops.call(name, cli.run, argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    ops.check(name, code == 0, f"exit code {code}")
    if code != 0:
        raise Abort(name)


def _setup_cli(work: Path, fleet: dict, seed: int, ops: Ops) -> None:
    (work / "fleet.json").write_text(json.dumps(fleet))
    _cli(ops, ["synth", "--config", "fleet.json", "--seed", str(seed),
               "--out", _OUT])
    manifest = json.loads((work / _OUT / "manifest.json").read_text())
    ops.check("synth", manifest["calibration_ok"], "calibration_ok is false")


def _run_ssd_cli_roundtrip(work: Path, params: dict, ops: Ops) -> dict:
    telemetry = f"{_OUT}/{_telemetry(params['fleet'])}"
    source = ["--family", "ssd", "--input", telemetry, "--out", _OUT]
    seed = ["--seed", str(MODEL_SEED)]
    forest = json.dumps({"n_trees": params["n_trees"],
                         "max_depth": params["max_depth"]})
    tree = json.dumps({"max_depth": params["max_depth"]})
    lookaheads = ",".join(map(str, LOOKAHEADS))
    _cli(ops, ["ingest", *source])
    _cli(ops, ["lifecycle", *source])
    _cli(ops, ["characterize", *source, *seed])
    _cli(ops, ["featurize", *source, "--lookahead", lookaheads])
    _cli(ops, ["evaluate", "--examples", f"{_OUT}/examples_ssd_N0.csv",
               "--lookahead", "0", "--model", "logreg", "--folds", "5",
               "--out", _OUT, *seed])
    _cli(ops, ["train", *source, "--lookahead", "0", "--model", "rf",
               "--hyper", forest, "--jobs", "2", *seed])
    _cli(ops, ["matrix", *source, "--lookahead", "0", "--model", "tree",
               "--hyper", tree, "--folds", "5", *seed])
    _cli(ops, ["sweep", *source, "--lookahead", lookaheads, "--model", "logreg",
               "--folds", "5", *seed])
    _cli(ops, ["report", "--out", _OUT])

    out = work / _OUT
    report = json.loads((out / "report.json").read_text())
    producers = {"manifest.json": "synth", "ingest_report.json": "ingest",
                 "lifecycle_summary.json": "lifecycle",
                 "characterization.json": "characterize",
                 "featurize_report.json": "featurize",
                 "eval_report.json": "evaluate", "train_report.json": "train",
                 "matrix.csv": "matrix", "sweep.csv": "sweep"}
    ops.check("report",
              set(producers) <= set(report["artifacts"])
              and report["missing_subcommands"] == ["partition-eval"]
              and (out / "report.md").exists(),
              f"report lists {report['artifacts']}, "
              f"missing {report['missing_subcommands']}")

    artifact_bytes = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        artifact_bytes += len(data)
        ops.feed(path.name, data)
    ingested = json.loads((out / "ingest_report.json").read_text())
    return {"input_records": ingested["n_records"],
            "input_bytes": (work / telemetry).stat().st_size,
            "artifact_bytes": artifact_bytes}


# -- the table -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    params: dict
    smoke: dict
    setup: Callable[[Path, dict, int, Ops], None]
    run: Callable[[Path, dict, Ops], dict]
    input_file: str

    def sized(self, smoke: bool) -> dict:
        if not smoke:
            return self.params
        fleet = dict(self.params["fleet"], **self.smoke.get("fleet", {}))
        return {**self.params, **self.smoke, "fleet": fleet}


_SSD_BURST = {"kind": "uncorrectable", "mean": 10.0, "days": 1, "probability": 0.9}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ssd_forest_sweep",
        why="Criterion 08 scaled down: parse an SSD log, rebuild lifecycles, "
            "featurize, then a 4-lookahead random-forest sweep and logistic CV; "
            "learners and evaluation dominate.",
        exercises="ingest, lifecycle, featurize, learners (forest, logistic), "
                  "evaluation (CV, ROC/AUROC)",
        bypasses="charstats, cli, thread-parallel forest, model serialization",
        params={"fleet": {"family": "ssd", "n_drives": 160, "horizon_days": 120,
                          "models": {"MLC-A": 0.5, "MLC-B": 0.6},
                          "bursts": [_SSD_BURST]},
                "n_trees": 8, "max_depth": 8},
        smoke={"fleet": {"n_drives": 80, "horizon_days": 60}, "n_trees": 5},
        setup=_setup_fleet, run=_run_ssd_forest_sweep,
        input_file="ssd_telemetry.csv"),
    Workload(
        name="hdd_characterize",
        why="Backblaze-shaped HDD snapshots with 20 SMART ids: parse, lifecycle, "
            "Spearman, rates, HFH sweep, pre-failure errors, features; no model "
            "is trained.",
        exercises="ingest (wide HDD rows), lifecycle, charstats, featurize",
        bypasses="learners, evaluation, cli",
        params={"fleet": {"family": "hdd", "n_drives": 160, "horizon_days": 180,
                          "models": {"ST4000DM000": 0.3, "ST12000NM0007": 0.2},
                          "hfh_effect": 3.0, "hfh_high_fraction": 0.3,
                          "error_incidence": {"smart_5": 0.002, "smart_187": 0.003,
                                              "smart_197": 0.001,
                                              "smart_198": 0.0005,
                                              "smart_199": 0.001},
                          "bursts": [{"kind": "smart_187", "mean": 6.0,
                                      "days": 3}]}},
        smoke={"fleet": {"n_drives": 60, "horizon_days": 60}},
        setup=_setup_fleet, run=_run_hdd_characterize,
        input_file="hdd_telemetry.csv"),
    Workload(
        name="ssd_cli_roundtrip",
        why="The README round trip through drivelife.cli.run: every subcommand "
            "re-reads CSVs and writes artifacts; logistic, tree and 2-thread "
            "forest models.",
        exercises="cli, ingest (read and write), lifecycle, charstats, featurize "
                  "(examples CSV), learners (logistic, tree, threaded forest, "
                  "JSON), evaluation (CV, sweep, cross-model matrix)",
        bypasses="nothing; it is the only workload with the thread-parallel "
                 "forest and repeated parsing",
        params={"fleet": {"family": "ssd", "n_drives": 2500, "horizon_days": 4,
                          "models": {"MLC-A": 0.04, "MLC-B": 0.04},
                          "error_incidence": {"correctable": 0.8,
                                              "uncorrectable": 0.02},
                          "bursts": [_SSD_BURST]},
                "n_trees": 10, "max_depth": 8},
        smoke={"fleet": {"n_drives": 400, "horizon_days": 12}, "n_trees": 3},
        setup=_setup_cli, run=_run_ssd_cli_roundtrip,
        input_file=f"{_OUT}/ssd_telemetry.csv"),
)}


def provenance(workload: Workload, seed: int) -> dict:
    """What the workload is made of for a given seed argument, with input size."""
    params = workload.params
    config = synth_config(params["fleet"], seed)
    ds, truth = synth.generate_fleet(config)
    text = io.StringIO()
    (ingest.write_ssd_csv if ds.family == "ssd" else ingest.write_hdd_csv)(ds, text)
    return {"seed_argument": seed,
            "synth_config": dataclasses.asdict(config),
            "input_records": ds.n_records,
            "input_bytes": len(text.getvalue().encode()),
            "planted_failures": len(truth),
            "pipeline": {k: v for k, v in params.items() if k != "fleet"},
            "model_seed": MODEL_SEED,
            "why": workload.why,
            "exercises": workload.exercises,
            "bypasses": workload.bypasses,
            "input_file": workload.input_file}

