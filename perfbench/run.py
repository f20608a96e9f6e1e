"""drivelife benchmark: fleet workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke       # every workload and check once, tiny fleets
    python3 perfbench/run.py --describe --seed N   # workload provenance as JSON

Run from anywhere; drivelife is imported from ``src/`` of the checkout this
file sits in. A run sets the input up three times, each in a fresh process
(interpreter start, ``import drivelife``, fleet generation, CSV write), then
starts one process that imports drivelife and forks a fresh process for every
run of the timed pipeline (from the CSV on disk to checked results) while the
next one fits in ``--seconds``, at least three. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json over those runs (times as means,
memory and set-up as medians); ``--trace 1`` runs the same pipeline with
every public drivelife function wrapped in a span in every other run,
reports the per-layer metrics, and takes the tracing overhead from the
untraced runs. ``--workload ssd_forest_sweep`` runs a third workload that
BENCHMARK.json does not list (see README.md). Scratch files, span dumps and
raw samples go to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

#: Whole-run limit; a run must end within 180 s.
RUN_LIMIT_S = 160.0
SETUPS = 3
MIN_RUNS = 3

#: BLAS threads would busy-wait beside the program's own threads and blur
#: cpu_s; the only parallelism measured is the forest's own thread pool.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

#: Reported as the mean over a run's runs, that is the timed total over the
#: run count, and not as the median: each core of the host switches between
#: a fast and a slow state that last seconds to tens of seconds, and the
#: median of a run jumps to whichever state took more than half of it, while
#: the mean moves only in proportion to the time spent in each.
MEAN_METRICS = ("wall_s", "cpu_s")

#: Workloads that run by name but that BENCHMARK.json does not list.
EXTRA_WORKLOADS = ("ssd_forest_sweep",)

CLI_SUBCOMMANDS = ("synth", "ingest", "lifecycle", "characterize", "featurize",
                   "evaluate", "train", "matrix", "sweep", "report")

#: Counts that depend only on the seed; they must repeat exactly.
EXACT_COUNTS = ("ingest.parse_calls", "ingest.rejected_rows",
                "lifecycle.failures_detected", "featurize.builds_per_input",
                "learners.fits", "learners.trees", "learners.nodes",
                "learners.logreg_iters", "learners.logreg_unconverged",
                "evaluation.score_groups", "evaluation.matrix_fit_reuse",
                "cli.artifact_bytes")


def _child(role: str, workload: str, seed: int, work: Path, trace: bool,
           smoke: bool, timeout: float, extra: tuple = ()) -> dict:
    """Run one child process to completion and return its result."""
    result_file = work / f"{role}_result.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), role, workload, "--seed", str(seed),
           "--result", str(result_file), *extra]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    # a session of its own, so that the child and the run processes it forks
    # can be stopped together
    proc = subprocess.Popen(cmd, cwd=work, env={**os.environ, **CHILD_ENV},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        _stop(proc)
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"attempted": 1, "failed": {role: f"timed out after {timeout:.0f} s"}}
    if proc.returncode != 0 or not result_file.exists():
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1,
                "failed": {role: f"exit code {proc.returncode}: {tail[0]}"}}
    return json.loads(result_file.read_text())


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child's whole process group and wait until every member is gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _setups(workload: str, seed: int, trace: bool, smoke: bool, count: int,
            deadline: float) -> list[dict]:
    """Set the input up ``count`` times, each in a fresh process; the last stays."""
    work = WORK / workload
    setups: list[dict] = []
    for _ in range(count):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.monotonic()
        setups.append(_child("setup", workload, seed, work, trace, smoke,
                             deadline - start))
        setups[-1]["setup_s"] = time.monotonic() - start
        if setups[-1]["failed"]:
            break
    return setups


def _runs(workload: str, seed: int, trace: bool, smoke: bool, until: float,
          at_least: int, deadline: float) -> dict:
    """Run the timed pipeline repeatedly, each run in a process of its own.

    One child process imports drivelife and forks every run from that state
    while the next run is expected to end by ``until``, and at least
    ``at_least`` times. With ``trace`` every second run is untraced, so that
    traced and untraced runs share the machine's slow and fast phases alike.
    """
    now = time.monotonic()
    extra = ("--budget", f"{max(until - now, 0.0):.3f}",
             "--min-runs", str(at_least))
    return _child("run", workload, seed, WORK / workload, trace, smoke,
                  deadline - now, extra)


def _ops(parts: list[dict]) -> tuple[int, dict]:
    attempted, failed = 0, {}
    for i, part in enumerate(parts):
        attempted += part["attempted"]
        for name, why in part["failed"].items():
            failed[f"process {i}: {name}"] = why
    return attempted, failed


def _layer_metrics(setup_result: dict, run_result: dict) -> dict:
    """Per-layer metrics of one traced set-up process and one traced run."""
    setup, run = setup_result["trace"], run_result["trace"]
    c, sc = run["counts"], setup["counts"]

    def self_(summary, *names):
        return sum(summary["self"].get(n, 0.0) for n in names)

    def total(summary, *names):
        return sum(summary["total"].get(n, 0.0) for n in names)

    def per(seconds, n, scale=1e6):
        return seconds * scale / n if n else 0.0

    records = c.get("ingest.records_parsed", 0)
    parse_calls = c.get("ingest.parse_calls", 0)
    evaluation_self = run["layer_self"]["evaluation"]
    auroc_s = self_(run, "evaluation.auroc")
    roc_s = self_(run, "evaluation.roc_curve")
    matrix_fits = c.get("evaluation.matrix_fits", 0)
    written = c.get("ingest.records_written", 0) + sc.get("ingest.records_written", 0)
    write_s = sum(self_(s, "ingest.write_ssd_csv", "ingest.write_hdd_csv")
                  for s in (setup, run))
    m = {f"{layer}.self_s": run["layer_self"][layer] for layer in LAYERS}
    m.update({
        "bench.self_s": run["layer_self"]["bench"],
        "ingest.parse_us_per_record": per(
            self_(run, "ingest.parse_ssd_log", "ingest.parse_hdd_csv"), records),
        "ingest.parse_calls": parse_calls,
        "ingest.held_bytes_per_record": run_result.get("held_bytes_per_record", 0.0),
        "ingest.write_us_per_record": per(write_s, written),
        "ingest.rejected_rows": c.get("ingest.rejected_rows", 0),
        "lifecycle.us_per_record": per(run["layer_self"]["lifecycle"], records),
        "lifecycle.failures_detected": c["lifecycle.failures_detected"],
        "charstats.spearman_self_s": self_(run, "charstats.spearman_matrix"),
        "charstats.prefailure_s": self_(run, "charstats.prefailure_error_probability",
                                        "charstats.prefailure_error_percentiles"),
        "charstats.rates_s": self_(run, "charstats.monthly_failure_rate",
                                   "charstats.pe_binned_failure_rate",
                                   "charstats.hfh_threshold_sweep",
                                   "charstats.write_intensity_quartiles"),
        "featurize.features_us_per_record": per(
            self_(run, "featurize.make_features", "featurize.make_features_ssd",
                  "featurize.make_features_hdd"),
            c.get("featurize.records_featurized", 0)),
        "featurize.builds_per_input": (c.get("featurize.builds", 0) / parse_calls
                                       if parse_calls else 0.0),
        "featurize.label_s": self_(run, "featurize.label_lookahead"),
        "featurize.examples_write_us_per_row": per(
            self_(run, "featurize.write_examples_csv"),
            c.get("featurize.examples_written", 0)),
        "featurize.examples_read_us_per_row": per(
            self_(run, "featurize.read_examples_csv"),
            c.get("featurize.examples_read", 0)),
        "learners.fit_s": total(run, "learners.train_forest", "learners.train_tree",
                                "learners.train_logistic"),
        "learners.fits": c.get("learners.fits", 0),
        "learners.trees": c.get("learners.trees", 0),
        "learners.nodes": c.get("learners.nodes", 0),
        "learners.fit_us_per_node": per(c.get("learners.tree_fit_s", 0.0),
                                        c.get("learners.nodes", 0)),
        "learners.predict_us_per_row_tree": per(
            c.get("learners.tree_predict_s", 0.0),
            c.get("learners.tree_predict_row_trees", 0)),
        "learners.logreg_iters": c.get("learners.logreg_iters", 0),
        "learners.logreg_unconverged": c.get("learners.logreg_unconverged", 0),
        "learners.serialize_s": total(run, "learners.model_to_json",
                                      "learners.model_from_json"),
        "evaluation.auroc_s": auroc_s,
        "evaluation.roc_s": roc_s,
        "evaluation.score_groups": c.get("evaluation.score_groups", 0),
        "evaluation.cv_self_s": evaluation_self - auroc_s - roc_s,
        "evaluation.matrix_fit_reuse": (
            c["evaluation.matrix_distinct_fits"] / matrix_fits if matrix_fits else 0.0),
        "synth.generate_us_per_record": per(
            total(setup, "synth.generate_fleet"), sc.get("synth.records_generated", 0)),
        "cli.artifact_bytes": run_result["info"].get("artifact_bytes", 0),
        "trace.wall_s": run_result["wall_s"],
        "trace.layer_sum_s": sum(run["layer_self"][layer] for layer in LAYERS),
    })
    for sub in CLI_SUBCOMMANDS:
        source = setup if sub == "synth" else run
        m[f"cli.{sub}_s"] = total(source, f"cli.run:{sub}")
    return m


def _percentile_note(values: list[float], reported: str) -> str:
    """The median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    median = "" if reported == "median" else f"median {statistics.median(values):.4g}, "
    spread = f"{reported} of {n}; {median}range {min(values):.4g}-{max(values):.4g}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"{spread}; p{p} {q:.4g}"
    return f"{spread}; no percentile has 10 samples beyond it"


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(specs: list[dict], values: dict, notes: dict, correct: bool,
          attempted: int, failed: dict) -> None:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:>14.6g} {spec['unit']}{note}")
    for name, why in failed.items():
        print(f"  FAILED {name}: {why}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> bool:
    """One run of one workload: set-ups, then timed runs, then the result line."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    manifest = _manifest()
    setups = _setups(workload, seed, trace, smoke, 1 if smoke else SETUPS, deadline)
    parts, runs = list(setups), []
    if not setups[-1]["failed"]:
        parts.append(_runs(workload, seed, trace, smoke, start + seconds,
                           2 if smoke and not trace else MIN_RUNS, deadline))
        runs = parts[-1].get("runs", [])
    attempted, failed = _ops(parts)
    done = [r for r in runs if "wall_s" in r]
    digests = {r["digest"] for r in done}
    if len(digests) > 1:
        failed["digest"] = f"{len(digests)} different result digests for one seed"
    if not done:
        failed.setdefault("runs", "no run completed")
        print(f"{workload} seed {seed}: no run completed")
        for name, why in failed.items():
            print(f"  FAILED {name}: {why}")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": len(failed), "metrics": {}}))
        return False
    info = done[0]["info"]
    print(f"{workload} seed {seed}: {info.get('input_records')} input records, "
          f"{info.get('input_bytes')} input bytes, digest {done[0]['digest'][:16]}")

    if not trace:
        series = {"wall_s": [r["wall_s"] for r in done],
                  "cpu_s": [r["cpu_s"] for r in done],
                  "peak_rss_mb": [r["peak_rss_mb"] for r in done],
                  "setup_s": [s["setup_s"] for s in setups]}
        values = {k: (statistics.fmean if k in MEAN_METRICS else statistics.median)(v)
                  for k, v in series.items()}
        notes = {k: _percentile_note(v, "mean" if k in MEAN_METRICS else "median")
                 for k, v in series.items()}
        specs = manifest["end_to_end"]
        samples = WORK / "samples"
        samples.mkdir(parents=True, exist_ok=True)
        (samples / f"{workload}-seed{seed}.json").write_text(json.dumps(series))
    else:
        traced = [r for r in done if "trace" in r]
        untraced = [r for r in done if "trace" not in r]
        per_run = [_layer_metrics(setups[i % len(setups)], r)
                   for i, r in enumerate(traced)]
        values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        for key in EXACT_COUNTS:
            seen = {m[key] for m in per_run}
            if len(seen) > 1:
                failed[f"count {key}"] = f"differs across runs: {sorted(seen)}"
            values[key] = per_run[0][key]
        if any(r["trace"]["counts"]["lifecycle.failure_counts_seen"] > 1
               for r in traced):
            failed["lifecycle.failures_detected"] = "calls disagree on the count"
        values["trace.overhead_s"] = (
            values["trace.wall_s"] - statistics.median(r["wall_s"] for r in untraced)
            if untraced else 0.0)
        notes = {k: f"median of {len(per_run)} traced runs"
                 for k in values if k not in EXACT_COUNTS}
        print(f"  per-layer self times sum to {values['trace.layer_sum_s']:.3f} s "
              f"of traced wall {values['trace.wall_s']:.3f} s; harness "
              f"{values['bench.self_s']:.3f} s, tracing overhead "
              f"{values['trace.overhead_s']:.3f} s")
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{workload}-seed{seed}.json").write_text(json.dumps(
            [p["spans"] for p in setups + traced if "spans" in p]))
        specs = manifest["per_layer"]
    values["failed_ops_share"] = len(failed) / max(attempted, 1)
    _emit(specs, values, notes, not failed, max(attempted, 1), failed)
    return not failed


def describe(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    print(json.dumps({name: workloads.provenance(w, seed)
                      for name, w in workloads.WORKLOADS.items()}, indent=1))


def smoke() -> bool:
    """Every workload and every check once, traced and untraced, on tiny fleets."""
    ok = True
    for workload in [w["name"] for w in _manifest()["workloads"]] + list(EXTRA_WORKLOADS):
        for trace in (False, True):
            ok &= measure(workload, 1, 0.0, trace, smoke=True)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "drivelife" / "__init__.py").is_file():
        print(f"no drivelife sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.describe:
        describe(args.seed)
        return 0
    if args.smoke:
        return 0 if smoke() else 1
    names = [w["name"] for w in _manifest()["workloads"]] + list(EXTRA_WORKLOADS)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
