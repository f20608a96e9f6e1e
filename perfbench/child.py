"""One benchmark process: set up a workload's input, or run its timed pipeline.

run.py starts a fresh ``setup`` process for every set-up sample, so
interpreter start, imports and fleet generation are set-up time. It then
starts one ``run`` process, which imports drivelife once and forks a fresh
process for every run of the timed pipeline: each run starts from the same
freshly imported state, nothing one run caches reaches the next, and the
run's peak RSS (imports included) belongs to that run alone.

    python3 perfbench/child.py {setup,run} WORKLOAD --seed N --result FILE
                               [--budget S] [--min-runs K] [--trace] [--smoke]

``run`` forks runs while the next one is expected to end within ``--budget``
seconds, and at least ``--min-runs``; with ``--trace`` every other run is
traced. The working directory is the workload's scratch directory. The result
is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Upper limit on the runs one process forks.
MAX_RUNS = 60


def _import_drivelife():
    """Import drivelife from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import drivelife

    if Path(drivelife.__file__).resolve().parent != (src / "drivelife").resolve():
        raise SystemExit(f"drivelife imported from {drivelife.__file__}, "
                         f"not from {src}")
    return drivelife


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _held_bytes_per_record(workload, work: Path) -> float:
    """Bytes the parsed dataset holds, per record, measured with tracemalloc."""
    import tracemalloc

    from drivelife import ingest

    family = workload.params["fleet"]["family"]
    parse = ingest.parse_ssd_log if family == "ssd" else ingest.parse_hdd_csv
    parse = getattr(parse, "__wrapped__", parse)  # no span for this extra parse
    gc.collect()
    tracemalloc.start()
    try:
        with open(work / workload.input_file) as handle:
            ds = parse(handle)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / max(ds.n_records, 1)


def _one_run(workload, params: dict, work: Path, trace: bool) -> dict:
    """Run the timed pipeline once in this process and return its result."""
    import spans
    import workloads

    drivelife = sys.modules["drivelife"]
    tracer = spans.Tracer(f"run-{time.time_ns()}") if trace else None
    if tracer is not None:
        tracer.install(drivelife)
    ops = workloads.Ops()
    info: dict = {}
    gc.collect()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with contextlib.suppress(workloads.Abort), \
            (tracer.span("bench.run") if tracer else contextlib.nullcontext()):
        info = workload.run(work, params, ops)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kib / 1024.0,
              "info": info, "digest": ops.digest, "attempted": ops.attempted,
              "failed": ops.failed}
    if tracer is not None:
        if not ops.failed:
            result["held_bytes_per_record"] = _held_bytes_per_record(workload, work)
        result["trace"] = spans.summarize(tracer)
        result["spans"] = tracer.spans
    return result


def _forked_run(workload, params: dict, work: Path, trace: bool) -> dict:
    """Run the pipeline once in a forked process and collect its result."""
    out = work / "run_fork.json"
    out.unlink(missing_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out.write_text(json.dumps(_one_run(workload, params, work, trace)))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not out.exists():
        return {"attempted": 1, "failed": {"run": f"run process exit code {code}"}}
    return json.loads(out.read_text())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "run"])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-runs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    drivelife = _import_drivelife()
    import spans
    import workloads

    work = Path.cwd()
    workload = workloads.WORKLOADS[args.workload]
    params = workload.sized(args.smoke)

    if args.role == "setup":
        tracer = spans.Tracer(f"setup-{time.time_ns()}") if args.trace else None
        if tracer is not None:
            tracer.install(drivelife)
        ops = workloads.Ops()
        with contextlib.suppress(workloads.Abort), \
                (tracer.span("bench.setup") if tracer else contextlib.nullcontext()):
            workload.setup(work, params["fleet"], args.seed, ops)
        result: dict = {"attempted": ops.attempted, "failed": ops.failed}
        if tracer is not None:
            result["trace"] = spans.summarize(tracer)
            result["spans"] = tracer.spans
    else:
        runs: list[dict] = []
        while len(runs) < MAX_RUNS:
            t = time.monotonic()
            runs.append(_forked_run(workload, params, work,
                                    args.trace and len(runs) % 2 == 0))
            now = time.monotonic()
            if runs[-1]["failed"]:
                break
            if len(runs) >= args.min_runs and now + (now - t) > start + args.budget:
                break
        result = {"attempted": sum(r["attempted"] for r in runs),
                  "failed": {k: v for r in runs for k, v in r["failed"].items()},
                  "runs": runs}
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
