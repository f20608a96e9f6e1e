"""Alternating pairs of benchmark runs, parent against change, and their verdict.

Usage: python tools/abpairs.py PARENT_DIR CHANGE_DIR --workload W --pairs 10
           --seconds S --seed-base B [--claim wall_s]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i runs
``python3 perfbench/run.py --workload W --seed B+i --seconds S --trace 0``
in each checkout, one process at a time; the parent goes first in even
pairs and the change in odd ones, so that both sides see the machine's slow
and fast phases alike.

For every end-to-end metric of the change's BENCHMARK.json it prints each
side's median and quartiles and the pairs the change won (a tie counts for
neither). The ``--claim`` metric holds when the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range. Any other metric is flagged when its median
is worse than the parent's by more than its ``bound``, a fraction of the
parent's median.

The last line of output is the session record, one JSON object: the
workload, seeds, pairs and seconds, ``nproc``, each checkout's ``git
rev-parse HEAD`` (null outside a git work tree), every pair's metrics and
each end-to-end metric's verdict. Saved, it is a ``BENCH_*.json`` file.

Exit status: 0 when the claim holds (or none is made) and nothing is
flagged, 1 otherwise, 2 as soon as a run fails or reports an incorrect
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method: the quartiles of the values themselves."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None = None, claim: bool = False) -> dict:
    """The verdict on one metric from its pairs (``parent[i]``, ``change[i]``).

    ``gain`` is how much better the change's median is than the parent's
    (negative when worse). A claim ``holds`` when the change wins at least
    nine tenths of the pairs and ``gain`` exceeds the parent's
    interquartile range. A metric is ``flagged`` when ``gain`` is below
    ``-bound`` times the parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, non-empty samples of pairs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q, c_q = quartiles(parent), quartiles(change)
    gain = sign * (p_q[1] - c_q[1])
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent),
            "gain": gain,
            "holds": (wins >= math.ceil(0.9 * len(parent)) and gain > p_q[2] - p_q[0]
                      if claim else None),
            "flagged": bound is not None and gain < -bound * abs(p_q[1])}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its result line, or exit 2 on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"] or result["failed"]:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        print(f"{checkout} seed {seed}: the run failed or was incorrect "
              f"(exit code {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    return {name: m["value"] for name, m in result["metrics"].items()}


def head_commit(checkout: Path) -> str | None:
    """``git rev-parse HEAD`` in ``checkout``; None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def session_record(workload: str, seeds: list[int], seconds: float,
                   commits: dict, samples: dict, verdicts: dict) -> dict:
    """The session as one JSON-ready object: what ran, where, every pair's
    metrics (``samples[side][i]``) and each metric's verdict."""
    return {"workload": workload, "seeds": seeds, "pairs": len(seeds),
            "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
            "commits": commits,
            "pair_metrics": [{"seed": seed, "parent": p, "change": c} for seed, p, c
                              in zip(seeds, samples["parent"], samples["change"])],
            "verdicts": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--claim", help="the metric the change claims to improve")
    args = parser.parse_args(argv)
    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim and args.claim not in {s["name"] for s in specs}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")

    samples = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(run_once(getattr(args, side), args.workload,
                                          seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{s['name']} {samples['parent'][-1][s['name']]:.4g} -> "
            f"{samples['change'][-1][s['name']]:.4g}" for s in specs), flush=True)

    ok = True
    verdicts = {}
    for spec in specs:
        name = spec["name"]
        v = verdicts[name] = verdict([r[name] for r in samples["parent"]],
                                     [r[name] for r in samples["change"]],
                                     spec["better"], spec.get("bound"),
                                     claim=name == args.claim)
        p, c = v["parent"], v["change"]
        notes = [] if v["holds"] is None else [
            "claim holds" if v["holds"] else "claim fails"]
        if v["flagged"]:
            notes.append(f"worse by more than its bound {spec['bound']}")
        ok &= v["holds"] is not False and not v["flagged"]
        moved = f" ({c[1] / p[1] - 1:+.1%} in the median)" if p[1] else ""
        print(f"{name:12s} parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
              f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] {spec['unit']}  "
              f"change better in {v['wins']}/{v['pairs']}{moved}"
              + "".join(f"  {n}" for n in notes))
    seeds = [args.seed_base + i for i in range(args.pairs)]
    commits = {side: head_commit(getattr(args, side)) for side in samples}
    print(json.dumps(session_record(args.workload, seeds, args.seconds, commits,
                                    samples, verdicts)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
