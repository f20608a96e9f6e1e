"""Run the fixed CLI round trip and print the sha256 of every artifact.

Usage: PYTHONPATH=src python tools/roundtrip.py OUTDIR [--compare LISTING]

The SSD side is the README fleet (400 drives x 240 days, seed 7):
ingest, lifecycle, characterize, featurize at lookaheads 0,1,2,7, evaluate
rf and report in ``run/``; train, sweep and matrix for rf, tree and logreg;
partition-eval age:90; evaluate logreg from the input (with its report)
and from ``examples_ssd_N7.csv``. The HDD side is 120 drives x 120 days,
seed 3: ingest, lifecycle, characterize and featurize 0,7 in ``hdd/``, train
rf, evaluate logreg. Ingest runs first, so the subcommands after it in
``run/`` and ``hdd/`` load the dataset it stored, and the others parse. It
prints one ``sha256  path`` line per file under OUTDIR, sorted.

With ``--compare LISTING`` the run's lines are diffed against a listing
saved from an earlier run, into this or any other OUTDIR (for instance
before a refactor): the differing lines are printed as a unified diff and
the exit status is 1, or 0 when every artifact and its path are equal.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import sys
from pathlib import Path

from drivelife.cli import run

SSD_FLEET = {"family": "ssd", "n_drives": 400, "horizon_days": 240,
             "models": {"MLC-A": 0.12, "MLC-B": 0.15},
             "bursts": [{"kind": "uncorrectable", "mean": 8.0, "days": 2}]}
HDD_FLEET = {"family": "hdd", "n_drives": 120, "horizon_days": 120}
HYPER = {"rf": '{"n_trees": 10, "max_depth": 8}', "tree": '{"max_depth": 8}',
         "logreg": "{}"}


def _cli(*argv) -> None:
    code = run([str(a) for a in argv])
    if code != 0:
        sys.exit(f"drivelife {' '.join(map(str, argv))} exited {code}")


def _model(kind: str) -> list:
    return ["--model", kind, "--hyper", HYPER[kind]]


def roundtrip(out: Path) -> None:
    ssd, hdd = out / "run", out / "hdd"
    for fleet, seed, directory in ((SSD_FLEET, 7, ssd), (HDD_FLEET, 3, hdd)):
        directory.mkdir(parents=True, exist_ok=True)
        config = directory / "fleet.json"
        config.write_text(json.dumps(fleet))
        _cli("synth", "--config", config, "--seed", seed, "--out", directory)

    src = ["--family", "ssd", "--input", ssd / "ssd_telemetry.csv"]
    _cli("ingest", *src, "--out", ssd)
    _cli("lifecycle", *src, "--out", ssd)
    _cli("characterize", *src, "--seed", 7, "--out", ssd)
    _cli("featurize", *src, "--lookahead", "0,1,2,7", "--out", ssd)
    _cli("evaluate", *src, "--lookahead", 0, *_model("rf"), "--folds", 5,
         "--seed", 7, "--out", ssd)
    _cli("report", "--out", ssd)
    for kind in ("rf", "tree", "logreg"):
        _cli("train", *src, "--lookahead", 7, *_model(kind), "--seed", 7,
             "--out", out / f"train_{kind}")
        _cli("sweep", *src, "--lookahead", "0,1,2,7", *_model(kind),
             "--folds", 5, "--seed", 7, "--out", out / f"sweep_{kind}")
        _cli("matrix", *src, "--lookahead", 7, *_model(kind), "--folds", 5,
             "--seed", 7, "--out", out / f"matrix_{kind}")
    _cli("partition-eval", *src, "--lookahead", 7, "--partition", "age:90",
         *_model("logreg"), "--folds", 5, "--seed", 7, "--out", out / "part")
    _cli("evaluate", *src, "--lookahead", 7, *_model("logreg"), "--folds", 5,
         "--seed", 7, "--out", out / "eval_logreg")
    _cli("report", "--out", out / "eval_logreg")
    _cli("evaluate", "--examples", ssd / "examples_ssd_N7.csv", "--lookahead", 7,
         *_model("logreg"), "--folds", 5, "--seed", 7,
         "--out", out / "eval_examples")

    src = ["--family", "hdd", "--input", hdd / "hdd_telemetry.csv"]
    _cli("ingest", *src, "--out", hdd)
    _cli("lifecycle", *src, "--out", hdd)
    _cli("characterize", *src, "--seed", 3, "--out", hdd)
    _cli("featurize", *src, "--lookahead", "0,7", "--out", hdd)
    _cli("train", *src, "--lookahead", 7, *_model("rf"), "--seed", 3,
         "--out", hdd / "train")
    _cli("evaluate", *src, "--lookahead", 7, *_model("logreg"), "--folds", 5,
         "--seed", 3, "--out", hdd / "eval_logreg")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="LISTING",
                        help="a saved listing to diff this run's listing against")
    args = parser.parse_args()
    saved = None if args.compare is None else args.compare.read_text().splitlines()
    out = args.outdir.resolve()
    roundtrip(out)
    listing = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
               for path in sorted(p for p in out.rglob("*") if p.is_file())]
    print("\n".join(listing))
    if saved is not None:
        diff = list(difflib.unified_diff(saved, listing, str(args.compare), "this run",
                                         lineterm=""))
        print("\n".join(diff) if diff else
              f"all {len(listing)} artifacts equal to {args.compare}", file=sys.stderr)
        sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
