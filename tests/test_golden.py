"""Golden bytes for the count-only CLI artifacts.

``synth`` -> ``lifecycle`` -> ``characterize`` -> ``featurize --lookahead
0,7`` runs on a small SSD fleet and a small HDD fleet, and each artifact
below must hash to the value recorded when the table was made. These
artifacts hold counts, days and ratios of counts only (no BLAS, no
floating-point reductions), so their bytes do not depend on the machine.
The ``--input`` paths are relative, because the config hash written into
every artifact covers the path string.

A change that alters one of these files on purpose updates its hash here
and says why.
"""

import hashlib
import json
from pathlib import Path

from drivelife.cli import run

FLEETS = {
    "ssd": ({"family": "ssd", "n_drives": 80, "horizon_days": 90,
             "models": {"MLC-A": 0.3, "MLC-B": 0.4},
             "error_incidence": {"correctable": 0.5, "uncorrectable": 0.02},
             "bursts": [{"kind": "uncorrectable", "mean": 6.0, "days": 3}]}, 5),
    "hdd": ({"family": "hdd", "n_drives": 50, "horizon_days": 90,
             "models": {"ST-A": 0.4, "ST-B": 0.3},
             "error_incidence": {"smart_5": 0.01, "smart_187": 0.01},
             "bursts": [{"kind": "smart_187", "mean": 4.0, "days": 3}]}, 9),
}

ARTIFACTS = ("failures.csv", "periods.csv", "repairs.csv", "rates_monthly.csv",
             "prefailure_prob.csv", "prefailure_percentiles.csv",
             "examples_{family}_N0.csv", "examples_{family}_N7.csv")

GOLDEN = {
    "ssd/failures.csv":
        "d0a15e5d6555201d7ef44662605947b50d5f00e641fe3cfc8f2bbefb4e9b1537",
    "ssd/periods.csv":
        "803dce781330c749af418a7ff1ac3c47256ef912bcdc25abd1ef60a32abf4d2d",
    "ssd/repairs.csv":
        "f14e7998159104b30b84994688c3e4f1073ec65f9b5b697e11f9c32c0fb7c70a",
    "ssd/rates_monthly.csv":
        "a1d0da0d37632b63311d396de2f75fe4afd8448b9d6ac44aeb5497450877c8cb",
    "ssd/prefailure_prob.csv":
        "811feca143d340ce7ee0332a5f26a170a15702562bd63c6aa065fa7686b3dc1a",
    "ssd/prefailure_percentiles.csv":
        "b2f8528435a1cf190b07397c7baa1f213b88ea8f1d5f4f0eb3a24b034aa5ba59",
    "ssd/examples_ssd_N0.csv":
        "5ad96dca1a6d5d2c6581b3fc8f3f2917ee90f71ddcbcf79d2309a219ec15b7db",
    "ssd/examples_ssd_N7.csv":
        "5f624ef5d5d6c3180f42b4367f09d45fbbfea6a42bfb06fe83a83f1369f7c91d",
    "hdd/failures.csv":
        "d6a0b0d39a2e7a14ea176445aa3d3b5e2f3cff733552e9012642d2e91ccad391",
    "hdd/periods.csv":
        "75d3a2b8719ec2196dc32c8a8cf412fc7a0b991c14149ae4537b7c83a22521ab",
    "hdd/repairs.csv":
        "9cecf872527de593a33e5362e6dc4a3f1d954bb96bc9e9a2ce753c58212b204a",
    "hdd/rates_monthly.csv":
        "58e07835d570d384d2acda8c3a5a2ce30e50059e64006c301aedcfbcde58f252",
    "hdd/prefailure_prob.csv":
        "55734897084747c674cf409dadb3d5e93082b56ada6c1838a3a6082386ee125b",
    "hdd/prefailure_percentiles.csv":
        "40031651ae4de7301a9af9179982673284145f5607620a2f708ff3a103cbc73b",
    "hdd/examples_hdd_N0.csv":
        "e01e7e6b752bbe3d22a5d06749862a5d22f082c089ef656b980c15146ebc0ced",
    "hdd/examples_hdd_N7.csv":
        "c676bbc94b63597e84a73a22f3bbd5311c6d2f94b974cd5d3b870606fde1bae6",
}


def artifact_hashes(workdir: Path) -> dict:
    """Run the four subcommands in ``workdir``; sha256 of every artifact."""
    hashes = {}
    for family, (fleet, seed) in FLEETS.items():
        (workdir / f"{family}.json").write_text(json.dumps(fleet))
        source = ["--family", family, "--input",
                  f"{family}/{family}_telemetry.csv", "--out", family]
        for argv in (["synth", "--config", f"{family}.json", "--out", family],
                     ["lifecycle", *source],
                     ["characterize", *source],
                     ["featurize", *source, "--lookahead", "0,7"]):
            assert run([*argv, "--seed", str(seed)]) == 0, argv
        for name in ARTIFACTS:
            name = name.format(family=family)
            data = (workdir / family / name).read_bytes()
            hashes[f"{family}/{name}"] = hashlib.sha256(data).hexdigest()
    return hashes


def test_count_only_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_hashes(tmp_path) == GOLDEN
