"""Golden bytes for the count-only CLI artifacts.

``synth`` -> ``ingest`` -> ``lifecycle`` -> ``characterize`` ->
``featurize --lookahead 0,7`` runs on a small SSD fleet and a small HDD
fleet, and one more ``ingest`` filters the HDD fleet by model and date
window. Each artifact below must hash to the value recorded when the
table was made. These artifacts hold counts, days and ratios of counts
only (no BLAS, no floating-point reductions), so their bytes do not
depend on the machine.

The tree-model evaluation artifacts (``evaluate``, ``sweep``, ``matrix``
and ``partition-eval`` with ``--model tree`` on the small SSD fleet; each
evaluation's JSON report and its ROC CSV) are pinned the same way: a tree's scores are leaf fractions, its thresholds
midpoints of feature values, and AUROC and ROC rates are ratios of
counts, so no BLAS is involved either.

``evaluate --examples`` with ``--model tree`` on the featurized N7 table
is pinned too: it reads the examples CSV back, so its drive column becomes
the folds through the reader, not through the dataset.

The generator's own settings are pinned by ``synth`` alone on three more
fleets (:data:`SYNTH_FLEETS`), whose telemetry and truth files must hash
to :data:`SYNTH_GOLDEN`. Between them they use every setting the fleets
above leave at its default or do not reach: an infant hazard multiplier
(which an HDD fleet ignores), an HFH effect, confounders of each feature
kind and age class, bursts for young and for old failures, a burst with a
probability below 1, bursts longer than their segment and of a kind with
no incidence, a model with target 0, re-entry probabilities 0 and 1, and
fewer drives than models.

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

ARTIFACTS = ("{family}_telemetry.csv", "truth.csv", "failures.csv",
             "periods.csv", "repairs.csv", "rates_monthly.csv",
             "prefailure_prob.csv", "prefailure_percentiles.csv",
             "examples_{family}_N0.csv", "examples_{family}_N7.csv",
             "ingest/{family}_dataset.csv", "ingest/ingest_report.json")

#: Artifacts only one family writes: the P/E and write-intensity analyses
#: (SSD), the HFH sweep (HDD), and the synth manifest with its calibration.
FAMILY_ARTIFACTS = {
    "ssd": ("rates_pe.csv", "pe_failure_cdf.csv", "write_quartiles.csv",
            "manifest.json"),
    "hdd": ("rates_hfh.csv", "manifest.json"),
}

#: ``ingest`` through the model and date filter, into ``hdd/filtered``.
HDD_FILTER = ["--models", "ST-A", "--from", "2014-02-01", "--to", "2014-03-15"]
FILTERED = ("hdd/filtered/hdd_dataset.csv", "hdd/filtered/ingest_report.json")

GOLDEN = {
    "ssd/ssd_telemetry.csv":
        "50a88c9cf24910ae06fd38efe2cf791783c0ff5f997283dce885b1e65782cd30",
    "ssd/truth.csv":
        "ea24415c446dd62e52e568701a5c22e3bd898c5a830385006fdd9f1ff302bf5c",
    "ssd/ingest/ssd_dataset.csv":
        "50a88c9cf24910ae06fd38efe2cf791783c0ff5f997283dce885b1e65782cd30",
    "ssd/ingest/ingest_report.json":
        "a40e68e42876768b67f9034fa745311ce3f481d83d5803866e6bee5e8945e6fc",
    "hdd/hdd_telemetry.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/truth.csv":
        "324123c2592b2c191bc8184e6eaf3accd5e662ce28168757fbffba42716dcc33",
    "hdd/ingest/hdd_dataset.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/ingest/ingest_report.json":
        "77d239cf368fad517668764acde08f3d82d0cf0833b45c28fa7f41ee594b2186",
    "hdd/filtered/hdd_dataset.csv":
        "bc5cd2540ef0ada535d96c7ec6a3bd04b3bacd4b995faf0e5ae4a6d8ec214e57",
    "hdd/filtered/ingest_report.json":
        "eca16da7ece2914318239842fff239d6efb4aaa2120bad795f913fb5a93d605d",
    "ssd/failures.csv":
        "761bdf1e0c85071f8774f4ba5c775ee55c125b35a290082e423beb9dc655da34",
    "ssd/periods.csv":
        "b160d7445a231920ffeba157499e6b0a6ed36d327db893fdfe1ccda334657567",
    "ssd/repairs.csv":
        "cc86861b515160c89fedc53e23a0dac0adf2e82f9273a9d19e62a699272e7199",
    "ssd/rates_monthly.csv":
        "6afc86d7a33afa2f34ec5deb816d9ce6b9da190b0bfbda16a0fc5b970b8743ad",
    "ssd/prefailure_prob.csv":
        "f3c58e5428879bcec00321a18c376512a02a5d07e52631c3e453d3147fdc26f5",
    "ssd/prefailure_percentiles.csv":
        "c3d57c1b5f83152dcdb23e1d057a79b1569f0a413402f98b21c2e7640f4675a0",
    "ssd/examples_ssd_N0.csv":
        "29d8800a2e7b59521c7b6b196795778f143a96be645f1bed4431d729d7f0fbe0",
    "ssd/examples_ssd_N7.csv":
        "4a5b54c7bc0b3eb6634e4d70f12518cde52984d36aa1a62d0bc504897c0e43c1",
    "hdd/failures.csv":
        "eae98afe03bca5a32fb3937136134f4f9f6375109c4886c908cd72f8cda97511",
    "hdd/periods.csv":
        "0d09371f38b2d589f0302c71d4dd2f122fad994dda1fa20b1b3c864f8ea3b6d6",
    "hdd/repairs.csv":
        "0b7c288fabf6271ff4f33b83b96dfba03ce2ceab886bbb6b312c9b49d2d418df",
    "hdd/rates_monthly.csv":
        "8a6c662a9c0949f6461337b128271c899b6f056f23686c9df6e43b5afe1eb749",
    "hdd/prefailure_prob.csv":
        "e4cb416c30ec5a1e523193d802506164cb0ccd74971f4399d13055439d9ce0fc",
    "hdd/prefailure_percentiles.csv":
        "a3c9823b2efc09910bc9a90298cf4d711333f6b90984a150a225c59c4826fe7d",
    "hdd/examples_hdd_N0.csv":
        "592c1c07171801b8ce860dda8db1574bf907f83af96cd2126ee5cf9311807643",
    "hdd/examples_hdd_N7.csv":
        "81ec9fd12c728e3876beecdc74071cf3f61141a06bf4c928cae01ec7a01ddc24",
    "ssd/rates_pe.csv":
        "8357551928f52c45a81060781424414d4b7c0db2132b2fc135bacb56dc49a7fe",
    "ssd/pe_failure_cdf.csv":
        "03fd810ad11ec11b9ddefe3c5d0ee3631ea737ec3e5e5d6c3394e478142e2e96",
    "ssd/write_quartiles.csv":
        "635f2aeaa99b967ae5cdd20b4722a623991bb27b394c34bec55f7ba569559c16",
    "ssd/manifest.json":
        "d695ed1d935d74fa5d6829a9d59705619faa1b70cb1bbd93f81d5bd45d7b18ba",
    "hdd/rates_hfh.csv":
        "5a081e819e9c7fc78b0c58d65c77f12c104736e7e48216b280d564ae7946fcef",
    "hdd/manifest.json":
        "8f5e357e83596105ffb7c44de59fea05bcadbe35e62ce84d8e76d9ab8fa1142a",
}


SYNTH_FLEETS = {
    "ssd-settings": ({
        "family": "ssd", "n_drives": 40, "horizon_days": 60,
        "models": {"MLC-A": 0.5, "MLC-B": 0.0, "MLC-C": 0.3},
        "infant_hazard_multiplier": 4.0, "infant_period_days": 20,
        "error_incidence": {"correctable": 0.3, "uncorrectable": 0.02,
                            "timeout": 0.01},
        "bursts": [
            {"kind": "uncorrectable", "mean": 5.0, "days": 40, "age_class": "young"},
            {"kind": "erase", "mean": 3.0, "days": 2, "probability": 0.5,
             "age_class": "old"},
            {"kind": "final_read", "mean": 2.5, "days": 3}],
        "confounders": [
            {"feature": "write_ops", "rate": 0.1, "mean": 100.0},
            {"feature": "read_ops", "rate": 0.05, "mean": 80.0, "age_class": "young"},
            {"feature": "meta", "rate": 0.05, "mean": 3.0, "age_class": "old"}],
        "reentry_probability": 1.0, "reentry_gap_mean_days": 5.0}, 11),
    "hdd-settings": ({
        "family": "hdd", "n_drives": 30, "horizon_days": 60,
        "models": {"ST-A": 0.4, "ST-B": 0.0, "ST-C": 0.2},
        "infant_hazard_multiplier": 4.0, "infant_period_days": 20,
        "hfh_effect": 3.0, "hfh_threshold": 300.0, "hfh_high_fraction": 0.4,
        "error_incidence": {"smart_5": 0.02, "smart_187": 0.01, "uncorrectable": 0.5},
        "bursts": [
            {"kind": "smart_187", "mean": 4.0, "days": 90, "age_class": "young"},
            {"kind": "smart_197", "mean": 2.0, "days": 3, "probability": 0.5,
             "age_class": "old"},
            {"kind": "uncorrectable", "mean": 5.0, "days": 3}],
        "reentry_probability": 0.0}, 13),
    "ssd-few": ({
        "family": "ssd", "n_drives": 2, "horizon_days": 30,
        "models": {"MLC-A": 0.3, "MLC-B": 0.6, "MLC-C": 0.9}}, 17),
}

SYNTH_GOLDEN = {
    "ssd-settings/ssd_telemetry.csv":
        "5574579e3cd4f3c8535e85a8fefc8f9ca0cc203c1332335789f9b3f80fa9d071",
    "ssd-settings/truth.csv":
        "6ef70debba6d6e02bc6177152cdbc5cf63b36223ae08ae8a1144d7467b19bf27",
    "hdd-settings/hdd_telemetry.csv":
        "b4bdc69576c20d8cc7d72370122877c6069ba25caa11b76255af7f43b884a06a",
    "hdd-settings/truth.csv":
        "cc7d350a2fd97a5f29b12f02a8a28d5adec33a9add2de519817f50b079094f00",
    "ssd-few/ssd_telemetry.csv":
        "f9ebd4406a2ca2530233ca0965f6bad026c444036a7d271d283ab7019e188e6f",
    "ssd-few/truth.csv":
        "56b002c7efde100a527d677375f05a4ea8466bb7b616f3f9abdd6e24d32187c2",
}

#: ``--model tree`` runs on the SSD fleet, each into ``tree/<subcommand>``.
TREE_MODEL = ["--model", "tree", "--hyper", '{"min_samples_leaf": 5}']
TREE_RUNS = {
    "evaluate": (["--lookahead", "7"], ("eval_report.json", "roc.csv")),
    "sweep": (["--lookahead", "0,7"],
              ("sweep.csv", "eval_report_N0.json", "eval_report_N7.json",
               "roc_N0.csv", "roc_N7.csv")),
    "matrix": (["--lookahead", "7"], ("matrix.csv",)),
    "partition-eval": (["--lookahead", "7", "--partition", "age:30"],
                       ("partition_report.json", "roc_below.csv",
                        "roc_above.csv", "roc_unsplit.csv")),
}

#: ``evaluate --examples`` on the N7 table that ``featurize`` writes into
#: ``ssd``, into ``tree/evaluate-examples``.
EXAMPLES_RUN = (["evaluate", "--examples", "ssd/examples_ssd_N7.csv",
                 "--lookahead", "7"], ("eval_report.json", "roc.csv"))

TREE_GOLDEN = {
    "tree/evaluate/eval_report.json":
        "8a7f46a93087254b661eb32e21d67413c2603e322676b4d9df502b51f3fca928",
    "tree/evaluate/roc.csv":
        "fa62cb293478acebe278f7b5ad7899ac3279cdf3244a669e2c066d9df82c160c",
    "tree/sweep/sweep.csv":
        "b4578585625610e5e7a856969b0ab533a39f942d23d7d150103466158a29f89d",
    "tree/sweep/eval_report_N0.json":
        "90e36959555816a6cef412465938e22db2bedc6d4e14efe41c238dee62123556",
    "tree/sweep/eval_report_N7.json":
        "e69ab699952e6f80f196558a017a7e2cf33597ecf2860511de28be639d6aeac7",
    "tree/sweep/roc_N0.csv":
        "41183586e038291f208994a9eb4c57e50ae74026f13223dd70028695d07aa91e",
    "tree/sweep/roc_N7.csv":
        "e470a8303f8b44e901b4dd0be9a5be57d254de2c9f45a0a2ec57b7dc5502d16e",
    "tree/matrix/matrix.csv":
        "c5a34cf8a361fd39eb66300442334dd0e475d9b9db964dec37c5ac20c6203bcd",
    "tree/partition-eval/partition_report.json":
        "d1d9c817b6b65876bf5b5c7d66ae421685d6d0c2cc870d810c4385dc47a71c85",
    "tree/partition-eval/roc_below.csv":
        "7b97794eaa9ebac9296ec932b69caca2dac657f96987db704942889c2d48f733",
    "tree/partition-eval/roc_above.csv":
        "8da74d148d8bf196c1133c4050682398cf9020757ea128f3af49dc6ec1265b55",
    "tree/partition-eval/roc_unsplit.csv":
        "dd68ad4229afa91c8638980344faf57916d8e0b7e8197a3ace64d05351604105",
    "tree/evaluate-examples/eval_report.json":
        "d62a2f1ec900b39f510a027ec17eafd93e2997e7f09b814b80d959384707a6fa",
    "tree/evaluate-examples/roc.csv":
        "47b047191efdc032158eba7883f0ff82641509e4a520b3ab7de3df7b4a64e582",
}


def _synth(workdir: Path, family: str) -> list:
    """Write the fleet config, run ``synth``; the ``--family``/``--input`` flags."""
    fleet, seed = FLEETS[family]
    (workdir / f"{family}.json").write_text(json.dumps(fleet))
    argv = ["synth", "--config", f"{family}.json", "--out", family,
            "--seed", str(seed)]
    assert run(argv) == 0, argv
    return ["--family", family, "--input", f"{family}/{family}_telemetry.csv"]


def _sha256(workdir: Path, names) -> dict:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in names}


def artifact_hashes(workdir: Path) -> dict:
    """Run the five subcommands in ``workdir``; sha256 of every artifact."""
    names = []
    for family, (_, seed) in FLEETS.items():
        source = _synth(workdir, family)
        out = ["--out", family]
        for argv in (["ingest", *source, "--out", f"{family}/ingest"],
                     ["lifecycle", *source, *out],
                     ["characterize", *source, *out],
                     ["featurize", *source, *out, "--lookahead", "0,7"]):
            assert run([*argv, "--seed", str(seed)]) == 0, argv
        names += [f"{family}/" + name.format(family=family)
                  for name in ARTIFACTS + FAMILY_ARTIFACTS[family]]
    argv = ["ingest", "--family", "hdd", "--input", "hdd/hdd_telemetry.csv",
            *HDD_FILTER, "--out", "hdd/filtered"]
    assert run(argv) == 0, argv
    return _sha256(workdir, names + list(FILTERED))


def tree_artifact_hashes(workdir: Path) -> dict:
    """Run the five ``--model tree`` evaluations; sha256 of every artifact."""
    source = _synth(workdir, "ssd")
    seed = ["--seed", str(FLEETS["ssd"][1])]
    assert run(["featurize", *source, "--lookahead", "7", "--out", "ssd", *seed]) == 0
    runs = {f"tree/{command}": ([command, *source, *flags], artifacts)
            for command, (flags, artifacts) in TREE_RUNS.items()}
    runs["tree/evaluate-examples"] = EXAMPLES_RUN
    names = []
    for out, (argv, artifacts) in runs.items():
        argv = [*argv, *TREE_MODEL, *seed, "--out", out]
        assert run(argv) == 0, argv
        names += [f"{out}/{name}" for name in artifacts]
    return _sha256(workdir, names)


def synth_hashes(workdir: Path) -> dict:
    """Run ``synth`` on each of :data:`SYNTH_FLEETS`; sha256 of its telemetry
    and truth files."""
    names = []
    for out, (fleet, seed) in SYNTH_FLEETS.items():
        (workdir / f"{out}.json").write_text(json.dumps(fleet))
        argv = ["synth", "--config", f"{out}.json", "--out", out, "--seed", str(seed)]
        assert run(argv) == 0, argv
        names += [f"{out}/{fleet['family']}_telemetry.csv", f"{out}/truth.csv"]
    return _sha256(workdir, names)


def test_count_only_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_hashes(tmp_path) == GOLDEN


def test_tree_evaluation_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert tree_artifact_hashes(tmp_path) == TREE_GOLDEN


def test_synth_settings_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert synth_hashes(tmp_path) == SYNTH_GOLDEN
