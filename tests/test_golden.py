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
        "c88b23cb15ec5b541fec14a0936ba0b000334679aac011741668968dd337019a",
    "ssd/ingest/ssd_dataset.csv":
        "50a88c9cf24910ae06fd38efe2cf791783c0ff5f997283dce885b1e65782cd30",
    "ssd/ingest/ingest_report.json":
        "a40e68e42876768b67f9034fa745311ce3f481d83d5803866e6bee5e8945e6fc",
    "hdd/hdd_telemetry.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/truth.csv":
        "a52744dd726ee57c377f36183bd733abd9f778b5941abb9cb4c0c032a7a05923",
    "hdd/ingest/hdd_dataset.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/ingest/ingest_report.json":
        "77d239cf368fad517668764acde08f3d82d0cf0833b45c28fa7f41ee594b2186",
    "hdd/filtered/hdd_dataset.csv":
        "bc5cd2540ef0ada535d96c7ec6a3bd04b3bacd4b995faf0e5ae4a6d8ec214e57",
    "hdd/filtered/ingest_report.json":
        "6d77151a0bf7b000ddb1f271fa06912da169aca178165b95c6003a109647d677",
    "ssd/failures.csv":
        "761bdf1e0c85071f8774f4ba5c775ee55c125b35a290082e423beb9dc655da34",
    "ssd/periods.csv":
        "b160d7445a231920ffeba157499e6b0a6ed36d327db893fdfe1ccda334657567",
    "ssd/repairs.csv":
        "cc86861b515160c89fedc53e23a0dac0adf2e82f9273a9d19e62a699272e7199",
    "ssd/rates_monthly.csv":
        "526307e00566f74f2ecc8cb895ebd097885ea9b22cc17f72420c4d7be83b28d6",
    "ssd/prefailure_prob.csv":
        "5ea157ab6239ab3927fd3dd368bdc3f0c62892650bab3ce005709a72331d2673",
    "ssd/prefailure_percentiles.csv":
        "8683a9e2eca488400eb186463e5325d11d4c3c6e25d7dc33e9be71740818e946",
    "ssd/examples_ssd_N0.csv":
        "48fa6ce46f5c9e90d1da7053ef5cca4c4d687d20c3565910f03ff7c61512cd02",
    "ssd/examples_ssd_N7.csv":
        "b1f57a47a35a23738f70fb52a37a38a77d492923892ed8a2dd311d0491b0e6c1",
    "hdd/failures.csv":
        "eae98afe03bca5a32fb3937136134f4f9f6375109c4886c908cd72f8cda97511",
    "hdd/periods.csv":
        "0d09371f38b2d589f0302c71d4dd2f122fad994dda1fa20b1b3c864f8ea3b6d6",
    "hdd/repairs.csv":
        "0b7c288fabf6271ff4f33b83b96dfba03ce2ceab886bbb6b312c9b49d2d418df",
    "hdd/rates_monthly.csv":
        "7d27ecdfc6923e073d5624278f73e8655a768c03064e34eaa9195b75423608cf",
    "hdd/prefailure_prob.csv":
        "e9f9286ab85abca5528ff922f5a100aff5b66a9aafff5f5e51a83fcc52b9b605",
    "hdd/prefailure_percentiles.csv":
        "03c09043a54a3c8ae2b0b290b02d4e50d4857802cf3260d0536f2e7b2e7b21a0",
    "hdd/examples_hdd_N0.csv":
        "5498b50a08f53f21c59abd3b671b52e3f3407bbf17c789def8694e7d6ab2730c",
    "hdd/examples_hdd_N7.csv":
        "a5c9c0a6ec72468cfd65359cc62d6c6d90578d14beee480039a2604d90c2f2ab",
    "ssd/rates_pe.csv":
        "2eeecd2811357f4d0428572eb9b01c995d4918db828bc226c23bed9410bb5a1b",
    "ssd/pe_failure_cdf.csv":
        "32f85d96f7dbe63703559a048ab92c0edf0ed6905782b3cebb3d8115ca7a0025",
    "ssd/write_quartiles.csv":
        "3e503e698704458e97cb032c017e54f600e532dd5530ce12c1089d5a444574f8",
    "ssd/manifest.json":
        "81749b82fce4a8a1cba29f79bb417e76cbc539ad6249301407e1e928820a75a1",
    "hdd/rates_hfh.csv":
        "b6a19d035842e31c1b8d57a3cd65e91d8ab007471a0fab6a4ad0a6f70621213e",
    "hdd/manifest.json":
        "aa7cc1c2c45bc46b01618d92c71009fbde0bf5f3a8373e12f1f199a65bc2d91f",
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
        "1a96480848a2bb676e7f0394fd9d66f21ac95756f4ecbcf9552000b7611ce051",
    "hdd-settings/hdd_telemetry.csv":
        "b4bdc69576c20d8cc7d72370122877c6069ba25caa11b76255af7f43b884a06a",
    "hdd-settings/truth.csv":
        "d240caaa77913a9d6aacc9fe1ae3fe9f68bdc5eddc07548bc2730a0e268e98d4",
    "ssd-few/ssd_telemetry.csv":
        "f9ebd4406a2ca2530233ca0965f6bad026c444036a7d271d283ab7019e188e6f",
    "ssd-few/truth.csv":
        "6a70223a72c2f3ff041685863f55164561c88d0a0c73d85572d80f8ba90c8c3c",
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
        "3c5176d95f2024ae9ac8f98f46c86ba87f340199146b26041e97c3851760e040",
    "tree/evaluate/roc.csv":
        "70c60a8421947230eedb919ad5f7f5c02b51d8969a6b256193c23e84a1dcfe78",
    "tree/sweep/sweep.csv":
        "f221b2fd08986404d71494ef8c4c0545916a41b465d866e28251ec0b2964e48c",
    "tree/sweep/eval_report_N0.json":
        "10930051cb126b407b8f24d6320a28770222fd7c470a70627f2e3d93f4ab0d41",
    "tree/sweep/eval_report_N7.json":
        "a39b4d87f50ffe0d21d7e729638add07e01d9508a576fac9fe95519ce7052267",
    "tree/sweep/roc_N0.csv":
        "c83561e363e6419a982465e1292ce37b7969fab51d6c2e6b8bd90345433077d2",
    "tree/sweep/roc_N7.csv":
        "d025f79b780ef1caba760dbd0d309566373ad430cc445c12dc21b592879da891",
    "tree/matrix/matrix.csv":
        "4849b2ef94f0d63fa6b91bf88170c3f5dce93a17543d34eb24eff02ff8d1989b",
    "tree/partition-eval/partition_report.json":
        "e92673abd982ddf0d2168c0c12f064bc70cf81f7f6d8b0eac6759514624443f1",
    "tree/partition-eval/roc_below.csv":
        "a1e24398fe801e1543e8fd5d4783ba2877ad95b622c2b2a574a1957326364e37",
    "tree/partition-eval/roc_above.csv":
        "2056170f12ee7b8e6382ff26b9dfce627ddfcad1d00668d0340976004df7d2f5",
    "tree/partition-eval/roc_unsplit.csv":
        "92301caf5ae5c0bfded7323d7e96961a840f21a1d59dd8dfef124d334f1881d7",
    "tree/evaluate-examples/eval_report.json":
        "6aa53e8cb6cabfa3242abf0f136d05a68bf5b804adafb5958f95c6091c42a602",
    "tree/evaluate-examples/roc.csv":
        "836934e5712db28f3778dbecfc0e2b8ed7a297140a9108c5cc1defd9b9744fdc",
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
