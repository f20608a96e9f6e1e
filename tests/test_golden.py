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

The ``--input`` paths are relative, because the config hash written into
every artifact covers the path string.

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
        "7adb5c69e504bb9ff8de4390b67a3182a09e8fab591c0efd75e76cb7235b1a1c",
    "ssd/ingest/ssd_dataset.csv":
        "50a88c9cf24910ae06fd38efe2cf791783c0ff5f997283dce885b1e65782cd30",
    "ssd/ingest/ingest_report.json":
        "a56ff36b8e1af202e8b1e8ffbc1f21721bf946ad80319a04560455475ae7880a",
    "hdd/hdd_telemetry.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/truth.csv":
        "d98a472406f749b4e35a9b72fbe1cfb021bf253ab16652d42be4125561aae915",
    "hdd/ingest/hdd_dataset.csv":
        "e4f89c8962aaf95b98eaad2f1ccee15906817a3e13a8e9df3b24c34c4dcb0688",
    "hdd/ingest/ingest_report.json":
        "b9640b171f0bc746200afef73d20c97634bf15fb3bdcbc7c44c90233313952ee",
    "hdd/filtered/hdd_dataset.csv":
        "bc5cd2540ef0ada535d96c7ec6a3bd04b3bacd4b995faf0e5ae4a6d8ec214e57",
    "hdd/filtered/ingest_report.json":
        "76a16fda7369f501e69f12a3e3c59785fecb847a573e3afa435d867a1564440b",
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
    "ssd/rates_pe.csv":
        "dee515fd7b70af47c7a622b3c9ea7d60c1c99774aeac3cb03328be5c4d50bd4b",
    "ssd/pe_failure_cdf.csv":
        "a9063bad2562e43690144372c51ebf422cdc014ff049f5127ba513bc11e1a314",
    "ssd/write_quartiles.csv":
        "9494395f109bad24f889bd8c9a8f0121937575e5c930ae2ad4263b0c1f041c44",
    "ssd/manifest.json":
        "798d768527021dbfe1e37cf6991a5c153338b27a55c8c835edb25bd56cd0dfc8",
    "hdd/rates_hfh.csv":
        "8f940fc3ac16b83e086668e5a0038d6045c8eb49fdff862a9d4c5cee5108a55e",
    "hdd/manifest.json":
        "da09c34ef3debb7cf5446400614738eb4ebe49a8024d018716fb7ab2a200d7cf",
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
        "8ea70b336bf89ad536085ea2124372e0c3bfaaf3e28412ab59a9d559d2e596db",
    "hdd-settings/hdd_telemetry.csv":
        "b4bdc69576c20d8cc7d72370122877c6069ba25caa11b76255af7f43b884a06a",
    "hdd-settings/truth.csv":
        "0516f805ffe8d45f8e83c3b1c4ef506204e44be3025adc71f5235872ed86cde9",
    "ssd-few/ssd_telemetry.csv":
        "f9ebd4406a2ca2530233ca0965f6bad026c444036a7d271d283ab7019e188e6f",
    "ssd-few/truth.csv":
        "fd3b23e1a73cd9975515c5651fd3927b2081bd90004fc583b80b1adcdb0284b3",
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
        "b83e87c69ed8906a2172d5aa009f433c68cfe51d0b9687972f4f869fd7400678",
    "tree/evaluate/roc.csv":
        "20cbbf1e1d233b6bf552941b5fa04f0be3433ae3d590b3b5203c4fa152f2b5b6",
    "tree/sweep/sweep.csv":
        "bd742facc52a7954ceea999398666b776ddc0fbc3210013188caeab11b186dc0",
    "tree/sweep/eval_report_N0.json":
        "58e77dc335b989e1a164de56d3191fe9ec1cc74676f91de59402a6da472e3835",
    "tree/sweep/eval_report_N7.json":
        "42b472a9e963e0b351572cef77af5b35d8cdb23f91454289683517d9352d6587",
    "tree/sweep/roc_N0.csv":
        "f91685ccf6de14beebeb971a726c73047cbb2873d45ca7b9837d1f1e1dac2e10",
    "tree/sweep/roc_N7.csv":
        "950ea13214ce6669f43d45d5221d30fb32bfad5ddac88583afab0df9a2751da1",
    "tree/matrix/matrix.csv":
        "4ac0e94e4fb6070eca6f940057e6b438719b34659daaa00a71ce89870f874be7",
    "tree/partition-eval/partition_report.json":
        "32bfd7a504105aff9c377f5950297d69573218eaefb2e9a10b729eb0928a7f32",
    "tree/partition-eval/roc_below.csv":
        "1c282b623d36ead744e8b185bf6733df935986e1a099fe47175e42188c9b1fb9",
    "tree/partition-eval/roc_above.csv":
        "42d11dc87401c2d501cdd52c2463010a1470eaa22dfaed7be5b430c5db52a3ad",
    "tree/partition-eval/roc_unsplit.csv":
        "0dd98dbf5fd7e23c3543fc7aada1370a1488e02fd728fa7ac1b329e221e14e49",
    "tree/evaluate-examples/eval_report.json":
        "1855d4aaaace69ec90d58042347283cb2c9465b5ebc1fd294d4fcd2790cdce4d",
    "tree/evaluate-examples/roc.csv":
        "3984f1de833f93b09362f4346b8a2a7c1fd82df043997cdab1be52d4dbdc407c",
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
