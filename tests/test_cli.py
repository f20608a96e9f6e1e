import json
import os
from pathlib import Path

import pytest

from drivelife import featurize
from drivelife.cli import run

SYNTH_CONFIG = {
    "family": "ssd",
    "n_drives": 60,
    "horizon_days": 120,
    "models": {"MLC-A": 0.2, "MLC-B": 0.25},
    "bursts": [{"kind": "uncorrectable", "mean": 15.0, "days": 3}],
}

HDD_CONFIG = {
    "family": "hdd",
    "n_drives": 30,
    "horizon_days": 90,
    "models": {"ST-A": 0.2},
    "hfh_effect": 3.0,
    "hfh_high_fraction": 0.4,
    "error_incidence": {"smart_187": 0.01},
    "bursts": [{"kind": "smart_187", "mean": 4.0, "days": 2}],
}


def dir_snapshot(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.is_file()}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    config = out / "fleet.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    assert run(["synth", "--config", str(config), "--seed", "7",
                "--out", str(out / "d")]) == 0
    return out / "d"


class TestSynthCommand:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps(SYNTH_CONFIG))
        for name in ("a", "b"):
            assert run(["synth", "--config", str(config), "--seed", "7",
                        "--out", str(tmp_path / name)]) == 0
        assert dir_snapshot(tmp_path / "a") == dir_snapshot(tmp_path / "b")

    def test_manifest_carries_meta_and_calibration(self, synth_dir):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        assert doc["_meta"]["seed"] == 7
        assert "config_hash" in doc["_meta"]
        assert doc["telemetry"] == "ssd_telemetry.csv"
        assert isinstance(doc["calibration"], list)

    def test_seed_required(self, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps(SYNTH_CONFIG))
        env_backup = os.environ.pop("DRIVELIFE_SEED", None)
        try:
            assert run(["synth", "--config", str(config),
                        "--out", str(tmp_path / "x")]) == 2
        finally:
            if env_backup is not None:
                os.environ["DRIVELIFE_SEED"] = env_backup

    def test_env_seed_fallback(self, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps(SYNTH_CONFIG | {"n_drives": 5}))
        os.environ["DRIVELIFE_SEED"] = "13"
        try:
            assert run(["synth", "--config", str(config),
                        "--out", str(tmp_path / "y")]) == 0
            doc = json.loads((tmp_path / "y" / "manifest.json").read_text())
            assert doc["_meta"]["seed"] == 13
        finally:
            del os.environ["DRIVELIFE_SEED"]


class TestPipeline:
    def test_ingest_does_not_mutate_input(self, synth_dir, tmp_path):
        telemetry = synth_dir / "ssd_telemetry.csv"
        before = telemetry.read_bytes()
        assert run(["ingest", "--family", "ssd", "--input", str(telemetry),
                    "--out", str(tmp_path)]) == 0
        assert telemetry.read_bytes() == before
        doc = json.loads((tmp_path / "ingest_report.json").read_text())
        assert doc["rejected_count"] == 0
        assert doc["n_drives"] == SYNTH_CONFIG["n_drives"]

    def test_lifecycle_artifacts(self, synth_dir, tmp_path):
        assert run(["lifecycle", "--family", "ssd",
                    "--input", str(synth_dir / "ssd_telemetry.csv"),
                    "--out", str(tmp_path)]) == 0
        for name in ("failures.csv", "periods.csv", "repairs.csv",
                     "ttf_cdf.csv", "ttf_cdf.json", "lifecycle_summary.json"):
            assert (tmp_path / name).exists(), name
        failures = (tmp_path / "failures.csv").read_text().splitlines()
        assert failures[0].startswith("# drivelife")
        assert failures[1] == "drive,family,age_days,ordinal"
        sidecar = json.loads((tmp_path / "ttf_cdf.json").read_text())
        assert 0.0 <= sidecar["censored_mass"] <= 1.0

    def test_evaluate_on_synth_output(self, synth_dir, tmp_path):
        assert run(["evaluate", "--family", "ssd",
                    "--input", str(synth_dir / "ssd_telemetry.csv"),
                    "--lookahead", "0", "--model", "rf",
                    "--hyper", '{"n_trees": 15}',
                    "--folds", "4", "--seed", "5",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "eval_report.json").read_text())
        assert "mean" in doc and doc["mean"] is not None
        assert len(doc["per_fold_auroc"]) == 4
        assert (tmp_path / "roc.csv").exists()

    def test_featurize_then_train(self, synth_dir, tmp_path):
        assert run(["featurize", "--family", "ssd",
                    "--input", str(synth_dir / "ssd_telemetry.csv"),
                    "--lookahead", "0,1", "--out", str(tmp_path)]) == 0
        examples = tmp_path / "examples_ssd_N0.csv"
        assert examples.exists() and (tmp_path / "examples_ssd_N1.csv").exists()
        assert run(["train", "--examples", str(examples), "--model", "rf",
                    "--hyper", '{"n_trees": 10}', "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["feature_importance"]
        assert (tmp_path / "model.json").exists()

    def test_logreg_train_report_records_convergence(self, synth_dir, tmp_path):
        argv = ["train", "--family", "ssd", "--model", "logreg", "--seed", "3",
                "--input", str(synth_dir / "ssd_telemetry.csv")]
        for max_iter, out in ((3, tmp_path / "stopped"), (500, tmp_path / "full")):
            assert run([*argv, "--hyper", json.dumps({"max_iter": max_iter}),
                        "--out", str(out)]) == 0
        stopped = json.loads((tmp_path / "stopped" / "train_report.json").read_text())
        full = json.loads((tmp_path / "full" / "train_report.json").read_text())
        assert (stopped["converged"], stopped["n_iter"]) == (False, 3)
        model = json.loads((tmp_path / "full" / "model.json").read_text())
        assert (full["converged"], full["n_iter"]) == (model["converged"],
                                                       model["n_iter"])

    def test_characterize_hfh_sweep_rows(self, tmp_path):
        config = tmp_path / "hdd.json"
        config.write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(config), "--seed", "2",
                    "--out", str(tmp_path / "fleet")]) == 0
        assert run(["characterize", "--family", "hdd",
                    "--input", str(tmp_path / "fleet" / "hdd_telemetry.csv"),
                    "--analysis", "hfh-sweep",
                    "--thresholds", "10000,40000,60000",
                    "--seed", "1", "--out", str(tmp_path / "chars")]) == 0
        rows = [line for line in
                (tmp_path / "chars" / "rates_hfh.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "threshold,small_rate,large_rate,large_share"
        assert len(rows) == 1 + 3  # header + one row per threshold

    def test_hdd_partition_eval_on_hfh(self, tmp_path):
        config = tmp_path / "hdd.json"
        config.write_text(json.dumps(HDD_CONFIG | {"n_drives": 60}))
        assert run(["synth", "--config", str(config), "--seed", "6",
                    "--out", str(tmp_path / "fleet")]) == 0
        assert run(["partition-eval", "--family", "hdd",
                    "--input", str(tmp_path / "fleet" / "hdd_telemetry.csv"),
                    "--lookahead", "0", "--partition", "hfh:40000",
                    "--model", "tree", "--folds", "3", "--seed", "6",
                    "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "partition_report.json").read_text())
        assert doc["rule"] == {"attribute": "hfh", "threshold": 40000.0}
        # both HFH classes are populated in this fixture
        assert doc["below"] is not None and doc["above"] is not None

    def test_sweep_and_partition_eval(self, synth_dir, tmp_path):
        telemetry = str(synth_dir / "ssd_telemetry.csv")
        assert run(["sweep", "--family", "ssd", "--input", telemetry,
                    "--lookahead", "0,2", "--model", "rf",
                    "--hyper", '{"n_trees": 10}', "--folds", "3",
                    "--seed", "4", "--out", str(tmp_path)]) == 0
        sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len([r for r in sweep_rows if not r.startswith("#")]) == 3
        assert run(["partition-eval", "--family", "ssd", "--input", telemetry,
                    "--lookahead", "0", "--partition", "age:60",
                    "--model", "rf", "--hyper", '{"n_trees": 10}',
                    "--folds", "3", "--seed", "4",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "partition_report.json").read_text())
        assert {"below", "above", "unsplit"} <= set(doc)

    @pytest.mark.parametrize("extra", [
        ["featurize"],
        ["sweep", "--model", "tree", "--folds", "3", "--seed", "4"]])
    def test_features_built_once_for_all_lookaheads(self, synth_dir, tmp_path,
                                                    monkeypatch, extra):
        builds = []
        make_features = featurize.make_features

        def counting(ds):
            builds.append(ds)
            return make_features(ds)

        monkeypatch.setattr(featurize, "make_features", counting)
        assert run([*extra, "--family", "ssd",
                    "--input", str(synth_dir / "ssd_telemetry.csv"),
                    "--lookahead", "0,1,2,7", "--out", str(tmp_path)]) == 0
        assert len(builds) == 1


class TestErrors:
    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["lifecycle", "--no-such-flag", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["lifecycle", "--family", "ssd",
                    "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path)]) == 3

    def test_schema_mismatch_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,two\n1,2\n")
        assert run(["ingest", "--family", "ssd", "--input", str(bad),
                    "--out", str(tmp_path)]) == 4


class TestReport:
    def test_empty_dir_names_missing_subcommands(self, tmp_path, capsys):
        assert run(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "lifecycle" in err and "evaluate" in err

    def test_collates_and_is_idempotent(self, synth_dir, tmp_path):
        telemetry = str(synth_dir / "ssd_telemetry.csv")
        out = tmp_path / "run"
        assert run(["lifecycle", "--family", "ssd", "--input", telemetry,
                    "--out", str(out)]) == 0
        assert run(["evaluate", "--family", "ssd", "--input", telemetry,
                    "--lookahead", "0", "--model", "rf",
                    "--hyper", '{"n_trees": 8}', "--folds", "3",
                    "--seed", "1", "--out", str(out)]) == 0
        assert run(["report", "--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        md = (out / "report.md").read_text()
        assert "lifecycle_summary.json" in md and "eval_report.json" in md
        assert run(["report", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first
