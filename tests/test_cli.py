import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import signal
from pathlib import Path

import pytest

from drivelife import cli, evaluation, featurize
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

    @pytest.mark.parametrize("family", ["ssd", "hdd"])
    def test_header_only_input(self, tmp_path, family):
        """A fleet with no drives: every reader exits 0, and the shares of
        0 of 0 drives are undefined."""
        fleet = tmp_path / "fleet"
        (tmp_path / "fleet.json").write_text(json.dumps(
            (SYNTH_CONFIG if family == "ssd" else HDD_CONFIG) | {"n_drives": 2,
                                                                 "horizon_days": 3}))
        assert run(["synth", "--config", str(tmp_path / "fleet.json"), "--seed", "1",
                    "--out", str(fleet)]) == 0
        telemetry = fleet / f"{family}_telemetry.csv"
        telemetry.write_text(telemetry.read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        for argv in (["ingest"], ["lifecycle"], ["characterize", "--seed", "1"],
                     ["featurize"]):
            assert run([*argv, "--family", family, "--input", str(telemetry),
                        "--out", str(out)]) == 0, argv
        summary = json.loads((out / "lifecycle_summary.json").read_text())
        assert (summary["n_drives"], summary["n_failures"]) == (0, 0)
        assert summary["failure_count_distribution"] == {
            "0": {"share_of_drives": None, "share_of_failed": None}}
        assert (out / "failures.csv").read_text().splitlines()[1:] == [
            "drive,family,age_days,ordinal"]
        report = json.loads((out / "featurize_report.json").read_text())
        assert report["lookaheads"]["0"]["n_examples"] == 0

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

    def test_featurize_lookahead_list_equals_single_runs(self, synth_dir, tmp_path):
        source = ["--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv")]
        assert run(["featurize", *source, "--lookahead", "0,1,2,7",
                    "--out", str(tmp_path / "all")]) == 0
        tables = set()
        for n in (0, 1, 2, 7):
            name = f"examples_ssd_N{n}.csv"
            assert run(["featurize", *source, "--lookahead", str(n),
                        "--out", str(tmp_path / f"N{n}")]) == 0
            comment, text = (tmp_path / "all" / name).read_bytes().split(b"\n", 1)
            single_comment, single = (tmp_path / f"N{n}" / name).read_bytes().split(
                b"\n", 1)
            # The runs' options differ, so only their config hashes do.
            assert re.sub(rb"config_hash=\w+", b"", comment) == \
                re.sub(rb"config_hash=\w+", b"", single_comment)
            assert text == single
            tables.add(text)
        assert len(tables) == 4

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


class TestParser:
    @pytest.fixture(scope="class")
    def hdd_input(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("hdd")
        (out / "fleet.json").write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(out / "fleet.json"), "--seed", "2",
                    "--out", str(out)]) == 0
        return str(out / "hdd_telemetry.csv")

    @staticmethod
    def _config_hash(out: Path) -> str:
        return json.loads((out / "ingest_report.json").read_text())["_meta"]["config_hash"]

    def test_consecutive_runs_share_one_parser(self, hdd_input, tmp_path, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for name in ("a", "b"):
            assert run(["ingest", "--family", "hdd", "--input", hdd_input,
                        "--out", str(tmp_path / name)]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_options_do_not_reach_the_next_run(self, hdd_input, tmp_path):
        alone = ["ingest", "--family", "hdd", "--input", hdd_input]
        assert run([*alone, "--models", "ST-A", "--from", "2000-01-01",
                    "--out", str(tmp_path / "first")]) == 0
        assert run([*alone, "--out", str(tmp_path / "second")]) == 0
        cli._build_parser.cache_clear()
        assert run([*alone, "--out", str(tmp_path / "alone")]) == 0
        second = self._config_hash(tmp_path / "second")
        assert second == self._config_hash(tmp_path / "alone")
        assert second != self._config_hash(tmp_path / "first")


class TestConfigHash:
    """``config_hash`` digests the resolved settings and the input bytes."""

    @pytest.fixture(scope="class")
    def hdd_input(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("hdd")
        (out / "fleet.json").write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(out / "fleet.json"), "--seed", "2",
                    "--out", str(out)]) == 0
        return ["--family", "hdd", "--input", str(out / "hdd_telemetry.csv")]

    @staticmethod
    def _hash(argv: list, out: Path, report: str) -> str:
        assert run([*argv, "--out", str(out)]) == 0, argv
        return json.loads((out / report).read_text())["_meta"]["config_hash"]

    def _pair(self, tmp_path, argv, report, first, second) -> tuple[str, str]:
        return (self._hash([*argv, *first], tmp_path / "first", report),
                self._hash([*argv, *second], tmp_path / "second", report))

    def test_hyper_decides_the_hash(self, synth_dir, tmp_path):
        argv = ["train", "--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
                "--model", "rf", "--lookahead", "7", "--seed", "1"]
        first, second = self._pair(tmp_path, argv, "train_report.json",
                                   ["--hyper", '{"n_trees": 3}'],
                                   ["--hyper", '{"n_trees": 5}'])
        assert first != second

    def test_jobs_does_not_decide_the_hash(self, synth_dir, tmp_path):
        argv = ["train", "--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
                "--model", "rf", "--hyper", '{"n_trees": 3}', "--seed", "1"]
        first, second = self._pair(tmp_path, argv, "train_report.json",
                                   ["--jobs", "1"], ["--jobs", "2"])
        assert first == second
        assert dir_snapshot(tmp_path / "first") == dir_snapshot(tmp_path / "second")

    def test_synth_settings_decide_the_hash(self, tmp_path):
        hashes = []
        for n_drives in (60, 61):
            config = tmp_path / f"fleet{n_drives}.json"
            config.write_text(json.dumps(SYNTH_CONFIG | {"n_drives": n_drives,
                                                         "horizon_days": 30}))
            hashes.append(self._hash(["synth", "--config", str(config), "--seed", "7"],
                                     tmp_path / str(n_drives), "manifest.json"))
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("argv, report, first, second", [
        (["characterize", "--analysis", "prefailure-prob", "--seed", "1"],
         "characterization.json", ["--error-kind", "smart_187"],
         ["--error-kind", "smart_5"]),
        (["characterize", "--analysis", "hfh-sweep", "--seed", "1"],
         "characterization.json", ["--thresholds", "10000,40000"],
         ["--thresholds", "10000,50000"]),
        (["featurize", "--lookahead", "0"], "featurize_report.json",
         ["--partition-attr", "age"], ["--partition-attr", "hfh"]),
    ], ids=["error_kind", "thresholds", "partition_attr"])
    def test_analysis_options_decide_the_hash(self, hdd_input, tmp_path, argv, report,
                                              first, second):
        hashes = self._pair(tmp_path, [*argv, *hdd_input], report, first, second)
        assert hashes[0] != hashes[1]

    def test_a_run_does_not_depend_on_its_paths(self, tmp_path):
        outs = []
        for i, root in enumerate((tmp_path / "a", tmp_path / "b" / "deeper")):
            root.mkdir(parents=True)
            (root / "fleet.json").write_text(json.dumps(SYNTH_CONFIG | {
                "n_drives": 30, "horizon_days": 60}))
            out = root / "run"
            assert run(["synth", "--config", str(root / "fleet.json"), "--seed", "7",
                        "--out", str(out)]) == 0
            telemetry = root / f"input{i}" / f"telemetry{i}.csv"
            telemetry.parent.mkdir()
            shutil.copyfile(out / "ssd_telemetry.csv", telemetry)
            source = ["--family", "ssd", "--input", str(telemetry), "--out", str(out)]
            for argv in (["ingest"], ["featurize", "--lookahead", "0,7"],
                         ["evaluate", "--lookahead", "7", "--model", "tree",
                          "--folds", "3", "--seed", "7"]):
                assert run([*argv, *source]) == 0, argv
            assert run(["report", "--out", str(out)]) == 0
            outs.append(dir_snapshot(out))
        assert "report.md" in outs[0] and "ssd_dataset.npz" in outs[0]
        assert outs[0] == outs[1]


#: For each option the guard below covers: its default spelled out (None when
#: it has no spelling), a value that is not the default, and the flags given
#: beside both. The runs read an HDD input: ``--family hdd``, ``--seed 2``
#: where a seed is required and ``--partition age:90`` for ``partition-eval``.
HASH_RULE = {
    "seed": ("0", "1", {}),  # the default of a subcommand that draws no numbers
    "family": (None, "ssd", {}),
    "input": (None, "b.csv", {}),
    "examples": (None, "b.csv", {}),
    "models": (None, "ST-A", {}),
    "from": ("0001-01-01", "2014-02-01", {"--models": "ST-B"}),
    "to": ("9999-12-31", "2014-03-01", {"--models": "ST-B"}),
    "lookahead": ("0", "7", {}),
    "model": ("rf", "tree", {}),
    "hyper": ("{}", '{"max_depth": 3}', {}),
    "folds": ("5", "3", {}),
    "partition": (None, "age:30", {}),
    "partition-attr": ("hfh", "age", {}),
    "analysis": ("all", "monthly-rate", {}),
    "error-kind": ("smart_187", "smart_5", {}),
    "thresholds": ("10000,20000,30000,40000,50000,60000", "10000", {}),
}

#: Every (subcommand, option) pair the table of options gives, but those that
#: decide no result and ``partition-eval --examples``, which is refused.
HASHED = [(command, option) for option, (commands, _) in cli._OPTIONS.items()
          if option not in ("jobs", "out", "config") for command in commands
          if (command, option) != ("partition-eval", "examples")]


class TestHashRule:
    """Spelling an option's default leaves ``config_hash`` as it is, and any
    other value moves it, for every option a subcommand reads."""

    @pytest.mark.parametrize("command, option", HASHED,
                             ids=[f"{c}-{o}" for c, o in HASHED])
    def test_the_default_keeps_the_hash_and_another_value_moves_it(
            self, command, option, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(name)
        default, other, beside = HASH_RULE[option]
        base = {"--out": "o"}
        if command in cli._STOCHASTIC:
            base["--seed"] = "2"
            default = None if option == "seed" else default
        if command in cli._READERS:
            base |= ({"--examples": "a.csv"} if option == "examples"
                     else {"--family": "hdd", "--input": "a.csv"})
        if command == "partition-eval":
            base["--partition"] = "age:90"

        def config_hash(flags: dict) -> str:
            argv = [command, *(item for flag in flags.items() for item in flag)]
            return cli._Run(cli._build_parser().parse_args(argv)).config_hash
        given = config_hash(base | beside)
        if default is not None:
            assert config_hash(base | beside | {f"--{option}": default}) == given
        assert config_hash(base | beside | {f"--{option}": other}) != given


MOTIVATION_FLEET = {"family": "hdd", "n_drives": 60, "horizon_days": 60,
                    "models": {"ST-A": 0.3, "ST-B": 0.3}}


class TestEqualSettings:
    """Runs that decide the same results write the same bytes, hash included."""

    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fleet")
        (out / "fleet.json").write_text(json.dumps(MOTIVATION_FLEET))
        assert run(["synth", "--config", str(out / "fleet.json"), "--seed", "3",
                    "--out", str(out)]) == 0
        return ["--family", "hdd", "--input", str(out / "hdd_telemetry.csv")]

    @pytest.mark.parametrize("argv, spellings", [
        (["evaluate", "--lookahead", "7", "--model", "logreg", "--seed", "7"],
         [[], ["--folds", "5"], ["--hyper", "{}"], ["--hyper", '{"l2": 0.001}']]),
        (["evaluate", "--lookahead", "7", "--model", "logreg", "--seed", "7"],
         [["--hyper", '{"l2": 0.01, "tol": 1e-5}'],
          ["--hyper", '{"tol": 1e-5, "l2": 0.01}']]),
        (["featurize"], [["--lookahead", "0,7"], ["--lookahead", "7,0"],
                         ["--lookahead", "0,0,7"]]),
        (["characterize", "--seed", "1"], [[], ["--analysis", "all"]]),
        (["featurize"], [[], ["--partition-attr", "hfh"]]),
        (["ingest"], [["--models", "ST-A,ST-B"], ["--models", "ST-B,ST-A"]]),
        (["lifecycle"], [[], ["--config", "{config}"]]),
    ], ids=["evaluate_defaults", "hyper_key_order", "lookahead_lists", "analysis_all",
            "partition_attr", "models_order", "unread_config_key"])
    def test_equal_settings_write_equal_bytes(self, source, tmp_path, argv, spellings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"partition": "age:90", "thresholds": "1,2"}))
        written = []
        for i, spelling in enumerate(spellings):
            spelling = [flag.replace("{config}", str(config)) for flag in spelling]
            assert run([*argv, *source, *spelling, "--out", str(tmp_path / str(i))]) == 0
            written.append(dir_snapshot(tmp_path / str(i)))
        assert written[0] and all(files == written[0] for files in written[1:])

    def test_a_repeated_lookahead_is_swept_once(self, source, tmp_path, monkeypatch):
        fits = []
        train = evaluation.ModelSpec.train
        monkeypatch.setattr(evaluation.ModelSpec, "train", lambda spec, *args, **kwargs:
                            fits.append(spec.kind) or train(spec, *args, **kwargs))
        written = []
        for lookahead in ("0", "0,0"):
            out = tmp_path / lookahead
            assert run(["sweep", *source, "--lookahead", lookahead, "--model", "tree",
                        "--folds", "3", "--seed", "1", "--out", str(out)]) == 0
            written.append(dir_snapshot(out))
        assert fits == ["tree"] * 6 and written[0] == written[1]


_PAST_DRIVES = r"bad --folds 1000; expected at most (\d+), the examples' drive count"


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

    @staticmethod
    def _examples(tmp_path, short_row=False):
        rows = [f"{d % 3}.0,{int(d % 2 == 0)},d{d},{d},{d}.0" for d in range(8)]
        if short_row:
            rows[4] = "1.0,0,d4"
        path = tmp_path / "examples.csv"
        path.write_text("a,label,drive_id,day,partition_key\n"
                        + "\n".join(rows) + "\n")
        return str(path)

    def _error(self, capsys, argv):
        code = run(argv)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return code, json.loads(lines[0])

    @pytest.mark.parametrize("extra", [
        ["--hyper", '{"bogus": 1}'],
        ["--hyper", '{"n_trees": 3'],
        ["--lookahead", "x"],
        ["--lookahead=-1"],
        ["--lookahead", "\u00b2"],
        ["--folds", "1"],
        ["--hyper", '{"n_trees": 0}'],
        ["--hyper", '{"n_trees": -1}'],
        ["--hyper", '{"features_per_split": 99}'],
        ["--hyper", '{"bootstrap": "no"}'],
        ["--model", "tree", "--hyper", '{"min_samples_leaf": -3, "max_depth": 1.5}'],
        ["--model", "tree", "--hyper", '{"features_per_split": 2}'],
        ["--model", "logreg", "--hyper", '{"l2": "x"}'],
        ["--model", "logreg", "--hyper", '{"l2": -1}'],
        ["--model", "logreg", "--hyper", '{"max_iter": 0}'],
        ["--model", "logreg", "--hyper", '{"tol": -1}'],
        ["--lookahead", "99999999999999999999"],
        ["--folds", "1000"],
    ], ids=["hyper_field", "hyper_json", "lookahead_text", "lookahead_negative",
            "lookahead_superscript", "one_fold", "hyper_no_trees",
            "hyper_negative_trees", "hyper_subset_past_features",
            "hyper_bootstrap_text", "hyper_tree_leaf_depth", "hyper_tree_subset",
            "hyper_l2_text", "hyper_l2_negative", "hyper_no_iterations",
            "hyper_tol_negative", "lookahead_past_calendar", "folds_past_drives"])
    def test_bad_option_is_usage_error(self, extra, tmp_path, capsys):
        code, doc = self._error(capsys, [
            "evaluate", "--examples", self._examples(tmp_path), "--model", "rf",
            "--seed", "1", "--out", str(tmp_path / "o"), *extra])
        assert code == 2 and doc["error"] == "usage" and "traceback" not in doc

    @pytest.mark.parametrize("argv, message", [
        (["featurize", "--lookahead", "99999999999999999999"],
         r"bad --lookahead '99999999999999999999'; expected days from 0 to "
         r"(3652058), comma-separated"),
        (["evaluate", "--folds", "1000"], _PAST_DRIVES),
        (["sweep", "--lookahead", "0,2", "--folds", "1000"], _PAST_DRIVES),
        (["matrix", "--folds", "1000"], _PAST_DRIVES),
        (["partition-eval", "--partition", "age:60", "--folds", "1000"], _PAST_DRIVES),
        (["train", "--hyper", '{"features_per_split": 99}'],
         r"bad --hyper features_per_split 99; expected at most (\d+), the "
         r"examples' feature count"),
    ], ids=["featurize_lookahead", "evaluate_folds", "sweep_folds", "matrix_folds",
            "partition_folds", "train_subset"])
    def test_out_of_range_is_usage_error_before_any_fit(self, argv, message, synth_dir,
                                                         tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")
        monkeypatch.setattr(cli.evaluation.ModelSpec, "train", no_fit)
        code, doc = self._error(capsys, [
            *argv, "--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
            "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage" and "traceback" not in doc
        limit = re.fullmatch(message, doc["message"])  # names the value and its limit
        assert limit and 1 < int(limit[1]) < int(re.search(r"\d+", doc["message"])[0])

    @pytest.mark.parametrize("fleet, extra, counts", [
        ({"family": "ssd", "n_drives": 30, "horizon_days": 20, "models": {"MLC-A": 0.0}},
         [], "0 positive and 600 negative rows"),
        ({"family": "hdd", "n_drives": 10, "horizon_days": 20, "models": {"ST-A": 0.2}},
         ["--models", "ST-X"], "0 positive and 0 negative rows"),
    ], ids=["no_failures", "no_drives"])
    def test_train_on_one_class_is_usage_error_before_any_fit(
            self, fleet, extra, counts, tmp_path, capsys, monkeypatch):
        (tmp_path / "fleet.json").write_text(json.dumps(fleet))
        assert run(["synth", "--config", str(tmp_path / "fleet.json"), "--seed", "1",
                    "--out", str(tmp_path)]) == 0
        fits = self._count_fits(monkeypatch)
        out = tmp_path / "o"
        code, doc = self._error(capsys, [
            "train", "--family", fleet["family"], "--input",
            str(tmp_path / f"{fleet['family']}_telemetry.csv"), *extra,
            "--lookahead", "0", "--model", "tree", "--seed", "1", "--out", str(out)])
        assert code == 2 and doc["error"] == "usage"
        assert doc["message"] == (f"bad --lookahead 0: its examples hold {counts}; "
                                  "train needs both classes")
        assert fits == [] and not out.exists()

    def test_bad_error_kind_is_usage_error(self, synth_dir, tmp_path, capsys):
        code, doc = self._error(capsys, [
            "characterize", "--family", "ssd",
            "--input", str(synth_dir / "ssd_telemetry.csv"),
            "--error-kind", "bogus", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert "--error-kind" in doc["message"] and "bogus" in doc["message"]
        assert not (tmp_path / "o").exists()  # no analysis ran

    def test_pe_count_past_the_bin_cap_is_schema_error(self, tmp_path, capsys):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({**SYNTH_CONFIG, "n_drives": 20}))
        assert run(["synth", "--config", str(config), "--seed", "2",
                    "--out", str(tmp_path / "fleet")]) == 0
        capsys.readouterr()
        telemetry = tmp_path / "fleet" / "ssd_telemetry.csv"
        lines = telemetry.read_text().splitlines()
        header = lines[0].split(",")
        drive, pe = header.index("drive_id"), header.index("pe_cycles_cum")
        first = lines[1].split(",")[drive]
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[drive] == first and cells[pe]:
                cells[pe] = str(2**63 - 1)
                lines[i] = ",".join(cells)
        telemetry.write_text("\n".join(lines) + "\n")
        code, doc = self._error(capsys, [
            "characterize", "--family", "ssd", "--input", str(telemetry),
            "--analysis", "pe-rate", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4 and doc["error"] == "schema"
        assert f"pe_cycles_cum value {2**63 - 1} " in doc["message"]

    def test_non_numeric_thresholds_are_usage_error(self, tmp_path, capsys):
        config = tmp_path / "hdd.json"
        config.write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(config), "--seed", "2",
                    "--out", str(tmp_path / "fleet")]) == 0
        capsys.readouterr()
        code, doc = self._error(capsys, [
            "characterize", "--family", "hdd",
            "--input", str(tmp_path / "fleet" / "hdd_telemetry.csv"),
            "--analysis", "hfh-sweep", "--thresholds", "10000,x",
            "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert "--thresholds" in doc["message"]
        assert not (tmp_path / "o").exists()  # no analysis ran

    @pytest.mark.parametrize("config, extra, name", [
        ({"seed": "x7"}, [], "config seed"), ({"seed": "7"}, [], "config seed"),
        ({"seed": 1.5}, [], "config seed"), ({"seed": True}, [], "config seed"),
        ({"seed": -1}, [], "config seed"), ({}, ["--seed=-1"], "--seed"),
        ({"seed": 1, "jobs": "two"}, [], "--jobs"),
        ({"seed": 1, "jobs": 1.0}, [], "--jobs"),
        ({"seed": 1, "jobs": 0}, [], "--jobs"), ({"seed": 1}, ["--jobs", "0"], "--jobs"),
        ({"seed": 1}, ["--jobs=-2"], "--jobs"),
    ], ids=["seed_text", "seed_digits", "seed_float", "seed_bool", "seed_negative",
            "seed_flag_negative", "jobs_text", "jobs_float", "jobs_zero",
            "jobs_flag_zero", "jobs_flag_negative"])
    def test_bad_seed_or_jobs_is_usage_error(self, config, extra, name, tmp_path,
                                             capsys, monkeypatch):
        monkeypatch.delenv("DRIVELIFE_SEED", raising=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, doc = self._error(capsys, [
            "evaluate", "--config", str(path), "--examples",
            self._examples(tmp_path), "--out", str(tmp_path / "o"), *extra])
        assert code == 2 and doc["error"] == "usage"
        assert doc["message"].startswith(f"bad {name} ")
        assert not (tmp_path / "o").exists()  # rejected before any output

    @pytest.mark.parametrize("value", ["abc", "1.5", "true", "-3"])
    def test_bad_env_seed_is_usage_error(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRIVELIFE_SEED", value)
        code, doc = self._error(capsys, [
            "evaluate", "--examples", self._examples(tmp_path),
            "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert doc["message"].startswith("bad DRIVELIFE_SEED ")

    def test_good_seed_and_jobs_from_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DRIVELIFE_SEED", raising=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 4, "jobs": 2}))
        assert run(["evaluate", "--config", str(path), "--examples",
                    self._examples(tmp_path), "--model", "tree", "--folds", "2",
                    "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "eval_report.json").read_text())
        assert doc["_meta"]["seed"] == 4

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "hdd.json"
        config.write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(config), "--seed", "2",
                    "--out", str(tmp_path / "fleet")]) == 0
        capsys.readouterr()
        for raw in ("nan", "10000,NaN"):
            code, doc = self._error(capsys, [
                "characterize", "--family", "hdd",
                "--input", str(tmp_path / "fleet" / "hdd_telemetry.csv"),
                "--analysis", "hfh-sweep", "--thresholds", raw,
                "--seed", "1", "--out", str(tmp_path / "o")])
            assert code == 2 and doc["error"] == "usage"
            assert "--thresholds" in doc["message"]
            assert not (tmp_path / "o").exists()  # no analysis ran

    @pytest.mark.parametrize("rule", ["age:nan", "hfh:NaN", "age:-nan", "age:0",
                                      "age:inf"])
    def test_bad_partition_threshold_is_usage_error(self, rule, tmp_path, capsys):
        code, doc = self._error(capsys, [
            "partition-eval", "--examples", self._examples(tmp_path),
            "--partition", rule, "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert "--partition" in doc["message"]

    def test_partition_eval_refuses_examples(self, tmp_path, capsys):
        # An examples table does not record which attribute its
        # partition_key holds: this HDD table keys on HFH, so "age:90" on it
        # would split on HFH <= 90 h and still report attribute "age".
        (tmp_path / "hdd.json").write_text(json.dumps(
            {"family": "hdd", "n_drives": 60, "horizon_days": 120}))
        assert run(["synth", "--config", str(tmp_path / "hdd.json"),
                    "--seed", "3", "--out", str(tmp_path / "f")]) == 0
        source = ["--family", "hdd", "--input",
                  str(tmp_path / "f" / "hdd_telemetry.csv")]
        assert run(["featurize", *source, "--lookahead", "0",
                    "--out", str(tmp_path / "f")]) == 0
        table = tmp_path / "f" / "examples_hdd_N0.csv"
        with table.open() as handle:
            keys = featurize.read_examples_csv(handle, 0).partition_key
        assert (len(keys), int((keys <= 90).sum())) == (6785, 406)

        rule = ["--lookahead", "0", "--partition", "age:90", "--model", "tree",
                "--folds", "3", "--seed", "3"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"examples": str(table)}))
        for argv in (["--examples", str(table)], ["--config", str(config)],
                     ["--examples", str(table), *source]):
            out = tmp_path / "o"
            code, doc = self._error(capsys, ["partition-eval", *argv, *rule,
                                             "--out", str(out)])
            assert code == 2 and doc["error"] == "usage"
            assert "--examples" in doc["message"]
            assert "partition_key" in doc["message"]
            assert not out.exists()
        assert run(["partition-eval", *source, *rule,
                    "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "partition_report.json").read_text())
        assert doc["rule"]["attribute"] == "age"
        assert [doc[side]["config"]["n_examples"] for side in ("below", "above")
                ] == [5219, 1566]

    @staticmethod
    def _count_fits(monkeypatch) -> list:
        fits = []
        train = evaluation.ModelSpec.train

        def counting(spec, *args, **kwargs):
            fits.append(spec.kind)
            return train(spec, *args, **kwargs)

        monkeypatch.setattr(evaluation.ModelSpec, "train", counting)
        return fits

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("extra", [
        ["--input", "missing.csv"], ["--family", "ssd"], ["--models", "ST-A"],
        ["--from", "2015-01-01"], ["--to", "2015-01-01"],
        ["--family", "hdd", "--input", "missing.csv"]],
        ids=["input", "family", "models", "from", "to", "family_input"])
    def test_input_options_beside_examples_are_usage_errors(
            self, tmp_path, capsys, monkeypatch, command, extra):
        fits = self._count_fits(monkeypatch)
        out = tmp_path / "o"
        code, doc = self._error(capsys, [
            command, "--examples", self._examples(tmp_path), *extra,
            "--model", "tree", "--seed", "1", "--out", str(out)])
        assert code == 2 and doc["error"] == "usage"
        assert all(flag in doc["message"] for flag in extra if flag.startswith("--"))
        assert "--examples" in doc["message"]
        assert fits == [] and not out.exists()

    def test_a_config_input_beside_examples_is_neither_read_nor_hashed(
            self, tmp_path, monkeypatch):
        # A config file may name an input for other subcommands. Beside
        # --examples no run reads it, so a file that cannot be read does not
        # stop the run, and no input enters the config hash.
        fits = self._count_fits(monkeypatch)
        examples = self._examples(tmp_path)
        config = tmp_path / "config.json"
        written = []
        for given in ({}, {"input": str(tmp_path / "missing.csv")}, {"input": examples}):
            config.write_text(json.dumps(given))
            out = tmp_path / f"o{len(written)}"
            assert run(["evaluate", "--config", str(config), "--examples", examples,
                        "--model", "tree", "--folds", "2", "--seed", "1",
                        "--out", str(out)]) == 0, given
            written.append(dir_snapshot(out))
        assert written[0] == written[1] == written[2]
        assert fits == ["tree"] * 6

    def test_invalid_config_json_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"seed": 1,')
        code, doc = self._error(capsys, [
            "evaluate", "--config", str(config), "--examples",
            self._examples(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"

    def test_short_examples_row_is_schema_error(self, tmp_path, capsys):
        code, doc = self._error(capsys, [
            "evaluate", "--examples", self._examples(tmp_path, short_row=True),
            "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4 and doc["error"] == "schema"
        assert "line 6:" in doc["message"]

    @pytest.mark.parametrize("command", ["ingest", "lifecycle"])
    @pytest.mark.parametrize("line", [1, 5, 40], ids=["header", "row", "later_row"])
    def test_a_byte_that_is_not_utf8_is_schema_error(self, synth_dir, tmp_path, capsys,
                                                     command, line):
        lines = (synth_dir / "ssd_telemetry.csv").read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code, doc = self._error(capsys, [command, "--family", "ssd", "--input", str(bad),
                                         "--out", str(tmp_path / "o")])
        assert code == 4 and doc["error"] == "schema"
        assert doc["message"].startswith(f"line {line} of {bad}:")

    @pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
    def test_examples_byte_that_is_not_utf8_is_schema_error(self, tmp_path, capsys, line):
        path = Path(self._examples(tmp_path))
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = b"\xc3" + lines[line - 1]
        path.write_bytes(b"\n".join(lines))
        code, doc = self._error(capsys, ["evaluate", "--examples", str(path),
                                         "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 4 and doc["error"] == "schema"
        assert doc["message"].startswith(f"line {line} of {path}:")

    @pytest.mark.parametrize("window", [["--from", "2020-13-01"], ["--to", "20x0-01-01"],
                                        ["--from", "2020-02-01", "--to", "2020-01-31"]],
                             ids=["bad_month", "bad_year", "from_after_to"])
    @pytest.mark.parametrize("exists", [True, False], ids=["input", "no_input"])
    def test_bad_date_window_is_usage_error_before_the_input_is_read(
            self, tmp_path, capsys, monkeypatch, window, exists):
        path = tmp_path / "hdd_telemetry.csv"
        if exists:
            config = tmp_path / "hdd.json"
            config.write_text(json.dumps(HDD_CONFIG))
            assert run(["synth", "--config", str(config), "--seed", "2",
                        "--out", str(tmp_path)]) == 0
        monkeypatch.setattr(cli, "parse_hdd_csv", None)  # a parse would be internal
        code, doc = self._error(capsys, ["lifecycle", "--family", "hdd", "--input",
                                         str(path), *window, "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["characterize", "--analysis", "corelations", "--seed", "1"], {},
         "bad --analysis corelations for --family ssd; expected a comma list of "
         "all, correlations, monthly-rate"),
        (["characterize", "--analysis", "hfh-sweep", "--seed", "1"], {},
         "bad --analysis hfh-sweep for --family ssd"),
        (["characterize", "--family", "hdd", "--analysis", "pe-rate", "--seed", "1"],
         {}, "bad --analysis pe-rate for --family hdd"),
        (["characterize", "--family", "hdd", "--seed", "1"],
         {"analysis": "monthly-rate,write-quartiles"},
         "bad --analysis write-quartiles for --family hdd"),
        (["characterize", "--analysis", "correlations", "--thresholds", "5,6",
          "--seed", "1"], {}, "bad --thresholds without hfh-sweep"),
        (["characterize", "--thresholds", "5,6", "--seed", "1"], {},
         "bad --thresholds without hfh-sweep"),
        (["characterize", "--family", "hdd", "--analysis", "monthly-rate",
          "--error-kind", "smart_5", "--seed", "1"], {},
         "bad --error-kind without prefailure-percentiles or prefailure-prob"),
        (["featurize", "--partition-attr", "hfh"], {}, "bad partition attribute"),
        (["partition-eval", "--partition", "hfh:40000", "--seed", "1"], {},
         "bad partition attribute"),
        (["featurize"], {"partition-attr": "bogus"}, "bad partition attribute"),
        (["featurize", "--family", "hdd"], {"partition-attr": "bogus"},
         "bad partition attribute"),
    ], ids=["unknown_analysis", "ssd_hfh_sweep", "hdd_pe_rate", "config_hdd_quartiles",
            "unread_thresholds", "ssd_thresholds", "unread_error_kind",
            "featurize_ssd_hfh", "partition_eval_ssd_hfh", "config_attr_ssd",
            "config_attr_hdd"])
    def test_bad_analysis_or_partition_attribute_is_usage_error_before_the_input_is_read(
            self, tmp_path, capsys, argv, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": "ssd", **config}))
        code, doc = self._error(capsys, [
            *argv, "--config", str(path), "--input", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert doc["message"].startswith(message)
        assert not (tmp_path / "o").exists()

    def test_analyses_of_one_family_are_skipped_by_all(self, synth_dir, tmp_path):
        """``all`` runs the analyses of the ``--family``, and a config file may
        hold options that only the other family's analyses read."""
        (tmp_path / "config.json").write_text(json.dumps({"thresholds": "5,6"}))
        assert run(["characterize", "--family", "ssd",
                    "--input", str(synth_dir / "ssd_telemetry.csv"),
                    "--config", str(tmp_path / "config.json"), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "characterization.json").read_text())
        assert set(summary) - {"_meta", "family", "n_drives", "n_failures"} == {
            "correlations", "monthly-rate", "pe-rate", "prefailure-prob",
            "prefailure-percentiles", "write-quartiles"}

    @pytest.mark.parametrize("config", [
        {"models": [["ST-A"]]}, {"models": {"ST-A": 1}}, {"analysis": [None]},
        {"thresholds": [True]}, {"lookahead": [[0]]}],
        ids=["models_nested", "models_object", "analysis_null", "thresholds_bool",
             "lookahead_nested"])
    def test_a_config_list_of_other_than_scalars_is_usage_error(self, tmp_path, capsys,
                                                               config):
        (tmp_path / "hdd.json").write_text(json.dumps(HDD_CONFIG))
        assert run(["synth", "--config", str(tmp_path / "hdd.json"), "--seed", "2",
                    "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        (tmp_path / "config.json").write_text(json.dumps(config))
        command = "featurize" if "lookahead" in config else "characterize"
        code, doc = self._error(capsys, [
            command, "--family", "hdd", "--input", str(tmp_path / "hdd_telemetry.csv"),
            "--config", str(tmp_path / "config.json"), "--seed", "1",
            "--out", str(tmp_path / "o")])
        assert code == 2 and doc["error"] == "usage"
        assert f"bad --{next(iter(config))} " in doc["message"]

    @pytest.mark.parametrize("models, message", [
        ({"All": 0.3, "M2": 0.3}, '"All"'), ({"M1": 0.3}, "two drive models")],
        ids=["named_all", "one_model"])
    def test_matrix_drive_models_are_schema_errors(self, tmp_path, capsys, models,
                                                    message):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps(SYNTH_CONFIG | {
            "n_drives": 30, "horizon_days": 60, "models": models}))
        assert run(["synth", "--config", str(config), "--seed", "3",
                    "--out", str(tmp_path / "fleet")]) == 0
        capsys.readouterr()
        code, doc = self._error(capsys, [
            "matrix", "--family", "ssd",
            "--input", str(tmp_path / "fleet" / "ssd_telemetry.csv"),
            "--model", "tree", "--folds", "2", "--seed", "1",
            "--out", str(tmp_path / "o")])
        assert code == 4 and doc["error"] == "schema"
        assert message in doc["message"]

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys,
                                                    monkeypatch):
        def boom(run_context):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._COMMANDS, "report", boom)
        code, doc = self._error(capsys, ["report", "--out", str(tmp_path)])
        assert code == 5 and doc["error"] == "internal"
        assert doc["message"] == "RuntimeError: boom"
        assert "Traceback" in doc["traceback"]


class TestOptionTable:
    """A subcommand accepts exactly the options it reads, and checks each of
    them before it opens any input or makes ``--out``."""

    @staticmethod
    def _usage_error(capsys, argv: list, out: Path) -> str:
        assert run([*argv, "--out", str(out)]) == 2, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "usage" and "traceback" not in doc
        assert not out.exists()
        return doc["message"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--lookahead", "x"], ["sweep", "--hyper", "{bad"],
        ["matrix", "--folds", "1"], ["featurize", "--lookahead", "x"]],
        ids=["sweep_lookahead", "sweep_hyper", "matrix_folds", "featurize_lookahead"])
    def test_bad_option_with_a_missing_input_is_usage_error(self, argv, tmp_path, capsys):
        message = self._usage_error(capsys, [
            *argv, "--family", "ssd", "--input", str(tmp_path / "missing.csv"),
            "--seed", "1"], tmp_path / "o")
        assert message.startswith(f"bad {argv[1]} ") or f" or {argv[1]}:" in message

    def test_bad_lookahead_reads_no_dataset(self, synth_dir, tmp_path, capsys,
                                            monkeypatch):
        source = ["--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
                  "--out", str(tmp_path / "run")]
        assert run(["ingest", *source]) == 0
        before = dir_snapshot(tmp_path / "run")

        def no_read(*args, **kwargs):
            raise AssertionError("the dataset was read")
        monkeypatch.setattr(cli, "_parse", no_read)
        monkeypatch.setattr(cli, "read_dataset_npz", no_read)
        assert run(["sweep", *source, "--lookahead", "x", "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert dir_snapshot(tmp_path / "run") == before

    @pytest.mark.parametrize("argv", [
        ["train", "--folds", "3"], ["featurize", "--jobs", "2"],
        ["report", "--jobs", "2"]], ids=["train_folds", "featurize_jobs", "report_jobs"])
    def test_an_option_the_subcommand_does_not_read_is_refused(self, argv, tmp_path,
                                                               capsys):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "matrix", "partition-eval"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_a_lookahead_list_where_one_is_fitted_is_usage_error(self, command, given,
                                                                 tmp_path, capsys):
        (tmp_path / "config.json").write_text(json.dumps({"lookahead": [0, 7]}))
        lookahead = (["--lookahead", "0,7"] if given == "flag"
                     else ["--config", str(tmp_path / "config.json")])
        partition = ["--partition", "age:90"] if command == "partition-eval" else []
        message = self._usage_error(capsys, [
            command, *lookahead, *partition, "--family", "ssd",
            "--input", str(tmp_path / "missing.csv"), "--seed", "1"], tmp_path / "o")
        assert message.startswith("bad --lookahead ")
        assert f"{command} fits one lookahead" in message

    @pytest.mark.parametrize("flag", [["--models", "X"], ["--from", "2020-01-01"],
                                      ["--to", "2020-01-01"]],
                             ids=["models", "from", "to"])
    def test_an_hdd_filter_on_ssds_is_usage_error(self, flag, tmp_path, capsys):
        message = self._usage_error(capsys, [
            "ingest", "--family", "ssd", "--input", str(tmp_path / "missing.csv"),
            *flag], tmp_path / "o")
        assert message.startswith("bad --models/--from/--to for --family ssd;")

    def test_a_bad_burst_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "fleet.json").write_text(json.dumps(
            SYNTH_CONFIG | {"bursts": [{"kind": "uncorrectable", "bogus": 1}]}))
        message = self._usage_error(capsys, [
            "synth", "--config", str(tmp_path / "fleet.json"), "--seed", "1"],
            tmp_path / "o")
        assert message.startswith("bad synth config: ") and "bogus" in message

    @pytest.mark.parametrize("fields", [
        {"infant_hazard_multiplier": math.nan}, {"n_drives": 10.5},
        {"horizon_days": 30.5}, {"read_ops_mean": -1}, {"pe_rate_per_day": -1},
        {"family": "hdd", "hfh_threshold": "x"}, {"reentry_gap_mean_days": 0},
        {"reentry_gap_mean_days": 0.5}, {"bursts": [{"mean": -1}]},
        {"confounders": [{"mean": -4}]},
        {"horizon_days": 2, "infant_period_days": 0, "infant_hazard_multiplier": 3,
         "models": {"A": 0.9}},
        {"n_drives": True}, {"infant_period_days": -5},
        {"bursts": [{"age_class": "middle"}]}, {"bursts": [{"probability": 2}]},
        {"bursts": [{"days": -2}]}, {"inactivity_mean_days": -3},
        {"family": "hdd", "hfh_effect": math.nan},
    ], ids=["nan_multiplier", "float_drives", "float_horizon", "negative_reads",
            "negative_pe_rate", "text_hfh_threshold", "zero_reentry_gap",
            "short_reentry_gap", "negative_burst_mean", "negative_confounder_mean",
            "unreachable_target", "bool_drives", "negative_infant_period",
            "unknown_age_class", "burst_probability_above_1", "negative_burst_days",
            "negative_inactivity", "nan_hfh_effect"])
    def test_a_config_the_generator_cannot_use_is_usage_error(self, fields, tmp_path,
                                                              capsys):
        fleet = {"n_drives": 10, "horizon_days": 30, "models": {"A": 0.1}} | fields
        (tmp_path / "fleet.json").write_text(json.dumps(fleet))

        def expire(signum, frame):
            raise TimeoutError("synth did not return within 5 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            message = self._usage_error(capsys, [
                "synth", "--config", str(tmp_path / "fleet.json"), "--seed", "1"],
                tmp_path / "o")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert message.startswith("bad synth config: ")


class TestConfigLists:
    """A comma-list option from a config file may be a JSON list."""

    def test_a_json_list_acts_as_its_comma_string(self, tmp_path):
        (tmp_path / "hdd.json").write_text(json.dumps(
            HDD_CONFIG | {"models": {"ST-A": 0.2, "ST-B": 0.3}}))
        assert run(["synth", "--config", str(tmp_path / "hdd.json"), "--seed", "2",
                    "--out", str(tmp_path)]) == 0
        source = ["--family", "hdd", "--input", str(tmp_path / "hdd_telemetry.csv")]
        lists = {"models": ["ST-B"], "analysis": ["monthly-rate", "hfh-sweep"],
                 "thresholds": [10000, 40000.5], "lookahead": [0, 7]}
        (tmp_path / "lists.json").write_text(json.dumps(lists))
        strings = {key: ",".join(map(str, value)) for key, value in lists.items()}
        for command, keys in {"ingest": ["models"],
                              "characterize": ["models", "analysis", "thresholds"],
                              "featurize": ["models", "lookahead"]}.items():
            argv = [command, *source, "--seed", "1", "--out"]
            assert run([*argv, str(tmp_path / "lists"),
                        "--config", str(tmp_path / "lists.json")]) == 0, command
            assert run([*argv, str(tmp_path / "strings"),
                        *[f"--{key}={strings[key]}" for key in keys]]) == 0, command
        written = {name: dir_snapshot(tmp_path / name) for name in ("lists", "strings")}
        assert sorted(written["lists"]) == sorted(written["strings"])
        assert {"rates_monthly.csv", "rates_hfh.csv", "examples_hdd_N0.csv",
                "examples_hdd_N7.csv"} <= set(written["lists"])
        assert "correlations.csv" not in written["lists"]
        report = json.loads(written["lists"]["ingest_report.json"])
        assert report["models"] == ["ST-B"] and report["n_drives"] > 0
        assert written["lists"]["hdd_dataset.csv"] == written["strings"]["hdd_dataset.csv"]
        rows = written["lists"]["rates_hfh.csv"].decode().splitlines()
        assert [row.split(",")[0] for row in rows[2:]] == ["10000.0", "40000.5"]


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


class TestRocArtifacts:
    """Each evaluation's pooled ROC is one CSV beside its JSON report."""

    @staticmethod
    def _csv_rows(path: Path) -> list:
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "threshold,fpr,tpr"
        return [[float(cell) for cell in line.split(",")] for line in lines[1:]]

    @staticmethod
    def _keys(doc) -> set:
        if isinstance(doc, dict):
            return set(doc).union(*map(TestRocArtifacts._keys, doc.values()))
        if isinstance(doc, list):
            return set().union(*map(TestRocArtifacts._keys, doc))
        return set()

    def test_one_csv_per_roc_and_report_lists_the_run(self, synth_dir, tmp_path,
                                                      monkeypatch):
        returned = {}
        for name in ("cross_validated_eval", "lookahead_sweep",
                     "partitioned_eval"):
            def recorded(*args, _name=name, _fn=getattr(cli.evaluation, name),
                         **kwargs):
                returned[_name] = _fn(*args, **kwargs)
                return returned[_name]
            monkeypatch.setattr(cli.evaluation, name, recorded)
        out = tmp_path / "run"
        common = ["--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
                  "--model", "tree", "--hyper", '{"max_depth": 4}',
                  "--folds", "3", "--seed", "4", "--out", str(out)]
        assert run(["evaluate", "--lookahead", "0", *common]) == 0
        evaluated = returned["cross_validated_eval"]
        assert run(["sweep", "--lookahead", "0,2", *common]) == 0
        swept = returned["lookahead_sweep"]
        assert run(["partition-eval", "--lookahead", "0", "--partition", "age:60",
                    *common]) == 0
        split = returned["partitioned_eval"]

        expected = {"roc.csv": evaluated, "roc_N0.csv": swept[0],
                    "roc_N2.csv": swept[2], "roc_below.csv": split.below,
                    "roc_above.csv": split.above, "roc_unsplit.csv": split.unsplit}
        assert sorted(p.name for p in out.glob("roc*.csv")) == sorted(expected)
        for name, report in expected.items():
            assert self._csv_rows(out / name) == report.roc.rows(), name

        # a side with no examples writes no ROC file
        assert run(["partition-eval", "--lookahead", "0",
                    "--partition", "age:100000", *common[:-1],
                    str(tmp_path / "one_side")]) == 0
        assert returned["partitioned_eval"].above is None
        assert sorted(p.name for p in (tmp_path / "one_side").glob("roc*.csv")) == [
            "roc_below.csv", "roc_unsplit.csv"]

        assert run(["report", "--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        for path in out.glob("*.json"):
            assert "roc" not in self._keys(json.loads(path.read_text())), path.name
        doc = json.loads(first)
        listed = [line[2:] for line in (out / "report.md").read_text().splitlines()
                  if line.startswith("- `") and "(from" in line]
        assert [f"`{name}` (from `{cmd}`)" for name, cmd in doc["sections"].items()
                ] == listed
        assert list(doc["sections"]) == doc["artifacts"] == [
            "eval_report.json", "partition_report.json", "sweep.csv"]

        def no_reading(*args, **kwargs):
            raise AssertionError("report read a file back")

        with monkeypatch.context() as patch:
            for name in ("read_text", "read_bytes", "open"):
                patch.setattr(Path, name, no_reading)
            patch.setattr("builtins.open", no_reading)
            assert run(["report", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_a_side_without_a_roc_removes_the_earlier_runs_file(self, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({"family": "ssd", "n_drives": 300,
                                      "horizon_days": 60}))
        assert run(["synth", "--config", str(config), "--seed", "1",
                    "--out", str(tmp_path / "d")]) == 0
        out = tmp_path / "part"
        common = ["partition-eval", "--family", "ssd",
                  "--input", str(tmp_path / "d" / "ssd_telemetry.csv"),
                  "--model", "tree", "--lookahead", "0", "--seed", "1",
                  "--out", str(out)]
        assert run([*common, "--partition", "age:30"]) == 0
        assert (out / "roc_above.csv").exists()
        assert run([*common, "--partition", "age:100000"]) == 0
        assert json.loads((out / "partition_report.json").read_text())["above"] is None
        assert sorted(p.name for p in out.glob("roc*.csv")) == [
            "roc_below.csv", "roc_unsplit.csv"]

    def test_a_report_without_a_pooled_roc_removes_the_earlier_runs_file(
            self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        common = ["--family", "ssd", "--input", str(synth_dir / "ssd_telemetry.csv"),
                  "--model", "tree", "--hyper", '{"max_depth": 2}',
                  "--folds", "3", "--seed", "4", "--out", str(out)]
        assert run(["evaluate", "--lookahead", "0", *common]) == 0
        assert run(["sweep", "--lookahead", "0,2", *common]) == 0
        assert sorted(p.name for p in out.glob("roc*.csv")) == [
            "roc.csv", "roc_N0.csv", "roc_N2.csv"]

        def no_roc(report):
            return dataclasses.replace(report, pooled_auroc=None, roc=None)

        # the sweep calls cross_validated_eval itself, so each is patched alone
        cross_validated_eval = cli.evaluation.cross_validated_eval
        with monkeypatch.context() as patch:
            patch.setattr(cli.evaluation, "cross_validated_eval",
                          lambda *a, **k: no_roc(cross_validated_eval(*a, **k)))
            assert run(["evaluate", "--lookahead", "0", *common]) == 0
        lookahead_sweep = cli.evaluation.lookahead_sweep
        monkeypatch.setattr(cli.evaluation, "lookahead_sweep", lambda *a, **k: {
            n: no_roc(r) if n == 2 else r for n, r in lookahead_sweep(*a, **k).items()})
        assert run(["sweep", "--lookahead", "0,2", *common]) == 0
        assert sorted(p.name for p in out.glob("roc*.csv")) == ["roc_N0.csv"]
