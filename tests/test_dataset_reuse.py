"""``ingest`` stores the dataset it parsed; later subcommands on the same bytes load it.

The oracle is the parse: a loaded dataset equals the parsed one, provenance
included, and every case where the stored file does not fit (other bytes,
other filters, another family, a damaged file) parses again and writes the
artifacts of a run that only parses.
"""

import datetime as dt
import json
import shutil
import zipfile
from pathlib import Path

import pytest

from drivelife import cli, ingest, lifecycle
from drivelife.cli import run
from drivelife.ingest import filter_hdd, parse_hdd_csv, parse_ssd_log

from test_ingest import ssd_row

SSD_FLEET = {"family": "ssd", "n_drives": 40, "horizon_days": 60,
             "models": {"MLC-A": 0.2, "MLC-B": 0.25}}
HDD_FLEET = {"family": "hdd", "n_drives": 30, "horizon_days": 90,
             "models": {"ST-A": 0.2, "ST-B": 0.3}}
HDD_FILTER = ["--models", "ST-A", "--from", "2014-02-01", "--to", "2014-03-15"]

DAY_US = 86_400_000_000


def _synth(tmp_path_factory, fleet: dict) -> Path:
    out = tmp_path_factory.mktemp(fleet["family"])
    (out / "fleet.json").write_text(json.dumps(fleet))
    assert run(["synth", "--config", str(out / "fleet.json"), "--seed", "5",
                "--out", str(out)]) == 0
    return out / f"{fleet['family']}_telemetry.csv"


@pytest.fixture(scope="module")
def ssd_input(tmp_path_factory) -> Path:
    """A synth SSD log with a malformed row, a duplicate row and two drives
    to quarantine: one whose P/E count decreases, one with conflicting rows."""
    path = _synth(tmp_path_factory, SSD_FLEET)
    lines = path.read_text().splitlines()
    lines += [lines[5], "s-bad,MLC-A,not-a-time" + ",0" * 19,
              ssd_row("q-pe", ts=0, pe=5), ssd_row("q-pe", ts=DAY_US, pe=3),
              ssd_row("q-dup", ts=0, reads=1), ssd_row("q-dup", ts=0, reads=2)]
    path.write_text("\n".join(lines) + "\n")
    ds = parse_ssd_log(path.read_text())
    assert ds.provenance["rejected_count"] == 2
    assert [d for d, _ in ds.provenance["quarantined"]] == ["q-dup", "q-pe"]
    return path


@pytest.fixture(scope="module")
def hdd_input(tmp_path_factory) -> Path:
    """A synth HDD fleet of two models with one malformed row."""
    path = _synth(tmp_path_factory, HDD_FLEET)
    with path.open("a") as handle:
        handle.write("2014-02-03,Z-bad,ST-A,,7" + ",," * 20 + "\n")
    return path


@pytest.fixture
def seen(monkeypatch):
    """The datasets the CLI analyses and the parses it makes."""
    record = {"datasets": [], "parses": 0}
    detect = lifecycle.failure_table

    def detecting(ds):
        record["datasets"].append(ds)
        return detect(ds)

    monkeypatch.setattr(lifecycle, "failure_table", detecting)
    for name in ("parse_ssd_log", "parse_hdd_csv"):
        def parsing(*args, _parse=getattr(cli, name), **kwargs):
            record["parses"] += 1
            return _parse(*args, **kwargs)
        monkeypatch.setattr(cli, name, parsing)
    return record


def _source(path: Path) -> list[str]:
    family = path.name.split("_")[0]
    return ["--family", family, "--input", str(path)]


def _artifacts(out: Path, names) -> dict:
    return {name: (out / name).read_bytes() for name in names}


def _parse_only(path: Path, argv: list[str], out: Path) -> dict:
    """The artifacts of ``argv`` run into a directory without a stored dataset."""
    assert run([*argv, *_source(path), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestLoad:
    def test_ssd_loaded_equals_parsed(self, ssd_input, tmp_path, seen):
        out = str(tmp_path / "run")
        assert run(["ingest", *_source(ssd_input), "--out", out]) == 0
        assert seen["parses"] == 1
        assert run(["lifecycle", *_source(ssd_input), "--out", out]) == 0
        assert seen["parses"] == 1
        loaded = seen["datasets"][-1]
        parsed = parse_ssd_log(ssd_input.read_text(), source=str(ssd_input))
        assert loaded == parsed
        assert loaded.provenance == parsed.provenance
        assert loaded.provenance["quarantined"] and loaded.provenance["rejected"]

    def test_hdd_filtered_loaded_equals_parsed(self, hdd_input, tmp_path, seen):
        out = str(tmp_path / "run")
        assert run(["ingest", *_source(hdd_input), *HDD_FILTER, "--out", out]) == 0
        assert run(["lifecycle", *_source(hdd_input), *HDD_FILTER, "--out", out]) == 0
        assert seen["parses"] == 1
        loaded = seen["datasets"][-1]
        parsed = filter_hdd(parse_hdd_csv(hdd_input.read_text(), source=str(hdd_input)),
                            {"ST-A"}, dt.date(2014, 2, 1), dt.date(2014, 3, 15))
        assert loaded == parsed
        assert loaded.provenance == parsed.provenance
        assert loaded.provenance["rejected_count"] == 1
        assert loaded.models() == ["ST-A"] and parsed.n_records > 0

    @pytest.mark.parametrize("argv", [["lifecycle"], ["featurize", "--lookahead", "0,7"],
                                      ["characterize", "--seed", "3"]])
    def test_artifacts_equal_a_parse_only_run(self, ssd_input, tmp_path, seen, argv):
        out = tmp_path / "run"
        assert run(["ingest", *_source(ssd_input), "--out", str(out)]) == 0
        expected = _parse_only(ssd_input, argv, tmp_path / "parsed")
        parses = seen["parses"]
        assert run([*argv, *_source(ssd_input), "--out", str(out)]) == 0
        assert seen["parses"] == parses
        assert _artifacts(out, expected) == expected

    def test_ingest_always_parses(self, ssd_input, tmp_path, seen):
        for _ in range(2):
            assert run(["ingest", *_source(ssd_input), "--out", str(tmp_path)]) == 0
        assert seen["parses"] == 2

    def test_the_file_does_not_depend_on_the_path(self, ssd_input, tmp_path):
        stored = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            copy = tmp_path / name / ssd_input.name
            shutil.copyfile(ssd_input, copy)
            assert run(["ingest", *_source(copy), "--out", str(tmp_path / name / "out")]) == 0
            stored.append((tmp_path / name / "out" / "ssd_dataset.npz").read_bytes())
        assert stored[0] == stored[1]

    def test_the_file_is_a_zip_of_npy_members(self, ssd_input, tmp_path):
        assert run(["ingest", *_source(ssd_input), "--out", str(tmp_path)]) == 0
        with zipfile.ZipFile(tmp_path / "ssd_dataset.npz") as archive:
            infos = archive.infolist()
        assert all(i.filename.endswith(".npy") for i in infos)
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {"meta.npy", "starts.npy", "column.time.npy"} <= {i.filename for i in infos}


class TestEqualFilter:
    """A filter spelled another way is the same filter, and loads the dataset
    that ``ingest`` stored for it."""

    @pytest.mark.parametrize("argv", [
        ["--models", "ST-B,ST-A"], ["--models", "ST-A, ST-B"],
        ["--models", "ST-A,ST-B", "--from", "0001-01-01"]],
        ids=["models_order", "models_spaced", "from_the_first_day"])
    def test_loads_what_ingest_stored(self, hdd_input, tmp_path, seen, monkeypatch, argv):
        out = str(tmp_path / "run")
        assert run(["ingest", *_source(hdd_input), "--models", "ST-A,ST-B",
                    "--out", out]) == 0

        def no_parse(*args, **kwargs):
            raise AssertionError("the input was parsed")
        monkeypatch.setattr(cli, "parse_hdd_csv", no_parse)
        assert run(["lifecycle", *_source(hdd_input), *argv, "--out", out]) == 0
        parsed = filter_hdd(parse_hdd_csv(hdd_input.read_text(), source=str(hdd_input)),
                            {"ST-A", "ST-B"}, dt.date.min, dt.date.max)
        assert seen["datasets"][-1] == parsed
        assert seen["datasets"][-1].provenance == parsed.provenance


def _edit_one_byte(out: Path, path: Path) -> None:
    """The last digit of the first data row's timestamp_us, changed."""
    data = bytearray(path.read_bytes())
    first = data.index(b"\n") + 1
    last = first + len(b",".join(data[first:].split(b",", 3)[:3])) - 1
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def _other_family(out: Path, path: Path) -> None:
    """An SSD dataset stored in ``out``, also under the HDD name."""
    assert run(["ingest", "--family", "ssd", "--input",
                str(out.parent / "ssd_telemetry.csv"), "--out", str(out)]) == 0
    shutil.copyfile(out / "ssd_dataset.npz", out / "hdd_dataset.npz")


def _damage(how):
    def damage(out: Path, path: Path) -> None:
        stored = out / f"{path.name.split('_')[0]}_dataset.npz"
        data = stored.read_bytes()
        if how == "truncated":
            stored.write_bytes(data[:len(data) // 2])
        elif how == "garbage":
            stored.write_bytes(b"not a dataset\n" * 100)
        elif how == "empty":
            stored.write_bytes(b"")
        elif how == "corrupt":  # one bit in the middle, inside some member's data
            middle = len(data) // 2
            stored.write_bytes(data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:])
        else:  # a member missing, under the right key
            with zipfile.ZipFile(stored) as old, zipfile.ZipFile(
                    out / "rewritten.npz", "w") as new:
                for info in old.infolist():
                    if info.filename != "column.time.npy":
                        new.writestr(info, old.read(info))
            (out / "rewritten.npz").replace(stored)
    return damage


class TestParseInstead:
    @pytest.mark.parametrize("family, change, argv", [
        ("ssd", _edit_one_byte, []),
        ("hdd", None, ["--from", "2014-02-02"]),
        ("hdd", None, []),
        ("hdd", _other_family, []),
        ("ssd", _damage("truncated"), []),
        ("ssd", _damage("garbage"), []),
        ("ssd", _damage("empty"), []),
        ("ssd", _damage("corrupt"), []),
        ("hdd", _damage("missing member"), HDD_FILTER),
    ], ids=["one_byte_edit", "other_from", "no_filter", "other_family", "truncated",
            "garbage", "empty", "corrupt_member", "missing_member"])
    def test_parses_and_writes_what_a_parse_only_run_writes(
            self, ssd_input, hdd_input, tmp_path, seen, family, change, argv):
        work = tmp_path / "work"
        work.mkdir()
        for source in (ssd_input, hdd_input):
            shutil.copyfile(source, work / source.name)
        path = work / f"{family}_telemetry.csv"
        out = work / "run"
        ingest_filter = HDD_FILTER if family == "hdd" and change is None else argv
        assert run(["ingest", *_source(path), *ingest_filter, "--out", str(out)]) == 0
        if change is not None:
            change(out, path)
        parses = seen["parses"]
        assert run(["lifecycle", *_source(path), *argv, "--out", str(out)]) == 0
        assert seen["parses"] == parses + 1
        expected = _parse_only(path, ["lifecycle", *argv], tmp_path / "parsed")
        assert _artifacts(out, expected) == expected


class TestKey:
    def test_read_returns_none_on_another_key(self, ssd_input, tmp_path):
        ds = parse_ssd_log(ssd_input.read_text())
        key = {"input_sha256": "0" * 64, "family": "ssd"}
        with (tmp_path / "d.npz").open("wb") as handle:
            ingest.write_dataset_npz(ds, handle, key)
        assert ingest.read_dataset_npz(tmp_path / "d.npz", key, "x") == ds
        assert ingest.read_dataset_npz(tmp_path / "d.npz", {**key, "family": "hdd"},
                                       "x") is None
        assert ingest.read_dataset_npz(tmp_path / "missing.npz", key, "x") is None

    def test_the_loaded_source_is_the_given_one(self, ssd_input, tmp_path):
        ds = parse_ssd_log(ssd_input.read_text(), source="first")
        with (tmp_path / "d.npz").open("wb") as handle:
            ingest.write_dataset_npz(ds, handle, {})
        loaded = ingest.read_dataset_npz(tmp_path / "d.npz", {}, "second")
        assert loaded.provenance == {**ds.provenance, "source": "second"}
        assert list(loaded.provenance) == list(ds.provenance)
