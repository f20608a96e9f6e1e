"""The verdict of ``tools/abpairs.py`` on fixed samples; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abpairs", Path(__file__).resolve().parents[1] / "tools" / "abpairs.py")
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)
verdict = abpairs.verdict

#: Ten parent runs: median 0.1875, quartiles 0.17625 and 0.19875 (IQR 0.0225).
PARENT = [0.17, 0.18, 0.175, 0.19, 0.20, 0.21, 0.185, 0.195, 0.205, 0.16]


def test_quartiles_are_inclusive():
    assert abpairs.quartiles(PARENT) == pytest.approx((0.17625, 0.1875, 0.19875))
    assert abpairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_claim_holds_on_nine_wins_and_a_gap_above_the_iqr():
    change = [p - 0.04 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one pair lost
    v = verdict(PARENT, change, "lower", claim=True)
    assert (v["wins"], v["pairs"], v["holds"]) == (9, 10, True)
    assert v["gain"] > v["parent"][2] - v["parent"][0]


def test_claim_fails_on_eight_wins():
    change = [p - 0.04 for p in PARENT]
    change[3] = change[4] = 1.0
    assert verdict(PARENT, change, "lower", claim=True)["holds"] is False


def test_claim_fails_when_the_gap_is_inside_the_iqr():
    change = [p - 0.01 for p in PARENT]  # wins every pair, by less than the IQR
    v = verdict(PARENT, change, "lower", claim=True)
    assert v["wins"] == 10 and v["holds"] is False


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), "lower", bound=0.1, claim=True)
    assert (v["wins"], v["gain"], v["holds"], v["flagged"]) == (0, 0.0, False, False)


def test_higher_is_better():
    v = verdict([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], "higher", claim=True)
    assert (v["wins"], v["gain"], v["holds"]) == (3, 3.0, True)


def test_flag_only_past_the_bound():
    slower = [p * 1.2 for p in PARENT]
    assert not verdict(PARENT, slower, "lower", bound=0.25)["flagged"]
    assert verdict(PARENT, slower, "lower", bound=0.1)["flagged"]
    assert not verdict(PARENT, slower, "lower")["flagged"]  # no bound, no flag
    assert verdict(PARENT, slower, "lower", bound=0.1)["holds"] is None  # no claim


def test_unequal_samples_rejected():
    with pytest.raises(ValueError):
        verdict([1.0], [1.0, 2.0], "lower")


def test_session_record_from_fixed_samples():
    seeds = list(range(5, 15))
    samples = {"parent": [{"wall_s": p, "peak_rss_mb": 47.0} for p in PARENT],
               "change": [{"wall_s": p - 0.04, "peak_rss_mb": 47.25} for p in PARENT]}
    verdicts = {name: verdict([r[name] for r in samples["parent"]],
                              [r[name] for r in samples["change"]], "lower",
                              bound, claim=name == "wall_s")
                for name, bound in (("wall_s", 0.25), ("peak_rss_mb", 0.1))}
    commits = {"parent": "8" * 40, "change": None}
    doc = json.loads(json.dumps(abpairs.session_record("w", seeds, 60.0, commits,
                                                       samples, verdicts)))
    assert set(doc) == {"workload", "seeds", "pairs", "seconds", "nproc", "commits",
                        "pair_metrics", "verdicts"}
    assert (doc["workload"], doc["seeds"], doc["pairs"], doc["seconds"]) == (
        "w", seeds, 10, 60.0)
    assert isinstance(doc["nproc"], int) and doc["nproc"] >= 1
    assert doc["commits"] == commits
    assert doc["pair_metrics"][3] == {"seed": 8, "parent": samples["parent"][3],
                                      "change": samples["change"][3]}
    assert [p["seed"] for p in doc["pair_metrics"]] == seeds
    assert doc["verdicts"]["wall_s"]["holds"] is True
    assert doc["verdicts"]["peak_rss_mb"]["wins"] == 0
    assert doc["verdicts"]["peak_rss_mb"]["parent"] == [47.0, 47.0, 47.0]


def test_head_commit_outside_a_work_tree(tmp_path):
    assert abpairs.head_commit(tmp_path) is None


FAKE_RUN = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall = {wall} + seed % 3 * 0.001
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MiB"}}}}}}))
'''

MANIFEST = ('{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", '
            '"bound": 0.25}, {"name": "peak_rss_mb", "unit": "MiB", '
            '"better": "lower", "bound": 0.1}]}')


def _checkout(root: Path, wall: float, rss: float = 100.0, correct: bool = True) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(wall=wall, rss=rss, correct=correct))
    (root / "BENCHMARK.json").write_text(MANIFEST)
    return root


def _main(parent: Path, change: Path) -> int:
    return abpairs.main([str(parent), str(change), "--workload", "w", "--pairs", "4",
                         "--seconds", "1", "--seed-base", "5", "--claim", "wall_s"])


def test_main_on_stand_in_checkouts(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", 0.2)
    assert _main(parent, _checkout(tmp_path / "faster", 0.1)) == 0
    out = capsys.readouterr().out
    assert "claim holds" in out
    record = json.loads(out.splitlines()[-1])
    assert record["seeds"] == [5, 6, 7, 8] and record["verdicts"]["wall_s"]["holds"]
    assert _main(parent, _checkout(tmp_path / "same", 0.2)) == 1
    out = _main(parent, _checkout(tmp_path / "bigger", 0.1, rss=120.0))
    assert out == 1 and "worse by more than its bound 0.1" in capsys.readouterr().out


def test_main_stops_on_an_incorrect_run(tmp_path):
    parent = _checkout(tmp_path / "parent", 0.2)
    with pytest.raises(SystemExit) as exc:
        _main(parent, _checkout(tmp_path / "wrong", 0.1, correct=False))
    assert exc.value.code == 2
