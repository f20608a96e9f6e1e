"""The lifecycle and examples tables against the per-drive walks they replace.

``walk_periods`` is the per-drive walk that cut operational periods before
the period table: it takes the failures of each drive by age and finds
each re-entry with a scan of the drive's rows. The random fleets are those
of ``test_daywindows``: HDD ages that repeat or run backward, several
failures per drive, failures that never re-enter, SSD swaps on a drive's
first row and back-to-back swaps.

The builder and the shared-text writer are checked against
``label_lookahead`` and ``write_examples_csv``, one lookahead at a time.
"""

import dataclasses
import datetime as dt
import io
import random

import numpy as np
import pytest

from drivelife import charstats, cli, featurize, lifecycle, synth
from drivelife.featurize import LabeledExamples
from drivelife.ingest import filter_hdd
from drivelife.ingest import _WRITE_BATCH
from drivelife.lifecycle import FailureTable, OperationalPeriod, PeriodTable

from conftest import table_of
from test_daywindows import FLEETS, TRIM_FLEETS, make_fleet


def walk_reentries(ds, days, failures):
    """(swap day, re-entry day or None) of each failure, one row scan each."""
    flagged = np.flatnonzero(ds.flag("swap_event" if ds.family == "ssd" else "failed"))
    out = []
    for ev in failures:
        drive = ds.drives.index(ev.drive)
        rows = flagged[(flagged >= ds.starts[drive]) & (flagged < ds.starts[drive + 1])]
        anchor = rows[ev.ordinal - 1]
        swap = int(days[anchor]) if ds.family == "ssd" else ev.age_days
        later = days[anchor + 1:ds.starts[drive + 1]]
        after = np.flatnonzero(later > swap)
        out.append((swap, int(later[after[0]]) if after.size else None))
    return out


def walk_periods(ds, failures):
    """The periods of each drive, by a walk over its failures in age order."""
    days = lifecycle.drive_days(ds)
    by_drive = {}
    for ev, (_, reentry) in zip(failures, walk_reentries(ds, days, failures)):
        by_drive.setdefault(ev.drive, []).append((ev, reentry))
    periods = []
    for i, drive in enumerate(ds.drives):
        ages = days[ds.starts[i]:ds.starts[i + 1]].tolist()
        start, end = ages[0], None
        for ev, reentry in sorted(by_drive.get(drive, ()),
                                  key=lambda e: (e[0].age_days, e[0].ordinal)):
            if end is None or ev.age_days > end:
                end = ev.age_days
                begin = end if start is None else min(start, end)
                periods.append(OperationalPeriod(drive, begin, end, "failure"))
            start = reentry
        if start is not None:
            periods.append(OperationalPeriod(drive, start, max(ages), "censored"))
    return periods


def columns(table):
    """The four columns of a failure or period table."""
    return [getattr(table, field.name) for field in dataclasses.fields(table)[:4]]


def table_rows(table):
    return list(zip(*(column.tolist() for column in columns(table))))


def event_table(ds, failures):
    """The failure table of events, coded on ``ds.drives`` itself."""
    return FailureTable(
        np.array([ds.drives.index(ev.drive) for ev in failures], dtype=np.int64),
        np.array([ev.age_days for ev in failures], dtype=np.int64),
        np.array([ev.ordinal for ev in failures], dtype=np.int64),
        np.array([ev.degenerate for ev in failures], dtype=bool), ds.drives, ds.family)


@pytest.mark.parametrize("family,seed", FLEETS + TRIM_FLEETS)
class TestTablesAgainstTheWalk:
    def test_failure_table_is_the_events(self, family, seed):
        ds = make_fleet(family, seed)
        table = lifecycle.failure_table(ds)
        assert all(column.dtype == dtype for column, dtype in
                   zip(columns(table), (np.int64, np.int64, np.int64, bool)))
        assert table.drives is ds.drives and table.family == ds.family
        assert len(table) == table.drive.size
        assert table_rows(table) == table_rows(event_table(
            ds, lifecycle.detect_failures(ds)))

    def test_period_table(self, family, seed):
        ds = make_fleet(family, seed)
        failures = lifecycle.detect_failures(ds)
        table = lifecycle.period_table(ds, lifecycle.failure_table(ds))
        assert all(column.dtype == dtype for column, dtype in
                   zip(columns(table), (np.int64, np.int64, np.int64, bool)))
        assert table.drives is ds.drives and len(table) == table.drive.size
        # repr also tells a numpy integer from a Python int.
        assert repr(list(table)) == repr(walk_periods(ds, failures))
        assert repr(list(lifecycle.extract_operational_periods(ds, failures))) == \
            repr(walk_periods(ds, failures))
        assert lifecycle.period_length_sample(table) == lifecycle.period_length_sample(
            table_of(walk_periods(ds, failures), PeriodTable))

    def test_failures_in_any_order_and_subset(self, family, seed):
        ds = make_fleet(family, seed)
        rng = random.Random(seed)
        failures = lifecycle.detect_failures(ds)
        for _ in range(4):
            some = [ev for ev in failures if rng.random() < 0.6]
            some += rng.sample(some, min(2, len(some)))  # a failure listed twice
            rng.shuffle(some)
            for table in (event_table(ds, some), table_of(some)):
                periods = lifecycle.period_table(ds, table)
                assert repr(list(periods)) == repr(walk_periods(ds, some))


def test_fleets_reach_every_case_of_the_walk():
    """The random fleets hold several failures per drive, failures at the
    age of the one before, and failures that never re-enter."""
    several = same_age = never_back = 0
    for family, seed in FLEETS + TRIM_FLEETS:
        ds = make_fleet(family, seed)
        failures = lifecycle.detect_failures(ds)
        table = lifecycle.failure_table(ds)
        several += int((table.ordinal > 1).sum())
        same = (table.drive[1:] == table.drive[:-1]) & (table.day[1:] == table.day[:-1])
        same_age += int(same.sum())
        never_back += sum(reentry is None for _, reentry in walk_reentries(
            ds, lifecycle.drive_days(ds), failures))
    assert several > 0 and same_age > 0 and never_back > 0


@pytest.mark.parametrize("family", ["hdd", "ssd"])
def test_period_table_rejects_a_failure_without_its_flagged_row(family):
    ds = make_fleet(family, 0)
    table = lifecycle.failure_table(ds)
    for drive, ordinal in ((table.drive[0], 99), (table.drive[0], 0), (-1, 1),
                           (ds.n_drives, 1)):
        bad = FailureTable(np.array([drive]), np.array([3]), np.array([ordinal]),
                           np.array([False]), ds.drives, family)
        with pytest.raises(ValueError, match="has no flagged row for failure"):
            lifecycle.period_table(ds, bad)
    # A drive the dataset lacks, on another name list, is named by its name.
    ghost = table_of([lifecycle.FailureEvent("ghost", 3, 1, family)])
    for build in (lifecycle.period_table, lifecycle.build_repair_spells):
        with pytest.raises(ValueError, match="drive 'ghost' has no flagged row for "
                           "failure 1"):
            build(ds, ghost)


def test_failures_of_the_unfiltered_fleet_on_a_model_subset():
    """Read with its one-model ``filter_hdd`` subset, an HDD fleet's failure
    table gives what the subset's own gives to the HFH sweep and the labels:
    the other models' failures match no drive of the subset."""
    ds, _ = synth.generate_fleet(synth.SynthConfig(family="hdd", n_drives=90,
                                                   horizon_days=120, seed=5))
    model = ds.models()[0]
    sub = filter_hdd(ds, [model], dt.date.min, dt.date.max)
    failures, own = lifecycle.failure_table(ds), lifecycle.failure_table(sub)
    assert 0 < len(own) < len(failures) and sub.n_drives < ds.n_drives
    thresholds = [0, 1000, 5000, 10**6]
    assert charstats.hfh_threshold_sweep(failures, sub, thresholds) == \
        charstats.hfh_threshold_sweep(own, sub, thresholds)
    feats, periods = featurize.make_features(sub), lifecycle.period_table(sub, own)
    full, subset = (featurize.example_builder(feats, table, periods)
                    for table in (failures, own))
    for n in (0, 7):
        assert_same_examples(full(n), subset(n))
    assert subset(7).n_positive > 0


# -- one builder for every lookahead ---------------------------------------------


@pytest.fixture(scope="module", params=["ssd", "hdd"])
def fleet(request):
    config = synth.SynthConfig(family=request.param, n_drives=80, horizon_days=90,
                               seed=5)
    return synth.generate_fleet(config)[0]


def assert_same_examples(a: LabeledExamples, b: LabeledExamples) -> None:
    assert a.names == b.names and a.lookahead == b.lookahead
    assert list(a.drive_ids) == list(b.drive_ids)
    assert a.drive_models == b.drive_models
    for name in ("X", "y", "drive", "days", "partition_key"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


def test_builder_equals_label_lookahead(fleet):
    feats = featurize.make_features(fleet)
    failures = lifecycle.detect_failures(fleet)
    periods = lifecycle.extract_operational_periods(fleet, failures)
    for attr in ("age", "hfh") if fleet.family == "hdd" else ("age",):
        build = cli._example_builder(fleet, attr)
        tables = {}
        for n in (0, 1, 2, 7, 30):
            tables[n] = build(n)
            assert_same_examples(tables[n], featurize.label_lookahead(
                feats, failures, n, periods, partition_attr=attr,
                models=fleet.model_of))
        assert tables[30].n_positive > tables[0].n_positive > 0
        assert all(t.X is tables[0].X and t.drive is tables[0].drive
                   for t in tables.values())
        with pytest.raises(ValueError, match="lookahead must be >= 0"):
            build(-1)


def test_builder_without_periods_keeps_every_row(fleet):
    feats = featurize.make_features(fleet)
    failures = lifecycle.detect_failures(fleet)
    build = featurize.example_builder(feats, lifecycle.failure_table(fleet))
    for n in (0, 7):
        assert_same_examples(build(n), featurize.label_lookahead(feats, failures, n))
    assert build(0).X is feats.X


# -- one formatted text for every lookahead ----------------------------------------

#: Drive ids that csv quotes, or that are not ASCII.
ODD_IDS = ["plain", "a,b", 'say "hi"', "line\nbreak", " lead", "ü-drive", "日本",
           "", "#hash", "x\r"]


def shared_tables(n: int, seed: int, k: int = 3) -> list[LabeledExamples]:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 12, size=(n, 4)).astype(float)
    odd = rng.random((n, 4)) < 0.2
    X[odd] = rng.choice([0.5, -3.0, 1e17, float("nan"), float("inf"), 2.0**53, -0.0,
                         1 / 3], size=int(odd.sum()))
    drive_ids = ODD_IDS + [f"d{i}" for i in range(20)]
    base = LabeledExamples(("f0", "f,1", "f2", "f3"), X, np.zeros(n, dtype=bool),
                           rng.integers(0, len(drive_ids), size=n), drive_ids,
                           rng.integers(-5, 10**12, size=n),
                           rng.choice([0.0, 7.0, 2.5, 1e20], size=n), 0)
    return [dataclasses.replace(base, y=rng.random(n) < p, lookahead=i)
            for i, p in enumerate((0.0, 0.1, 0.5, 1.0)[:k])]


@pytest.mark.parametrize("n", [0, 1, _WRITE_BATCH, _WRITE_BATCH + 1])
@pytest.mark.parametrize("comment", [None, "drivelife test"])
def test_shared_text_equals_one_table_at_a_time(n, comment):
    tables = shared_tables(n, seed=n, k=4)
    outs = [io.StringIO() for _ in tables]
    featurize.write_examples_tables(tables, outs, header_comment=comment)
    for table, out in zip(tables, outs):
        one = io.StringIO()
        featurize.write_examples_csv(table, one, header_comment=comment)
        assert out.getvalue() == one.getvalue()
    assert len({out.getvalue() for out in outs}) == len({t.y.tobytes() for t in tables})


def test_shared_text_refuses_tables_that_do_not_share_rows():
    a, b = shared_tables(10, seed=1, k=2)
    for other in (dataclasses.replace(b, X=b.X.copy()),
                  dataclasses.replace(b, drive_ids=list(b.drive_ids))):
        with pytest.raises(ValueError, match="do not share"):
            featurize.write_examples_tables([a, other], [io.StringIO(), io.StringIO()])
    with pytest.raises(ValueError, match="one stream per table"):
        featurize.write_examples_tables([a, b], [io.StringIO()])
