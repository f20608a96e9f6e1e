"""The drive-day axis against per-event brute force.

Each reference below rescans a drive's records once per event with a
boolean mask, the straightforward algorithm the window lookup replaces,
and the ages and failure rules are the per-record loops the column
versions in ``lifecycle`` replace. The fleets are random and
adversarial: HDD SMART 9 values that run backward or repeat, records
without SMART 9, windows that reach before a drive's first record and
after its last, failures and periods of drives that have no rows (named
to sort before, between and after the fleet's drives), periods whose
start is after their end, and SSD swaps on a drive's first record,
back-to-back swaps, bare swap markers and inactive runs longer than the
trim bound.
"""

import dataclasses
import datetime as dt
import random

import numpy as np
import pytest

from drivelife import charstats, featurize, lifecycle
from drivelife.ingest import filter_hdd
from drivelife.lifecycle import (SSD_TRIM_BOUND_DAYS, FailureEvent,
                                 OperationalPeriod, PeriodTable, _DayWindows,
                                 drive_days)

from conftest import drive_names, hdd_dataset, hdd_rec, ssd_dataset, ssd_rec, table_of


def random_hdd_fleet(rng: random.Random, n_drives: int = 12):
    fleet = {}
    for k in range(n_drives):
        serial = f"H{k:02d}"
        day, hours, cum = rng.randrange(0, 5), rng.randrange(0, 2000), 0
        recs = []
        for _ in range(rng.randrange(1, 40)):
            day += rng.choice((1, 1, 1, 2, 5))
            smart = {}
            if rng.random() < 0.8:
                # Power-on hours mostly advance a day, but sometimes stall
                # (duplicate ages) or jump backward.
                hours += rng.choice((24, 24, 24, 0, -24 * rng.randrange(1, 20)))
                smart[9] = max(hours, 0)
            if rng.random() < 0.7:
                cum = (cum + rng.choice((0, 0, 0, 1, 4))
                       if rng.random() > 0.05 else 0)
                smart[187] = cum
            recs.append(hdd_rec(serial, day, failed=rng.random() < 0.08,
                                smart=smart))
        fleet[serial] = recs
    return hdd_dataset(fleet)


def random_ssd_fleet(rng: random.Random, n_drives: int = 12):
    fleet = {}
    for k in range(n_drives):
        drive = f"S{k:02d}"
        day = rng.randrange(0, 5)
        recs = []
        for _ in range(rng.randrange(1, 40)):
            day += rng.choice((1, 1, 2, 7))
            active = rng.random() < 0.7
            errors = ({"uncorrectable": rng.randrange(1, 9)}
                      if rng.random() < 0.2 else None)
            recs.append(ssd_rec(drive, day, reads=100 if active else 0,
                                writes=50 if active else 0, pe=None,
                                swap=rng.random() < 0.1, errors=errors))
        fleet[drive] = recs
    return ssd_dataset(fleet)


def random_trim_fleet(rng: random.Random, n_drives: int = 12):
    """SSD drives built to exercise every branch of the backward trim."""
    fleet = {}
    for k in range(n_drives):
        drive = f"T{k:02d}"
        day = rng.randrange(0, 5)
        recs = []
        idle = k % 4 == 3  # never active: every failure degenerates
        for i in range(rng.randrange(1, 60)):
            day += rng.choice((1, 1, 1, 3, 12, 29, 30, 31, 45))
            swap = ((i == 0 and k % 3 == 0) or rng.random() < 0.15
                    or bool(recs) and recs[-1].swap_event and rng.random() < 0.5)
            if rng.random() < 0.15:
                # A bare swap marker: no performance summary at all.
                recs.append(ssd_rec(drive, day, reads=None, writes=None,
                                    erases=None, pe=None, swap=True, dead=True,
                                    bbf=None, bbn=None))
                continue
            active = not idle and rng.random() < 0.35
            reads, writes = rng.choice(((100, 50), (0, 7), (3, None), (None, 0)))
            recs.append(ssd_rec(drive, day, reads=reads if active else 0,
                                writes=writes if active else rng.choice((0, None)),
                                pe=None, swap=swap))
        fleet[drive] = recs
    return ssd_dataset(fleet)


FLEETS = [("hdd", s) for s in range(6)] + [("ssd", s) for s in range(6)]
TRIM_FLEETS = [("trim", s) for s in range(12)]


def make_fleet(family, seed):
    rng = random.Random(seed)
    make = {"hdd": random_hdd_fleet, "ssd": random_ssd_fleet,
            "trim": random_trim_fleet}[family]
    return make(rng)


# -- the per-record rules the column versions replace --------------------------


def ref_record_ages(records):
    """Per-record drive ages in days for one HDD's sorted record sequence."""
    ages = []
    anchor_age = None
    anchor_date = None
    first_date = records[0].date
    for r in records:
        hours = r.smart_raw.get(9)
        if hours is not None:
            age = hours // 24
            anchor_age, anchor_date = age, r.date
        elif anchor_age is not None:
            age = anchor_age + (r.date - anchor_date).days
        else:
            age = (r.date - first_date).days
        ages.append(age)
    return ages


def ref_hdd_failures(ds):
    """One FailureEvent per failure-flagged HDD record, in drive/time order."""
    events = []
    for serial in ds.drives:
        seq = ds.records[serial]
        ages = ref_record_ages(seq)
        ordinal = 0
        for r, age in zip(seq, ages):
            if r.failed_today:
                ordinal += 1
                events.append(FailureEvent(serial, age, ordinal, "hdd"))
    return events


def ref_is_active(rec):
    # A missing performance summary counts as no activity.
    return bool(rec.read_ops) or bool(rec.write_ops)


def ref_ssd_failures(ds):
    """SSD failure days by the backward inactivity scan, record by record."""
    events = []
    for drive in ds.drives:
        seq = ds.records[drive]
        ordinal = 0
        prev_swap_index = -1  # records at or before this index belong to earlier failures
        for i, rec in enumerate(seq):
            if not rec.swap_event:
                continue
            swap_day = rec.day
            fail_day = None
            cutoff_day = swap_day - SSD_TRIM_BOUND_DAYS
            bounded = None
            for j in range(i, prev_swap_index, -1):
                cand = seq[j]
                if ref_is_active(cand):
                    fail_day = cand.day
                    break
                if cand.day < cutoff_day:
                    bounded = cand.day
                    break
            if fail_day is None and bounded is not None:
                fail_day = bounded
            ordinal += 1
            if fail_day is None:
                # No operational activity anywhere before the swap.
                first = seq[prev_swap_index + 1] if prev_swap_index + 1 <= i else rec
                events.append(FailureEvent(drive, first.day, ordinal, "ssd",
                                           degenerate=True))
            else:
                events.append(FailureEvent(drive, fail_day, ordinal, "ssd"))
            prev_swap_index = i
    return events


def ref_ages(ds, drive):
    seq = ds.records[drive]
    return ref_record_ages(seq) if ds.family == "hdd" else [r.day for r in seq]


def per_drive(ds, days):
    """A per-row array cut into one list per drive."""
    return {d: days[ds.starts[i]:ds.starts[i + 1]].tolist()
            for i, d in enumerate(ds.drives)}


def ref_reentry(ds, event, after_day):
    """The first age above ``after_day`` after the event's flagged record.

    The event is its drive's ordinal-th swap (SSD) or failed (HDD) record;
    records before it never count, even when HDD ages run backward.
    """
    seq = ds.records[event.drive]
    flagged = [i for i, r in enumerate(seq)
               if (r.swap_event if ds.family == "ssd" else r.failed_today)]
    for age in ref_ages(ds, event.drive)[flagged[event.ordinal - 1] + 1:]:
        if age > after_day:
            return age
    return None


def ref_swap_day(ds, drive, event):
    return [r.day for r in ds.records[drive] if r.swap_event][event.ordinal - 1]


def ref_periods(ds, failures):
    by_drive = {}
    for ev in failures:
        by_drive.setdefault(ev.drive, []).append(ev)
    periods = []
    for drive in ds.drives:
        ages = ref_ages(ds, drive)
        start, end = ages[0], None
        # Failures by age; one at the age of the previous one lies in its
        # period, and a period starts no later than its failure.
        for ev in sorted(by_drive.get(drive, ()), key=lambda e: (e.age_days, e.ordinal)):
            if end is None or ev.age_days > end:
                end = ev.age_days
                periods.append(OperationalPeriod(
                    drive, end if start is None else min(start, end), end, "failure"))
            boundary = (ref_swap_day(ds, drive, ev) if ds.family == "ssd"
                        else ev.age_days)
            start = ref_reentry(ds, ev, boundary)
        if start is not None:
            periods.append(OperationalPeriod(drive, start, max(ages), "censored"))
    return periods


def ref_spells(ds, failures):
    spells = []
    for ev in failures:
        swap = ref_swap_day(ds, ev.drive, ev) if ds.family == "ssd" else ev.age_days
        gap = swap - ev.age_days if ds.family == "ssd" else None
        spells.append(lifecycle.RepairSpell(ev.drive, ev.age_days,
                                            ref_reentry(ds, ev, swap), gap))
    return spells


def ref_labels(feats, failures, lookahead, periods):
    drives = drive_names(feats)
    keep = np.zeros(feats.n_rows, dtype=bool)
    for p in periods:
        keep |= ((drives == p.drive) & (feats.days >= p.start_day)
                 & (feats.days <= p.end_day))
    y = np.zeros(feats.n_rows, dtype=bool)
    for ev in failures:
        y |= ((drives == ev.drive) & (feats.days <= ev.age_days)
              & (ev.age_days <= feats.days + lookahead))
    return y[keep], keep


def ref_series(ds, kind):
    out = {}
    for drive in ds.drives:
        seq = ds.records[drive]
        days = np.asarray(ref_ages(ds, drive), dtype=np.int64)
        if ds.family == "ssd":
            counts = np.array([r.error_count(kind) for r in seq], dtype=np.int64)
        else:
            counts = np.zeros(len(seq), dtype=np.int64)
            prev = None
            for i, rec in enumerate(seq):
                value = rec.smart_raw.get(int(kind.split("_")[1]))
                if value is not None:
                    if prev is not None and value > prev:
                        counts[i] = value - prev
                    prev = value
        out[drive] = (days, counts)
    return out


NO_ROWS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def ref_probability(failures, ds, kind, windows, seed):
    series = ref_series(ds, kind)
    prob = {}
    for n in windows:
        hits = 0
        for ev in failures:
            days, counts = series.get(ev.drive, NO_ROWS)
            mask = (days >= ev.age_days - n + 1) & (days <= ev.age_days)
            hits += bool(np.any(counts[mask] > 0))
        prob[n] = hits / len(failures) if failures else None
    rng = np.random.default_rng(seed)
    flat = [(d, int(day)) for d, (days, _) in series.items() for day in days]
    picks = rng.integers(0, len(flat), size=charstats.BASELINE_WINDOW_DRAWS)
    baseline = {}
    for n in windows:
        hits = 0
        for k in picks:
            drive, end = flat[k]
            days, counts = series[drive]
            mask = (days >= end - n + 1) & (days <= end)
            hits += bool(np.any(counts[mask] > 0))
        baseline[n] = hits / charstats.BASELINE_WINDOW_DRAWS
    return {"probability": prob, "baseline": baseline}


def ref_percentiles(failures, ds, kind, percentiles, offsets):
    series = ref_series(ds, kind)
    out = {}
    for d in offsets:
        pool = []
        for ev in failures:
            days, counts = series.get(ev.drive, NO_ROWS)
            for i in np.flatnonzero(days == ev.age_days - d):
                if counts[i] > 0:
                    pool.append(int(counts[i]))
        out[d] = ({p: charstats.nearest_rank(pool, p) for p in percentiles}
                  if pool else None)
    return out


def ghosts(ds):
    """Drive names without rows that sort before, between and after the
    fleet's drives."""
    return ["A-no-rows", ds.drives[0] + "-no-rows", "no-rows"]


def kind_of(ds):
    return "smart_187" if ds.family == "hdd" else "uncorrectable"


class TestWindowLookup:
    @pytest.mark.parametrize("seed", range(8))
    def test_find_matches_masks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        codes = rng.integers(0, 9, size=n)
        days = rng.integers(-5, 60, size=n)
        index = _DayWindows(codes, days)
        q = 200
        # -1 and 9 (the number of drives) and 10 have no events: empty ranges.
        q_codes = rng.integers(-1, 11, size=q)
        lo = rng.integers(-20, 70, size=q)
        hi = lo + rng.integers(-6, 30, size=q)  # some windows are empty (lo > hi)
        start, stop = index.find(q_codes, lo, hi)
        covered = np.zeros(n, dtype=bool)
        for k in range(q):
            mask = (codes == q_codes[k]) & (days >= lo[k]) & (days <= hi[k])
            assert sorted(index.order[start[k]:stop[k]]) == list(np.flatnonzero(mask))
            covered |= mask
        assert (index.covered(q_codes, lo, hi) == covered).all()

    def test_day_values_far_apart(self):
        days = np.array([0, 2**62, -2**62, 5])
        index = _DayWindows(np.array([0, 1, 0, 1]), days)
        start, stop = index.find(np.array([0, 1, 1]), [-2**62, 1, 6],
                                 [0, 2**62, 2**62 - 1])
        assert list(stop - start) == [2, 2, 0]


@pytest.mark.parametrize("family,seed", FLEETS + TRIM_FLEETS)
class TestAgainstPerEventScans:
    def test_drive_days(self, family, seed):
        ds = make_fleet(family, seed)
        days = drive_days(ds)
        assert days.dtype == np.int64 and days.size == ds.n_records
        assert per_drive(ds, days) == {d: ref_ages(ds, d) for d in ds.drives}

    def test_failures(self, family, seed):
        ds = make_fleet(family, seed)
        ref = ref_hdd_failures(ds) if ds.family == "hdd" else ref_ssd_failures(ds)
        # repr also tells a numpy integer from a Python int.
        assert repr(list(lifecycle.detect_failures(ds))) == repr(ref)


    def test_periods_and_spells(self, family, seed):
        ds = make_fleet(family, seed)
        # The dataset's own failure table, and the same failures on another
        # name list, recoded by name.
        for failures in (lifecycle.detect_failures(ds),
                         table_of(reversed(list(lifecycle.detect_failures(ds))))):
            # repr also tells a numpy integer from a Python int.
            assert repr(list(lifecycle.extract_operational_periods(ds, failures))) == \
                repr(ref_periods(ds, failures))
            assert repr(lifecycle.build_repair_spells(ds, failures)) == \
                repr(ref_spells(ds, failures))

    def test_labels(self, family, seed):
        ds = make_fleet(family, seed)
        rng = random.Random(seed)
        feats = featurize.make_features(ds)
        failures = lifecycle.detect_failures(ds)
        periods = lifecycle.extract_operational_periods(ds, failures)
        # Tables on another name list, with drives the dataset lacks.
        failures = table_of([*failures, *(FailureEvent(d, 3, 1, family)
                                           for d in ghosts(ds))])
        periods = table_of([
            *periods, OperationalPeriod(rng.choice(ds.drives), 30, 10, "censored"),
            OperationalPeriod(rng.choice(ds.drives), -50, 2, "censored"),
            OperationalPeriod(rng.choice(ds.drives), 40, 10**6, "censored"),
            *(OperationalPeriod(d, 0, 10, "censored") for d in ghosts(ds))],
            PeriodTable)
        for lookahead in (0, 1, 7, 400):
            ex = featurize.label_lookahead(feats, failures, lookahead, periods)
            y, keep = ref_labels(feats, failures, lookahead, periods)
            assert (ex.y == y).all()
            assert (ex.days == feats.days[keep]).all()
            assert list(drive_names(ex)) == list(drive_names(feats)[keep])
            full = featurize.label_lookahead(feats, failures, lookahead)
            assert (full.y == ref_labels(feats, failures, lookahead,
                                         [OperationalPeriod(d, -10**9, 10**9, "c")
                                          for d in ds.drives])[0]).all()

    def test_prefailure_statistics(self, family, seed):
        ds = make_fleet(family, seed)
        failures = table_of([*lifecycle.detect_failures(ds),
                             *(FailureEvent(d, 3, 1, family) for d in ghosts(ds))])
        windows = [1, 2, 7, 30, 500]
        assert repr(charstats.prefailure_error_probability(
            failures, ds, kind_of(ds), windows, seed=seed)) == \
            repr(ref_probability(failures, ds, kind_of(ds), windows, seed))
        offsets = range(-2, 9)
        assert repr(charstats.prefailure_error_percentiles(
            failures, ds, kind_of(ds), (50.0, 90.0), offsets)) == \
            repr(ref_percentiles(failures, ds, kind_of(ds), (50.0, 90.0), offsets))


@pytest.mark.parametrize("seed", range(6))
def test_failures_of_the_unfiltered_fleet(seed):
    """The failure table of an HDD fleet, read with its ``filter_hdd`` subset:
    its codes are recoded into the subset's drives by name, and a failure of
    a drive the subset lacks matches nothing, as the per-event references
    and a table coded on the subset's own drives read them."""
    ds = make_fleet("hdd", seed)
    first = dt.date.fromordinal(int(ds.time.min()))
    sub = filter_hdd(ds, ds.models(), first + dt.timedelta(days=15),
                     first + dt.timedelta(days=60))
    failures = lifecycle.failure_table(ds)
    names = [failures.drives[c] for c in failures.drive]
    on_sub = dataclasses.replace(failures, drives=sub.drives, drive=np.array(
        [sub.drives.index(n) if n in sub.drives else -1 for n in names]))
    windows, pct, offsets = [1, 2, 7, 30], (50.0, 90.0), range(-2, 9)
    for table in (failures, on_sub):
        assert repr(charstats.prefailure_error_probability(
            table, sub, "smart_187", windows, seed=seed)) == \
            repr(ref_probability(failures, sub, "smart_187", windows, seed))
        assert repr(charstats.prefailure_error_percentiles(
            table, sub, "smart_187", pct, offsets)) == \
            repr(ref_percentiles(failures, sub, "smart_187", pct, offsets))
    feats = featurize.make_features(sub)
    everything = [OperationalPeriod(d, -10**9, 10**9, "censored") for d in sub.drives]
    for lookahead in (0, 7):
        for table in (failures, on_sub):
            ex = featurize.label_lookahead(feats, table, lookahead)
            assert (ex.y == ref_labels(feats, failures, lookahead, everything)[0]).all()


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("family,seed", FLEETS)
def test_prefailure_probability_with_few_draws(family, seed, draws, monkeypatch):
    """The baseline probes are sorted before they are looked up; with one or
    three draws every hit still lands on its own drawn window."""
    monkeypatch.setattr(charstats, "BASELINE_WINDOW_DRAWS", draws)
    ds = make_fleet(family, seed)
    failures = lifecycle.detect_failures(ds)
    windows = [1, 2, 7, 30]
    assert repr(charstats.prefailure_error_probability(
        failures, ds, kind_of(ds), windows, seed=seed)) == \
        repr(ref_probability(failures, ds, kind_of(ds), windows, seed))


def test_fleets_are_adversarial():
    """The random HDD fleets do contain backward and repeated ages."""
    backward = repeated = 0
    for family, seed in FLEETS:
        ds = make_fleet(family, seed)
        if family != "hdd":
            continue
        for days in per_drive(ds, drive_days(ds)).values():
            diffs = np.diff(days)
            backward += int((diffs < 0).sum())
            repeated += int((diffs == 0).sum())
    assert backward > 0 and repeated > 0


def test_trim_fleets_are_adversarial():
    """The trim fleets reach every branch of the backward scan."""
    seen = {"first-record swap": 0, "back-to-back swaps": 0, "bare marker": 0,
            "bounded trim": 0, "degenerate": 0, "active failure": 0}
    for family, seed in TRIM_FLEETS:
        ds = make_fleet(family, seed)
        for d in ds.drives:
            seq = ds.records[d]
            swaps = [r.swap_event for r in seq]
            seen["first-record swap"] += swaps[0]
            seen["back-to-back swaps"] += sum(a and b for a, b in zip(swaps, swaps[1:]))
            seen["bare marker"] += sum(r.read_ops is None and r.swap_event
                                       and r.write_ops is None for r in seq)
        for ev in lifecycle.detect_failures(ds):
            seq = ds.records[ev.drive]
            swap_day = [r.day for r in seq if r.swap_event][ev.ordinal - 1]
            day = [r for r in seq if r.day == ev.age_days][-1]
            if ev.degenerate:
                seen["degenerate"] += 1
            elif ref_is_active(day):
                seen["active failure"] += 1
            elif ev.age_days < swap_day - SSD_TRIM_BOUND_DAYS:
                seen["bounded trim"] += 1
    assert all(seen.values()), seen
