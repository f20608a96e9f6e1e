"""The drive-day axis against per-event brute force.

Each reference below rescans a drive's records once per event with a
boolean mask, the straightforward algorithm the window lookup replaces.
The fleets are random and adversarial: HDD SMART 9 values that run
backward or repeat, records without SMART 9, windows that reach before a
drive's first record and after its last, failures of drives that have no
feature rows, and periods whose start is after their end.
"""

import random

import numpy as np
import pytest

from drivelife import charstats, featurize, lifecycle
from drivelife.lifecycle import (FailureEvent, OperationalPeriod, _DayWindows,
                                 drive_days, hdd_record_ages)

from conftest import hdd_dataset, hdd_rec, ssd_dataset, ssd_rec


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


FLEETS = [("hdd", s) for s in range(6)] + [("ssd", s) for s in range(6)]


def make_fleet(family, seed):
    rng = random.Random(seed)
    return random_hdd_fleet(rng) if family == "hdd" else random_ssd_fleet(rng)


def ref_ages(ds, drive):
    seq = ds.records[drive]
    return hdd_record_ages(seq) if ds.family == "hdd" else [r.day for r in seq]


def ref_reentry(ds, drive, after_day):
    for age in ref_ages(ds, drive):
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
        start = ages[0]
        for ev in sorted(by_drive.get(drive, ()), key=lambda e: e.ordinal):
            periods.append(OperationalPeriod(drive, start, ev.age_days, "failure"))
            boundary = (ref_swap_day(ds, drive, ev) if ds.family == "ssd"
                        else ev.age_days)
            start = ref_reentry(ds, drive, boundary)
            if start is None:
                break
        if start is not None and (not by_drive.get(drive) or start <= ages[-1]):
            periods.append(OperationalPeriod(drive, start, ages[-1], "censored"))
    return periods


def ref_spells(ds, failures):
    spells = []
    for ev in failures:
        swap = ref_swap_day(ds, ev.drive, ev) if ds.family == "ssd" else ev.age_days
        gap = swap - ev.age_days if ds.family == "ssd" else None
        spells.append(lifecycle.RepairSpell(ev.drive, ev.age_days,
                                            ref_reentry(ds, ev.drive, swap), gap))
    return spells


def ref_labels(feats, failures, lookahead, periods):
    keep = np.zeros(feats.n_rows, dtype=bool)
    for p in periods:
        keep |= ((feats.drives == p.drive) & (feats.days >= p.start_day)
                 & (feats.days <= p.end_day))
    y = np.zeros(feats.n_rows, dtype=bool)
    for ev in failures:
        y |= ((feats.drives == ev.drive) & (feats.days <= ev.age_days)
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


def ref_probability(failures, ds, kind, windows, seed):
    series = ref_series(ds, kind)
    prob = {}
    for n in windows:
        hits = 0
        for ev in failures:
            days, counts = series[ev.drive]
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
            days, counts = series[ev.drive]
            for i in np.flatnonzero(days == ev.age_days - d):
                if counts[i] > 0:
                    pool.append(int(counts[i]))
        out[d] = ({p: charstats.nearest_rank(pool, p) for p in percentiles}
                  if pool else None)
    return out


def kind_of(ds):
    return "smart_187" if ds.family == "hdd" else "uncorrectable"


class TestWindowLookup:
    @pytest.mark.parametrize("seed", range(8))
    def test_find_matches_masks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        names = np.array([f"d{k}" for k in rng.integers(0, 9, size=n)], dtype=object)
        days = rng.integers(-5, 60, size=n)
        index = _DayWindows(names, days)
        q = 200
        q_names = [f"d{k}" for k in rng.integers(0, 11, size=q)]  # d9, d10 unknown
        lo = rng.integers(-20, 70, size=q)
        hi = lo + rng.integers(-6, 30, size=q)  # some windows are empty (lo > hi)
        start, stop = index.find(q_names, lo, hi)
        covered = np.zeros(n, dtype=bool)
        for k in range(q):
            mask = (names == q_names[k]) & (days >= lo[k]) & (days <= hi[k])
            assert sorted(index.order[start[k]:stop[k]]) == list(np.flatnonzero(mask))
            covered |= mask
        assert (index.covered(q_names, lo, hi) == covered).all()

    def test_day_values_far_apart(self):
        days = np.array([0, 2**62, -2**62, 5])
        index = _DayWindows(["a", "b", "a", "b"], days)
        start, stop = index.find(["a", "b", "b"], [-2**62, 1, 6],
                                 [0, 2**62, 2**62 - 1])
        assert list(stop - start) == [2, 2, 0]


@pytest.mark.parametrize("family,seed", FLEETS)
class TestAgainstPerEventScans:
    def test_drive_days(self, family, seed):
        ds = make_fleet(family, seed)
        days = drive_days(ds)
        assert list(days) == ds.drives
        for d in ds.drives:
            assert days[d].tolist() == ref_ages(ds, d)

    def test_periods_and_spells(self, family, seed):
        ds = make_fleet(family, seed)
        failures = lifecycle.detect_failures(ds)
        # repr also tells a numpy integer from a Python int.
        assert repr(lifecycle.extract_operational_periods(ds, failures)) == \
            repr(ref_periods(ds, failures))
        assert repr(lifecycle.build_repair_spells(ds, failures)) == \
            repr(ref_spells(ds, failures))

    def test_labels(self, family, seed):
        ds = make_fleet(family, seed)
        rng = random.Random(seed)
        feats = featurize.make_features(ds)
        failures = lifecycle.detect_failures(ds)
        failures += [FailureEvent("no-rows", 3, 1, family)]
        periods = lifecycle.extract_operational_periods(ds, failures[:-1])
        periods += [OperationalPeriod(rng.choice(ds.drives), 30, 10, "censored"),
                    OperationalPeriod(rng.choice(ds.drives), -50, 2, "censored"),
                    OperationalPeriod(rng.choice(ds.drives), 40, 10**6, "censored"),
                    OperationalPeriod("no-rows", 0, 10, "censored")]
        for lookahead in (0, 1, 7, 400):
            ex = featurize.label_lookahead(feats, failures, lookahead, periods)
            y, keep = ref_labels(feats, failures, lookahead, periods)
            assert (ex.y == y).all()
            assert (ex.days == feats.days[keep]).all()
            assert list(ex.drives) == list(feats.drives[keep])
            full = featurize.label_lookahead(feats, failures, lookahead)
            assert (full.y == ref_labels(feats, failures, lookahead,
                                         [OperationalPeriod(d, -10**9, 10**9, "c")
                                          for d in ds.drives])[0]).all()

    def test_prefailure_statistics(self, family, seed):
        ds = make_fleet(family, seed)
        failures = lifecycle.detect_failures(ds)
        windows = [1, 2, 7, 30, 500]
        assert repr(charstats.prefailure_error_probability(
            failures, ds, kind_of(ds), windows, seed=seed)) == \
            repr(ref_probability(failures, ds, kind_of(ds), windows, seed))
        offsets = range(-2, 9)
        assert repr(charstats.prefailure_error_percentiles(
            failures, ds, kind_of(ds), (50.0, 90.0), offsets)) == \
            repr(ref_percentiles(failures, ds, kind_of(ds), (50.0, 90.0), offsets))


def test_fleets_are_adversarial():
    """The random HDD fleets do contain backward and repeated ages."""
    backward = repeated = 0
    for family, seed in FLEETS:
        ds = make_fleet(family, seed)
        if family != "hdd":
            continue
        for d in ds.drives:
            diffs = np.diff(drive_days(ds)[d])
            backward += int((diffs < 0).sum())
            repeated += int((diffs == 0).sum())
    assert backward > 0 and repeated > 0
