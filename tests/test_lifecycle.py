import math
import random

import pytest

from drivelife.featurize import make_features
from drivelife.lifecycle import (CensoredSample, build_repair_spells,
                                 censored_cdf, detect_failures,
                                 drive_days, extract_operational_periods,
                                 failure_count_distribution,
                                 period_length_sample, repair_duration_sample,
                                 preswap_gap_sample, repair_stats, FailureEvent,
                                 RepairSpell)

from conftest import hdd_dataset, hdd_rec, ssd_dataset, ssd_rec, table_of


class TestHddFailures:
    def test_no_flags_no_events(self):
        ds = hdd_dataset({"A": [hdd_rec("A", d) for d in range(5)]})
        assert list(detect_failures(ds)) == []

    def test_flag_on_third_observed_day(self):
        ds = hdd_dataset({"A": [hdd_rec("A", 0), hdd_rec("A", 1),
                                hdd_rec("A", 2, failed=True)]})
        (ev,) = detect_failures(ds)
        assert ev.age_days == 2 and ev.ordinal == 1 and ev.family == "hdd"

    def test_smart9_age_source(self):
        ds = hdd_dataset({"A": [hdd_rec("A", 0, smart={9: 2400}),
                                hdd_rec("A", 1, failed=True, smart={9: 2424})]})
        (ev,) = detect_failures(ds)
        assert ev.age_days == 101

    def test_repair_and_refailure_ordinals(self):
        recs = [hdd_rec("A", 0), hdd_rec("A", 1, failed=True),
                hdd_rec("A", 30), hdd_rec("A", 31, failed=True)]
        (e1, e2) = detect_failures(hdd_dataset({"A": recs}))
        assert (e1.ordinal, e2.ordinal) == (1, 2)
        assert (e1.age_days, e2.age_days) == (1, 31)

    def test_age_carry_forward_between_anchors(self):
        recs = [hdd_rec("A", 0, smart={9: 240}), hdd_rec("A", 3),
                hdd_rec("A", 5, smart={9: 480})]
        assert drive_days(hdd_dataset({"A": recs})).tolist() == [10, 13, 20]

    def test_drive_without_records_is_dropped(self):
        ds = hdd_dataset({"A": [hdd_rec("A", 0), hdd_rec("A", 2, failed=True)],
                          "empty": []})
        assert ds.drives == ["A"] and ds.n_records == 2
        assert drive_days(ds).tolist() == [0, 2]
        assert make_features(ds).n_rows == 2
        failures = detect_failures(ds)
        assert [(ev.drive, ev.age_days) for ev in failures] == [("A", 2)]
        assert [(p.start_day, p.end_day, p.terminal)
                for p in extract_operational_periods(ds, failures)] == [
            (0, 2, "failure")]


class TestSsdFailures:
    def test_trailing_inactivity_trimmed(self, simple_ssd):
        (ev,) = detect_failures(simple_ssd)
        assert ev.age_days == 7 and not ev.degenerate

    def test_active_day_immediately_before_swap(self):
        recs = [ssd_rec("d", 1), ssd_rec("d", 2),
                ssd_rec("d", 3, reads=0, writes=0, swap=True)]
        (ev,) = detect_failures(ssd_dataset({"d": recs}))
        assert ev.age_days == 2

    def test_active_swap_day_is_the_failure_day(self):
        recs = [ssd_rec("d", 1), ssd_rec("d", 2, swap=True)]
        (ev,) = detect_failures(ssd_dataset({"d": recs}))
        assert ev.age_days == 2

    def test_two_swaps_with_reentry(self):
        recs = [ssd_rec("d", 1), ssd_rec("d", 2, reads=0, writes=0),
                ssd_rec("d", 4, reads=0, writes=0, swap=True),
                ssd_rec("d", 20), ssd_rec("d", 21),
                ssd_rec("d", 25, reads=0, writes=0, swap=True)]
        events = detect_failures(ssd_dataset({"d": recs}))
        assert [(e.age_days, e.ordinal) for e in events] == [(1, 1), (21, 2)]

    def test_swap_with_no_activity_is_degenerate(self):
        recs = [ssd_rec("d", 3, reads=0, writes=0, swap=True)]
        (ev,) = detect_failures(ssd_dataset({"d": recs}))
        assert ev.degenerate and ev.age_days == 3

    def test_trim_bounded_at_30_days(self):
        recs = [ssd_rec("d", 0)]
        recs += [ssd_rec("d", day, reads=0, writes=0) for day in range(1, 50)]
        recs.append(ssd_rec("d", 50, reads=0, writes=0, swap=True))
        (ev,) = detect_failures(ssd_dataset({"d": recs}))
        # the active day 0 lies beyond the 30-day bound; the trim stops at
        # the first record past the cutoff (swap day 50 - 30 = 20, so day 19)
        assert ev.age_days == 19

    def test_every_swap_maps_to_one_event(self):
        rng = random.Random(4)
        records = {}
        total_swaps = 0
        for i in range(20):
            day = 0
            recs = []
            for _ in range(rng.randint(1, 3)):
                span = rng.randint(1, 10)
                recs += [ssd_rec(f"d{i}", day + k) for k in range(span)]
                day += span
                if rng.random() < 0.7:
                    recs.append(ssd_rec(f"d{i}", day, reads=0, writes=0,
                                        swap=True))
                    total_swaps += 1
                    day += rng.randint(1, 5)
            records[f"d{i}"] = recs
        ds = ssd_dataset(records)
        assert len(detect_failures(ds)) == total_swaps


class TestOperationalPeriods:
    def test_never_failing_drive(self):
        ds = hdd_dataset({"A": [hdd_rec("A", d) for d in range(101)]})
        (p,) = extract_operational_periods(ds, table_of([], family="hdd"))
        assert (p.start_day, p.end_day, p.terminal) == (0, 100, "censored")
        assert p.length == 100

    def test_failure_then_reentry(self):
        recs = ([hdd_rec("A", d) for d in range(7)]
                + [hdd_rec("A", 7, failed=True)]
                + [hdd_rec("A", d) for d in range(30, 61)])
        ds = hdd_dataset({"A": recs})
        failures = detect_failures(ds)
        p1, p2 = extract_operational_periods(ds, failures)
        assert (p1.start_day, p1.end_day, p1.terminal) == (0, 7, "failure")
        assert (p2.start_day, p2.end_day, p2.terminal) == (30, 60, "censored")

    def test_failure_on_last_day(self):
        recs = [hdd_rec("A", 0), hdd_rec("A", 1, failed=True)]
        ds = hdd_dataset({"A": recs})
        (p,) = extract_operational_periods(ds, detect_failures(ds))
        assert p.terminal == "failure"

    def test_failure_period_count_equals_events(self, simple_ssd):
        failures = detect_failures(simple_ssd)
        periods = extract_operational_periods(simple_ssd, failures)
        assert (sum(1 for p in periods if p.terminal == "failure")
                == len(failures))


class TestRepairs:
    def test_spell_fields_ssd(self, simple_ssd):
        failures = detect_failures(simple_ssd)
        (spell,) = build_repair_spells(simple_ssd, failures)
        assert spell.fail_day == 7
        assert spell.preswap_gap_days == 6  # swap on day 13
        assert spell.reentry_day is None

    def test_reentry_and_repair_days(self):
        recs = [ssd_rec("d", 1), ssd_rec("d", 3, reads=0, writes=0, swap=True),
                ssd_rec("d", 10)]
        ds = ssd_dataset({"d": recs})
        (spell,) = build_repair_spells(ds, detect_failures(ds))
        assert spell.fail_day == 1 and spell.preswap_gap_days == 2
        assert spell.reentry_day == 10
        assert spell.repair_days == 7  # re-entry minus swap day

    def test_hdd_row_before_the_failure_is_no_reentry(self):
        # SMART 9 runs backward: 24,000 h (age 1000) on one day, then a
        # failure at 0 h the next. The older row comes before the failure.
        ds = hdd_dataset({"A": [hdd_rec("A", 0, smart={9: 24000}),
                                hdd_rec("A", 1, failed=True, smart={9: 0})]})
        failures = detect_failures(ds)
        assert build_repair_spells(ds, failures) == [RepairSpell("A", 0, None, None)]
        assert [(p.start_day, p.end_day, p.terminal)
                for p in extract_operational_periods(ds, failures)] == [
            (0, 0, "failure")]

    @pytest.mark.parametrize("family", ["hdd", "ssd"])
    def test_failure_without_its_flagged_row_is_rejected(self, family):
        # Drive A has no flagged row; B's must not stand in for it.
        if family == "hdd":
            ds = hdd_dataset({"A": [hdd_rec("A", 0), hdd_rec("A", 1)],
                              "B": [hdd_rec("B", 0, failed=True)]})
        else:
            ds = ssd_dataset({"A": [ssd_rec("A", 0), ssd_rec("A", 1)],
                              "B": [ssd_rec("B", 0, swap=True)]})
        with pytest.raises(ValueError, match="no flagged row for failure 1"):
            build_repair_spells(ds, table_of([FailureEvent("A", 0, 1, family)]))

    def test_hand_counted_fractions(self):
        spells = [RepairSpell("a", 0, 1), RepairSpell("b", 0, 10),
                  RepairSpell("c", 0, 400), RepairSpell("d", 0, None)]
        stats = repair_stats(spells, [1, 30, 365], total_drives=8)
        assert stats[1] == (0.25, 0.125)
        assert stats[30] == (0.5, 0.25)
        assert stats[365] == (0.5, 0.25)

    def test_all_censored(self):
        spells = [RepairSpell("a", 0, None), RepairSpell("b", 2, None)]
        stats = repair_stats(spells, [1, 30], total_drives=4)
        assert stats[1] == (0.0, 0.0) and stats[30] == (0.0, 0.0)

    def test_infinity_horizon_is_never_reentering_share(self):
        spells = [RepairSpell("a", 0, 5), RepairSpell("b", 0, None)]
        stats = repair_stats(spells, [1, math.inf], total_drives=10)
        assert stats[math.inf] == (0.5, 0.1)

    def test_empty_spells(self):
        assert repair_stats([], [1], total_drives=5)[1] == (0.0, 0.0)

    def test_long_limbo_flag(self):
        assert RepairSpell("a", 0, None, preswap_gap_days=101).long_limbo
        assert not RepairSpell("a", 0, None, preswap_gap_days=100).long_limbo


class TestFailureCountDistribution:
    def test_hand_count(self):
        events = [e for drive, n in (("A", 2), ("B", 1))
                  for e in _events(drive, n)]
        dist = failure_count_distribution(table_of(events), total_drives=10)
        assert dist[0] == (0.8, None)
        assert dist[1] == (0.1, 0.5)
        assert dist[2] == (0.1, 0.5)

    def test_no_failures(self):
        dist = failure_count_distribution(table_of([]), total_drives=7)
        assert dist == {0: (1.0, None)}

    def test_no_drives(self):
        # 0 of 0 drives: every share is undefined.
        assert failure_count_distribution(table_of([]), total_drives=0) == {
            0: (None, None)}

    def test_population_too_small(self):
        events = _events("A", 1) + _events("B", 1)
        with pytest.raises(ValueError):
            failure_count_distribution(table_of(events), total_drives=1)

    def test_shares_sum_to_one(self):
        rng = random.Random(0)
        events = []
        for i in range(40):
            events += _events(f"d{i}", rng.randint(1, 4))
        dist = failure_count_distribution(table_of(events), total_drives=100)
        assert abs(sum(a for a, _ in dist.values()) - 1.0) < 1e-12
        assert abs(sum(b for k, (_, b) in dist.items() if k >= 1) - 1.0) < 1e-12


def _events(drive, n):
    from drivelife.lifecycle import FailureEvent
    return [FailureEvent(drive, 10 * k, k, "ssd") for k in range(1, n + 1)]


class TestCensoredCdf:
    def test_direct_counts(self):
        points, mass = censored_cdf(CensoredSample((2, 5), 2), [5])
        assert points == [(5, 0.5)] and mass == 0.5

    def test_no_censoring_reaches_one(self):
        points, mass = censored_cdf(CensoredSample((1, 2, 3), 0), [3])
        assert points == [(3, 1.0)] and mass == 0.0

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            censored_cdf(CensoredSample((), 0), [1])

    def test_matches_brute_force_counting(self):
        rng = random.Random(12)
        values = tuple(rng.randint(0, 500) for _ in range(200))
        censored = 37
        sample = CensoredSample(values, censored)
        grid = sorted(rng.randint(0, 500) for _ in range(100))
        points, mass = censored_cdf(sample, grid)
        total = len(values) + censored
        for t, f in points:
            assert f == sum(1 for v in values if v <= t) / total
        assert mass == censored / total

    def test_monotone_and_bounded(self):
        sample = CensoredSample((3, 1, 4, 1, 5), 3)
        points, mass = censored_cdf(sample, list(range(7)))
        fs = [f for _, f in points]
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert all(f <= 1 - mass + 1e-15 for f in fs)


class TestSampleBuilders:
    def test_period_and_repair_samples(self, simple_ssd):
        failures = detect_failures(simple_ssd)
        periods = extract_operational_periods(simple_ssd, failures)
        spells = build_repair_spells(simple_ssd, failures)
        ttf = period_length_sample(periods)
        assert ttf.values == (6,) and ttf.censored_count == 0
        repair = repair_duration_sample(spells)
        assert repair.values == () and repair.censored_count == 1
        gaps = preswap_gap_sample(spells)
        assert gaps.values == (6,)
