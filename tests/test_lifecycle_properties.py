"""Lifecycle properties under adversarial HDD SMART 9 sequences.

An HDD drive-age day is the last SMART 9 (power-on hours) anchor plus the
calendar days since it, so hours that stall, run backward, reset or jump
make ages repeat, decrease and leap. Whatever the ages, the operational
periods of a drive have non-negative length and do not overlap, and every
failure lies in exactly one period of its drive.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import lifecycle

from conftest import hdd_dataset, hdd_rec

#: SMART 9 of a row, given the previous row's: absent, a day on, stalled,
#: back a day or a hundred days, reset, or any value.
SMART_9 = st.one_of(
    st.none(), st.sampled_from([24, 24, 24, 0, -24, -2400, "reset"]),
    st.integers(0, 10**6).map(lambda h: ("any", h)))


@st.composite
def hdd_fleets(draw):
    fleet = {}
    for k in range(draw(st.integers(1, 4))):
        day, hours, recs = 0, draw(st.integers(0, 50_000)), []
        for step, change, failed in draw(st.lists(st.tuples(
                st.sampled_from([1, 1, 1, 2, 30]), SMART_9,
                st.integers(0, 4).map(lambda x: x == 0)), min_size=1, max_size=25)):
            day += step
            smart = {}
            if change is not None:
                if change == "reset":
                    hours = 0
                elif isinstance(change, tuple):
                    hours = change[1]
                else:
                    hours = max(hours + change, 0)
                smart[9] = hours
            recs.append(hdd_rec(f"H{k}", day, failed=failed, smart=smart))
        fleet[f"H{k}"] = recs
    return hdd_dataset(fleet)


@given(hdd_fleets())
@settings(max_examples=150, deadline=None)
def test_periods_are_disjoint_and_hold_each_failure_once(ds):
    failures = lifecycle.detect_failures(ds)
    periods = lifecycle.extract_operational_periods(ds, failures)
    by_drive = {}
    for p in periods:
        assert p.length >= 0, p
        by_drive.setdefault(p.drive, []).append(p)
    for spans in by_drive.values():
        spans.sort(key=lambda p: p.start_day)
        for a, b in zip(spans, spans[1:]):
            assert a.end_day < b.start_day, (a, b)
    for ev in failures:
        holding = [p for p in by_drive.get(ev.drive, [])
                   if p.start_day <= ev.age_days <= p.end_day]
        assert len(holding) == 1, (ev, by_drive.get(ev.drive))
