"""Reconstruct drive lifecycles (failure, swap, repair, re-entry) with explicit censoring.

The HDD log flags the last operational day directly. The SSD log only
records swap events, so the failure day is recovered by walking backward
from each swap: days with no report are skipped, then a maximal trailing
run of reported-but-inactive days (zero reads and writes) is trimmed; the
failure is the last day with operational activity. The backward trim is
bounded at 30 days, which comfortably covers the observed inactive runs
(under a week in the large majority of cases) while preventing
pathological trims on long-idle drives.

Drive age sources:

* SSD: timestamps count microseconds from lifetime start, so the age of a
  record is ``timestamp_us // US_PER_DAY``.
* HDD: SMART 9 (power-on hours) / 24 when present on the record; otherwise
  the last SMART-9 anchor carried forward by calendar-day deltas; before
  any anchor, days since the drive's first record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ingest import FleetDataset, HddDailyRecord, SsdDailyRecord

__all__ = [
    "FailureEvent",
    "OperationalPeriod",
    "RepairSpell",
    "CensoredSample",
    "SSD_TRIM_BOUND_DAYS",
    "LONG_LIMBO_DAYS",
    "hdd_record_ages",
    "drive_days",
    "detect_hdd_failures",
    "detect_ssd_failures",
    "detect_failures",
    "extract_operational_periods",
    "build_repair_spells",
    "repair_stats",
    "failure_count_distribution",
    "censored_cdf",
    "period_length_sample",
    "repair_duration_sample",
    "preswap_gap_sample",
]

#: Backward bound (days) on SSD pre-swap inactivity trimming.
SSD_TRIM_BOUND_DAYS = 30

#: Pre-swap gaps above this are flagged as probable forgotten-in-limbo drives.
LONG_LIMBO_DAYS = 100


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """A single catastrophic failure of one drive."""

    drive: str
    age_days: int
    ordinal: int  # 1-based failure index for this drive
    family: str   # "hdd" | "ssd"
    degenerate: bool = False  # swap with no operational activity before it


@dataclass(frozen=True, slots=True)
class OperationalPeriod:
    """A maximal in-production span of one drive, ending in failure or censoring."""

    drive: str
    start_day: int
    end_day: int
    terminal: str  # "failure" | "censored"

    @property
    def length(self) -> int:
        return self.end_day - self.start_day


@dataclass(frozen=True, slots=True)
class RepairSpell:
    """The repair bookkeeping attached to one failure.

    ``preswap_gap_days`` is the SSD-only non-operational period between the
    failure and the physical swap (None for HDDs). ``reentry_day`` is the
    first post-failure operational record, or None if the drive is never
    seen back in production (right-censored repair).
    """

    drive: str
    fail_day: int
    reentry_day: int | None
    preswap_gap_days: int | None = None

    @property
    def repair_days(self) -> int | None:
        """Length of the repair process: swap (SSD) or failure (HDD) to re-entry."""
        if self.reentry_day is None:
            return None
        swap_day = self.fail_day + (self.preswap_gap_days or 0)
        return self.reentry_day - swap_day

    @property
    def long_limbo(self) -> bool:
        return (self.preswap_gap_days or 0) > LONG_LIMBO_DAYS


@dataclass(frozen=True)
class CensoredSample:
    """Finite observed durations plus a count of right-censored observations."""

    values: tuple
    censored_count: int

    def __post_init__(self):
        if self.censored_count < 0:
            raise ValueError("censored_count must be >= 0")

    @property
    def total(self) -> int:
        return len(self.values) + self.censored_count


def hdd_record_ages(records: Sequence[HddDailyRecord]) -> list[int]:
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


def drive_days(ds: FleetDataset) -> dict[str, np.ndarray]:
    """The drive-age day of every record, per drive and in record order.

    This is the one age rule of the package (see the module docstring):
    SSD days are ``timestamp_us // US_PER_DAY``, HDD days come from
    :func:`hdd_record_ages`.
    """
    rule = (hdd_record_ages if ds.family == "hdd"
            else lambda seq: [r.day for r in seq])
    return {d: np.array(rule(ds.records[d]), dtype=np.int64) for d in ds.drives}


class _DayWindows:
    """Point events sorted by (drive, day), looked up by day window.

    ``find`` gives, for each query (drive, lo, hi), the index range in
    ``order`` of that drive's events with lo <= day <= hi; an unknown
    drive, or lo > hi, gives an empty range. The sort key is ``drive code
    * width + rank of the day among the distinct event days``, which
    cannot overflow whatever the day values are; an unknown drive gets
    the code after the last, which has no events.
    """

    def __init__(self, drives: Sequence[str], days: np.ndarray):
        self._code = {d: i for i, d in enumerate(dict.fromkeys(drives))}
        codes = np.array([self._code[d] for d in drives], dtype=np.int64)
        self._days = np.unique(days)
        self._width = self._days.size + 2
        keys = codes * self._width + np.searchsorted(self._days, days) + 1
        self.order = np.argsort(keys, kind="stable")
        self._keys = keys[self.order]

    def find(self, drives: Sequence[str], lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Per query: [start, stop) of its events in ``order``."""
        unknown = len(self._code)
        base = np.array([self._code.get(d, unknown) for d in drives],
                        dtype=np.int64) * self._width
        start = np.searchsorted(self._keys, base + 1 + np.searchsorted(
            self._days, np.asarray(lo, dtype=np.int64), "left"), "left")
        stop = np.searchsorted(self._keys, base + np.searchsorted(
            self._days, np.asarray(hi, dtype=np.int64), "right"), "right")
        return start, np.maximum(stop, start)

    def covered(self, drives: Sequence[str], lo, hi) -> np.ndarray:
        """Mask over the events, in input order: inside at least one query."""
        start, stop = self.find(drives, lo, hi)
        n = self._keys.size
        depth = np.cumsum(np.bincount(start, minlength=n + 1)
                          - np.bincount(stop, minlength=n + 1))
        mask = np.empty(n, dtype=bool)
        mask[self.order] = depth[:n] > 0
        return mask


def detect_hdd_failures(ds: FleetDataset) -> list[FailureEvent]:
    """One FailureEvent per failure-flagged HDD record, in drive/time order."""
    if ds.family != "hdd":
        raise ValueError("detect_hdd_failures needs an HDD dataset")
    events = []
    for serial in ds.drives:
        seq = ds.records[serial]
        ages = hdd_record_ages(seq)
        ordinal = 0
        for r, age in zip(seq, ages):
            if r.failed_today:
                ordinal += 1
                events.append(FailureEvent(serial, age, ordinal, "hdd"))
    return events


def _is_active(rec: SsdDailyRecord) -> bool:
    # A missing performance summary counts as no activity.
    return bool(rec.read_ops) or bool(rec.write_ops)


def detect_ssd_failures(ds: FleetDataset) -> list[FailureEvent]:
    """Recover SSD failure days from swap events by backward inactivity trimming.

    For each swap: records after the previous swap and up to (and
    including) the swap day are scanned backward; reported-but-inactive
    days (zero reads and writes) are trimmed, bounded at
    ``SSD_TRIM_BOUND_DAYS`` before the swap day. The failure lands on the
    last active day; if none exists the event degenerates to the drive's
    first in-scope record.
    """
    if ds.family != "ssd":
        raise ValueError("detect_ssd_failures needs an SSD dataset")
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
                if _is_active(cand):
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


def detect_failures(ds: FleetDataset) -> list[FailureEvent]:
    return detect_hdd_failures(ds) if ds.family == "hdd" else detect_ssd_failures(ds)


def _swaps_and_reentries(ds: FleetDataset, ages: dict[str, np.ndarray],
                         failures: Sequence[FailureEvent]
                         ) -> list[tuple[int, int | None]]:
    """(swap day, re-entry day or None) of each failure, in order.

    The swap day is the failure day for HDDs and the day of the
    ordinal-matched swap record for SSDs. Re-entry is the first record,
    in record order, after the swap day: HDD ages can repeat or run
    backward, so it is searched on the running maximum of the days.
    """
    failed = {ev.drive for ev in failures}
    running_max = {d: np.maximum.accumulate(ages[d]) for d in failed}
    ssd = ds.family == "ssd"
    swap_days = {d: [r.day for r in ds.records[d] if r.swap_event]
                 for d in failed} if ssd else {}
    out = []
    for ev in failures:
        swap = swap_days[ev.drive][ev.ordinal - 1] if ssd else ev.age_days
        i = np.searchsorted(running_max[ev.drive], swap, side="right")
        days = ages[ev.drive]
        out.append((swap, int(days[i]) if i < days.size else None))
    return out


def extract_operational_periods(ds: FleetDataset,
                                failures: Iterable[FailureEvent]) -> list[OperationalPeriod]:
    """Cut each drive's observation span into failure-terminated and censored periods.

    The first period runs from the drive's first record to its first
    failure (terminal ``failure``) or last record (``censored``); each
    post-failure re-entry opens another period.
    """
    failures = list(failures)
    ages = drive_days(ds)
    by_drive: dict[str, list] = {}
    for ev, (_, reentry) in zip(failures, _swaps_and_reentries(ds, ages, failures)):
        by_drive.setdefault(ev.drive, []).append((ev, reentry))
    periods = []
    for drive in ds.drives:
        start, last_day = int(ages[drive][0]), int(ages[drive][-1])
        for ev, reentry in sorted(by_drive.get(drive, ()), key=lambda e: e[0].ordinal):
            periods.append(OperationalPeriod(drive, start, ev.age_days, "failure"))
            start = reentry
            if start is None:
                break
        if start is not None and (drive not in by_drive or start <= last_day):
            periods.append(OperationalPeriod(drive, start, last_day, "censored"))
    return periods


def build_repair_spells(ds: FleetDataset,
                        failures: Iterable[FailureEvent]) -> list[RepairSpell]:
    """One RepairSpell per failure: pre-swap gap (SSD) and re-entry day if any."""
    failures = list(failures)
    spells = []
    for ev, (swap_day, reentry) in zip(
            failures, _swaps_and_reentries(ds, drive_days(ds), failures)):
        gap = swap_day - ev.age_days if ds.family == "ssd" else None
        spells.append(RepairSpell(ev.drive, ev.age_days, reentry, gap))
    return spells


def repair_stats(spells: Sequence[RepairSpell], horizons: Sequence[float],
                 total_drives: int) -> dict[float, tuple[float, float]]:
    """Fraction of failed drives (and of all drives) repaired within each horizon.

    A horizon of ``math.inf`` reports the complement: the share of spells
    never observed to re-enter. Empty spells yield all-zero fractions.
    """
    if list(horizons) != sorted(horizons):
        raise ValueError("horizons must be sorted ascending")
    n_spells = len(spells)
    out = {}
    for horizon in horizons:
        if n_spells == 0:
            out[horizon] = (0.0, 0.0)
            continue
        if math.isinf(horizon):
            hits = sum(1 for s in spells if s.repair_days is None)
        else:
            hits = sum(1 for s in spells
                       if s.repair_days is not None and s.repair_days <= horizon)
        out[horizon] = (hits / n_spells,
                        hits / total_drives if total_drives else 0.0)
    return out


def failure_count_distribution(failures: Iterable[FailureEvent],
                               total_drives: int) -> dict[int, tuple[float, float | None]]:
    """Map k -> (share of all drives with k failures, share of failed drives).

    The failed-drive share is None for k=0. Raises if the population is
    smaller than the number of distinct failed drives.
    """
    per_drive: dict[str, int] = {}
    for ev in failures:
        per_drive[ev.drive] = max(per_drive.get(ev.drive, 0), ev.ordinal)
    n_failed = len(per_drive)
    if total_drives < n_failed:
        raise ValueError(
            f"population ({total_drives}) smaller than failed drives ({n_failed})")
    counts: dict[int, int] = {}
    for k in per_drive.values():
        counts[k] = counts.get(k, 0) + 1
    dist: dict[int, tuple[float, float | None]] = {
        0: ((total_drives - n_failed) / total_drives, None)}
    for k in sorted(counts):
        dist[k] = (counts[k] / total_drives,
                   counts[k] / n_failed if n_failed else None)
    return dist


def censored_cdf(sample: CensoredSample,
                 grid: Sequence[float]) -> tuple[list[tuple[float, float]], float]:
    """Empirical CDF of a right-censored sample, plus its censored mass.

    F(t) = (#values <= t) / (#values + censored_count); the censored mass
    is censored_count / total, so F never exceeds 1 - censored mass.
    """
    if sample.total == 0:
        raise ValueError("empty sample")
    if list(grid) != sorted(grid):
        raise ValueError("grid must be sorted ascending")
    values = sorted(sample.values)
    total = sample.total
    points = []
    idx = 0
    for t in grid:
        while idx < len(values) and values[idx] <= t:
            idx += 1
        points.append((t, idx / total))
    return points, sample.censored_count / total


def period_length_sample(periods: Iterable[OperationalPeriod]) -> CensoredSample:
    """Time-to-failure sample: failure-terminated lengths, censored periods counted."""
    values = []
    censored = 0
    for p in periods:
        if p.terminal == "failure":
            values.append(p.length)
        else:
            censored += 1
    return CensoredSample(tuple(values), censored)


def repair_duration_sample(spells: Iterable[RepairSpell]) -> CensoredSample:
    """Time-to-repair sample: completed repair lengths, unfinished ones censored."""
    values = []
    censored = 0
    for s in spells:
        d = s.repair_days
        if d is None:
            censored += 1
        else:
            values.append(d)
    return CensoredSample(tuple(values), censored)


def preswap_gap_sample(spells: Iterable[RepairSpell]) -> CensoredSample:
    """Non-operational period preceding each swap (SSD spells only)."""
    values = tuple(s.preswap_gap_days for s in spells
                   if s.preswap_gap_days is not None)
    return CensoredSample(values, 0)
