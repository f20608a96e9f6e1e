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
* HDD: SMART 9 (power-on hours) / 24 when present on the row; otherwise
  the last SMART-9 anchor carried forward by calendar-day deltas; before
  any anchor, days since the drive's first row.

Everything here reads the dataset's columns (``FleetDataset.column``,
``flag`` and ``time``); loops run per failure or per drive, never per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ingest import US_PER_DAY, FleetDataset, _last_present

__all__ = [
    "FailureEvent",
    "OperationalPeriod",
    "RepairSpell",
    "CensoredSample",
    "SSD_TRIM_BOUND_DAYS",
    "LONG_LIMBO_DAYS",
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


def drive_days(ds: FleetDataset) -> np.ndarray:
    """The drive-age day of every row, in column order.

    This is the one age rule of the package (see the module docstring):
    SSD days are ``timestamp_us // US_PER_DAY``; an HDD day is the last
    SMART-9 anchor at or before the row plus the calendar days since it,
    or the calendar days since the drive's first row before any anchor.
    """
    if ds.family == "ssd":
        return ds.time // US_PER_DAY
    hours, present = ds.column("smart_9")
    anchor = _last_present(present, ds.starts)
    first = np.repeat(ds.starts[:-1], np.diff(ds.starts))
    return np.where(anchor >= 0, hours[anchor] // 24 + ds.time - ds.time[anchor],
                    ds.time - ds.time[first])


def _events(ds: FleetDataset, rows: np.ndarray, days: np.ndarray,
            degenerate: np.ndarray) -> list[FailureEvent]:
    """One FailureEvent per row (increasing), numbered per drive from 1."""
    drive = ds.row_drive()[rows]
    ordinal = np.arange(rows.size) - np.searchsorted(drive, drive) + 1
    return [FailureEvent(ds.drives[d], day, k, ds.family, g)
            for d, day, k, g in zip(drive.tolist(), days.tolist(),
                                    ordinal.tolist(), degenerate.tolist())]


def _drive_codes(drives: Sequence[str], names: Iterable[str]) -> np.ndarray:
    """Each name's index in ``drives``, or -1 for a name not in it: the one
    place names become the codes rows carry (per failure, period or drive)."""
    index = {d: i for i, d in enumerate(drives)}
    return np.array([index.get(n, -1) for n in names], dtype=np.int64)


class _DayWindows:
    """Point events sorted by (drive code, day), looked up by day window.

    A drive code is an index into the dataset's ``drives``. ``find``
    gives, for each query (code, lo, hi), the index range in ``order`` of
    that drive's events with lo <= day <= hi; a code without events (such
    as -1), or lo > hi, gives an empty range. The sort key is ``code *
    width + rank of the day among the distinct event days``, which cannot
    overflow whatever the day values are.
    """

    def __init__(self, codes: np.ndarray, days: np.ndarray):
        self._days = np.unique(days)
        self._width = self._days.size + 2
        keys = (np.asarray(codes, dtype=np.int64) * self._width
                + np.searchsorted(self._days, days) + 1)
        self.order = np.argsort(keys, kind="stable")
        self._keys = keys[self.order]

    def find(self, codes: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Per query: [start, stop) of its events in ``order``."""
        base = np.asarray(codes, dtype=np.int64) * self._width
        start = np.searchsorted(self._keys, base + 1 + np.searchsorted(
            self._days, np.asarray(lo, dtype=np.int64), "left"), "left")
        stop = np.searchsorted(self._keys, base + np.searchsorted(
            self._days, np.asarray(hi, dtype=np.int64), "right"), "right")
        return start, np.maximum(stop, start)

    def covered(self, codes: np.ndarray, lo, hi) -> np.ndarray:
        """Mask over the events, in input order: inside at least one query."""
        start, stop = self.find(codes, lo, hi)
        n = self._keys.size
        depth = np.cumsum(np.bincount(start, minlength=n + 1)
                          - np.bincount(stop, minlength=n + 1))
        mask = np.empty(n, dtype=bool)
        mask[self.order] = depth[:n] > 0
        return mask


def detect_hdd_failures(ds: FleetDataset) -> list[FailureEvent]:
    """One FailureEvent per failure-flagged HDD row, in drive/time order."""
    if ds.family != "hdd":
        raise ValueError("detect_hdd_failures needs an HDD dataset")
    rows = np.flatnonzero(ds.flag("failed"))
    return _events(ds, rows, drive_days(ds)[rows], np.zeros(rows.size, dtype=bool))


def detect_ssd_failures(ds: FleetDataset) -> list[FailureEvent]:
    """Recover SSD failure days from swap events by backward inactivity trimming.

    For each swap: rows after the previous swap and up to (and including)
    the swap day are scanned backward; reported-but-inactive days (zero
    reads and writes; a missing summary counts as inactive) are trimmed,
    bounded at ``SSD_TRIM_BOUND_DAYS`` before the swap day. The failure
    lands on the last active day, or on the last day before that bound if
    it comes first in the scan; if neither is in scope the event
    degenerates to the drive's first in-scope row.
    """
    if ds.family != "ssd":
        raise ValueError("detect_ssd_failures needs an SSD dataset")
    days = drive_days(ds)
    swaps = np.flatnonzero(ds.flag("swap_event"))
    drive = ds.row_drive()[swaps]
    # In scope: after the drive's previous swap, up to the swap itself.
    scope = np.maximum(ds.starts[drive], np.concatenate(([0], swaps[:-1] + 1)))
    active = (ds.column("read_ops")[0] != 0) | (ds.column("write_ops")[0] != 0)
    last_active = _last_present(active, ds.starts)[swaps]
    # The drive's last row on a day before the trim bound, or -1.
    rows = _DayWindows(ds.row_drive(), days)
    begin, end = rows.find(drive, np.iinfo(np.int64).min,
                           days[swaps] - SSD_TRIM_BOUND_DAYS - 1)
    before_bound = np.where(end > begin, rows.order[end - 1], -1)
    # The backward scan stops at whichever of the two comes first.
    stop = np.maximum(last_active, before_bound)
    found = stop >= scope
    return _events(ds, swaps, days[np.where(found, stop, scope)], ~found)


def detect_failures(ds: FleetDataset) -> list[FailureEvent]:
    return detect_hdd_failures(ds) if ds.family == "hdd" else detect_ssd_failures(ds)


def _swaps_and_reentries(ds: FleetDataset, days: np.ndarray,
                         failures: Sequence[FailureEvent]
                         ) -> list[tuple[int, int | None]]:
    """(swap day, re-entry day or None) of each failure, in order.

    A failure is anchored at its drive's ordinal-th flagged row: the swap
    row for SSDs, the failed row for HDDs. The swap day is the day of
    that row for SSDs and the failure day for HDDs. Re-entry is the first
    row after the anchor whose day exceeds the swap day; HDD ages can
    repeat or run backward, so an older row before the failure is never
    its re-entry. A failure without its flagged row raises ValueError.
    """
    codes = _drive_codes(ds.drives, (ev.drive for ev in failures)).tolist()
    flagged = np.flatnonzero(ds.flag("swap_event" if ds.family == "ssd"
                                     else "failed"))
    first = np.searchsorted(flagged, ds.starts)  # per drive, into ``flagged``
    out = []
    for ev, drive in zip(failures, codes):
        if drive < 0 or not 0 < ev.ordinal <= first[drive + 1] - first[drive]:
            raise ValueError(f"drive {ev.drive!r} has no flagged row for "
                             f"failure {ev.ordinal}")
        anchor = flagged[first[drive] + ev.ordinal - 1]
        swap = int(days[anchor]) if ds.family == "ssd" else ev.age_days
        later = days[anchor + 1:ds.starts[drive + 1]]
        after = np.flatnonzero(later > swap)
        out.append((swap, int(later[after[0]]) if after.size else None))
    return out


def extract_operational_periods(ds: FleetDataset,
                                failures: Iterable[FailureEvent]) -> list[OperationalPeriod]:
    """Cut each drive's observation span into failure-terminated and censored periods.

    The first period runs from the drive's first row to its first
    failure (terminal ``failure``) or its oldest row (``censored``); each
    post-failure re-entry opens another period.

    Periods are cut on the age axis, taking failures by age. HDD ages can
    repeat or run backward (SMART 9 stalls or resets), so a period starts
    no later than its failure, a failure at the age of the previous one
    lies in that one's period, and a censored period ends at the drive's
    oldest age. A drive's periods therefore have non-negative length, do
    not overlap, and hold each failure once; for ages that increase along
    the rows, this is the row-order walk.
    """
    failures = list(failures)
    days = drive_days(ds)
    by_drive: dict[str, list] = {}
    for ev, (_, reentry) in zip(failures, _swaps_and_reentries(ds, days, failures)):
        by_drive.setdefault(ev.drive, []).append((ev, reentry))
    oldest = np.maximum.reduceat(days, ds.starts[:-1]) if days.size else days
    periods = []
    for drive, start, last_day in zip(ds.drives, days[ds.starts[:-1]].tolist(),
                                       oldest.tolist()):
        end = None
        for ev, reentry in sorted(by_drive.get(drive, ()),
                                  key=lambda e: (e[0].age_days, e[0].ordinal)):
            if end is None or ev.age_days > end:
                end = ev.age_days
                begin = end if start is None else min(start, end)
                periods.append(OperationalPeriod(drive, begin, end, "failure"))
            start = reentry
        if start is not None:  # a re-entry lies after every failure before it
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
