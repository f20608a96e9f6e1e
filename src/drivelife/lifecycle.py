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
``flag`` and ``time``) and builds column tables: :func:`failure_table`
(drive code, age day, ordinal, degenerate flag) and :func:`period_table`
(drive code, start, end, terminal flag), in numpy. The one loop runs per
failure, to find its re-entry; none runs per drive or per row. A table also
holds the drive names its codes index, and iterating it yields its rows as
:class:`FailureEvent` or :class:`OperationalPeriod` objects.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ingest import US_PER_DAY, FleetDataset, _last_present

__all__ = [
    "FailureEvent",
    "OperationalPeriod",
    "RepairSpell",
    "CensoredSample",
    "SSD_TRIM_BOUND_DAYS",
    "LONG_LIMBO_DAYS",
    "FailureTable",
    "PeriodTable",
    "drive_days",
    "failure_table",
    "period_table",
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


class _DriveTable:
    """Columns with one entry per row, whose ``drive`` codes index the
    table's ``drives``; ``len`` is the row count."""

    def __len__(self) -> int:
        return self.drive.size

    def codes_in(self, drives: Sequence[str]) -> np.ndarray:
        """The rows' drive codes as indexes into ``drives``: the table's own
        when ``drives`` is its name list, else recoded by name, with -1 (which
        matches no row) for a drive not in ``drives``."""
        if drives is self.drives:
            return self.drive
        index = {d: i for i, d in enumerate(drives)}
        return np.array([index.get(n, -1) for n in self.drives] + [-1],
                        dtype=np.int64)[self.drive]


@dataclass(frozen=True, eq=False)
class FailureTable(_DriveTable):
    """Failures as columns, one entry per failure: the drive's code (its
    index into ``drives``), the age day, the 1-based ordinal among the
    drive's failures, and whether it is degenerate (an SSD swap without
    operational activity before it). Iterating yields the FailureEvents."""

    drive: np.ndarray       # int64
    day: np.ndarray         # int64
    ordinal: np.ndarray     # int64
    degenerate: np.ndarray  # bool
    drives: Sequence[str]
    family: str

    def __iter__(self) -> Iterator[FailureEvent]:
        for d, day, k, g in zip(self.drive.tolist(), self.day.tolist(),
                                self.ordinal.tolist(), self.degenerate.tolist()):
            yield FailureEvent(self.drives[d], day, k, self.family, g)


@dataclass(frozen=True, eq=False)
class PeriodTable(_DriveTable):
    """Operational periods as columns, one entry per period: the drive's
    code, the start and end days, and whether the period ends in a failure
    (else it is censored). Iterating yields the OperationalPeriods."""

    drive: np.ndarray   # int64
    start: np.ndarray   # int64
    end: np.ndarray     # int64
    failed: np.ndarray  # bool
    drives: Sequence[str]

    def __iter__(self) -> Iterator[OperationalPeriod]:
        for d, start, end, failed in zip(self.drive.tolist(), self.start.tolist(),
                                         self.end.tolist(), self.failed.tolist()):
            yield OperationalPeriod(self.drives[d], start, end,
                                    "failure" if failed else "censored")


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


def _ssd_failure_rows(ds: FleetDataset, days: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each swap's row, failure day and degenerate flag, by the backward
    inactivity trim of :func:`failure_table`."""
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
    return swaps, days[np.where(found, stop, scope)], ~found


def failure_table(ds: FleetDataset) -> FailureTable:
    """Every failure of the fleet, in drive and row order, numbered per
    drive from 1: one per failure-flagged HDD row, or per SSD swap.

    An SSD failure day is recovered from its swap by backward inactivity
    trimming: rows after the previous swap and up to (and including) the
    swap day are scanned backward; reported-but-inactive days (zero reads
    and writes; a missing summary counts as inactive) are trimmed, bounded
    at ``SSD_TRIM_BOUND_DAYS`` before the swap day. The failure lands on
    the last active day, or on the last day before that bound if it comes
    first in the scan; if neither is in scope the event degenerates to the
    drive's first in-scope row.
    """
    days = drive_days(ds)
    if ds.family == "hdd":
        rows = np.flatnonzero(ds.flag("failed"))
        day, degenerate = days[rows], np.zeros(rows.size, dtype=bool)
    else:
        rows, day, degenerate = _ssd_failure_rows(ds, days)
    drive = ds.row_drive()[rows]
    ordinal = np.arange(rows.size) - np.searchsorted(drive, drive) + 1
    return FailureTable(drive, day, ordinal, degenerate, ds.drives, ds.family)


def detect_failures(ds: FleetDataset) -> FailureTable:
    """The fleet's failures: :func:`failure_table`."""
    return failure_table(ds)


def _swaps_and_reentries(ds: FleetDataset, days: np.ndarray, failures: FailureTable
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per failure: its drive's code in ``ds``, the swap day, the re-entry
    day, and whether there is one.

    A failure is anchored at its drive's ordinal-th flagged row: the swap
    row for SSDs, the failed row for HDDs. The swap day is the day of
    that row for SSDs and the failure day for HDDs. Re-entry is the first
    row after the anchor whose day exceeds the swap day; HDD ages can
    repeat or run backward, so an older row before the failure is never
    its re-entry. A failure without its flagged row raises ValueError.
    The lookup loops per failure.
    """
    flagged = np.flatnonzero(ds.flag("swap_event" if ds.family == "ssd"
                                     else "failed"))
    first = np.searchsorted(flagged, ds.starts)  # per drive, into ``flagged``
    drive, ordinal = failures.codes_in(ds.drives), failures.ordinal
    known = (drive >= 0) & (drive < ds.n_drives)
    count = np.append(np.diff(first), 0)  # flagged rows per drive; 0 unknown
    valid = (ordinal > 0) & (ordinal <= count[np.where(known, drive, -1)])
    if (bad := np.flatnonzero(~valid)).size:
        i, code = bad[0], failures.drive[bad[0]]
        name = (failures.drives[code] if 0 <= code < len(failures.drives)
                else f"code {code}")
        raise ValueError(f"drive {name!r} has no flagged row for "
                         f"failure {ordinal[i]}")
    anchor = flagged[first[drive] + ordinal - 1]
    swap = days[anchor] if ds.family == "ssd" else failures.day
    reentry = np.zeros(anchor.size, dtype=np.int64)
    returned = np.zeros(anchor.size, dtype=bool)
    for i, (row, end, day) in enumerate(zip(anchor.tolist(),
                                            ds.starts[drive + 1].tolist(),
                                            swap.tolist())):
        after = np.flatnonzero(days[row + 1:end] > day)
        if after.size:
            reentry[i], returned[i] = days[row + 1 + after[0]], True
    return drive, swap, reentry, returned


def period_table(ds: FleetDataset, failures: FailureTable) -> PeriodTable:
    """Cut each drive's observation span into failure-terminated and censored
    periods, in drive order, the failure periods by age and then the
    censored one.

    The first period runs from the drive's first row to its first
    failure (terminal ``failure``) or its oldest row (``censored``); each
    post-failure re-entry opens another period.

    Periods are cut on the age axis, taking failures by age. HDD ages can
    repeat or run backward (SMART 9 stalls or resets), so a period starts
    no later than its failure, a failure at the age of the previous one
    lies in that one's period, and a censored period ends at the drive's
    oldest age. A drive's periods therefore have non-negative length, do
    not overlap, and hold each failure once; for ages that increase along
    the rows, this is the row-order walk. A failure of a drive without its
    flagged row in ``ds`` raises ValueError.
    """
    days = drive_days(ds)
    drive, _, reentry, returned = _swaps_and_reentries(ds, days, failures)
    order = np.lexsort((failures.ordinal, failures.day, drive))
    drive, day = drive[order], failures.day[order]
    reentry, returned = reentry[order], returned[order]
    # A drive's first failure starts from its first row, each later one from
    # the re-entry of the one before; a failure at the age of the one before
    # lies in that one's period.
    first = np.ones(drive.size, dtype=bool)
    first[1:] = drive[1:] != drive[:-1]
    opens = first.copy()
    opens[1:] |= day[1:] > day[:-1]
    start, has_start = days[ds.starts[drive]], first.copy()
    start[1:] = np.where(first[1:], start[1:], reentry[:-1])
    has_start[1:] |= returned[:-1]
    begin = np.where(has_start, np.minimum(start, day), day)
    # Every drive ends in a censored period from its first row or from its
    # last failure's re-entry, when there is one, to its oldest age.
    last = np.ones(drive.size, dtype=bool)
    last[:-1] = first[1:]
    censored_start = days[ds.starts[:-1]]
    censored = np.ones(ds.n_drives, dtype=bool)
    censored_start[drive[last]] = reentry[last]
    censored[drive[last]] = returned[last]
    oldest = np.maximum.reduceat(days, ds.starts[:-1]) if days.size else days
    codes = np.flatnonzero(censored)
    columns = [np.concatenate(pair) for pair in (  # drive, start, end, failed
        (drive[opens], codes), (begin[opens], censored_start[codes]),
        (day[opens], oldest[codes]),
        (np.ones(np.count_nonzero(opens), dtype=bool),
         np.zeros(codes.size, dtype=bool)))]
    order = np.argsort(2 * columns[0] + ~columns[3], kind="stable")
    return PeriodTable(*(column[order] for column in columns), ds.drives)


extract_operational_periods = period_table  # its older name, kept for callers


def build_repair_spells(ds: FleetDataset, failures: FailureTable) -> list[RepairSpell]:
    """One RepairSpell per failure: pre-swap gap (SSD) and re-entry day if any."""
    _, swap, reentry, returned = _swaps_and_reentries(ds, drive_days(ds), failures)
    return [RepairSpell(ev.drive, ev.age_days, day if back else None,
                        s - ev.age_days if ds.family == "ssd" else None)
            for ev, s, day, back in zip(failures, swap.tolist(), reentry.tolist(),
                                        returned.tolist())]


def repair_stats(spells: Sequence[RepairSpell], horizons: Sequence[float],
                 total_drives: int) -> dict[float, tuple[float, float]]:
    """Fraction of failed drives (and of all drives) repaired within each horizon.

    A horizon of ``math.inf`` reports the complement: the share of spells
    never observed to re-enter. Empty spells yield all-zero fractions.
    """
    if list(horizons) != sorted(horizons):
        raise ValueError("horizons must be sorted ascending")
    days = [s.repair_days for s in spells]
    out = {}
    for horizon in horizons:
        hits = (days.count(None) if math.isinf(horizon)
                else sum(d is not None and d <= horizon for d in days))
        out[horizon] = ((hits / len(days), hits / total_drives if total_drives else 0.0)
                        if days else (0.0, 0.0))
    return out


def failure_count_distribution(failures: FailureTable, total_drives: int
                               ) -> dict[int, tuple[float | None, float | None]]:
    """Map k -> (share of all drives with k failures, share of failed drives).

    The failed-drive share is None for k=0, and with no drives both shares
    are. Raises if the population is smaller than the number of distinct
    failed drives.
    """
    drives, at = np.unique(failures.drive, return_inverse=True)
    most = np.zeros(drives.size, dtype=np.int64)  # per failed drive: its failures
    np.maximum.at(most, at, failures.ordinal)
    n_failed = drives.size
    if total_drives < n_failed:
        raise ValueError(
            f"population ({total_drives}) smaller than failed drives ({n_failed})")
    if total_drives == 0:
        return {0: (None, None)}
    dist: dict[int, tuple[float | None, float | None]] = {
        0: ((total_drives - n_failed) / total_drives, None)}
    for k, count in zip(*(a.tolist() for a in np.unique(most, return_counts=True))):
        dist[k] = (count / total_drives, count / n_failed)
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
    values, total = sorted(sample.values), sample.total
    return ([(t, bisect.bisect_right(values, t) / total) for t in grid],
            sample.censored_count / total)


def period_length_sample(periods: PeriodTable) -> CensoredSample:
    """Time-to-failure sample: failure-terminated lengths, censored periods counted."""
    lengths = periods.end - periods.start
    return CensoredSample(tuple(lengths[periods.failed].tolist()),
                          int(np.count_nonzero(~periods.failed)))


def repair_duration_sample(spells: Iterable[RepairSpell]) -> CensoredSample:
    """Time-to-repair sample: completed repair lengths, unfinished ones censored."""
    days = [s.repair_days for s in spells]
    return CensoredSample(tuple(d for d in days if d is not None), days.count(None))


def preswap_gap_sample(spells: Iterable[RepairSpell]) -> CensoredSample:
    """Non-operational period preceding each swap (SSD spells only)."""
    values = tuple(s.preswap_gap_days for s in spells
                   if s.preswap_gap_days is not None)
    return CensoredSample(values, 0)
