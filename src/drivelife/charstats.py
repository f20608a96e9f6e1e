"""Fleet characterization: correlations, failure-rate curves, wear and error statistics.

Conventions (the source analyses leave these open, so they are pinned here):

* a "month" of drive age is 30 age-days;
* quantiles use the nearest-rank rule;
* Spearman ties get average ranks; a constant series has an undefined
  correlation, reported as None rather than 0;
* the arbitrary-window error baseline is estimated from 10,000 seeded
  uniform draws over recorded drive-days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import rankdata

from . import featurize
from .ingest import FleetDataset, SSD_ERROR_KINDS
from .lifecycle import FailureEvent, _DayWindows, drive_days

__all__ = [
    "CorrelationMatrix",
    "RateCurve",
    "DAYS_PER_MONTH",
    "BASELINE_WINDOW_DRAWS",
    "spearman",
    "spearman_matrix",
    "monthly_failure_rate",
    "pe_binned_failure_rate",
    "hfh_threshold_sweep",
    "prefailure_error_probability",
    "prefailure_error_percentiles",
    "write_intensity_quartiles",
    "nearest_rank",
]

DAYS_PER_MONTH = 30
BASELINE_WINDOW_DRAWS = 10_000


@dataclass
class CorrelationMatrix:
    """Symmetric Spearman matrix; undefined cells are NaN with defined=False."""

    labels: tuple[str, ...]
    rho: np.ndarray
    defined: np.ndarray

    def value(self, a: str, b: str) -> float | None:
        i, j = self.labels.index(a), self.labels.index(b)
        return float(self.rho[i, j]) if self.defined[i, j] else None


@dataclass
class RateCurve:
    """Per-bin failure rate normalized by the drives exposed in that bin.

    ``rate[i]`` is None when bin i has zero exposure. Bin i covers
    [bin_edges[i], bin_edges[i+1]).
    """

    bin_edges: np.ndarray
    failures: np.ndarray
    exposure: np.ndarray
    rate: list

    @classmethod
    def from_counts(cls, edges, failures, exposure) -> "RateCurve":
        failures = np.asarray(failures, dtype=np.int64)
        exposure = np.asarray(exposure, dtype=np.int64)
        rate = [f / e if e else None for f, e in zip(failures, exposure)]
        return cls(np.asarray(edges, dtype=float), failures, exposure, rate)


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman rank correlation: Pearson of average-ranked values.

    Returns None (undefined) when either series is constant. Requires
    equal lengths of at least 2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    return _rank_corr(_centred_ranks(x), _centred_ranks(y))


def _centred_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks of a non-constant series, minus their mean."""
    r = rankdata(x, method="average")
    return r - r.mean()


def _rank_corr(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two centred rank vectors."""
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def _feature_table(ds: FleetDataset, names: Sequence[str]) -> np.ndarray:
    feats = featurize.make_features(ds)
    cols = []
    for name in names:
        if name == "failed" and ds.family == "hdd":
            flag = np.fromiter(
                (1.0 if r.failed_today else 0.0 for d in ds.drives
                 for r in ds.records[d]), dtype=float, count=feats.n_rows)
            cols.append(flag)
        elif name == "bad_blocks_cum" and ds.family == "ssd":
            cols.append(feats.column("bad_blocks_factory_cum")
                        + feats.column("bad_blocks_new_cum"))
        else:
            try:
                cols.append(feats.column(name))
            except KeyError:
                raise ValueError(f"unknown feature {name!r} for family {ds.family}")
    return np.column_stack(cols) if cols else np.empty((feats.n_rows, 0))


def spearman_matrix(ds: FleetDataset, features: Sequence[str]) -> CorrelationMatrix:
    """Pairwise Spearman over drive-day rows for the named features.

    Besides the per-family feature-matrix columns, ``age_days`` is always
    available, SSD fleets accept ``bad_blocks_cum`` (factory + new), and
    HDD fleets accept the ``failed`` flag. Unknown names raise ValueError.
    """
    table = _feature_table(ds, features)
    p = len(features)
    rho = np.eye(p)
    defined = np.ones((p, p), dtype=bool)
    ranks, constant = [], []
    for j in range(p):
        col = table[:, j]
        constant.append(col.size == 0 or bool(np.all(col == col[0])))
        ranks.append(None if constant[j] else _centred_ranks(col))
    for i in range(p):
        for j in range(i + 1, p):
            if constant[i] or constant[j]:
                rho[i, j] = rho[j, i] = np.nan
                defined[i, j] = defined[j, i] = False
                continue
            rho[i, j] = rho[j, i] = _rank_corr(ranks[i], ranks[j])
    for j in range(p):
        if constant[j]:
            defined[j, j] = False
            rho[j, j] = np.nan
    return CorrelationMatrix(tuple(features), rho, defined)


def monthly_failure_rate(failures: Iterable[FailureEvent],
                         ds: FleetDataset) -> RateCurve:
    """Failures per exposed drive per month of drive age.

    Exposure for month m is the number of drives with at least one record
    in that age month; months with zero exposure get a None rate.
    """
    fail_months = np.array([ev.age_days // DAYS_PER_MONTH for ev in failures],
                           dtype=np.int64)
    # One entry per (drive, age month) that has a record.
    exposed = np.concatenate([np.empty(0, dtype=np.int64),
                              *(np.unique(a // DAYS_PER_MONTH)
                                for a in drive_days(ds).values())])
    n_bins = int(max(exposed.max(initial=-1), fail_months.max(initial=-1))) + 1
    if n_bins <= 0:
        return RateCurve.from_counts(np.array([0.0]), [], [])
    edges = np.arange(n_bins + 1) * DAYS_PER_MONTH
    return RateCurve.from_counts(edges, np.bincount(fail_months, minlength=n_bins),
                                 np.bincount(exposed, minlength=n_bins))


def _pe_at_day(ds: FleetDataset, drive: str, day: int) -> float | None:
    """Last observed cumulative P/E count at or before the given drive-age day."""
    best = None
    for rec in ds.records[drive]:
        if rec.day > day:
            break
        if rec.pe_cycles_cum is not None:
            best = rec.pe_cycles_cum
    return best


def pe_binned_failure_rate(failures: Sequence[FailureEvent], ds: FleetDataset,
                           bin_width: int = 250
                           ) -> tuple[RateCurve, list[tuple[float, float]]]:
    """Failure rate and failure CDF against cumulative P/E cycles.

    Each failure is placed at the drive's last observed P/E count at the
    failure day; exposure for a bin is the number of drives observed at
    least once inside that P/E range. Returns (rate curve, CDF points at
    bin upper edges).
    """
    if ds.family != "ssd":
        raise ValueError("pe_binned_failure_rate needs an SSD dataset")
    pe_at_failure = []
    for ev in failures:
        pe = _pe_at_day(ds, ev.drive, ev.age_days)
        if pe is not None:
            pe_at_failure.append(pe)
    max_pe = 0
    per_drive_pe: dict[str, np.ndarray] = {}
    for drive in ds.drives:
        vals = np.array([r.pe_cycles_cum for r in ds.records[drive]
                         if r.pe_cycles_cum is not None], dtype=np.int64)
        per_drive_pe[drive] = vals
        if vals.size:
            max_pe = max(max_pe, int(vals.max()))
    if pe_at_failure:
        max_pe = max(max_pe, max(pe_at_failure))
    n_bins = max_pe // bin_width + 1
    fail_counts = np.zeros(n_bins, dtype=np.int64)
    for pe in pe_at_failure:
        fail_counts[pe // bin_width] += 1
    exposure = np.zeros(n_bins, dtype=np.int64)
    for vals in per_drive_pe.values():
        if vals.size:
            for b in np.unique(vals // bin_width):
                exposure[b] += 1
    edges = np.arange(n_bins + 1) * bin_width
    curve = RateCurve.from_counts(edges, fail_counts, exposure)
    total = len(pe_at_failure)
    cdf = []
    if total:
        running = 0
        for b in range(n_bins):
            running += fail_counts[b]
            cdf.append((float(edges[b + 1]), running / total))
    return curve, cdf


def hfh_threshold_sweep(failures: Iterable[FailureEvent], ds: FleetDataset,
                        thresholds: Sequence[float]) -> dict:
    """Failure rate of small- vs large-HFH drive classes per threshold.

    A drive is large-HFH at threshold t if its head flying hours (SMART
    240) ever exceed t. Drives never reporting SMART 240 are excluded and
    counted. Returns {"excluded": n, "per_threshold": {t: (small_rate,
    large_rate, large_share)}} with None rates for empty classes.
    """
    if ds.family != "hdd":
        raise ValueError("hfh_threshold_sweep needs an HDD dataset")
    failed = {ev.drive for ev in failures}
    max_hfh = {}
    excluded = 0
    for serial in ds.drives:
        values = [r.smart_raw[240] for r in ds.records[serial] if 240 in r.smart_raw]
        if values:
            max_hfh[serial] = max(values)
        else:
            excluded += 1
    per_threshold = {}
    for t in thresholds:
        small = [d for d, h in max_hfh.items() if h <= t]
        large = [d for d, h in max_hfh.items() if h > t]
        small_rate = (sum(d in failed for d in small) / len(small)) if small else None
        large_rate = (sum(d in failed for d in large) / len(large)) if large else None
        share = len(large) / len(max_hfh) if max_hfh else None
        per_threshold[t] = (small_rate, large_rate, share)
    return {"excluded": excluded, "per_threshold": per_threshold}


def _daily_error_series(ds: FleetDataset, kind: str):
    """Every record's drive, drive-age day and that-day count of one error kind.

    Returns the records with a nonzero count as a window lookup with their
    counts, then the drive and day arrays of all records in dataset order.
    SSD kinds are the ten canonical counter names. HDD kinds are
    ``smart_<id>`` names, read as the day's increment of that cumulative
    counter (clamped at 0 across resets; the first observation counts 0).
    """
    if ds.family == "ssd":
        if kind not in SSD_ERROR_KINDS:
            raise ValueError(f"unknown SSD error kind {kind!r}")
        counts = [r.error_count(kind) for r in ds.iter_records()]
    else:
        if not kind.startswith("smart_"):
            raise ValueError(f"unknown HDD error kind {kind!r} (expected smart_<id>)")
        sid = int(kind.split("_")[1])
        counts = []
        for drive in ds.drives:
            prev = None
            for rec in ds.records[drive]:
                value = rec.smart_raw.get(sid)
                counts.append(value - prev if value is not None and prev is not None
                              and value > prev else 0)
                if value is not None:
                    prev = value
    ages = drive_days(ds)
    drives = np.repeat(np.array(ds.drives, dtype=object),
                       [ages[d].size for d in ds.drives])
    days = np.concatenate([np.empty(0, dtype=np.int64), *ages.values()])
    counts = np.array(counts, dtype=np.int64)
    hit = counts > 0
    return _DayWindows(drives[hit], days[hit]), counts[hit], drives, days


def prefailure_error_probability(failures: Sequence[FailureEvent], ds: FleetDataset,
                                 kind: str, windows: Sequence[int],
                                 seed: int = 0) -> dict:
    """P(>=1 error of `kind` in the n days ending at the failure day), per n.

    The baseline is the probability of seeing such an error in an
    arbitrary n-day window, estimated from seeded uniform draws of window
    end days over all recorded drive-days. Returns
    {"probability": {n: p or None}, "baseline": {n: p}}.
    """
    if any(n < 1 for n in windows):
        raise ValueError("window sizes must be >= 1")
    errors, _, drives, days = _daily_error_series(ds, kind)

    fail_drives = [ev.drive for ev in failures]
    fail_days = np.array([ev.age_days for ev in failures], dtype=np.int64)
    prob: dict[int, float | None] = {}
    for n in windows:
        start, stop = errors.find(fail_drives, fail_days - n + 1, fail_days)
        hits = int(np.count_nonzero(stop > start))
        prob[n] = hits / len(failures) if failures else None

    rng = np.random.default_rng(seed)
    baseline = {n: 0.0 for n in windows}
    if days.size:
        picks = rng.integers(0, days.size, size=BASELINE_WINDOW_DRAWS)
        ends = days[picks]
        for n in windows:
            start, stop = errors.find(drives[picks], ends - n + 1, ends)
            hits = int(np.count_nonzero(stop > start))
            baseline[n] = hits / BASELINE_WINDOW_DRAWS
    return {"probability": prob, "baseline": baseline}


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empty sample")
    k = math.ceil(pct / 100 * len(ordered))
    return ordered[k - 1]


def prefailure_error_percentiles(failures: Sequence[FailureEvent], ds: FleetDataset,
                                 kind: str, percentiles: Sequence[float],
                                 offsets: Sequence[int] = tuple(range(8))) -> dict:
    """Upper percentiles of nonzero error counts at each day-before-failure offset.

    Offset d looks at the day ``failure_day - d`` of each failed drive;
    zero counts are excluded. Offsets with no nonzero counts map to None.
    """
    errors, nonzero, _, _ = _daily_error_series(ds, kind)
    fail_drives = [ev.drive for ev in failures]
    fail_days = np.array([ev.age_days for ev in failures], dtype=np.int64)
    out: dict[int, dict[float, float] | None] = {}
    for d in offsets:
        start, stop = errors.find(fail_drives, fail_days - d, fail_days - d)
        pool = [int(c) for a, b in zip(start, stop)
                for c in nonzero[errors.order[a:b]]]
        out[d] = ({p: nearest_rank(pool, p) for p in percentiles} if pool else None)
    return out


def write_intensity_quartiles(ds: FleetDataset) -> dict[int, tuple[float, float, float]]:
    """Nearest-rank (Q1, median, Q3) of daily write counts per month of drive age.

    Days without a write summary contribute nothing; empty months are
    absent from the result.
    """
    if ds.family != "ssd":
        raise ValueError("write_intensity_quartiles needs an SSD dataset")
    per_month: dict[int, list[int]] = {}
    for drive in ds.drives:
        for rec in ds.records[drive]:
            if rec.write_ops is None:
                continue
            per_month.setdefault(rec.day // DAYS_PER_MONTH, []).append(rec.write_ops)
    return {m: (nearest_rank(v, 25), nearest_rank(v, 50), nearest_rank(v, 75))
            for m, v in sorted(per_month.items())}
