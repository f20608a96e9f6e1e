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
from typing import Iterator, Sequence

import numpy as np
import numpy.random

from . import featurize
from .ingest import FleetDataset, HDD_SMART_IDS, SSD_ERROR_KINDS, SchemaError
from .lifecycle import FailureTable, _DayWindows, drive_days

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
    "check_error_kind",
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
    """Average ranks of a non-constant series, minus their mean.

    A tie group at sorted positions [s, e) ranks (s + e + 1) / 2, the
    value ``scipy.stats.rankdata(x, method="average")`` gives it. A series
    holding a NaN ranks all NaN, as rankdata's default NaN policy does.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if xs.size and np.isnan(xs[-1]):  # NaN sorts last
        return np.full(x.shape, np.nan)
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    r = np.empty(x.shape)
    r[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return r - r.mean()


def _rank_corr(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two centred rank vectors."""
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


#: The raw SMART features, each built from its own dataset column.
_RAW_SMART = frozenset(f"smart_{sid}" for sid in HDD_SMART_IDS)


def _feature_columns(ds: FleetDataset, names: Sequence[str]) -> Iterator[np.ndarray]:
    """Each named column as float64, in order.

    ``age_days``, the HDD ``failed`` flag and a raw ``smart_<id>`` are
    built on their own, by the kernel ``make_features`` applies to that
    column. Any other name takes its column from the whole feature matrix,
    built at most once, on the first such name.
    """
    feats = None
    for name in names:
        if name == "age_days":
            yield drive_days(ds).astype(float)
        elif ds.family == "hdd" and name == "failed":
            yield ds.flag("failed").astype(float)
        elif ds.family == "hdd" and name in _RAW_SMART:
            yield featurize.carry_forward(*ds.column(name), ds.starts).astype(float)
        else:
            if feats is None:
                feats = featurize.make_features(ds)
            try:
                col = (feats.column("bad_blocks_factory_cum")
                       + feats.column("bad_blocks_new_cum")
                       if name == "bad_blocks_cum" and ds.family == "ssd"
                       else feats.column(name))
            except KeyError:
                raise ValueError(f"unknown feature {name!r} for family {ds.family}")
            yield col


def spearman_matrix(ds: FleetDataset, features: Sequence[str]) -> CorrelationMatrix:
    """Pairwise Spearman over drive-day rows for the named features.

    Besides the per-family feature-matrix columns, ``age_days`` is always
    available, SSD fleets accept ``bad_blocks_cum`` (factory + new), and
    HDD fleets accept the ``failed`` flag. Unknown names raise ValueError.
    """
    p = len(features)
    rho = np.eye(p)
    defined = np.ones((p, p), dtype=bool)
    ranks, constant = [], []
    # Each column is ranked before the next one is built.
    for col in _feature_columns(ds, features):
        constant.append(col.size == 0 or bool(np.all(col == col[0])))
        ranks.append(None if constant[-1] else _centred_ranks(col))
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


def _distinct_pairs(drive: np.ndarray, bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (drive, bin) pairs, sorted by drive then bin: the rows
    of ``np.unique(np.stack((drive, bins)), axis=1)``.

    One 1-D ``np.unique`` of the int64 keys ``drive * width + dense rank of
    the bin``, which cannot overflow whatever the bins are. Rows need not
    be sorted: HDD ages can go backward within a drive.
    """
    values, rank = np.unique(bins, return_inverse=True)
    width = max(values.size, 1)
    keys = np.unique(np.asarray(drive, dtype=np.int64) * width + rank)
    return keys // width, values[keys % width]


def monthly_failure_rate(failures: FailureTable, ds: FleetDataset) -> RateCurve:
    """Failures per exposed drive per month of drive age.

    Exposure for month m is the number of drives with at least one record
    in that age month; months with zero exposure get a None rate.
    """
    fail_months = failures.day // DAYS_PER_MONTH
    # One entry per (drive, age month) that has a record.
    exposed = _distinct_pairs(ds.row_drive(), drive_days(ds) // DAYS_PER_MONTH)[1]
    n_bins = int(max(exposed.max(initial=-1), fail_months.max(initial=-1))) + 1
    if n_bins <= 0:
        return RateCurve.from_counts(np.array([0.0]), [], [])
    edges = np.arange(n_bins + 1) * DAYS_PER_MONTH
    return RateCurve.from_counts(edges, np.bincount(fail_months, minlength=n_bins),
                                 np.bincount(exposed, minlength=n_bins))


#: The most P/E bins one rate curve may have: 2^20 bins of 250 cycles reach
#: 262 million cycles, far beyond any flash endurance rating.
_MAX_PE_BINS = 1 << 20


def pe_binned_failure_rate(failures: FailureTable, ds: FleetDataset,
                           bin_width: int = 250
                           ) -> tuple[RateCurve, list[tuple[float, float]]]:
    """Failure rate and failure CDF against cumulative P/E cycles.

    Each failure is placed at the drive's last observed P/E count at the
    failure day; exposure for a bin is the number of drives observed at
    least once inside that P/E range. Returns (rate curve, CDF points at
    bin upper edges). A P/E count that needs more than ``_MAX_PE_BINS`` bins
    is a ``SchemaError``.
    """
    if ds.family != "ssd":
        raise ValueError("pe_binned_failure_rate needs an SSD dataset")
    pe, observed = ds.column("pe_cycles_cum")
    pe, drive = pe[observed], ds.row_drive()[observed]
    readings = _DayWindows(drive, drive_days(ds)[observed])
    start, stop = readings.find(failures.codes_in(ds.drives), np.iinfo(np.int64).min,
                                failures.day)
    pe_at_failure = pe[readings.order[stop[stop > start] - 1]]
    n_bins = int(pe.max(initial=0)) // bin_width + 1
    if n_bins > _MAX_PE_BINS:
        raise SchemaError(f"pe_cycles_cum value {int(pe.max())} needs {n_bins} bins "
                          f"of {bin_width} cycles; at most {_MAX_PE_BINS} are allowed")
    fail_counts = np.bincount(pe_at_failure // bin_width, minlength=n_bins)
    exposure = np.bincount(_distinct_pairs(drive, pe // bin_width)[1], minlength=n_bins)
    edges = np.arange(n_bins + 1) * bin_width
    curve = RateCurve.from_counts(edges, fail_counts, exposure)
    total = pe_at_failure.size
    cdf = ([(float(edge), running / total)
            for edge, running in zip(edges[1:], np.cumsum(fail_counts))]
           if total else [])
    return curve, cdf


def hfh_threshold_sweep(failures: FailureTable, ds: FleetDataset,
                        thresholds: Sequence[float]) -> dict:
    """Failure rate of small- vs large-HFH drive classes per threshold.

    A drive is large-HFH at threshold t if its head flying hours (SMART
    240) ever exceed t. Drives never reporting SMART 240 are excluded and
    counted. Returns {"excluded": n, "per_threshold": {t: (small_rate,
    large_rate, large_share)}} with None rates for empty classes.
    """
    if ds.family != "hdd":
        raise ValueError("hfh_threshold_sweep needs an HDD dataset")
    codes = failures.codes_in(ds.drives)
    failed = np.zeros(ds.n_drives, dtype=bool)
    failed[codes[codes >= 0]] = True
    hfh, reported = ds.column("smart_240")
    firsts = ds.starts[:-1]
    # Absent cells read 0 and counts are >= 0, so a drive's maximum over
    # all its cells is its maximum over the reported ones.
    seen = np.logical_or.reduceat(reported, firsts)
    max_hfh = np.maximum.reduceat(hfh, firsts)[seen].tolist()
    failed = failed[seen].tolist()
    excluded = ds.n_drives - len(max_hfh)
    per_threshold = {}
    for t in thresholds:
        small = [f for h, f in zip(max_hfh, failed) if h <= t]
        large = [f for h, f in zip(max_hfh, failed) if h > t]
        small_rate = sum(small) / len(small) if small else None
        large_rate = sum(large) / len(large) if large else None
        share = len(large) / len(max_hfh) if max_hfh else None
        per_threshold[t] = (small_rate, large_rate, share)
    return {"excluded": excluded, "per_threshold": per_threshold}


def check_error_kind(family: str, kind: str) -> None:
    """Raise ValueError unless ``kind`` names an error series of the family.

    SSD kinds are the ten canonical counter names; HDD kinds are
    ``smart_<id>`` names.
    """
    if family == "ssd":
        if kind not in SSD_ERROR_KINDS:
            raise ValueError(f"unknown SSD error kind {kind!r}; expected one of "
                             + ", ".join(SSD_ERROR_KINDS))
    elif not (kind.startswith("smart_") and kind[6:].isdigit()):
        raise ValueError(f"unknown HDD error kind {kind!r} (expected smart_<id>)")


def _daily_error_series(ds: FleetDataset, kind: str):
    """Every record's drive code, drive-age day and that-day count of one error kind.

    Returns the records with a nonzero count as a window lookup with their
    counts, then the drive code and day arrays of all records in order.
    SSD kinds are the ten canonical counter names. HDD kinds are
    ``smart_<id>`` names, read as the day's increment of that cumulative
    counter by :func:`featurize.counter_increments`, the rule of the
    ``smart_<id>_diff`` features.
    """
    check_error_kind(ds.family, kind)
    if ds.family == "ssd":
        counts = ds.column(f"err_{kind}")[0]
    else:
        counts = featurize.counter_increments(*ds.column(kind), ds.starts)[0]
    drive, days = ds.row_drive(), drive_days(ds)
    hit = counts > 0
    return _DayWindows(drive[hit], days[hit]), counts[hit], drive, days


def prefailure_error_probability(failures: FailureTable, ds: FleetDataset,
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
    errors, _, drive, days = _daily_error_series(ds, kind)
    fail_drives, fail_days = failures.codes_in(ds.drives), failures.day
    prob: dict[int, float | None] = {}
    for n in windows:
        start, stop = errors.find(fail_drives, fail_days - n + 1, fail_days)
        hits = int(np.count_nonzero(stop > start))
        prob[n] = hits / len(failures) if failures else None

    rng = np.random.default_rng(seed)
    baseline = {n: 0.0 for n in windows}
    if days.size:
        # Sorted, each probe walks the window keys once; a hit count does
        # not depend on the order of the probes.
        picks = np.sort(rng.integers(0, days.size, size=BASELINE_WINDOW_DRAWS))
        ends = days[picks]
        for n in windows:
            start, stop = errors.find(drive[picks], ends - n + 1, ends)
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


def prefailure_error_percentiles(failures: FailureTable, ds: FleetDataset,
                                 kind: str, percentiles: Sequence[float],
                                 offsets: Sequence[int] = tuple(range(8))) -> dict:
    """Upper percentiles of nonzero error counts at each day-before-failure offset.

    Offset d looks at the day ``failure_day - d`` of each failed drive;
    zero counts are excluded. Offsets with no nonzero counts map to None.
    """
    errors, nonzero, _, _ = _daily_error_series(ds, kind)
    fail_drives, fail_days = failures.codes_in(ds.drives), failures.day
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
    writes, reported = ds.column("write_ops")
    months = drive_days(ds)[reported] // DAYS_PER_MONTH
    order = np.argsort(months, kind="stable")
    found, first = np.unique(months[order], return_index=True)
    out = {}
    for month, chunk in zip(found.tolist(),
                            np.split(writes[reported][order], first[1:])):
        v = chunk.tolist()
        out[month] = (nearest_rank(v, 25), nearest_rank(v, 50), nearest_rank(v, 75))
    return out
