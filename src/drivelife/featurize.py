"""Build per-drive-day feature matrices, lookahead labels, and attribute partitions.

SSD features: the daily read/write/erase counts and ten error counters,
cumulative (`_cum`) variants of each, the cumulative wear and bad-block
counters, and drive age in days. HDD features: raw SMART values, `diff`
variants (today minus previous observation) for the cumulative SMART ids,
a carried-forward cumulative for SMART 187, and a counter-reset flag.

Missing values are carried forward from the last observation and imputed
to 0 when never observed; a negative raw difference (counter reset) is
clamped to a 0 diff and raises the reset flag instead of producing a
negative spike.

Matrices are columnar (one float64 array per dataset) because fleets run
to millions of drive-days.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ingest import FleetDataset, HDD_SMART_IDS, SSD_ERROR_KINDS
from .lifecycle import FailureEvent, OperationalPeriod, _DayWindows, drive_days

__all__ = [
    "FeatureMatrix",
    "LabeledExamples",
    "PartitionRule",
    "HDD_DIFF_IDS",
    "make_features_ssd",
    "make_features_hdd",
    "make_features",
    "label_lookahead",
    "partition_dataset",
    "write_examples_csv",
    "read_examples_csv",
]

#: SMART ids whose raw counters are cumulative and receive a diff variant.
HDD_DIFF_IDS = (4, 5, 7, 9, 10, 12, 192, 193, 197, 198, 199, 240, 241, 242)

_SSD_DAILY = ("read_ops", "write_ops", "erase_ops",
              *(f"err_{kind}" for kind in SSD_ERROR_KINDS))

_SSD_NAMES = (*_SSD_DAILY, *(f"{n}_cum" for n in _SSD_DAILY),
              "pe_cycles_cum", "bad_blocks_factory_cum", "bad_blocks_new_cum",
              "age_days")

_HDD_NAMES = (*(f"smart_{sid}" for sid in HDD_SMART_IDS),
              *(f"smart_{sid}_diff" for sid in HDD_DIFF_IDS),
              "smart_187_cum", "counter_reset")

#: (SMART id, raw column, diff column or None) for every HDD raw id.
_HDD_COLUMNS = tuple(
    (sid, j, _HDD_NAMES.index(f"smart_{sid}_diff") if sid in HDD_DIFF_IDS else None)
    for j, sid in enumerate(HDD_SMART_IDS))


@dataclass
class FeatureMatrix:
    """Aligned per-drive-day feature rows for a whole fleet.

    ``days`` is the drive-age day of each row (the time index used for
    labeling); ``hfh_max`` is the max-to-date head flying hours (HDD only,
    None for SSD fleets).
    """

    family: str
    names: tuple[str, ...]
    X: np.ndarray            # (n_rows, n_features) float64
    drives: np.ndarray       # (n_rows,) drive ids
    days: np.ndarray         # (n_rows,) int64 drive-age days
    hfh_max: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name == "age_days" and "age_days" not in self.names:
            return self.days.astype(float)
        try:
            return self.X[:, self.names.index(name)]
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None


def make_features_ssd(ds: FleetDataset) -> FeatureMatrix:
    """Daily + cumulative activity/error features for every SSD drive-day.

    Missing daily counts (bare swap-marker rows) are imputed to 0; each
    ``<base>_cum`` column is the running sum of its daily column, so the
    final cumulative equals the sum of the dailies. The wear and bad-block
    counters are carried forward across absent cells.
    """
    if ds.family != "ssd":
        raise ValueError("make_features_ssd needs an SSD dataset")
    ages = drive_days(ds)
    blocks, drive_ids = [], []
    for drive in ds.drives:
        seq = ds.records[drive]
        n = len(seq)
        daily = np.zeros((n, len(_SSD_DAILY)))
        carried = np.zeros((n, 3))
        for i, rec in enumerate(seq):
            daily[i, 0] = rec.read_ops or 0
            daily[i, 1] = rec.write_ops or 0
            daily[i, 2] = rec.erase_ops or 0
            if rec.errors:
                for k, kind in enumerate(SSD_ERROR_KINDS):
                    daily[i, 3 + k] = rec.errors.get(kind, 0)
            carried[i, 0] = rec.pe_cycles_cum if rec.pe_cycles_cum is not None else np.nan
            carried[i, 1] = (rec.bad_blocks_factory_cum
                             if rec.bad_blocks_factory_cum is not None else np.nan)
            carried[i, 2] = (rec.bad_blocks_new_cum
                             if rec.bad_blocks_new_cum is not None else np.nan)
        _carry_forward(carried)
        block = np.hstack([daily, np.cumsum(daily, axis=0), carried,
                           ages[drive][:, None].astype(float)])
        blocks.append(block)
        drive_ids.extend([drive] * n)
    X = np.vstack(blocks) if blocks else np.empty((0, len(_SSD_NAMES)))
    days = np.concatenate([np.empty(0, dtype=np.int64), *ages.values()])
    return FeatureMatrix("ssd", _SSD_NAMES, X, np.array(drive_ids, dtype=object), days)


def _carry_forward(a: np.ndarray) -> None:
    """In place: replace NaNs column-wise with the last seen value, else 0."""
    for j in range(a.shape[1]):
        col = a[:, j]
        last = 0.0
        for i in range(col.shape[0]):
            if np.isnan(col[i]):
                col[i] = last
            else:
                last = col[i]


def make_features_hdd(ds: FleetDataset) -> FeatureMatrix:
    """Raw SMART values, diffs of the cumulative ids, and the SMART-187 cumulative.

    Diffs are computed against the last *present* value (carry-forward
    across gaps); the first observation diffs to 0; a negative difference
    is a counter reset, clamped to 0 with the ``counter_reset`` flag set.
    """
    if ds.family != "hdd":
        raise ValueError("make_features_hdd needs an HDD dataset")
    p = len(_HDD_NAMES)
    cum_col, reset_col = p - 2, p - 1

    ages = drive_days(ds)
    blocks, drive_ids, hfh_blocks = [], [], []
    for serial in ds.drives:
        seq = ds.records[serial]
        n = len(seq)
        block = np.zeros((n, p))
        last_raw: dict[int, float] = {}
        hfh_running = 0.0
        hfh = np.zeros(n)
        for i, rec in enumerate(seq):
            reset = False
            for sid, j, diff_col in _HDD_COLUMNS:
                value = rec.smart_raw.get(sid)
                prev = last_raw.get(sid)
                if value is None:
                    value = prev if prev is not None else 0.0
                block[i, j] = value
                if diff_col is not None:
                    diff = 0.0 if prev is None else value - prev
                    if diff < 0:
                        diff = 0.0
                        reset = True
                    block[i, diff_col] = diff
                last_raw[sid] = value
            block[i, cum_col] = last_raw[187]
            block[i, reset_col] = float(reset)
            hfh_running = max(hfh_running, last_raw[240])
            hfh[i] = hfh_running
        blocks.append(block)
        drive_ids.extend([serial] * n)
        hfh_blocks.append(hfh)
    X = np.vstack(blocks) if blocks else np.empty((0, p))
    days = np.concatenate([np.empty(0, dtype=np.int64), *ages.values()])
    hfh_max = np.concatenate(hfh_blocks) if hfh_blocks else np.empty(0)
    return FeatureMatrix("hdd", _HDD_NAMES, X, np.array(drive_ids, dtype=object),
                         days, hfh_max=hfh_max)


def make_features(ds: FleetDataset) -> FeatureMatrix:
    return make_features_hdd(ds) if ds.family == "hdd" else make_features_ssd(ds)


@dataclass
class LabeledExamples:
    """Feature rows with fails-within-N labels and a partition attribute."""

    names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray              # bool labels
    drives: np.ndarray
    days: np.ndarray
    partition_key: np.ndarray
    lookahead: int
    models: np.ndarray | None = None  # drive model per row, when known

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    def subset(self, mask: np.ndarray) -> "LabeledExamples":
        return LabeledExamples(
            self.names, self.X[mask], self.y[mask], self.drives[mask],
            self.days[mask], self.partition_key[mask], self.lookahead,
            None if self.models is None else self.models[mask])


def label_lookahead(feats: FeatureMatrix, failures: Iterable[FailureEvent],
                    lookahead: int,
                    periods: Sequence[OperationalPeriod] | None = None,
                    partition_attr: str = "age",
                    models: dict[str, str] | None = None) -> LabeledExamples:
    """Attach fails-within-N labels to feature rows.

    A row at day d is positive iff its drive has a failure at day d+k for
    some 0 <= k <= ``lookahead``. When ``periods`` is given, rows outside
    every operational period (post-failure inactivity and repair gaps)
    produce no examples. ``partition_attr`` selects the per-row partition
    key: "age" (drive-age days) or "hfh" (max-to-date head flying hours).
    """
    if lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    rows = _DayWindows(feats.drives, feats.days)
    keep = np.ones(feats.n_rows, dtype=bool)
    if periods is not None:
        keep = rows.covered([p.drive for p in periods],
                            [p.start_day for p in periods],
                            [p.end_day for p in periods])
    failures = list(failures)
    fail_days = np.array([ev.age_days for ev in failures], dtype=np.int64)
    y = rows.covered([ev.drive for ev in failures], fail_days - lookahead,
                     fail_days)

    if partition_attr == "age":
        key = feats.days.astype(float)
    elif partition_attr == "hfh":
        if feats.hfh_max is None:
            raise ValueError("hfh partition key needs an HDD feature matrix")
        key = feats.hfh_max.astype(float)
    else:
        raise ValueError(f"unknown partition attribute {partition_attr!r}")

    model_col = None
    if models is not None:
        model_col = np.array([models.get(d, "") for d in feats.drives], dtype=object)

    out = LabeledExamples(feats.names, feats.X, y, feats.drives, feats.days,
                          key, lookahead, model_col)
    return out.subset(keep) if not keep.all() else out


@dataclass(frozen=True)
class PartitionRule:
    """Split examples on an attribute threshold: key <= threshold goes below."""

    attribute: str  # "age" | "hfh"
    threshold: float

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.attribute not in ("age", "hfh"):
            raise ValueError(f"unknown partition attribute {self.attribute!r}")


def partition_dataset(examples: LabeledExamples,
                      rule: PartitionRule) -> tuple[LabeledExamples, LabeledExamples]:
    """Disjoint, exhaustive, order-preserving split on the partition key."""
    below = examples.partition_key <= rule.threshold
    return examples.subset(below), examples.subset(~below)


def write_examples_csv(examples: LabeledExamples, out,
                       header_comment: str | None = None) -> None:
    """Write labeled examples: feature columns then label,drive_id,day,partition_key."""
    import csv

    if header_comment:
        out.write(f"# {header_comment}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow([*examples.names, "label", "drive_id", "day", "partition_key"])
    for i in range(examples.n):
        w.writerow([*(repr(float(v)) for v in examples.X[i]), int(examples.y[i]),
                    examples.drives[i], int(examples.days[i]),
                    repr(float(examples.partition_key[i]))])


def read_examples_csv(stream, lookahead: int = 0) -> LabeledExamples:
    """Inverse of write_examples_csv (feature values round-trip via repr)."""
    import csv
    import io

    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = (r for r in csv.reader(stream)
            if r and not r[0].startswith("#"))
    header = next(rows)
    if header[-4:] != ["label", "drive_id", "day", "partition_key"]:
        raise ValueError("not an examples CSV: trailing columns mismatch")
    names = tuple(header[:-4])
    X, y, drives, days, keys = [], [], [], [], []
    for row in rows:
        X.append([float(v) for v in row[:len(names)]])
        y.append(bool(int(row[-4])))
        drives.append(row[-3])
        days.append(int(row[-2]))
        keys.append(float(row[-1]))
    n = len(X)
    return LabeledExamples(
        names, np.asarray(X, dtype=float).reshape(n, len(names)),
        np.asarray(y, dtype=bool), np.asarray(drives, dtype=object),
        np.asarray(days, dtype=np.int64), np.asarray(keys, dtype=float),
        lookahead)
