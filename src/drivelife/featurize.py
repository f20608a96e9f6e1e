"""Build per-drive-day feature matrices, lookahead labels, and attribute partitions.

SSD features: the daily read/write/erase counts and ten error counters,
cumulative (`_cum`) variants of each, the cumulative wear and bad-block
counters, and drive age in days. HDD features: raw SMART values, `diff`
variants (today minus the last present value) for the cumulative SMART
ids, a carried-forward cumulative for SMART 187, and a counter-reset flag.

Missing values are carried forward from the last observation and imputed
to 0 when never observed; a diff is 0 on a drive's first observation and
on missing days, and a negative raw difference (counter reset) is clamped
to a 0 diff and raises the reset flag instead of producing a negative
spike. ``charstats`` counts HDD errors by the same rule.

Features are built one dataset column at a time (``FleetDataset.column``)
with per-drive kernels over the rows, never record by record; matrices
are columnar (one float64 array per dataset) because fleets run to
millions of drive-days.

Labels come from one :func:`example_builder` per feature matrix: the
rows the periods keep, their features, drives, days and partition keys
are taken once, and each lookahead N adds only its labels, so every N's
table shares those arrays. :func:`label_lookahead` is the builder called
at one N.

Examples CSVs are written by ``ingest``'s column-batch writer. The tables
of one builder differ only in their one-byte label cells, so
:func:`write_examples_tables` formats each batch of their shared rows once
and writes it to every table's stream with that table's labels set at the
cell ends the formatter gives. They are read back through ``ingest``'s
blocks (``_header``/``_blocks``), a column at a time. A
feature or ``partition_key`` cell written ``[0-9]{1,15}\\.0`` is read as
its digits' integer value, which is exact as a float (10**15 < 2**53),
and a label or day cell of 1 to 18 ASCII digits by ``ingest``'s count
grammar (Lemire, "Number Parsing at a Gigabyte per Second", SPE 2021,
kept to integers). A row with any other cell goes whole through the
per-row parser (``float``/``int``), which alone decides its values and
its errors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ingest import (FleetDataset, HDD_SMART_IDS, SSD_ERROR_KINDS, SchemaError,
                     _WRITE_BATCH, _PresentScans, _blocks, _codes, _column, _digits,
                     _format_rows, _header, _sorted_codes, _write_columns, _write_csv)
from .lifecycle import FailureTable, PeriodTable, _DayWindows, drive_days

__all__ = [
    "FeatureMatrix",
    "LabeledExamples",
    "PartitionRule",
    "HDD_DIFF_IDS",
    "make_features_ssd",
    "make_features_hdd",
    "make_features",
    "carry_forward",
    "counter_increments",
    "example_builder",
    "label_lookahead",
    "partition_dataset",
    "write_examples_csv",
    "write_examples_tables",
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


@dataclass
class FeatureMatrix:
    """Aligned per-drive-day feature rows for a whole fleet.

    Each row names its drive by ``drive``, its index into ``drive_ids``
    (the dataset's sorted ``drives``); ``days`` is the drive-age day of
    each row (the time index used for labeling); ``hfh_max`` is the
    max-to-date head flying hours (HDD only, None for SSD fleets).
    """

    family: str
    names: tuple[str, ...]
    X: np.ndarray            # (n_rows, n_features) float64
    drive: np.ndarray        # (n_rows,) int64 index into drive_ids
    drive_ids: Sequence[str]
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


def carry_forward(values: np.ndarray, present: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Each row's last present value of its drive; 0 before the drive's first.

    Takes a :meth:`FleetDataset.column` and its ``starts``, as do the
    kernels below. When every cell is present, as the dataset's shared
    all-true mask says, no last-present scan is made: the result is a copy
    of ``values``.
    """
    carried = _carry_forward(values, present, _PresentScans(starts))
    return carried.copy() if carried is values else carried


def _carry_forward(values: np.ndarray, present: np.ndarray,
                   scans: _PresentScans) -> np.ndarray:
    """:func:`carry_forward`, but ``values`` itself when every cell is present."""
    if present.all():
        return values
    last = scans.last(present)
    return np.where(last >= 0, values[last], 0)


def counter_increments(values: np.ndarray, present: np.ndarray,
                       starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daily increments of a cumulative counter, and their reset flags.

    A present cell counts its value minus the drive's last earlier present
    value. A drive's first present cell and every absent cell count 0. A
    negative difference is a counter reset: it counts 0 and is flagged.
    Differences are taken in int64, so they are exact for every count.
    When every cell is present, no previous-present scan is made: the
    increment is the difference from the row before, with each drive's
    first row set to 0.
    """
    return _counter_increments(values, present, _PresentScans(starts))


def _counter_increments(values: np.ndarray, present: np.ndarray,
                        scans: _PresentScans) -> tuple[np.ndarray, np.ndarray]:
    if present.all():
        diff = np.zeros_like(values)
        np.subtract(values[1:], values[:-1], out=diff[1:])
        diff[scans.firsts] = 0
    else:
        prev = scans.previous(present)
        diff = np.where(present & (prev >= 0), values - values[prev], 0)
    reset = diff < 0
    return np.maximum(diff, 0, out=diff), reset


def _accumulate(ufunc: np.ufunc, a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per drive: ``ufunc.accumulate`` down the drive's rows (axis 0).

    One step per row position, over every drive that long; each element
    sees the operations of a per-drive ``ufunc.accumulate`` in its order,
    so float running sums equal ``np.cumsum`` bit for bit.
    """
    out = a.copy()
    lengths = np.diff(starts)
    for k in range(1, lengths.max(initial=0)):
        rows = starts[:-1][lengths > k] + k
        out[rows] = ufunc(out[rows - 1], a[rows])
    return out


def make_features_ssd(ds: FleetDataset) -> FeatureMatrix:
    """Daily + cumulative activity/error features for every SSD drive-day.

    Missing daily counts (bare swap-marker rows) are imputed to 0; each
    ``<base>_cum`` column is the running sum of its daily column, so the
    final cumulative equals the sum of the dailies. The wear and bad-block
    counters are carried forward across absent cells.
    """
    if ds.family != "ssd":
        raise ValueError("make_features_ssd needs an SSD dataset")
    starts = ds.starts
    n_daily = len(_SSD_DAILY)
    X = np.empty((ds.n_records, len(_SSD_NAMES)))
    for j, name in enumerate(_SSD_DAILY):
        X[:, j] = ds.column(name)[0]
    X[:, n_daily:2 * n_daily] = _accumulate(np.add, X[:, :n_daily], starts)
    scans = _PresentScans(starts)
    for j, name in enumerate(_SSD_NAMES[2 * n_daily:-1], start=2 * n_daily):
        X[:, j] = _carry_forward(*ds.column(name), scans)
    days = drive_days(ds)
    X[:, -1] = days
    return FeatureMatrix("ssd", _SSD_NAMES, X, ds.row_drive(), ds.drives, days)


def make_features_hdd(ds: FleetDataset) -> FeatureMatrix:
    """Raw SMART values, diffs of the cumulative ids, and the SMART-187 cumulative.

    Raw values are carried forward across absent cells (0 before a drive's
    first value). Diffs follow :func:`counter_increments`: against the last
    *present* value, 0 on a drive's first present value and on absent
    cells, and a negative difference (counter reset) is clamped to 0 with
    the ``counter_reset`` flag set.
    """
    if ds.family != "hdd":
        raise ValueError("make_features_hdd needs an HDD dataset")
    starts = ds.starts
    X = np.empty((ds.n_records, len(_HDD_NAMES)))
    reset = np.zeros(ds.n_records, dtype=bool)
    scans = _PresentScans(starts)
    for j, sid in enumerate(HDD_SMART_IDS):
        values, present = ds.column(f"smart_{sid}")
        X[:, j] = _carry_forward(values, present, scans)
        if sid in HDD_DIFF_IDS:
            diff, flag = _counter_increments(values, present, scans)
            X[:, _HDD_NAMES.index(f"smart_{sid}_diff")] = diff
            reset |= flag
    X[:, -2] = X[:, HDD_SMART_IDS.index(187)]  # smart_187_cum: the carried smart_187
    X[:, -1] = reset
    hfh_max = _accumulate(np.maximum, X[:, HDD_SMART_IDS.index(240)], starts)
    return FeatureMatrix("hdd", _HDD_NAMES, X, ds.row_drive(), ds.drives,
                         drive_days(ds), hfh_max=hfh_max)


def make_features(ds: FleetDataset) -> FeatureMatrix:
    return make_features_hdd(ds) if ds.family == "hdd" else make_features_ssd(ds)


@dataclass
class LabeledExamples:
    """Feature rows with fails-within-N labels and a partition attribute.

    Rows name their drive as a ``FeatureMatrix`` does; ``drive_models`` has one
    model per drive id, when known. A subset keeps every drive id.
    """

    names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray              # bool labels
    drive: np.ndarray          # (n,) int64 index into drive_ids
    drive_ids: Sequence[str]
    days: np.ndarray
    partition_key: np.ndarray
    lookahead: int
    drive_models: Sequence[str] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    def subset(self, mask: np.ndarray) -> "LabeledExamples":
        return LabeledExamples(
            self.names, self.X[mask], self.y[mask], self.drive[mask],
            self.drive_ids, self.days[mask], self.partition_key[mask],
            self.lookahead, self.drive_models)


def example_builder(feats: FeatureMatrix, failures: FailureTable,
                    periods: PeriodTable | None = None, partition_attr: str = "age",
                    drive_models: Sequence[str] | None = None
                    ) -> Callable[[int], LabeledExamples]:
    """Label ``feats`` at any lookahead N, from what every N shares, built once.

    Only the tables' drive and day columns are read, their drives recoded
    into ``feats.drive_ids`` (a drive the matrix lacks matches no row).
    Built once: the rows kept (those inside a period, or every row when
    ``periods`` is None), their features, drives, days and partition keys,
    and the row index by
    (drive, day). Each call then labels the kept rows at its N, with one
    window lookup over the failures; every table it returns shares the
    arrays of the kept rows, and only ``y`` and ``lookahead`` differ. The
    rules are those of :func:`label_lookahead`.
    """
    if partition_attr == "age":
        key = feats.days.astype(float)
    elif partition_attr == "hfh":
        if feats.hfh_max is None:
            raise ValueError("hfh partition key needs an HDD feature matrix")
        key = feats.hfh_max.astype(float)
    else:
        raise ValueError(f"unknown partition attribute {partition_attr!r}")
    rows = _DayWindows(feats.drive, feats.days)
    failed = failures.codes_in(feats.drive_ids)
    keep = (None if periods is None else rows.covered(
        periods.codes_in(feats.drive_ids), periods.start, periods.end))
    shared = LabeledExamples(feats.names, feats.X, np.zeros(feats.n_rows, dtype=bool),
                             feats.drive, feats.drive_ids, feats.days, key, 0,
                             drive_models)
    if keep is not None and not keep.all():
        shared = shared.subset(keep)
    else:
        keep = None

    def build(lookahead: int) -> LabeledExamples:
        if lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        y = rows.covered(failed, failures.day - lookahead, failures.day)
        return dataclasses.replace(shared, y=y if keep is None else y[keep],
                                   lookahead=lookahead)
    return build


def label_lookahead(feats: FeatureMatrix, failures: FailureTable, lookahead: int,
                    periods: PeriodTable | None = None,
                    partition_attr: str = "age",
                    models: dict[str, str] | None = None) -> LabeledExamples:
    """Attach fails-within-N labels to feature rows.

    A row at day d is positive iff its drive has a failure at day d+k for
    some 0 <= k <= ``lookahead``. When ``periods`` is given, rows outside
    every operational period (post-failure inactivity and repair gaps)
    produce no examples. ``partition_attr`` selects the per-row partition
    key: "age" (drive-age days) or "hfh" (max-to-date head flying hours).
    This is :func:`example_builder` called at one N.
    """
    drive_models = (None if models is None
                    else tuple(models.get(d, "") for d in feats.drive_ids))
    return example_builder(feats, failures, periods, partition_attr,
                           drive_models)(lookahead)


@dataclass(frozen=True)
class PartitionRule:
    """Split examples on an attribute threshold: key <= threshold goes below."""

    attribute: str  # "age" | "hfh"
    threshold: float

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:  # NaN too
            raise ValueError("threshold must be finite and > 0")
        if self.attribute not in ("age", "hfh"):
            raise ValueError(f"unknown partition attribute {self.attribute!r}")


def partition_dataset(examples: LabeledExamples,
                      rule: PartitionRule) -> tuple[LabeledExamples, LabeledExamples]:
    """Disjoint, exhaustive, order-preserving split on the partition key."""
    below = examples.partition_key <= rule.threshold
    return examples.subset(below), examples.subset(~below)


_EXAMPLE_TAIL = ("label", "drive_id", "day", "partition_key")


def _example_cells(examples: LabeledExamples, rows: slice) -> tuple:
    """A batch of rows' cells, in the examples CSV's column order."""
    return (examples.X[rows], examples.y[rows],
            (examples.drive_ids, examples.drive[rows]), examples.days[rows],
            examples.partition_key[rows])


def write_examples_csv(examples: LabeledExamples, out,
                       header_comment: str | None = None) -> None:
    """Write labeled examples: feature columns then label,drive_id,day,partition_key."""
    _write_columns(out, [*examples.names, *_EXAMPLE_TAIL], examples.n,
                   lambda rows: _example_cells(examples, rows), header_comment)


def write_examples_tables(tables: Sequence[LabeledExamples], outs: Sequence,
                          header_comment: str | None = None) -> None:
    """Write each of ``tables`` to its stream in ``outs``, byte for byte as
    :func:`write_examples_csv` writes it, formatting their shared text once.

    The tables share their rows, as one :func:`example_builder`'s tables
    at several lookaheads do: every array but ``y`` is the same object in
    each; other tables, or another number of streams, raise ValueError.
    Each batch of ``_WRITE_BATCH`` rows is formatted once, by ``ingest``'s
    formatter. A label cell is one byte, ``0`` or ``1``, just before the
    cell end the formatter gives, so each table's text is that batch with
    its own labels set there. Memory is bounded by one batch.
    """
    if len(outs) != len(tables):
        raise ValueError("write_examples_tables needs one stream per table")
    if not tables:
        return
    first = tables[0]
    shared = ("names", "X", "drive", "drive_ids", "days", "partition_key")
    if any(getattr(t, name) is not getattr(first, name)
           for t in tables[1:] for name in shared):
        raise ValueError("the tables do not share their rows")
    header = [*first.names, *_EXAMPLE_TAIL]
    for out in outs:
        _write_csv(out, header, (), header_comment)
    for lo in range(0, first.n, _WRITE_BATCH):
        rows = slice(lo, lo + _WRITE_BATCH)
        text, ends = _format_rows(_example_cells(first, rows))
        label = ends[len(first.names)::len(header)] - 1
        for table, out in zip(tables, outs):
            text[label] = np.where(table.y[rows], ord("1"), ord("0"))
            out.write(str(text, "utf-8", "surrogatepass"))


def read_examples_csv(stream, lookahead: int = 0) -> LabeledExamples:
    """Inverse of write_examples_csv (feature values round-trip via repr).

    Blank and ``#`` lines before the header are skipped, as in ``ingest``;
    after it, only blank lines are. A missing or foreign header, or a row
    with the wrong number of cells or an unparsable value, raises
    SchemaError naming its line. The drive ids become codes into their
    sorted distinct values; the drive models are unknown.

    The rows are read ``ingest``'s blocks at a time and converted a column
    at a time (:func:`_block_examples`); a row with a cell outside that
    kernel's grammar goes whole through :func:`_parse_example`.
    """
    header, lines, line = _header(stream)
    if tuple(header[-4:]) != _EXAMPLE_TAIL:
        raise SchemaError("not an examples CSV: trailing columns mismatch")
    names = tuple(header[:-4])
    code: dict[str, int] = {}  # drive id -> its code, numbered as coded
    parts = [_block_examples(block, len(names), code)
             for block in _blocks(lines, line, len(header), range(len(header)))]
    X, y, drives, days, keys = (np.concatenate(p) for p in zip(
        (np.empty((0, len(names))), np.empty(0, dtype=bool), np.empty(0, dtype=np.int64),
         np.empty(0, dtype=np.int64), np.empty(0)), *parts))
    drive_ids, rank = _sorted_codes(code)
    return LabeledExamples(names, X, y, rank[drives], drive_ids, days, keys, lookahead)


def _parse_example(row: list[str], k: int) -> tuple[list[float], bool, int, float]:
    """Features, label, day and partition key of one row of cells; the
    Python number parsers decide what a bad cell is, and a day must fit
    in int64."""
    X, label, day, key = ([float(c) for c in row[:k]], bool(int(row[-4])),
                          int(row[-2]), float(row[-1]))
    if not -2**63 <= day < 2**63:
        raise ValueError(f"day outside int64: {row[-2]!r}")
    return X, label, day, key


def _block_examples(block, k: int, code: dict[str, int]) -> tuple[np.ndarray, ...]:
    """One block's rows as arrays: X, y, drive codes, days, partition keys.

    The kernel takes a feature or key cell written ``[0-9]{1,15}\\.0``,
    whose float is its digits' value (exact: below 2**53), and a label or
    day cell of 1 to 18 ASCII digits (``ingest``'s count grammar). Every
    other row goes to :func:`_parse_example`. Drive ids are coded by
    ``ingest``'s name kernel, and the ids it does not take from their text.
    The first bad row by line, with a wrong cell count or a value the row
    parser rejects, or text the CSV reader cannot cut, raises SchemaError.
    """
    units, start, end = block.units, block.start, block.end
    numbers_at = [*range(k), k + 3]  # the features, then the partition key
    numbers, taken = _decimals(units, start[numbers_at], end[numbers_at])
    label, label_taken = _column("time", units, start[k], end[k])
    days, day_taken = _column("time", units, start[k + 2], end[k + 2])
    X, y, keys = np.ascontiguousarray(numbers[:k].T), label != 0, numbers[k]
    errors = list(block.rejected) + ([block.error] if block.error else [])
    for i in np.flatnonzero(~(taken.all(axis=0) & label_taken & day_taken)).tolist():
        try:
            X[i], y[i], days[i], keys[i] = _parse_example(block.row(i), k)
        except ValueError as exc:
            errors.append((int(block.line[i]), str(exc)))
            break
    if errors:
        raise SchemaError("examples line {}: {}".format(*min(errors)))
    drives, drive_taken = _codes(code, units, start[k + 1], end[k + 1], empty=False)
    other = np.flatnonzero(~drive_taken)
    drives[other] = [code.setdefault(d, len(code)) for d in block.cells(k + 1, other)]
    return X, y, drives, days, keys


def _decimals(units: np.ndarray, start: np.ndarray,
              end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of cells written ``[0-9]{1,15}\\.0``, and which cells are such
    (``start``/``end``: columns x rows).

    Most features are counts below 10, so a one-digit cell is read
    directly, and only the longer cells go through ``_digits``.
    """
    size = end - start
    dot = np.clip(end - 2, 0, units.size - 2)  # where a cell of 3 or more units has its dot
    taken = ((size >= 3) & (size <= 17)
             & (units[dot] == ord(".")) & (units[dot + 1] == ord("0")))
    first = units[start] - 48  # a unit below "0" wraps past 9
    value = first.astype(float)
    taken &= (first <= 9) | (size > 3)
    longer = np.flatnonzero(taken & (size > 3))
    value.ravel()[longer], taken.ravel()[longer] = _digits(
        units, start.ravel()[longer], dot.ravel()[longer])
    return value, taken
