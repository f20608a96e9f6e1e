import datetime as dt

import numpy as np
import pytest

from drivelife.featurize import LabeledExamples
from drivelife.ingest import (FleetDataset, HddDailyRecord, SsdDailyRecord,
                              US_PER_DAY)
from drivelife.lifecycle import FailureTable, PeriodTable


def ssd_rec(drive, day, reads=100, writes=50, erases=5, pe="auto", swap=False,
            errors=None, dead=False, model="MLC-A", bbf=2, bbn=0):
    return SsdDailyRecord(
        drive_id=drive, model=model, timestamp_us=day * US_PER_DAY,
        read_ops=reads, write_ops=writes, erase_ops=erases,
        pe_cycles_cum=day + 1 if pe == "auto" else pe,
        dead=dead, read_only=False, bad_blocks_factory_cum=bbf,
        bad_blocks_new_cum=bbn, errors=errors or {}, swap_event=swap)


def hdd_rec(serial, day_or_date, failed=False, smart=None,
            model="ST4000DM000"):
    if isinstance(day_or_date, int):
        date = dt.date(2015, 1, 1) + dt.timedelta(days=day_or_date)
    else:
        date = day_or_date
    return HddDailyRecord(date=date, serial=serial, model=model,
                          failed_today=failed, smart_raw=smart or {})


def ssd_dataset(records_by_drive) -> FleetDataset:
    return FleetDataset.from_records(
        "ssd", {d: sorted(seq, key=lambda r: r.timestamp_us)
                for d, seq in records_by_drive.items()})


def hdd_dataset(records_by_drive) -> FleetDataset:
    return FleetDataset.from_records(
        "hdd", {d: sorted(seq, key=lambda r: r.date)
                for d, seq in records_by_drive.items()})


def labeled_examples(names, X, y, drives, days, key, lookahead=0,
                     models=None) -> LabeledExamples:
    """LabeledExamples from the drive id (and model) of every row."""
    drive_ids, drive = np.unique(np.array(drives, dtype=object), return_inverse=True)
    drive_models = None if models is None else tuple(
        dict(zip(drives, models))[d] for d in drive_ids)
    return LabeledExamples(names, X, y, drive.astype(np.int64), drive_ids.tolist(),
                           days, key, lookahead, drive_models)


def table_of(rows, kind=FailureTable, family="ssd"):
    """The ``kind`` table, FailureTable or PeriodTable, whose rows are
    ``rows``, FailureEvents or OperationalPeriods, in their order.

    Its drive codes index its own name list, the rows' drive names in order
    of first appearance, so a function that takes it recodes them into its
    dataset's drives by name. An empty failure table has ``family``.
    """
    rows = list(rows)
    drives = list(dict.fromkeys(r.drive for r in rows))
    index = {d: i for i, d in enumerate(drives)}
    code = np.array([index[r.drive] for r in rows], dtype=np.int64)

    def column(name, dtype=np.int64):
        return np.array([getattr(r, name) for r in rows], dtype=dtype)
    if kind is PeriodTable:
        return PeriodTable(code, column("start_day"), column("end_day"),
                           np.array([r.terminal == "failure" for r in rows], dtype=bool),
                           drives)
    return FailureTable(code, column("age_days"), column("ordinal"),
                        column("degenerate", bool), drives,
                        rows[0].family if rows else family)


def drive_names(table) -> np.ndarray:
    """The drive id of every row of a FeatureMatrix or LabeledExamples."""
    return np.array(table.drive_ids, dtype=object)[table.drive]


def row_folds(examples, folds) -> np.ndarray:
    """The fold of every row, looked up by its drive id."""
    return np.array([folds.mapping[d] for d in drive_names(examples)], dtype=np.int64)


@pytest.fixture
def simple_ssd():
    """One drive: active days 1-7, inactive 8-10, gap, swap day 13."""
    recs = [ssd_rec("d1", day) for day in range(1, 8)]
    recs += [ssd_rec("d1", day, reads=0, writes=0, erases=0, pe=8)
             for day in (8, 9, 10)]
    recs.append(ssd_rec("d1", 13, reads=0, writes=0, erases=0, pe=8, swap=True,
                        dead=True))
    return ssd_dataset({"d1": recs})
