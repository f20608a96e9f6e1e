"""Column kernels against per-record loops.

The references below walk every record in Python, the way the feature
builders and the characterization statistics used to. One rule differs
from those loops: an HDD diff is 0 on a drive's first present value
(before, an absent leading cell was imputed 0 and the first value diffed
against it). The fleets are random and adversarial: absent cells at the
start, middle and end of a drive, counter resets, single-record drives,
SMART ids the parser does not keep, bare SSD swap markers and counts near
2**63 - 1.
"""

import random

import numpy as np
import pytest

from drivelife import charstats, cli, featurize
from drivelife.featurize import (HDD_DIFF_IDS, make_features_hdd,
                                 make_features_ssd)
from drivelife.ingest import HDD_SMART_IDS, SSD_ERROR_KINDS
from drivelife.lifecycle import FailureEvent, drive_days

from conftest import drive_names, hdd_dataset, hdd_rec, ssd_dataset, ssd_rec, table_of

BIG = 2**63 - 1

#: Ids the HDD parser does not keep by default, mixed into the records.
EXTRA_IDS = (2, 8, 250)


def _count(rng: random.Random, prev: int) -> int:
    """A cumulative counter's next value: mostly up, sometimes reset or huge."""
    r = rng.random()
    if r < 0.08:
        return rng.randrange(0, 3)                 # reset
    if r < 0.14:
        return BIG - rng.randrange(0, 5)           # near the int64 limit
    if prev > BIG - 1000:
        return prev
    return prev + rng.choice((0, 0, 1, 3, 50))


def _present(rng: random.Random, i: int, n: int, lead: int, tail: int) -> bool:
    """Absent at the start (lead), at the end (tail) and at random inside."""
    return lead <= i < n - tail and rng.random() < 0.75


def random_hdd_fleet(rng: random.Random, n_drives: int = 14):
    fleet = {}
    for k in range(n_drives):
        serial = f"H{k:02d}"
        n = 1 if k % 5 == 0 else rng.randrange(2, 30)
        ids = rng.sample(HDD_SMART_IDS, 8) + [9, 240, 5, *EXTRA_IDS]
        lead = {sid: rng.choice((0, 0, 1, 3)) for sid in ids}
        tail = {sid: rng.choice((0, 0, 1, 2)) for sid in ids}
        last = {sid: rng.randrange(0, 100) for sid in ids}
        day, recs = 0, []
        for i in range(n):
            day += rng.choice((1, 1, 2))
            smart = {}
            for sid in ids:
                if _present(rng, i, n, lead[sid], tail[sid]):
                    last[sid] = (last[sid] + 24 if sid == 9
                                 else _count(rng, last[sid]))
                    smart[sid] = last[sid]
            recs.append(hdd_rec(serial, day, failed=rng.random() < 0.1,
                                smart=smart))
        fleet[serial] = recs
    return hdd_dataset(fleet)


def random_ssd_fleet(rng: random.Random, n_drives: int = 14):
    fleet = {}
    for k in range(n_drives):
        drive = f"S{k:02d}"
        n = 1 if k % 5 == 0 else rng.randrange(2, 30)
        pe, bbf, bbn = rng.randrange(0, 900), rng.randrange(0, 5), 0
        day, recs = rng.randrange(0, 3), []
        for i in range(n):
            day += rng.choice((0, 1, 1, 2, 40))
            if rng.random() < 0.12 or (i == 0 and k % 3 == 1):
                # A bare swap marker: no performance summary at all.
                recs.append(ssd_rec(drive, day, reads=None, writes=None,
                                    erases=None, pe=None, swap=True,
                                    bbf=None, bbn=None))
                continue
            pe += rng.choice((0, 1, 7, 300))
            bbn = max(bbn, rng.choice((bbn, min(bbn + 1, BIG), BIG - 3)))
            errors = {kind: rng.choice((0, 1, 5, BIG - rng.randrange(0, 9)))
                      for kind in rng.sample(SSD_ERROR_KINDS, rng.randrange(0, 4))}

            def cell():
                return rng.choice((None, 0, 17, 4096, BIG - rng.randrange(0, 9)))
            recs.append(ssd_rec(drive, day, reads=cell(), writes=cell(),
                                erases=cell(),
                                pe=pe if rng.random() < 0.8 else None,
                                bbf=bbf if rng.random() < 0.9 else None,
                                bbn=bbn if rng.random() < 0.9 else None,
                                errors=errors, swap=rng.random() < 0.05))
        fleet[drive] = recs
    if n_drives > 3:  # a drive with no records
        fleet["S_empty"] = []
    return ssd_dataset(fleet)


SEEDS = range(12)


def days_by_drive(ds):
    days = drive_days(ds)
    return {d: days[ds.starts[i]:ds.starts[i + 1]] for i, d in enumerate(ds.drives)}


def random_failures(rng: random.Random, ds):
    """A failure table of about half the drives, and of three drives without
    rows whose names sort before, between and after the fleet's, on a name
    list of its own."""
    out = []
    for drive, days in days_by_drive(ds).items():
        if days.size and rng.random() < 0.5:
            day = int(rng.choice(list(days))) + rng.choice((-3, 0, 0, 2))
            out.append(FailureEvent(drive, day, 1, ds.family))
    return table_of(out + [FailureEvent(d, 5, 1, ds.family)
                           for d in ("A-no-rows", ds.drives[0] + "-no-rows", "no-rows")])


# -- references: the per-record loops ----------------------------------------


def ref_features_ssd(ds):
    names = featurize._SSD_NAMES
    ages = days_by_drive(ds)
    blocks, drive_ids = [], []
    for drive in ds.drives:
        seq = ds.records[drive]
        n = len(seq)
        daily = np.zeros((n, 13))
        carried = np.zeros((n, 3))
        for i, rec in enumerate(seq):
            daily[i, 0] = rec.read_ops or 0
            daily[i, 1] = rec.write_ops or 0
            daily[i, 2] = rec.erase_ops or 0
            if rec.errors:
                for k, kind in enumerate(SSD_ERROR_KINDS):
                    daily[i, 3 + k] = rec.errors.get(kind, 0)
            for j, name in enumerate(("pe_cycles_cum", "bad_blocks_factory_cum",
                                      "bad_blocks_new_cum")):
                value = getattr(rec, name)
                carried[i, j] = value if value is not None else np.nan
        for j in range(3):
            last = 0.0
            for i in range(n):
                if np.isnan(carried[i, j]):
                    carried[i, j] = last
                else:
                    last = carried[i, j]
        blocks.append(np.hstack([daily, np.cumsum(daily, axis=0), carried,
                                 ages[drive][:, None].astype(float)]))
        drive_ids.extend([drive] * n)
    X = np.vstack(blocks) if blocks else np.empty((0, len(names)))
    days = np.concatenate([np.empty(0, dtype=np.int64), *ages.values()])
    return X, np.array(drive_ids, dtype=object), days


def ref_features_hdd(ds):
    names = featurize._HDD_NAMES
    p = len(names)
    ages = days_by_drive(ds)
    blocks, drive_ids, hfh_blocks = [], [], []
    for serial in ds.drives:
        seq = ds.records[serial]
        n = len(seq)
        block = np.zeros((n, p))
        last_raw, observed = {}, set()
        hfh_running = 0.0
        hfh = np.zeros(n)
        for i, rec in enumerate(seq):
            reset = False
            for j, sid in enumerate(HDD_SMART_IDS):
                value = rec.smart_raw.get(sid)
                prev = last_raw.get(sid)
                if value is None:
                    value = prev if prev is not None else 0.0
                block[i, j] = value
                if sid in HDD_DIFF_IDS:
                    # The one rule changed from the old loop: no diff
                    # before the drive's first present value.
                    diff = 0.0 if sid not in observed else value - prev
                    if diff < 0:
                        diff = 0.0
                        reset = True
                    block[i, names.index(f"smart_{sid}_diff")] = diff
                last_raw[sid] = value
                if sid in rec.smart_raw:
                    observed.add(sid)
            block[i, p - 2] = last_raw[187]
            block[i, p - 1] = float(reset)
            hfh_running = max(hfh_running, last_raw[240])
            hfh[i] = hfh_running
        blocks.append(block)
        drive_ids.extend([serial] * n)
        hfh_blocks.append(hfh)
    X = np.vstack(blocks) if blocks else np.empty((0, p))
    days = np.concatenate([np.empty(0, dtype=np.int64), *ages.values()])
    hfh_max = np.concatenate(hfh_blocks) if hfh_blocks else np.empty(0)
    return X, np.array(drive_ids, dtype=object), days, hfh_max


def ref_error_counts(ds, kind):
    if ds.family == "ssd":
        return [r.errors.get(kind, 0) for d in ds.drives for r in ds.records[d]]
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
    return counts


def ref_row_drives(ds):
    return np.array([d for d in ds.drives for _ in ds.records[d]], dtype=object)


def ref_failed_flag(ds):
    return np.fromiter((1.0 if r.failed_today else 0.0 for d in ds.drives
                        for r in ds.records[d]), dtype=float)


def ref_hfh_sweep(failures, ds, thresholds):
    failed = {ev.drive for ev in failures}
    max_hfh, excluded = {}, 0
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


def ref_pe_rate(failures, ds, bin_width=250):
    def pe_at_day(drive, day):
        best = None
        for rec in ds.records.get(drive, ()):
            if rec.day > day:
                break
            if rec.pe_cycles_cum is not None:
                best = rec.pe_cycles_cum
        return best

    pe_at_failure = [pe for ev in failures
                     if (pe := pe_at_day(ev.drive, ev.age_days)) is not None]
    max_pe, per_drive = 0, {}
    for drive in ds.drives:
        vals = np.array([r.pe_cycles_cum for r in ds.records[drive]
                         if r.pe_cycles_cum is not None], dtype=np.int64)
        per_drive[drive] = vals
        if vals.size:
            max_pe = max(max_pe, int(vals.max()))
    if pe_at_failure:
        max_pe = max(max_pe, max(pe_at_failure))
    n_bins = max_pe // bin_width + 1
    fail_counts = np.zeros(n_bins, dtype=np.int64)
    for pe in pe_at_failure:
        fail_counts[pe // bin_width] += 1
    exposure = np.zeros(n_bins, dtype=np.int64)
    for vals in per_drive.values():
        for b in np.unique(vals // bin_width):
            exposure[b] += 1
    edges = np.arange(n_bins + 1) * bin_width
    curve = charstats.RateCurve.from_counts(edges, fail_counts, exposure)
    cdf, running = [], 0
    for b in range(n_bins if pe_at_failure else 0):
        running += fail_counts[b]
        cdf.append((float(edges[b + 1]), running / len(pe_at_failure)))
    return curve, cdf


def ref_write_quartiles(ds):
    per_month = {}
    for drive in ds.drives:
        for rec in ds.records[drive]:
            if rec.write_ops is not None:
                per_month.setdefault(rec.day // 30, []).append(rec.write_ops)
    nr = charstats.nearest_rank
    return {m: (nr(v, 25), nr(v, 50), nr(v, 75))
            for m, v in sorted(per_month.items())}


# -- the comparisons -----------------------------------------------------------


def same(a, b):
    """Equal values and equal types, element by element, recursively."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("seed", SEEDS)
def test_hdd_features_match_record_loop(seed):
    ds = random_hdd_fleet(random.Random(seed))
    feats = make_features_hdd(ds)
    X, drives, days, hfh_max = ref_features_hdd(ds)
    assert np.array_equal(feats.X, X)
    assert np.array_equal(feats.hfh_max, hfh_max)
    assert np.array_equal(feats.days, days)
    assert np.array_equal(drive_names(feats), drives)
    assert feats.X.dtype == np.float64


@pytest.mark.parametrize("seed", SEEDS)
def test_ssd_features_match_record_loop(seed):
    ds = random_ssd_fleet(random.Random(seed))
    feats = make_features_ssd(ds)
    X, drives, days = ref_features_ssd(ds)
    assert np.array_equal(feats.X, X)
    assert feats.hfh_max is None
    assert np.array_equal(feats.days, days)
    assert np.array_equal(drive_names(feats), drives)


@pytest.mark.parametrize("seed", SEEDS)
def test_error_series_match_record_loop(seed):
    rng = random.Random(seed)
    for ds, kinds in ((random_hdd_fleet(rng), ["smart_5", "smart_187",
                                                "smart_9", "smart_2", "smart_77"]),
                      (random_ssd_fleet(rng), list(SSD_ERROR_KINDS))):
        for kind in kinds:
            ref = np.array(ref_error_counts(ds, kind), dtype=np.int64)
            _, nonzero, codes, days = charstats._daily_error_series(ds, kind)
            assert np.array_equal(nonzero, ref[ref > 0])
            assert np.array_equal(np.array(ds.drives, dtype=object)[codes],
                                  ref_row_drives(ds))
            assert np.array_equal(days, drive_days(ds))
            if ds.family == "hdd":
                counts, _ = featurize.counter_increments(*ds.column(kind),
                                                         ds.starts)
                assert np.array_equal(counts, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_hdd_statistics_match_record_loop(seed):
    rng = random.Random(seed)
    ds = random_hdd_fleet(rng)
    failures = random_failures(rng, ds)
    assert np.array_equal(next(charstats._feature_columns(ds, ["failed"])),
                          ref_failed_flag(ds))
    thresholds = [0, 60.0, 1e4, float(BIG), 2.0**63, float("inf")]
    assert same(charstats.hfh_threshold_sweep(failures, ds, thresholds),
                ref_hfh_sweep(failures, ds, thresholds))


@pytest.mark.parametrize("seed", SEEDS)
def test_ssd_statistics_match_record_loop(seed):
    rng = random.Random(seed)
    ds = random_ssd_fleet(rng)
    failures = random_failures(rng, ds)
    curve, cdf = charstats.pe_binned_failure_rate(failures, ds)
    ref_curve, ref_cdf = ref_pe_rate(failures, ds)
    for field in ("bin_edges", "failures", "exposure"):
        assert np.array_equal(getattr(curve, field), getattr(ref_curve, field))
    assert same(curve.rate, ref_curve.rate) and same(cdf, ref_cdf)
    assert same(charstats.write_intensity_quartiles(ds), ref_write_quartiles(ds))


# -- the column accessor -------------------------------------------------------


def test_column_reads_absent_cells_as_zero_not_present():
    ds = hdd_dataset({"A": [hdd_rec("A", 0), hdd_rec("A", 1, smart={5: BIG}),
                            hdd_rec("A", 2, failed=True, smart={5: 0})],
                      "B": [hdd_rec("B", 0, smart={5: 3})]})
    values, present = ds.column("smart_5")
    assert values.dtype == np.int64 and values.tolist() == [0, BIG, 0, 3]
    assert present.tolist() == [False, True, True, True]
    assert ds.column("failed")[0].tolist() == [0, 0, 1, 0]
    assert ds.starts.tolist() == [0, 3, 4]


def test_column_serves_only_known_fields():
    hdd = hdd_dataset({"A": [hdd_rec("A", 0)]})
    ssd = ssd_dataset({"d": [ssd_rec("d", 0, errors={"read": 2})]})
    assert ssd.column("err_read")[0].tolist() == [2]
    assert ssd.column("err_write")[1].tolist() == [True]
    for ds, name in ((hdd, "read_ops"), (hdd, "smart_x"), (hdd, "smart_"),
                     (ssd, "smart_5"), (ssd, "err_bogus"), (ssd, "dead"),
                     (ssd, "failed")):
        with pytest.raises(KeyError):
            ds.column(name)


# -- exposure counts and Spearman columns --------------------------------------


def ref_monthly_rate(failures, ds):
    """Failures per month of age over the drives with a record in that
    month, from per-drive sets of months."""
    fail_months = [ev.age_days // 30 for ev in failures]
    months = {d: {int(day) // 30 for day in days}
              for d, days in days_by_drive(ds).items()}
    seen = fail_months + [m for ms in months.values() for m in ms]
    if any(m < 0 for m in seen):
        raise ValueError("negative month")
    n_bins = max(seen, default=-1) + 1
    if n_bins == 0:
        return charstats.RateCurve.from_counts(np.array([0.0]), [], [])
    failed, exposure = [0] * n_bins, [0] * n_bins
    for m in fail_months:
        failed[m] += 1
    for ms in months.values():
        for m in ms:
            exposure[m] += 1
    return charstats.RateCurve.from_counts(np.arange(n_bins + 1) * 30, failed, exposure)


def outcome(fn, *args):
    try:
        curve = fn(*args)
    except ValueError:
        return "ValueError"
    return (curve.bin_edges.tolist(), curve.failures.tolist(),
            curve.exposure.tolist(), repr(curve.rate))


def rewinding_hdd_fleet(rng: random.Random, n_drives: int = 10):
    """HDD drives whose power-on hours stall and run back by up to 20 days,
    so that their ages leave a month and come back to it."""
    fleet = {}
    for k in range(n_drives):
        serial = f"R{k:02d}"
        hours, recs = rng.randrange(0, 24 * 90), []
        for day in range(rng.randrange(1, 50)):
            hours = max(hours + rng.choice((24, 24, 24, 0, -24 * rng.randrange(1, 20))), 0)
            smart = {9: hours} if rng.random() < 0.8 else {}
            recs.append(hdd_rec(serial, day, failed=rng.random() < 0.05, smart=smart))
        fleet[serial] = recs
    return hdd_dataset(fleet)


FLEET_MAKERS = {"hdd": random_hdd_fleet, "ssd": random_ssd_fleet,
                "rewinding": rewinding_hdd_fleet}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FLEET_MAKERS)
def test_monthly_rate_matches_record_loop(family, seed):
    """Backward and repeated HDD ages, 40-day SSD jumps, drives without rows
    and failures of drives without rows."""
    rng = random.Random(seed)
    ds = FLEET_MAKERS[family](rng)
    failures = random_failures(rng, ds)
    for events in (failures, table_of([ev for ev in failures if ev.age_days >= 0]),
                   table_of([])):
        assert outcome(charstats.monthly_failure_rate, events, ds) == \
            outcome(ref_monthly_rate, events, ds)


def test_hdd_fleets_revisit_a_month():
    """Some drive's ages leave a month and come back to it, so exposure
    cannot be counted from runs of equal months."""
    revisits = 0
    for seed in SEEDS:
        ds = rewinding_hdd_fleet(random.Random(seed))
        for days in days_by_drive(ds).values():
            months = days // 30
            runs = months[np.r_[True, months[1:] != months[:-1]]]
            revisits += runs.size - np.unique(runs).size
    assert revisits > 0


@pytest.mark.parametrize("seed", range(20))
def test_distinct_pairs_match_unique_columns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 200))
    top = [3, 40, 2**62][seed % 3]
    drive = rng.integers(0, [1, 5, 30][seed % 3], size=n)
    bins = rng.integers(-top if seed % 2 else 0, top, size=n)
    if seed % 4 == 3:
        bins[:] = bins[0] if n else 0  # a single bin
    got = charstats._distinct_pairs(drive, bins)
    want = np.unique(np.stack((drive, bins)), axis=1)
    assert np.array_equal(np.stack(got), want)


def test_distinct_pairs_of_nothing():
    empty = np.zeros(0, dtype=np.int64)
    got = charstats._distinct_pairs(empty, empty)
    assert np.stack(got).shape == (2, 0)


def ref_spearman_matrix(ds, names):
    """The build-everything path: the whole feature matrix, a table of the
    named columns, then the ranks of each."""
    feats = featurize.make_features(ds)
    cols = []
    for name in names:
        if name == "failed" and ds.family == "hdd":
            cols.append(ds.column("failed")[0].astype(float))
        elif name == "bad_blocks_cum" and ds.family == "ssd":
            cols.append(feats.column("bad_blocks_factory_cum")
                        + feats.column("bad_blocks_new_cum"))
        else:
            try:
                cols.append(feats.column(name))
            except KeyError:
                raise ValueError(f"unknown feature {name!r} for family {ds.family}")
    table = np.column_stack(cols) if cols else np.empty((feats.n_rows, 0))
    p = len(names)
    rho, defined = np.eye(p), np.ones((p, p), dtype=bool)
    ranks, constant = [], []
    for j in range(p):
        col = table[:, j]
        constant.append(col.size == 0 or bool(np.all(col == col[0])))
        ranks.append(None if constant[j] else charstats._centred_ranks(col))
    for i in range(p):
        for j in range(i + 1, p):
            if constant[i] or constant[j]:
                rho[i, j] = rho[j, i] = np.nan
                defined[i, j] = defined[j, i] = False
                continue
            rho[i, j] = rho[j, i] = charstats._rank_corr(ranks[i], ranks[j])
    for j in range(p):
        if constant[j]:
            defined[j, j] = False
            rho[j, j] = np.nan
    return rho, defined


def spearman_outcome(fn, ds, names):
    try:
        result = fn(ds, names)
    except ValueError as exc:
        return str(exc)
    rho, defined = (result.rho, result.defined) if hasattr(result, "rho") else result
    return rho.tobytes(), defined.tobytes()


def _spearman_fleets(seed):
    rng = random.Random(seed)
    # Only SMART 5, 9 and 241 reported; 241 and the failed flag constant.
    sparse = hdd_dataset({s: [hdd_rec(s, d, smart={5: d * k, 9: 24 * d, 241: 7})
                              for d in range(rng.randrange(1, 6))]
                          for k, s in enumerate(("A", "B", "C"))})
    return [random_hdd_fleet(rng), random_ssd_fleet(rng), sparse,
            hdd_dataset({}), ssd_dataset({})]


@pytest.mark.parametrize("seed", range(6))
def test_spearman_matrix_matches_build_everything(seed):
    extra = ["smart_240", "smart_241", "smart_1", "age_days", "smart_187_cum",
             "counter_reset", "smart_5_diff", "bad_blocks_factory_cum", "read_ops",
             "err_read"]
    for ds in _spearman_fleets(seed):
        base = cli._HDD_CORR_FEATURES if ds.family == "hdd" else cli._SSD_CORR_FEATURES
        for names in (base, base + extra, extra, ["failed", "failed"], ["age_days"], [],
                      ["smart_5", "smart_2"], ["smart_05"], ["bad_blocks_cum", "failed"]):
            assert spearman_outcome(charstats.spearman_matrix, ds, names) == \
                spearman_outcome(ref_spearman_matrix, ds, names)
    sparse = _spearman_fleets(seed)[2]
    assert not sparse.column("smart_1")[1].any()  # an id no row reports
    assert np.unique(sparse.column("smart_241")[0]).size == 1  # constant
