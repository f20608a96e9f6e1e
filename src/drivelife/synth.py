"""Deterministic synthetic fleet generator with plantable failure effects.

Drives fail under a piecewise-constant daily hazard (an infant multiplier
covers the first ~90 days; an HFH multiplier boosts HDDs above a head
flying hours threshold), calibrated so the expected share of failed
drives matches each model's target fraction. Failures are followed by the
full observable sequence: a short zero-activity run, an unrecorded gap, a
swap marker (SSD) and, with configurable probability, a later re-entry,
so lifecycle reconstruction can be validated end to end against the
returned ground truth.

Error counters follow per-kind daily Bernoulli incidence with small
Poisson magnitudes. Burst specs add pre-failure ramps to chosen error
kinds (optionally only for young or old failures); confounder specs add
failure-independent activity spikes. Everything derives from the config
seed, drive by drive, so a fleet is reproducible record for record. Rows
are built in blocks of the parsers' int64 table, one per drive segment,
and become the dataset's columns without any record objects.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np
import numpy.random

from . import charstats
from .ingest import (HDD_SMART_IDS, SSD_ERROR_KINDS, US_PER_DAY, FleetDataset,
                     _SSD_COUNT_FIELDS, _SSD_FIELDS, _Table)
from .learners import _check, _finite, _whole
from .lifecycle import FailureTable, _DayWindows, drive_days

__all__ = [
    "BurstSpec",
    "ConfounderSpec",
    "SynthConfig",
    "CalibrationCheck",
    "CalibrationReport",
    "generate_fleet",
    "verify_fleet",
    "DEFAULT_SSD_ERROR_INCIDENCE",
]

#: Daily per-kind incidence targets (share of drive-days with >=1 error),
#: patterned on the MLC-A column of the observed-incidence table.
DEFAULT_SSD_ERROR_INCIDENCE = {
    "correctable": 0.828895,
    "erase": 0.0005,
    "final_read": 0.001077,
    "final_write": 0.000026,
    "meta": 0.000014,
    "read": 0.000090,
    "response": 0.000001,
    "timeout": 0.000009,
    "uncorrectable": 0.002176,
    "write": 0.000117,
}

_DEFAULT_SSD_MODELS = {"MLC-A": 0.0695, "MLC-B": 0.143, "MLC-D": 0.125}

_HDD_EPOCH = dt.date(2014, 1, 17)

#: Caps keeping the planted post-failure sequence within the backward
#: trim bound of the SSD failure rule (7 + 14 + 1 < 30).
_MAX_INACTIVITY_RUN = 7
_MAX_PRESWAP_GAP = 14


class _AgeClass:
    """The age-class rule of BurstSpec and ConfounderSpec, and their checks."""

    def _check_spec(self, what: str, probability: str) -> None:
        """ValueError unless ``mean`` is a finite number >= 0, the field named
        ``probability`` lies in [0, 1] and ``age_class`` is a known class."""
        _check(_finite(self.mean) and self.mean >= 0, f"{what} mean", self.mean,
               "a finite number >= 0")
        p = getattr(self, probability)
        _check(_finite(p) and 0 <= p <= 1, f"{what} {probability}", p, "a number in [0, 1]")
        _check(self.age_class in ("young", "old", "all"), f"{what} age_class",
               self.age_class, '"young", "old" or "all"')

    def applies(self, age, infant_days: int):
        """Whether ``age`` (a day or an array of days) is in ``age_class``:
        "young" is at most ``infant_days``, "old" above it, "all" any age."""
        if self.age_class == "young":
            return age <= infant_days
        if self.age_class == "old":
            return age > infant_days
        return True


@dataclass(frozen=True)
class BurstSpec(_AgeClass):
    """Pre-failure error ramp: extra counts in the last ``days`` before failure."""

    kind: str = "uncorrectable"
    mean: float = 20.0
    days: int = 3
    probability: float = 1.0
    age_class: str = "all"  # "young" | "old" | "all"

    def __post_init__(self):
        _check(_whole(self.days, 0), "burst days", self.days, "an integer >= 0")
        self._check_spec("burst", "probability")


@dataclass(frozen=True)
class ConfounderSpec(_AgeClass):
    """Failure-independent activity spikes (for partition-improvement fixtures)."""

    feature: str = "write_ops"  # write_ops | read_ops | an error kind
    rate: float = 0.0           # per-day spike probability
    mean: float = 50.0          # added magnitude when a spike hits
    age_class: str = "all"

    def __post_init__(self):
        self._check_spec("confounder", "rate")


#: The real-valued settings of a SynthConfig and the least value of each: a
#: hazard multiplier, and the mean of a geometric draw's gap, are at least 1.
_LEAST = {"infant_hazard_multiplier": 1, "hfh_effect": 1, "reentry_gap_mean_days": 1,
          "hfh_threshold": 0, "read_ops_mean": 0, "write_ops_mean": 0,
          "erase_ops_mean": 0, "pe_rate_per_day": 0, "inactivity_mean_days": 0,
          "preswap_gap_mean_days": 0}


@dataclass(frozen=True)
class SynthConfig:
    family: str = "ssd"
    n_drives: int = 100
    horizon_days: int = 365
    models: dict = field(default_factory=lambda: dict(_DEFAULT_SSD_MODELS))
    infant_hazard_multiplier: float = 1.0
    infant_period_days: int = 90
    hfh_effect: float = 1.0
    hfh_threshold: float = 40_000.0
    hfh_high_fraction: float = 0.2  # HDD drives starting above the HFH threshold
    error_incidence: dict = field(
        default_factory=lambda: dict(DEFAULT_SSD_ERROR_INCIDENCE))
    bursts: tuple = (BurstSpec(),)
    confounders: tuple = ()
    read_ops_mean: float = 4000.0
    write_ops_mean: float = 2500.0
    erase_ops_mean: float = 40.0
    pe_rate_per_day: float = 1.5
    inactivity_mean_days: float = 2.0
    preswap_gap_mean_days: float = 2.0
    reentry_probability: float = 0.5
    reentry_gap_mean_days: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("ssd", "hdd"):
            raise ValueError(f"unknown family {self.family!r}")
        for name, least in (("n_drives", 1), ("horizon_days", 2), ("infant_period_days", 0)):
            value = getattr(self, name)
            _check(_whole(value, least), name, value, f"an integer >= {least}")
        for name, least in _LEAST.items():
            value = getattr(self, name)
            _check(_finite(value) and value >= least, name, value,
                   f"a finite number >= {least}")
        _check(isinstance(self.error_incidence, dict), "error_incidence",
               self.error_incidence, "an object of daily incidences")
        for name, p in (("reentry_probability", self.reentry_probability),
                        ("hfh_high_fraction", self.hfh_high_fraction),
                        *((f"incidence for {kind}", p)
                          for kind, p in self.error_incidence.items())):
            _check(_finite(p) and 0 <= p <= 1, name, p, "a number in [0, 1]")
        _check(isinstance(self.models, dict) and self.models, "models", self.models,
               "an object of one or more target failure fractions")
        multiplier = self.infant_hazard_multiplier if self.family == "ssd" else 1.0
        for name, fraction in self.models.items():
            _check(_finite(fraction) and 0 <= fraction < 1,
                   f"target failure fraction for {name}", fraction, "a number in [0, 1)")
            _hazard_cap(fraction, self.horizon_days, multiplier, self.infant_period_days)
        # An SSD error kind outside SSD_ERROR_KINDS would draw counts that no
        # column holds. HDD fleets skip non-SMART kinds on purpose: their
        # default incidence table and burst are the SSD ones.
        if self.family == "ssd":
            unknown = sorted(
                {*self.error_incidence, *(b.kind for b in self.bursts),
                 *(c.feature for c in self.confounders
                   if c.feature not in ("write_ops", "read_ops"))}
                - set(SSD_ERROR_KINDS))
            if unknown:
                raise ValueError(f"unknown SSD error kind(s): {', '.join(unknown)}"
                                 f"; known: {', '.join(SSD_ERROR_KINDS)}")


def _failed_share(h: float, horizon: int, multiplier: float, infant_days: int) -> float:
    """The share of drives that fail within ``horizon`` days at daily base
    hazard ``h``, times ``multiplier`` in the first ``infant_days``."""
    infant = min(infant_days, horizon)
    s = (1.0 - min(multiplier * h, 1.0)) ** infant * (1.0 - h) ** (horizon - infant)
    return 1.0 - s


def _hazard_cap(target: float, horizon: int, multiplier: float, infant_days: int) -> float:
    """The largest base hazard ``multiplier`` allows; ValueError when even
    that fails fewer than ``target`` of the drives within ``horizon`` days."""
    hi = 1.0 / multiplier - 1e-12
    if _failed_share(hi, horizon, multiplier, infant_days) - target < 0:
        raise ValueError(f"target failure fraction {target} is infeasible "
                         f"within {horizon} days")
    return hi


def _solve_hazard(target: float, horizon: int, multiplier: float,
                  infant_days: int) -> float:
    """Daily base hazard whose cumulative failure probability hits the target."""
    if target <= 0.0:
        return 0.0

    def survival_gap(h: float) -> float:
        return _failed_share(h, horizon, multiplier, infant_days) - target

    lo, hi = 0.0, _hazard_cap(target, horizon, multiplier, infant_days)
    # Bisect with survival_gap(lo) < 0 <= survival_gap(hi) until the two
    # are adjacent floats; hi is then the smallest float reaching the target.
    while True:
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:
            return hi
        if survival_gap(mid) < 0:
            lo = mid
        else:
            hi = mid


def _sample_failure_day(rng, hazards: np.ndarray, start: int) -> int | None:
    us = rng.random(hazards.size - start)
    hits = np.flatnonzero(us < hazards[start:])
    return int(start + hits[0]) if hits.size else None


def _capped_geometric(rng, mean: float, cap: int) -> int:
    if mean <= 0:
        return 0
    return min(int(rng.geometric(1.0 / (1.0 + mean))) - 1, cap)


@dataclass
class _DrivePlan:
    segments: list          # (start_day, end_day, ends_in_failure)
    failures: list          # fail days
    swaps: list             # swap day per failure
    inactivity: list        # (first_day, last_day) zero-activity runs


def _plan_drive(rng, hazards: np.ndarray, horizon: int,
                config: SynthConfig) -> _DrivePlan:
    plan = _DrivePlan([], [], [], [])
    start = 0
    while start < horizon:
        f = _sample_failure_day(rng, hazards, start)
        if f is None:
            plan.segments.append((start, horizon - 1, False))
            break
        plan.segments.append((start, f, True))
        plan.failures.append(f)
        budget = horizon - 1 - f
        if budget == 0:
            run = gap = 0
            swap = f  # swap flagged on the final active record
        else:
            run = min(_capped_geometric(rng, config.inactivity_mean_days,
                                        _MAX_INACTIVITY_RUN), budget - 1)
            gap = min(_capped_geometric(rng, config.preswap_gap_mean_days,
                                        _MAX_PRESWAP_GAP), budget - 1 - run)
            swap = f + run + gap + 1
        plan.swaps.append(swap)
        if run:
            plan.inactivity.append((f + 1, f + run))
        if rng.random() >= config.reentry_probability:
            break
        reentry = swap + int(rng.geometric(1.0 / config.reentry_gap_mean_days))
        if reentry >= horizon:
            break
        start = reentry
    return plan


def _error_counts(rng, n_days: int, incidence: dict) -> dict[str, np.ndarray]:
    out = {}
    for kind, p in incidence.items():
        if p <= 0:
            continue
        hit = rng.random(n_days) < p
        counts = np.zeros(n_days, dtype=np.int64)
        n_hit = int(hit.sum())
        if n_hit:
            counts[hit] = 1 + rng.poisson(0.5, size=n_hit)
        out[kind] = counts
    return out


def _add_bursts(rng, config: SynthConfig, fail_day: int, counts: dict, n: int,
                key) -> None:
    """Add each applicable burst's pre-failure ramp, one Poisson draw a day
    in one call, to the column ``counts[key(kind)]``; a None key skips the
    burst."""
    for spec in config.bursts:
        k = key(spec.kind)
        if k is None or not spec.applies(fail_day, config.infant_period_days):
            continue
        if rng.random() >= spec.probability:
            continue
        col = counts.setdefault(k, np.zeros(n, dtype=np.int64))
        first = max(0, n - spec.days)
        m = n - first
        col[first:] += rng.poisson(spec.mean * np.arange(1, m + 1) / m)


def _block(n: int, *columns) -> np.ndarray:
    """Rows in the parsers' table layout (see ``ingest._Table``); each
    column is an array of ``n`` values or one value for all rows. The
    generators leave the line and model columns 0."""
    rows = np.empty((n, len(columns)), dtype=np.int64)
    for k, column in enumerate(columns):
        rows[:, k] = column
    return rows


def _ssd_block(drive: int, days: np.ndarray, reads, writes, erases, pe,
               bb_factory, bb_new, errors: dict, read_only: bool) -> np.ndarray:
    """SSD rows in ``_SSD_FIELDS`` order, neither dead nor swapped."""
    return _block(days.size, 0, drive, 0, days * US_PER_DAY,
                  *(errors.get(kind, 0) for kind in SSD_ERROR_KINDS),
                  reads, writes, erases, pe, False, read_only, bb_factory, bb_new,
                  False)


def _generate_ssd_drive(drive: int, base: float, rng, config: SynthConfig
                        ) -> tuple[list[np.ndarray], _DrivePlan]:
    horizon = config.horizon_days
    hazards = np.full(horizon, base)
    infant = min(config.infant_period_days, horizon)
    hazards[:infant] = min(base * config.infant_hazard_multiplier, 1.0)
    plan = _plan_drive(rng, hazards, horizon, config)

    inactivity_after = {first - 1: (first, last)
                        for first, last in plan.inactivity}
    blocks = []
    pe_cum = 0
    bb_factory = int(rng.poisson(3.0))
    bb_new = 0
    for start, end, fails in plan.segments:
        n = end - start + 1
        days = np.arange(start, end + 1)
        reads = 1 + rng.poisson(config.read_ops_mean, size=n)
        writes = 1 + rng.poisson(config.write_ops_mean, size=n)
        erases = rng.poisson(config.erase_ops_mean, size=n)
        pe_inc = rng.poisson(config.pe_rate_per_day, size=n)
        bb_inc = (rng.random(n) < 0.002).astype(np.int64)
        errors = _error_counts(rng, n, config.error_incidence)

        for spec in config.confounders:
            hits = rng.random(n) < spec.rate
            hits &= spec.applies(days, config.infant_period_days)
            n_hits = int(hits.sum())
            if not n_hits:
                continue
            bump = rng.poisson(spec.mean, size=n_hits)
            if spec.feature == "write_ops":
                writes[hits] += bump
            elif spec.feature == "read_ops":
                reads[hits] += bump
            else:
                col = errors.setdefault(spec.feature, np.zeros(n, dtype=np.int64))
                col[hits] += bump

        if fails:
            _add_bursts(rng, config, end, errors, n, lambda kind: kind)

        pe_values = pe_cum + np.cumsum(pe_inc)
        pe_cum = int(pe_values[-1])
        bb_values = bb_new + np.cumsum(bb_inc)
        bb_new = int(bb_values[-1])
        blocks.append(_ssd_block(drive, days, reads, writes, erases, pe_values,
                                 bb_factory, bb_values, errors, False))
        if fails and end in inactivity_after:
            # the zero-activity run carries the wear counters as of the
            # failure, not the drive's final values
            first, last = inactivity_after[end]
            blocks.append(_ssd_block(drive, np.arange(first, last + 1), 0, 0, 0,
                                     pe_cum, bb_factory, bb_new, {}, True))
    return blocks, plan


def _smart_id(kind: str) -> int | None:
    """The SMART id of a ``smart_<id>`` kind; None for any other kind."""
    return int(kind.split("_")[1]) if kind.startswith("smart_") else None


#: Per-row SMART draws of an HDD generator, in draw order: (id, low, high).
_HDD_DRAWS = ((1, 0, 200_000_000), (7, 0, 1_000_000), (190, 50, 80), (194, 20, 45))


def _generate_hdd_drive(drive: int, base: float, rng, config: SynthConfig
                        ) -> tuple[list[np.ndarray], _DrivePlan]:
    horizon = config.horizon_days
    hfh_start = 0.0
    if rng.random() < config.hfh_high_fraction:
        hfh_start = config.hfh_threshold * (1.1 + rng.random())
    boosted = (config.hfh_effect if hfh_start > config.hfh_threshold else 1.0)
    hazards = np.full(horizon, min(base * boosted, 1.0))
    plan = _plan_drive(rng, hazards, horizon, config)

    incidence = {k: v for k, v in config.error_incidence.items()
                 if k.startswith("smart_")}
    blocks = []
    cum = {5: 0, 187: 0, 197: 0, 198: 0, 199: 0, 241: 0, 242: 0}
    power_cycles = int(rng.integers(1, 20))
    for start, end, fails in plan.segments:
        n = end - start + 1
        days = np.arange(start, end + 1)
        hours = rng.uniform(6.0, 14.0, size=n)
        writes = rng.poisson(2_000_000.0, size=n)
        reads = rng.poisson(3_000_000.0, size=n)
        increments = {_smart_id(kind): counts
                      for kind, counts in _error_counts(rng, n, incidence).items()}
        if fails:
            _add_bursts(rng, config, end, increments, n, _smart_id)
        hfh_cum = hfh_start + np.cumsum(hours)
        sids, lows, highs = np.array(_HDD_DRAWS).T
        smart = dict(zip(sids.tolist(), rng.integers(lows, highs, size=(n, sids.size)).T))
        increments[241] = increments.get(241, 0) + writes
        increments[242] = increments.get(242, 0) + reads
        for sid in cum:
            smart[sid] = cum[sid] + np.cumsum(
                np.broadcast_to(increments.get(sid, 0), (n,)))
            cum[sid] = int(smart[sid][-1])
        smart.update({3: 0, 4: power_cycles, 9: 24 * days, 10: 0, 12: power_cycles,
                      188: 0, 192: power_cycles, 193: power_cycles,
                      240: hfh_cum.astype(np.int64)})
        blocks.append(_block(n, 0, drive, 0, _HDD_EPOCH.toordinal() + days,
                             (days == end) & fails,
                             *(smart[sid] for sid in HDD_SMART_IDS)))
    return blocks, plan


def generate_fleet(config: SynthConfig) -> tuple[FleetDataset, FailureTable]:
    """Generate a fleet and its ground-truth failures, deterministically.

    Drive i has the i-th model in name order, cyclically. Per-drive
    randomness is seeded by (config.seed, drive index), so any subset of
    drives is reproducible independently of the others. The truth lists
    the failures by drive index, then ordinal; its codes index the
    dataset's ``drives``.
    """
    names = sorted(config.models)
    ssd = config.family == "ssd"
    generate = _generate_ssd_drive if ssd else _generate_hdd_drive
    # Each assigned model's base hazard; an HDD fleet has no infant hazard.
    base = [_solve_hazard(config.models[m], config.horizon_days,
                          config.infant_hazard_multiplier if ssd else 1.0,
                          config.infant_period_days)
            for m in names[:config.n_drives]]
    blocks: list[np.ndarray] = []
    swaps: list[tuple[int, int]] = []
    failures: list[tuple[int, int, int]] = []  # (drive index, day, ordinal)
    for i in range(config.n_drives):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        drive_blocks, plan = generate(i, base[i % len(names)], rng, config)
        blocks += drive_blocks
        swaps += [(i, day) for day in plan.swaps]
        failures += [(i, day, k) for k, day in enumerate(plan.failures, start=1)]
    rows = np.concatenate(blocks)
    if ssd:
        rows = _mark_swaps(rows, np.array(swaps, dtype=np.int64).reshape(-1, 2),
                           config.horizon_days)
    rows[:, 2] = rows[:, 1] % len(names)
    table = _Table(rows.shape[1] - 3)
    serials = [f"{config.family}-{i:05d}" for i in range(config.n_drives)]
    table.drives = {serial: i for i, serial in enumerate(serials)}
    table.models = {m: k for k, m in enumerate(names)}
    table.sort(rows)
    fields = (_SSD_FIELDS if ssd
              else ("time", "failed", *(f"smart_{sid}" for sid in HDD_SMART_IDS)))
    provenance = {"source": "synthetic", "seed": config.seed,
                  "filters": [], "rejected": [], "rejected_count": 0,
                  "quarantined": []}
    ds = table.dataset(config.family, table.order, fields, provenance)
    truth = FailureTable(*np.array(failures, dtype=np.int64).reshape(-1, 3).T,
                         np.zeros(len(failures), dtype=bool), serials, config.family)
    return ds, replace(truth, drive=truth.codes_in(ds.drives), drives=ds.drives)


def _mark_swaps(rows: np.ndarray, swaps: np.ndarray, horizon: int) -> np.ndarray:
    """SSD table rows with each (drive, day) swap marked dead and swapped on
    the row of its day, or added as a bare marker row without a summary."""
    at = {name: 3 + k for k, name in enumerate(_SSD_FIELDS)}
    keys = rows[:, 1] * horizon + rows[:, at["time"]] // US_PER_DAY
    swap_keys = swaps[:, 0] * horizon + swaps[:, 1]
    marked = np.isin(keys, swap_keys)
    rows[marked, at["dead"]] = rows[marked, at["swap_event"]] = True
    bare = np.setdiff1d(swap_keys, keys)
    cells = dict.fromkeys(_SSD_COUNT_FIELDS, -1) | {
        "time": bare % horizon * US_PER_DAY, "dead": True, "read_only": True,
        "swap_event": True}
    return np.concatenate([rows, _block(bare.size, 0, bare // horizon, 0, *(
        cells.get(name, 0) for name in _SSD_FIELDS))])


@dataclass(frozen=True)
class CalibrationCheck:
    name: str
    target: float
    realized: float
    tolerance: float
    ok: bool


@dataclass
class CalibrationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> CalibrationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


#: verify_fleet's tolerances: the absolute band on a failed fraction (2
#: percentage points), the relative band on an error incidence, and the
#: least infant-to-mature failure rate ratio.
_FRACTION_TOL = 0.02
_INCIDENCE_REL_TOL = 0.2
_INFANT_RATIO_FLOOR = 3.0


def verify_fleet(ds: FleetDataset, truth: FailureTable,
                 config: SynthConfig) -> CalibrationReport:
    """Recompute realized failure fractions, error incidence, and infant ratio.

    Failure-fraction checks compare per-model realized shares of failed
    drives against the configured targets (skipped for HDD fleets with an
    HFH hazard boost, which intentionally shifts the overall rate).
    Incidence checks compare the share of drive-days with at least one
    error of each kind; the infant check requires the month-0..2 failure
    rate to exceed the month-3+ rate by ``_INFANT_RATIO_FLOOR`` when an
    infant multiplier is configured.
    """
    checks: list[CalibrationCheck] = []
    codes = truth.codes_in(ds.drives)
    failed = np.zeros(ds.n_drives, dtype=bool)
    failed[codes[codes >= 0]] = True
    population = Counter(ds.drive_models)
    failed_by_model = Counter(compress(ds.drive_models, failed.tolist()))

    if not (config.family == "hdd" and config.hfh_effect > 1.0):
        for model in sorted(config.models):
            if not population[model]:
                continue
            realized = failed_by_model[model] / population[model]
            target = config.models[model]
            checks.append(CalibrationCheck(
                f"failed_fraction[{model}]", target, realized, _FRACTION_TOL,
                abs(realized - target) <= _FRACTION_TOL))
        overall_target = (sum(config.models[m] * population[m] for m in config.models)
                          / max(ds.n_drives, 1))
        realized = int(failed.sum()) / max(ds.n_drives, 1)
        checks.append(CalibrationCheck("failed_fraction[all]", overall_target,
                                       realized, _FRACTION_TOL,
                                       abs(realized - overall_target) <= _FRACTION_TOL))

    if config.family == "ssd":
        # Days inside a planted burst window are signal, not baseline:
        # exclude them when measuring the incidence of burst-affected kinds.
        burst_kinds = {spec.kind for spec in config.bursts if spec.mean > 0}
        burst_span = max((spec.days for spec in config.bursts), default=0)
        in_burst = _DayWindows(ds.row_drive(), drive_days(ds)).covered(
            codes, truth.day - burst_span + 1, truth.day)
        reported = ds.column("read_ops")[1]  # bare swap markers carry no summary
        clean = reported & ~in_burst
        day_total, clean_total = int(reported.sum()), int(clean.sum())
        day_hits, clean_hits = {}, {}
        for kind in SSD_ERROR_KINDS:
            hit = ds.column(f"err_{kind}")[0] > 0
            day_hits[kind] = int(np.count_nonzero(hit & reported))
            clean_hits[kind] = int(np.count_nonzero(hit & clean))
        for kind, target in config.error_incidence.items():
            if target <= 0 or day_total == 0:
                continue
            if kind in burst_kinds:
                realized = clean_hits.get(kind, 0) / max(clean_total, 1)
                n = clean_total
            else:
                realized = day_hits.get(kind, 0) / day_total
                n = day_total
            # tolerance: relative band widened by a 3-sigma sampling floor
            band = max(_INCIDENCE_REL_TOL * target,
                       3.0 * math.sqrt(target * (1.0 - target) / max(n, 1)))
            checks.append(CalibrationCheck(f"incidence[{kind}]", target,
                                           realized, band,
                                           abs(realized - target) <= band))

    if config.infant_hazard_multiplier > 1.0:
        curve = charstats.monthly_failure_rate(truth, ds)
        infant = [r for r in curve.rate[:3] if r is not None]
        mature = [r for r in curve.rate[3:] if r is not None]
        if infant and mature and sum(mature):
            ratio = (sum(infant) / len(infant)) / (sum(mature) / len(mature))
            checks.append(CalibrationCheck("infant_rate_ratio",
                                           _INFANT_RATIO_FLOOR, ratio,
                                           0.0, ratio >= _INFANT_RATIO_FLOOR))
    return CalibrationReport(checks)
