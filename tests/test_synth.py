import io

import numpy as np
import pytest

from drivelife import synth
from drivelife.ingest import parse_ssd_log, write_ssd_csv
from drivelife.lifecycle import detect_failures
from drivelife.synth import (BurstSpec, ConfounderSpec, SynthConfig, generate_fleet,
                             verify_fleet)


class TestConfig:
    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(models={"M": 1.0})
        with pytest.raises(ValueError):
            SynthConfig(models={"M": -0.1})

    def test_multipliers_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            SynthConfig(infant_hazard_multiplier=0.5)

    def test_minimum_population(self):
        with pytest.raises(ValueError):
            SynthConfig(n_drives=0)

    @pytest.mark.parametrize("spec", [
        {"error_incidence": {"uncorrectable": 0.1, "bogus": 0.5}},
        {"bursts": (BurstSpec(kind="smart_187"),)},
        {"confounders": (ConfounderSpec(feature="erase_ops"),)},
    ], ids=["incidence", "burst", "confounder"])
    def test_ssd_rejects_unknown_error_kinds(self, spec):
        with pytest.raises(ValueError, match="unknown SSD error kind"):
            SynthConfig(**spec)

    def test_ssd_accepts_known_kinds_and_activity_confounders(self):
        SynthConfig(error_incidence={"write": 0.1},
                    bursts=(BurstSpec(kind="correctable"),),
                    confounders=(ConfounderSpec(feature="write_ops"),
                                 ConfounderSpec(feature="read_ops"),
                                 ConfounderSpec(feature="timeout")))

    def test_hdd_skips_non_smart_kinds(self):
        cfg = SynthConfig(family="hdd", n_drives=3, horizon_days=10,
                          models={"M": 0.0}, error_incidence={"bogus": 0.5},
                          bursts=(BurstSpec(kind="uncorrectable"),), seed=1)
        generate_fleet(cfg)


class TestGenerate:
    def test_zero_failure_fraction_means_no_failures(self):
        cfg = SynthConfig(n_drives=30, horizon_days=120, models={"M": 0.0},
                          seed=1)
        ds, truth = generate_fleet(cfg)
        assert list(truth) == []
        assert not any(r.swap_event for d in ds.drives for r in ds.records[d])

    def test_calibration_against_fleet_targets(self):
        # targets patterned on the observed fleet: 11.29% of drives failed,
        # 0.002176 daily uncorrectable-error incidence
        cfg = SynthConfig(n_drives=2000, horizon_days=365,
                          models={"M": 0.1129}, seed=42)
        ds, truth = generate_fleet(cfg)
        failed = len({ev.drive for ev in truth})
        assert abs(failed / 2000 - 0.1129) <= 0.02
        report = verify_fleet(ds, truth, cfg)
        assert report.check("failed_fraction[all]").ok
        assert report.check("incidence[uncorrectable]").ok

    @pytest.mark.parametrize("family, kind, other", [
        ("hdd", "smart_5", "smart_187"), ("ssd", "meta", "uncorrectable")])
    def test_zero_incidence_draws_nothing(self, family, kind, other):
        # a kind that never occurs takes no draws, so naming it leaves the
        # fleet, and the draws after it, as they were
        fleets = [generate_fleet(SynthConfig(
            family=family, n_drives=8, horizon_days=60, models={"M": 0.3},
            error_incidence=incidence, seed=5))
            for incidence in ({other: 0.05}, {kind: 0.0, other: 0.05})]
        assert fleets[0][0] == fleets[1][0]
        assert list(fleets[0][1]) == list(fleets[1][1])

    def test_same_seed_byte_identical_csv(self):
        cfg = SynthConfig(n_drives=25, horizon_days=90, seed=9)
        out = []
        for _ in range(2):
            ds, _ = generate_fleet(cfg)
            buf = io.StringIO()
            write_ssd_csv(ds, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_different_seed_differs(self):
        a, _ = generate_fleet(SynthConfig(n_drives=10, horizon_days=60, seed=1))
        b, _ = generate_fleet(SynthConfig(n_drives=10, horizon_days=60, seed=2))
        assert a != b

    def test_cumulative_fields_non_decreasing_and_ingest_accepts(self):
        cfg = SynthConfig(n_drives=40, horizon_days=150,
                          models={"M": 0.3}, seed=6)
        ds, _ = generate_fleet(cfg)
        buf = io.StringIO()
        write_ssd_csv(ds, buf)
        parsed = parse_ssd_log(buf.getvalue())
        assert parsed.provenance["quarantined"] == []
        assert parsed == ds

    def test_ground_truth_recovered_by_failure_rule(self):
        cfg = SynthConfig(n_drives=150, horizon_days=200, models={"M": 0.25},
                          seed=3)
        ds, truth = generate_fleet(cfg)
        detected = detect_failures(ds)
        planted = {(e.drive, e.age_days, e.ordinal) for e in truth}
        found = {(e.drive, e.age_days, e.ordinal) for e in detected}
        assert planted == found

    def test_truth_is_a_table_on_the_fleet_drives(self):
        cfg = SynthConfig(n_drives=150, horizon_days=200, models={"M": 0.25},
                          reentry_probability=1.0, seed=3)
        ds, truth = generate_fleet(cfg)
        assert truth.drives is ds.drives and truth.family == "ssd"
        names = [truth.drives[c] for c in truth.drive]
        assert names == [ev.drive for ev in truth]
        # Rows by generator index, then ordinal.
        keys = [(int(name.split("-")[1]), k)
                for name, k in zip(names, truth.ordinal.tolist())]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert max(k for _, k in keys) > 1

    def test_truth_order_is_not_name_order_past_99999_drives(self):
        # ssd-100000 sorts before ssd-10001: the truth keeps generator order
        # while its codes are positions in the name-sorted ds.drives.
        cfg = SynthConfig(n_drives=100_002, horizon_days=2, models={"M": 0.3}, seed=1)
        ds, truth = generate_fleet(cfg)
        assert truth.drives is ds.drives
        assert ds.drives.index("ssd-100000") < ds.drives.index("ssd-10001")
        index = [int(truth.drives[c].split("-")[1]) for c in truth.drive]
        assert index == sorted(index) and index[-1] >= 100_000
        assert [ev.drive for ev in truth] == [f"ssd-{i:05d}" for i in index]

    def test_hdd_fleet_has_daily_smart_snapshots(self):
        cfg = SynthConfig(family="hdd", n_drives=12, horizon_days=90,
                          models={"ST-TEST": 0.2}, seed=4,
                          error_incidence={"smart_187": 0.01},
                          bursts=(BurstSpec(kind="smart_187", mean=5.0),))
        ds, truth = generate_fleet(cfg)
        assert ds.family == "hdd"
        rec = ds.records[ds.drives[0]][0]
        assert 9 in rec.smart_raw and 240 in rec.smart_raw
        flagged = sum(1 for d in ds.drives for r in ds.records[d] if r.failed_today)
        assert flagged == len(truth)


class TestVerify:
    def test_self_consistency(self):
        cfg = SynthConfig(n_drives=800, horizon_days=200, models={"M": 0.15},
                          seed=10)
        ds, truth = generate_fleet(cfg)
        assert verify_fleet(ds, truth, cfg).ok

    def test_doubled_target_fails_fraction_check(self):
        cfg = SynthConfig(n_drives=800, horizon_days=200, models={"M": 0.15},
                          seed=10)
        ds, truth = generate_fleet(cfg)
        doubled = SynthConfig(n_drives=800, horizon_days=200,
                              models={"M": 0.30}, seed=10)
        report = verify_fleet(ds, truth, doubled)
        assert not report.check("failed_fraction[M]").ok

    def test_infant_multiplier_shows_in_rate_ratio(self):
        cfg = SynthConfig(n_drives=1200, horizon_days=365, models={"M": 0.12},
                          infant_hazard_multiplier=5.0, seed=12)
        ds, truth = generate_fleet(cfg)
        report = verify_fleet(ds, truth, cfg)
        check = report.check("infant_rate_ratio")
        assert check.realized >= 3.0 and check.ok


class TestSolveHazard:
    """The base hazard is bisected on floats, not found by a root finder."""

    GRID = [(target, horizon, multiplier, infant)
            for target in (1e-16, 1e-9, 1e-4, 0.02, 0.1129, 0.15, 0.5, 0.9)
            for horizon in (1, 4, 90, 120, 730, 2190)
            for multiplier in (1.0, 1.5, 3.0, 10.0)
            for infant in (0, 1, 90, 500)]

    @staticmethod
    def gap(target, horizon, multiplier, infant):
        infant = min(infant, horizon)
        mature = horizon - infant
        return lambda h: ((1.0 - (1.0 - min(multiplier * h, 1.0)) ** infant
                           * (1.0 - h) ** mature) - target)

    @staticmethod
    def feasible(target, horizon, multiplier, infant):
        gap = TestSolveHazard.gap(target, horizon, multiplier, infant)
        return gap(1.0 / multiplier - 1e-12) >= 0

    def test_root_is_the_first_float_reaching_the_target(self):
        solved = 0
        for case in self.GRID:
            if not self.feasible(*case):
                continue
            h = synth._solve_hazard(*case)
            gap = self.gap(*case)
            assert gap(h) >= 0 > gap(np.nextafter(h, 0.0)), case
            solved += 1
        assert solved > len(self.GRID) // 2

    def test_root_within_brentq_tolerance(self):
        from scipy.optimize import brentq
        for case in self.GRID:
            target, _, multiplier, _ = case
            if target < 1e-15 or not self.feasible(*case):
                continue  # brentq's bracket starts at 1e-15
            want = brentq(self.gap(*case), 1e-15, 1.0 / multiplier - 1e-12,
                          xtol=1e-15)
            assert abs(synth._solve_hazard(*case) - want) <= 1e-15, case

    def test_zero_target_is_zero_hazard(self):
        assert synth._solve_hazard(0.0, 120, 3.0, 90) == 0.0

    def test_tiny_target_solves(self):
        h = synth._solve_hazard(1e-16, 120, 3.0, 90)
        assert 0.0 < h < 1e-16
        ds, truth = generate_fleet(SynthConfig(n_drives=4, horizon_days=10,
                                               models={"M": 1e-16}, seed=1))
        assert ds.n_drives == 4 and list(truth) == []

    def test_infeasible_target_raises(self):
        with pytest.raises(ValueError, match=r"^target failure fraction 0\.9 is "
                           r"infeasible within 1 days$"):
            synth._solve_hazard(0.9, 1, 3.0, 0)


class TestDrawStream:
    """The generator's batch draws take numpy's stream exactly as one scalar
    call per cell does, and leave it at the same position. The fleets'
    bytes rest on this for every numpy the package allows."""

    NUMPY = f"batch and scalar draws differ under numpy {np.__version__}"
    SEEDS = (0, 1, 7, 2024, 99991)
    SIZES = (0, 1, 2, 1000)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_smart_draws_equal_row_by_row_draws(self, seed, n):
        batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        _, lows, highs = np.array(synth._HDD_DRAWS).T
        drawn = batch.integers(lows, highs, size=(n, lows.size))
        rows = [[scalar.integers(lo, hi) for _, lo, hi in synth._HDD_DRAWS]
                for _ in range(n)]
        assert drawn.dtype == np.int64, self.NUMPY
        assert np.array_equal(drawn, np.array(rows, dtype=np.int64).reshape(n, lows.size)), \
            self.NUMPY
        assert batch.random() == scalar.random(), self.NUMPY

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_burst_ramp_equals_daily_draws(self, seed, n):
        # means below and above numpy's switch of Poisson algorithm (10),
        # ramps shorter than, as long as and longer than the segment, and
        # one burst skipped by its probability
        bursts = tuple(synth.BurstSpec(kind, mean, days, probability)
                       for kind, mean, days, probability in (
                           ("read", 0.0, 3, 1.0), ("write", 2.5, 1, 1.0),
                           ("meta", 20.0, 3, 1.0), ("erase", 50.0, n, 1.0),
                           ("timeout", 7.0, n + 5, 1.0), ("response", 9.0, 4, 0.5)))
        config = synth.SynthConfig(n_drives=1, horizon_days=2, bursts=bursts)
        batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = {"meta": np.arange(n, dtype=np.int64)}
        expected = {k: v.copy() for k, v in counts.items()}
        synth._add_bursts(batch, config, 0, counts, n, lambda kind: kind)
        for spec in bursts:
            if scalar.random() >= spec.probability:
                continue
            col = expected.setdefault(spec.kind, np.zeros(n, dtype=np.int64))
            first = max(0, n - spec.days)
            for i in range(first, n):
                col[i] += scalar.poisson(spec.mean * (i - first + 1) / (n - first))
        assert counts.keys() == expected.keys(), self.NUMPY
        for kind, col in expected.items():
            assert counts[kind].dtype == np.int64, self.NUMPY
            assert np.array_equal(counts[kind], col), (kind, self.NUMPY)
        assert batch.random() == scalar.random(), self.NUMPY
