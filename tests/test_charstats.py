import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import charstats, cli, synth
from drivelife.charstats import (hfh_threshold_sweep, monthly_failure_rate,
                                 nearest_rank, pe_binned_failure_rate,
                                 prefailure_error_percentiles,
                                 prefailure_error_probability, spearman,
                                 spearman_matrix, write_intensity_quartiles)
from drivelife.ingest import SchemaError
from drivelife.lifecycle import FailureEvent, detect_failures

from conftest import hdd_dataset, hdd_rec, ssd_dataset, ssd_rec, table_of


def rank_then_pearson(x, y):
    """Independent oracle: explicit average ranks, then textbook Pearson."""
    def avg_ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        ranks = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r = (i + j) / 2 + 1
            for k in range(i, j + 1):
                ranks[order[k]] = r
            i = j + 1
        return ranks

    rx, ry = avg_ranks(list(x)), avg_ranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


class TestSpearman:
    def test_identity_is_one(self):
        assert spearman([1, 5, 3, 9], [1, 5, 3, 9]) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 2]) == pytest.approx(-1.0)

    def test_against_rank_pearson_oracle(self):
        x, y = [1, 2, 3, 4], [2, 1, 4, 3]
        assert spearman(x, y) == pytest.approx(rank_then_pearson(x, y), abs=1e-12)

    def test_random_with_ties_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 60)
            x = [rng.randint(0, 8) for _ in range(n)]
            y = [rng.randint(0, 8) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                assert spearman(x, y) is None
                continue
            assert spearman(x, y) == pytest.approx(rank_then_pearson(x, y),
                                                   abs=1e-12)

    def test_constant_series_undefined(self):
        assert spearman([2, 2, 2], [1, 2, 3]) is None
        assert spearman([1, 2, 3], [5, 5, 5]) is None

    def test_symmetry(self):
        x, y = [3, 1, 4, 1, 5], [2, 7, 1, 8, 2]
        assert spearman(x, y) == spearman(y, x)

    @given(st.lists(st.integers(0, 1000), min_size=3, max_size=40, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance_exact(self, xs, rnd):
        ys = xs[:]
        rnd.shuffle(ys)
        base = spearman(xs, ys)
        transformed = spearman(xs, [math.exp(v / 1000) for v in ys])
        assert transformed == base  # ranks identical, so exactly equal


class TestCentredRanks:
    """The numpy ranks equal ``scipy.stats.rankdata(x) - mean`` bit for bit."""

    @staticmethod
    def scipy_ranks(x):
        from scipy.stats import rankdata
        r = rankdata(x, method="average")
        return r - r.mean()

    def assert_bit_equal(self, x):
        got, want = charstats._centred_ranks(x), self.scipy_ranks(x)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 10, 257, 10_000])
    @pytest.mark.parametrize("distinct", [2, 5, 100, None],
                             ids=["two_values", "five_values", "hundred", "floats"])
    def test_equals_rankdata(self, n, distinct):
        rng = np.random.default_rng(n)
        x = (rng.normal(size=n) if distinct is None
             else rng.integers(0, distinct, n).astype(float))
        if np.all(x == x[0]):
            x[0] += 1
        self.assert_bit_equal(x)

    def test_heavy_ties_and_signed_zero(self):
        self.assert_bit_equal(np.array([0.0, -0.0, 0.0, 1.0, 1.0, 1.0, -2.0]))
        self.assert_bit_equal(np.r_[np.zeros(9_999), 1.0])
        self.assert_bit_equal(np.r_[np.full(5_000, 3.0), np.full(5_000, -3.0)])
        self.assert_bit_equal(np.repeat(np.arange(100.0), 100)[::-1].copy())

    @pytest.mark.parametrize("family", ["ssd", "hdd"])
    def test_every_spearman_matrix_column_of_a_fleet(self, family):
        config = synth.SynthConfig(family=family, n_drives=40, horizon_days=150,
                                   seed=5)
        ds, _ = synth.generate_fleet(config)
        names = cli._SSD_CORR_FEATURES if family == "ssd" else cli._HDD_CORR_FEATURES
        ranked = 0
        for col in charstats._feature_columns(ds, names):
            if not np.all(col == col[0]):
                self.assert_bit_equal(col)
                ranked += 1
        assert ranked >= 3

    def test_nan_ranks_all_nan(self):
        for x in ([np.nan, 1.0, 2.0], [1.0, np.nan, 1.0], [2.0, 1.0, np.nan]):
            assert np.isnan(charstats._centred_ranks(np.array(x))).all()
            assert np.isnan(self.scipy_ranks(np.array(x))).all()

    def test_nan_spearman_is_nan(self):
        assert math.isnan(spearman([np.nan, 1, 2], [1, 2, 3]))
        assert math.isnan(spearman([1, 2, 3], [3, np.nan, 1]))


class TestSpearmanMatrix:
    def _ds(self):
        rng = random.Random(3)
        recs = []
        for day in range(40):
            ue = rng.randint(0, 5)
            recs.append(ssd_rec("d1", day, pe=day + 1,
                                errors={"uncorrectable": ue,
                                        "final_read": ue + rng.randint(0, 1),
                                        "erase": rng.randint(0, 3)}))
        return ssd_dataset({"d1": recs})

    def test_matrix_is_symmetric_with_unit_diagonal(self):
        m = spearman_matrix(self._ds(), ["err_uncorrectable_cum",
                                         "err_final_read_cum", "age_days"])
        assert np.allclose(m.rho, m.rho.T)
        assert np.allclose(np.diag(m.rho), 1.0)

    def test_correlated_counters(self):
        m = spearman_matrix(self._ds(), ["err_uncorrectable_cum",
                                         "err_final_read_cum"])
        assert m.value("err_uncorrectable_cum", "err_final_read_cum") > 0.9

    def test_constant_feature_flagged_undefined(self):
        m = spearman_matrix(self._ds(), ["bad_blocks_factory_cum", "age_days"])
        assert m.value("bad_blocks_factory_cum", "age_days") is None
        assert not m.defined[0, 0]

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            spearman_matrix(self._ds(), ["not_a_feature"])

    def test_hdd_failed_flag_feature(self):
        ds = hdd_dataset({"A": [hdd_rec("A", 0, smart={5: 0}),
                                hdd_rec("A", 1, failed=True, smart={5: 9})]})
        m = spearman_matrix(ds, ["failed", "smart_5"])
        assert m.value("failed", "smart_5") == pytest.approx(1.0)


class TestMonthlyFailureRate:
    def _fleet(self, n=10, days=180):
        return ssd_dataset({f"d{i}": [ssd_rec(f"d{i}", d) for d in range(days)]
                            for i in range(n)})

    def test_no_failures_all_zero(self):
        curve = monthly_failure_rate(table_of([]), self._fleet())
        assert all(r == 0.0 for r in curve.rate)

    def test_hand_counted_rates(self):
        ds = self._fleet(10, 180)  # months 0..5
        failures = table_of([FailureEvent("d0", 3, 1, "ssd"),
                             FailureEvent("d1", 12, 1, "ssd"),
                             FailureEvent("d2", 100, 1, "ssd")])
        curve = monthly_failure_rate(failures, ds)
        assert curve.rate == [0.2, 0.0, 0.0, 0.1, 0.0, 0.0]
        assert list(curve.exposure) == [10] * 6

    def test_empty_month_is_absent(self):
        ds = ssd_dataset({"d0": [ssd_rec("d0", 0), ssd_rec("d0", 70)]})
        curve = monthly_failure_rate(table_of([]), ds)
        assert curve.rate[1] is None  # no records in month 1
        assert curve.exposure[1] == 0

    def test_rates_bounded(self):
        ds = self._fleet(5, 90)
        failures = table_of(FailureEvent(f"d{i}", 2, 1, "ssd") for i in range(5))
        curve = monthly_failure_rate(failures, ds)
        assert all(r is None or 0.0 <= r <= 1.0 for r in curve.rate)
        assert all(f <= e for f, e in zip(curve.failures, curve.exposure))


class TestPeBinnedRate:
    def test_single_failure_cdf_hits_one_in_first_bin(self):
        ds = ssd_dataset({"d": [ssd_rec("d", day, pe=100) for day in range(3)]})
        failures = table_of([FailureEvent("d", 2, 1, "ssd")])
        curve, cdf = pe_binned_failure_rate(failures, ds, bin_width=250)
        assert cdf[0] == (250.0, 1.0)

    def test_hand_counted_exposure(self):
        ds = ssd_dataset({
            "a": [ssd_rec("a", 0, pe=100), ssd_rec("a", 1, pe=300)],
            "b": [ssd_rec("b", 0, pe=120)],
            "c": [ssd_rec("c", 0, pe=600)],
        })
        failures = table_of([FailureEvent("a", 1, 1, "ssd")])
        curve, _ = pe_binned_failure_rate(failures, ds, bin_width=250)
        # bins: [0,250): a,b ; [250,500): a ; [500,750): c
        assert list(curve.exposure) == [2, 1, 1]
        assert list(curve.failures) == [0, 1, 0]
        assert curve.rate == [0.0, 1.0, 0.0]

    def test_count_past_the_bin_cap_is_schema_error(self):
        top = charstats._MAX_PE_BINS * 250
        ds = ssd_dataset({"a": [ssd_rec("a", 0, pe=100), ssd_rec("a", 1, pe=top - 1)]})
        curve, _ = pe_binned_failure_rate(table_of([]), ds, bin_width=250)
        assert len(curve.exposure) == charstats._MAX_PE_BINS
        for pe in (top, 2**63 - 1):
            ds = ssd_dataset({"a": [ssd_rec("a", 0, pe=100), ssd_rec("a", 1, pe=pe)]})
            with pytest.raises(SchemaError, match=f"pe_cycles_cum value {pe} "):
                pe_binned_failure_rate(table_of([]), ds, bin_width=250)


class TestHfhSweep:
    def _fleet(self):
        drives = {}
        hfh = {"a": 5, "b": 8, "c": 12, "d": 20, "e": 100, "f": None}
        for name, value in hfh.items():
            smart = {240: value} if value is not None else {}
            drives[name] = [hdd_rec(name, 0, smart=smart),
                            hdd_rec(name, 1, smart=smart,
                                    failed=name in ("c", "e"))]
        return hdd_dataset(drives)

    def test_hand_partitioned_rates(self):
        ds = self._fleet()
        failures = table_of([FailureEvent("c", 1, 1, "hdd"),
                             FailureEvent("e", 1, 1, "hdd")])
        sweep = hfh_threshold_sweep(failures, ds, [10])
        small, large, share = sweep["per_threshold"][10]
        assert small == pytest.approx(0.0)       # a, b small; none failed
        assert large == pytest.approx(2 / 3)     # c, d, e large; c, e failed
        assert share == pytest.approx(3 / 5)
        assert sweep["excluded"] == 1

    def test_infinite_threshold_means_all_small(self):
        ds = self._fleet()
        failures = table_of([FailureEvent("c", 1, 1, "hdd"),
                             FailureEvent("e", 1, 1, "hdd")])
        sweep = hfh_threshold_sweep(failures, ds, [math.inf])
        small, large, share = sweep["per_threshold"][math.inf]
        assert small == pytest.approx(2 / 5)  # overall rate of the 5 covered drives
        assert large is None and share == 0.0

    def test_class_partition_is_exhaustive(self):
        ds = self._fleet()
        sweep = hfh_threshold_sweep(table_of([], family="hdd"), ds, [10])
        _, _, share = sweep["per_threshold"][10]
        n_with_hfh = 5
        assert share * n_with_hfh + (1 - share) * n_with_hfh == n_with_hfh
        assert sweep["excluded"] + n_with_hfh == ds.n_drives


class TestPrefailureErrors:
    def _burst_fleet(self):
        recs = []
        for day in range(20):
            errors = {"uncorrectable": 2} if day >= 17 else {}
            recs.append(ssd_rec("d", day, errors=errors))
        recs.append(ssd_rec("d", 21, reads=0, writes=0, swap=True))
        return ssd_dataset({"d": recs})

    def test_errors_every_day_gives_probability_one(self):
        recs = [ssd_rec("d", day, errors={"uncorrectable": 1})
                for day in range(5)]
        recs.append(ssd_rec("d", 6, reads=0, writes=0, swap=True))
        ds = ssd_dataset({"d": recs})
        failures = detect_failures(ds)
        out = prefailure_error_probability(failures, ds, "uncorrectable",
                                           [1, 2, 7], seed=0)
        assert all(v == 1.0 for v in out["probability"].values())

    def test_hand_counted_fractions(self):
        drives = {}
        # f1 has an error on its failure day; f2 two days before; f3 never
        for name, err_day in (("f1", 9), ("f2", 7), ("f3", None)):
            recs = []
            for day in range(10):
                errors = {"meta": 1} if day == err_day else {}
                recs.append(ssd_rec(name, day, errors=errors))
            recs.append(ssd_rec(name, 11, reads=0, writes=0, swap=True))
            drives[name] = recs
        ds = ssd_dataset(drives)
        failures = detect_failures(ds)
        assert all(ev.age_days == 9 for ev in failures)
        out = prefailure_error_probability(failures, ds, "meta", [1, 3], seed=1)
        assert out["probability"][1] == pytest.approx(1 / 3)
        assert out["probability"][3] == pytest.approx(2 / 3)

    def test_probability_monotone_in_window(self):
        ds = self._burst_fleet()
        failures = detect_failures(ds)
        out = prefailure_error_probability(failures, ds, "uncorrectable",
                                           [1, 2, 5, 10], seed=3)
        values = [out["probability"][n] for n in (1, 2, 5, 10)]
        assert values == sorted(values)

    def test_baseline_below_prefailure_on_burst_data(self):
        ds = self._burst_fleet()
        failures = detect_failures(ds)
        out = prefailure_error_probability(failures, ds, "uncorrectable",
                                           [2], seed=5)
        assert out["probability"][2] == 1.0
        assert out["baseline"][2] < 1.0

    def test_no_failures_probabilities_absent(self):
        ds = self._burst_fleet()
        out = prefailure_error_probability(table_of([]), ds, "uncorrectable", [3], seed=0)
        assert out["probability"][3] is None

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            prefailure_error_probability(table_of([]), self._burst_fleet(),
                                         "uncorrectable", [0])


class TestPrefailurePercentiles:
    def test_all_zero_counts_absent(self):
        recs = [ssd_rec("d", day) for day in range(5)]
        recs.append(ssd_rec("d", 6, reads=0, writes=0, swap=True))
        ds = ssd_dataset({"d": recs})
        failures = detect_failures(ds)
        table = prefailure_error_percentiles(failures, ds, "uncorrectable",
                                             [50], offsets=[0, 1])
        assert table == {0: None, 1: None}

    def test_nearest_rank_median(self):
        drives = {}
        for name, count in (("a", 1), ("b", 9)):
            recs = [ssd_rec(name, 0), ssd_rec(name, 1,
                                              errors={"read": count}),
                    ssd_rec(name, 2)]
            recs.append(ssd_rec(name, 4, reads=0, writes=0, swap=True))
            drives[name] = recs
        ds = ssd_dataset(drives)
        failures = detect_failures(ds)
        assert all(ev.age_days == 2 for ev in failures)
        table = prefailure_error_percentiles(failures, ds, "read", [50],
                                             offsets=[1])
        assert table[1] == {50: 1}

    def test_nearest_rank_rule(self):
        assert nearest_rank([1, 9], 50) == 1
        assert nearest_rank([1, 9], 51) == 9
        assert nearest_rank([3, 1, 2], 100) == 3
        with pytest.raises(ValueError):
            nearest_rank([1], 0)


class TestWriteQuartiles:
    def test_constant_rate(self):
        ds = ssd_dataset({"d": [ssd_rec("d", day, writes=7)
                                for day in range(45)]})
        out = write_intensity_quartiles(ds)
        assert out[0] == (7, 7, 7) and out[1] == (7, 7, 7)

    def test_hand_computed_quartiles(self):
        recs = [ssd_rec("d", day, writes=day + 1) for day in range(4)]
        out = write_intensity_quartiles(ssd_dataset({"d": recs}))
        assert out[0] == (1, 2, 3)

    def test_permutation_invariance(self):
        writes = [5, 1, 9, 3, 7, 2, 8]
        ds1 = ssd_dataset({"d": [ssd_rec("d", i, writes=w)
                                 for i, w in enumerate(writes)]})
        ds2 = ssd_dataset({"d": [ssd_rec("d", i, writes=w)
                                 for i, w in enumerate(reversed(writes))]})
        assert write_intensity_quartiles(ds1) == write_intensity_quartiles(ds2)
