"""Fleet characterization: correlations, rate curves, pre-failure errors.

Reproduces the characterization analyses on a synthetic fleet with an
infant-mortality effect and pre-failure uncorrectable-error bursts, so
every statistic has a visible planted cause.
"""

import drivelife as dl

config = dl.SynthConfig(
    family="ssd", n_drives=700, horizon_days=400,
    models={"MLC-A": 0.14},
    infant_hazard_multiplier=5.0,
    bursts=(dl.BurstSpec(kind="uncorrectable", mean=10.0, days=3),),
    seed=99,
)
fleet, _ = dl.generate_fleet(config)
failures = dl.detect_failures(fleet)
print(f"{fleet.n_drives} drives, {len(failures)} failures")

features = ["err_uncorrectable_cum", "err_final_read_cum", "err_erase_cum",
            "pe_cycles_cum", "age_days"]
matrix = dl.spearman_matrix(fleet, features)
print("\nSpearman correlations over drive-days:")
width = max(len(f) for f in features)
for i, a in enumerate(matrix.labels):
    row = " ".join("  .  " if not matrix.defined[i, j]
                   else f"{matrix.rho[i, j]:+.2f}" for j in range(len(features)))
    print(f"  {a:>{width}s}  {row}")

curve = dl.monthly_failure_rate(failures, fleet)
print("\nfailure rate by month of drive age (infant effect planted):")
for m, rate in enumerate(curve.rate[:8]):
    shown = "  n/a" if rate is None else f"{rate:.4f}"
    bar = "" if rate is None else "#" * int(rate * 400)
    print(f"  month {m:2d}: {shown} {bar}")

windows = [1, 2, 7, 14]
prob = dl.prefailure_error_probability(failures, fleet, "uncorrectable",
                                       windows, seed=1)
print("\nP(uncorrectable error within last n days before failure) vs baseline:")
for n in windows:
    p = prob["probability"][n]
    print(f"  n={n:2d}: {p:.3f}  (arbitrary-window baseline {prob['baseline'][n]:.3f})")

pct = dl.prefailure_error_percentiles(failures, fleet, "uncorrectable",
                                      [90], offsets=range(5))
print("\nP90 of nonzero uncorrectable counts, by days before failure:")
for offset, values in pct.items():
    shown = "none" if values is None else str(values[90])
    print(f"  {offset} days before: {shown}")

quartiles = dl.write_intensity_quartiles(fleet)
q1, med, q3 = quartiles[0]
print(f"\ndaily write intensity, age month 0: Q1={q1} median={med} Q3={q3}")
