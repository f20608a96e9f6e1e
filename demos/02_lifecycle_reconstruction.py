"""Reconstruct drive lifecycles: failures, operational periods, repairs.

The SSD failure day is recovered by walking backward from each swap over
unreported days and trailing zero-activity days. Lifecycle statistics are
reported with explicit right-censoring: a drive still alive at the end of
the window contributes censored mass, never a fabricated failure.
"""

import math

import drivelife as dl
from drivelife import lifecycle

config = dl.SynthConfig(
    family="ssd", n_drives=800, horizon_days=500,
    models={"MLC-A": 0.12, "MLC-B": 0.16},
    reentry_probability=0.55,
    seed=7,
)
fleet, truth = dl.generate_fleet(config)

failures = dl.detect_failures(fleet)
planted = {(e.drive, e.age_days) for e in truth}
recovered = {(e.drive, e.age_days) for e in failures}
print(f"{len(failures)} failures detected; "
      f"{len(planted & recovered)}/{len(planted)} planted days recovered exactly")

periods = dl.extract_operational_periods(fleet, failures)
spells = lifecycle.build_repair_spells(fleet, failures)

ttf = lifecycle.period_length_sample(periods)
points, censored_mass = dl.censored_cdf(ttf, grid=[30, 90, 180, 365, 500])
print("\ntime-to-failure CDF (operational-period lengths):")
for t, f in points:
    print(f"  F({t:>3d} days) = {f:.3f}")
print(f"  censored mass (periods not observed to end) = {censored_mass:.3f}")

dist = dl.failure_count_distribution(failures, fleet.n_drives)
print("\nlifetime failure counts:")
for k, (share_all, share_failed) in sorted(dist.items()):
    failed = "---" if share_failed is None else f"{share_failed:7.2%}"
    print(f"  {k} failures: {share_all:7.2%} of drives, {failed} of failed drives")

horizons = [1, 10, 30, 100, 365, math.inf]
stats = dl.repair_stats(spells, horizons, fleet.n_drives)
print("\nre-entry within n days of the swap (share of failed / of all drives):")
for h in horizons:
    of_failed, of_all = stats[h]
    name = "never" if math.isinf(h) else f"{int(h):>4d}d"
    print(f"  {name}: {of_failed:6.1%} / {of_all:6.2%}")
limbo = sum(1 for s in spells if s.long_limbo)
print(f"\nspells with a pre-swap gap over {lifecycle.LONG_LIMBO_DAYS} days "
      f"(possible forgotten drives): {limbo}")
