"""Brown-Resnick simulation two ways, checked against the pair oracle.

The spectral construction is exact in law up to truncation of a Poisson
series, but the number of terms needed grows rapidly with the variogram,
so it only covers a modest window around the origin; the Gaussian-max
construction rescales maxima of correlated Gaussian fields, approaches
the target variogram from below, and scales to large windows.  Both
should produce unit Frechet margins on their home turf, and joint
exceedance rates governed by the Husler-Reiss pair distribution.

Each draw loop reuses one site set, so it builds one ``BrPlan`` (the
factored covariance of those sites) and passes it to every draw.
"""
import numpy as np

from extremogram import (
    BrPlan,
    BrSimConfig,
    Lag,
    VariogramSpec,
    br_extremogram,
    centered_grid_sites,
    sim_brown_resnick,
)
from extremogram.oracles import br_pa_tau

vario = VariogramSpec(theta=0.5, alpha=2.0)
frechet = lambda x: np.exp(-1.0 / x)  # noqa: E731


def ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance max(D+, D-) between a sample and a continuous CDF."""
    f = cdf(np.sort(sample))
    n = f.size
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


# margins: spectral on a small window (series truncation limits the
# usable radius), gaussian-max on a 20x20 window
small = centered_grid_sites((5, 5), 1.0)
cfg = BrSimConfig.spectral(1000)
plan = BrPlan(small, vario, cfg)
pool = np.concatenate(
    [sim_brown_resnick(small, vario, cfg, seed=r, plan=plan).values for r in range(320)]
)
print(f"{'spectral':>13}: KS distance to unit Frechet = "
      f"{ks_distance(pool, frechet):.4f} ({pool.size} site-draws, 5x5 window)")

wide = centered_grid_sites((20, 20), 0.5)
cfg = BrSimConfig.gaussian_max(1600)
plan = BrPlan(wide, vario, cfg)
pool = np.concatenate(
    [sim_brown_resnick(wide, vario, cfg, seed=r, plan=plan).values for r in range(20)]
)
print(f"{'gaussian-max':>13}: KS distance to unit Frechet = "
      f"{ks_distance(pool, frechet):.4f} ({pool.size} site-draws, 20x20 window)")

# pairwise check: m * P(both sites exceed a_m) at physical distance 1,
# on a dense spectral grid kept close to the origin.  Joint exceedances
# arrive in clusters, so the per-replicate statistic is very skewed and
# the Monte Carlo error bar is wide even at 500 replicates.
m = 20.0
a_m = m
sites = centered_grid_sites((20, 20), 0.2)
cfg = BrSimConfig.spectral(1000)
plan = BrPlan(sites, vario, cfg)
taus = []
for r in range(500):
    grid = sim_brown_resnick(sites, vario, cfg, seed=r, plan=plan).values.reshape(20, 20)
    base, disp = grid[:-5, :], grid[5:, :]   # 5 steps of 0.2
    taus.append(m * np.count_nonzero((base > a_m) & (disp > a_m)) / base.size)
taus = np.asarray(taus)
se = taus.std(ddof=1) / np.sqrt(len(taus))
tau = br_pa_tau(Lag.of(1.0, 0.0), vario, m=m)
print(f"\npair exceedance at distance 1: m*P_hat = {taus.mean():.4f} "
      f"(MC standard error {se:.4f}), oracle tau = {tau:.4f}")
print(f"limit extremogram at distance 1: {br_extremogram(Lag.of(1.0, 0.0), vario):.4f} "
      "(the finite-m tau is what the empirical rate matches)")
