"""Monte Carlo tooling: replication studies, rate checks, significance bands.

Three parts.  A replication study summarizes the estimator's sampling
distribution against the model's oracles.  The rate check fits the
log-log slope of variance against sample size (theory says -1 against
n^2).  Permutation bands answer "is there any spatial dependence at
all" for a single observed field by permuting values over locations.
"""
import numpy as np

from extremogram import (
    EstimatorConfig,
    ExtremeSet,
    MmaModel,
    ThresholdRule,
    WeightSpec,
    clt_rate_check,
    mc_study,
    permutation_bands,
    sim_frechet_iid,
    sim_mma,
)

ray = ExtremeSet.ray(1.0)
rule = ThresholdRule.quantile(0.97)
cfg = EstimatorConfig(mode="lattice", by_distance=True)

model = MmaModel((40, 40), WeightSpec.indicator_ball(1.0))
s = mc_study(model, ray, ray, rule, cfg, 2.0, n_reps=300, seed=1)
print(f"replication study: {s.n_used} fields from {s.model}")
print(f"{'distance':>9} {'mean':>7} {'sd':>7} {'q2.5':>7} {'q97.5':>7} "
      f"{'limit':>7} {'finite-m':>9}")
for k, d in enumerate(s.distances):
    print(f"{d:>9.3f} {s.mean[k]:>7.3f} {np.sqrt(s.variance[k]):>7.3f} "
          f"{s.quantiles[2.5][k]:>7.3f} {s.quantiles[97.5][k]:>7.3f} "
          f"{s.oracle_limit[k]:>7.3f} {s.oracle_pa[k]:>9.3f}")

rc = clt_rate_check(
    lambda n: MmaModel((n, n), WeightSpec.indicator_ball(1.0)),
    ray, ray, rule, EstimatorConfig(mode="lattice"), (1, 0),
    sizes=(20, 40, 80), n_reps=200, seed=2,
)
print(f"\nvariance at sizes {rc.sizes}: "
      + ", ".join(f"{v:.2e}" for v in rc.variances))
print(f"log-log slope vs n^2: {rc.slope:.3f} (theory -1)")

# bands on one dependent field and one independent field
for label, field in (
    ("MMA field", sim_mma((40, 40), WeightSpec.indicator_ball(1.0), seed=3)),
    ("iid field", sim_frechet_iid((40, 40), seed=3)),
):
    b = permutation_bands(field, ray, ray, rule, cfg, 2.0,
                          n_perm=500, seed=0)
    flags = ["*" if not b.lo <= v <= b.hi else " " for v in b.observed.rho_hat]
    vals = ", ".join(f"{d:g}: {v:.3f}{f}" for d, v, f in
                     zip(b.observed.distances, b.observed.rho_hat, flags))
    print(f"\n{label}: null band [{b.lo:.3f}, {b.hi:.3f}], "
          f"observed {{{vals}}}  (* = outside)")
