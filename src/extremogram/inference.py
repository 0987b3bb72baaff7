"""Permutation confidence bands and the Monte Carlo study harness.

The permutation bands answer "is there any spatial dependence among
these values at all": values are shuffled uniformly over the fixed
locations, each shuffle is estimated, and the pooled quantiles of the
shuffled estimates form a flat null envelope.  The observed estimate
and every shuffle are counted over one geometry plan, the shuffles
from the observed indicators.  The Monte Carlo harness and the rate
check share one replicate loop that repeats simulate->estimate with
derived per-replicate seeds and aggregates; the harness attaches
closed-form limit and finite-m reference values when the model has
them.

Both are plain sequential loops over independent tasks; every task
draws its randomness from a stream derived from (seed, task index), so
a task's result does not depend on which tasks ran before it.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    DegenerateThreshold,
    DomainError,
    EmptyField,
    EmptyInput,
    ExtremogramError,
    FactorizationFailure,
    TooFewPermutations,
)
from .fields import (
    ExtremeSet,
    Lag,
    LatticeField,
    PointField,
    ThresholdRule,
    as_lag,
    derive_rng,
    derive_seed,
    grid_sides,
)
from .kernel import KernelPlan, KernelSpec, kernel_ese, kernel_ese_by_distance
from .lattice import LatticePlan, lattice_ese, lattice_ese_by_distance
from .oracles import br_extremogram, br_pa_extremogram, mma_extremogram, mma_pa_extremogram
from .results import EseResult
from .simulate import (
    BrPlan,
    BrSimConfig,
    FieldSource,
    MmaPlan,
    VariogramSpec,
    WeightSpec,
    sim_brown_resnick,
    sim_frechet_iid,
    sim_mma,
    sim_point_field,
)

__all__ = [
    "EstimatorConfig",
    "BandResult",
    "McSummary",
    "RateCheck",
    "MmaModel",
    "FrechetModel",
    "BrLatticeModel",
    "PointProcessModel",
    "estimator_plan",
    "run_estimator",
    "permutation_bands",
    "mc_study",
    "clt_rate_check",
]

MC_QUANTILES = (2.5, 25.0, 50.0, 75.0, 97.5)


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and how.

    mode "lattice" needs a LatticeField, mode "kernel" a PointField
    plus a KernelSpec.  ``by_distance`` switches to one row per
    distance (lattice: pooled equal-norm lags; kernel: rho averaged
    over 8 directions).  ``nu`` is the known point intensity; None
    means the plug-in N/|S|.
    """

    mode: str
    by_distance: bool = False
    kernel: KernelSpec | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.mode not in ("lattice", "kernel"):
            raise ValueError(f"mode must be 'lattice' or 'kernel', got {self.mode!r}")
        if self.mode == "kernel" and self.kernel is None:
            raise ValueError("kernel mode needs a KernelSpec")

    def label(self) -> str:
        parts = [self.mode]
        if self.kernel is not None:
            parts.append(self.kernel.label())
            parts.append("nu=plugin" if self.nu is None else f"nu={self.nu:g}")
        if self.by_distance:
            parts.append("by-distance")
        return " ".join(parts)


def estimator_plan(data, config: EstimatorConfig, lags) -> LatticePlan | KernelPlan:
    """The value-free geometry plan `run_estimator` evaluates on ``data``,
    for ``lags`` in the same form; DomainError if the field is of the
    wrong kind for ``config.mode``."""
    if config.mode == "lattice":
        if not isinstance(data, LatticeField):
            raise DomainError("lattice mode requires a LatticeField input")
        return LatticePlan(data.dims, lags, config.by_distance)
    if not isinstance(data, PointField):
        raise DomainError("kernel mode requires a PointField input")
    return KernelPlan(data.locations, config.kernel, lags, config.by_distance)


def run_estimator(data, set_a, set_b, rule, config: EstimatorConfig, lags,
                  *, plan: LatticePlan | KernelPlan | None = None) -> EseResult:
    """Dispatch to the configured estimator.

    ``lags``: a list of vector lags normally; with ``by_distance`` a
    single max distance for lattice mode, or an explicit list of
    distances for kernel mode.  ``plan`` is ``estimator_plan(data,
    config, lags)`` built beforehand, so that several estimates can
    share it; it is used as given and does not change the output.
    """
    plan = plan or estimator_plan(data, config, lags)
    if config.mode == "lattice":
        estimate = lattice_ese_by_distance if config.by_distance else lattice_ese
        return estimate(data, set_a, set_b, rule, lags, plan=plan)
    estimate = kernel_ese_by_distance if config.by_distance else kernel_ese
    return estimate(data, set_a, set_b, rule, config.kernel, lags, nu=config.nu, plan=plan)


# Budget for the int64 site indices of one chunk of shuffles, so band
# memory stays bounded at any field size: 40 shuffles of a 40x40 grid.
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class BandResult:
    """Null envelope for 'no spatial dependence' from value shuffles.

    ``lo``/``hi`` are pooled over every (permutation, lag) estimate and
    are therefore constant across lags; ``per_lag`` keeps the per-lag
    envelopes for diagnostics.  ``observed`` is the estimate on the
    unshuffled data.
    """

    lo: float
    hi: float
    level: float
    n_perm: int
    per_lag: tuple[tuple[float, float], ...]
    observed: EseResult

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"band must satisfy lo <= hi, got ({self.lo}, {self.hi})")


def permutation_bands(
    data,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    config: EstimatorConfig,
    lags,
    n_perm: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> BandResult:
    """Random-permutation confidence bands at the given level.

    Permutation p shuffles the values over the fixed locations with the
    stream derived from (seed, p), so each permutation is reproducible
    independent of execution order.  A shuffle keeps the value
    multiset, so the threshold, m and the denominator of every permuted
    estimate equal those of the observed one: once the observed
    estimate succeeds, no permutation can degenerate.  The observed
    estimate and every shuffle run over one geometry plan,
    ``estimator_plan(data, config, lags)``, built once.  Shuffle p's
    indicators are the observed ones gathered through
    ``derive_rng(seed, p).permutation(n)``, the same shuffle as permuting
    the values with that stream, and are counted over that plan in
    chunks of bounded memory: the result is the same as estimating each
    shuffled field on its own.
    """
    if n_perm < 100:
        raise TooFewPermutations(
            f"need at least 100 permutations for a meaningful band, got {n_perm}"
        )
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    plan = estimator_plan(data, config, lags)
    observed = run_estimator(data, set_a, set_b, rule, config, lags, plan=plan)
    ind_a = set_a.indicator(data.values, observed.a_m)
    ind_b = set_b.indicator(data.values, observed.a_m)
    n = data.values.size
    chunk = max(1, _CHUNK_BYTES // (8 * n))
    rows = []
    for start in range(0, n_perm, chunk):
        idx = np.stack([
            derive_rng(seed, p).permutation(n)
            for p in range(start, min(start + chunk, n_perm))
        ])
        rows.append(plan.shuffle_rho(data, ind_a[idx], ind_b[idx], observed))
    stack = np.vstack(rows)
    alpha = 1.0 - level
    lo, hi = np.quantile(stack.ravel(), [alpha / 2.0, 1.0 - alpha / 2.0])
    col_lo = np.quantile(stack, alpha / 2.0, axis=0)
    col_hi = np.quantile(stack, 1.0 - alpha / 2.0, axis=0)
    return BandResult(
        lo=float(lo),
        hi=float(hi),
        level=level,
        n_perm=n_perm,
        per_lag=tuple((float(a), float(b)) for a, b in zip(col_lo, col_hi)),
        observed=observed,
    )


# ---------------------------------------------------------------------------
# model configurations for the Monte Carlo harness

_RAY = ExtremeSet.ray(1.0)


@dataclass(frozen=True)
class MmaModel:
    """Max-moving-average field on a lattice.

    The :class:`MmaPlan` of the weights is built on the first draw and
    kept for every later one.
    """

    dims: tuple
    weights: WeightSpec

    @cached_property
    def plan(self) -> MmaPlan:
        return MmaPlan(self.weights, len(self.dims))

    def simulate(self, seed: int) -> LatticeField:
        return sim_mma(self.dims, self.weights, seed, plan=self.plan)

    def oracle_limit(self, lag: Lag) -> float:
        return mma_extremogram(self.weights, lag)

    def oracle_pa(self, lag: Lag, m: float) -> float:
        return mma_pa_extremogram(self.weights, lag, m).rho_pa

    def describe(self) -> str:
        return f"mma {self.weights.label()} dims={'x'.join(str(n) for n in self.dims)}"


@dataclass(frozen=True)
class FrechetModel:
    """Independent unit-Frechet values on a lattice (no dependence)."""

    dims: tuple

    def simulate(self, seed: int) -> LatticeField:
        return sim_frechet_iid(self.dims, seed)

    def oracle_limit(self, lag: Lag) -> float:
        return 1.0 if lag.norm == 0.0 else 0.0

    def oracle_pa(self, lag: Lag, m: float) -> float:
        return 1.0 if lag.norm == 0.0 else 1.0 / m

    def describe(self) -> str:
        return f"frechet-iid dims={'x'.join(str(n) for n in self.dims)}"


def centered_grid_sites(dims, spacing: float) -> np.ndarray:
    """Planar grid coordinates centered on the origin, row-major order."""
    nx, ny = grid_sides(dims)
    xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing
    ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class BrLatticeModel:
    """Brown-Resnick field sampled on a centered lattice.

    Grid lags are separated by ``spacing`` in physical units; oracle
    lookups convert grid-step lags to physical distance.  The grid is
    centered on the origin because the spectral simulator's truncation
    error grows with the variogram at the site, i.e. with distance
    from the origin.  The sites and their :class:`BrPlan` are built on
    the first draw and kept for every later one; a covariance that
    cannot be factored fails that draw, and every later one, with
    FactorizationFailure.
    """

    dims: tuple
    vario: VariogramSpec
    config: BrSimConfig
    spacing: float = 1.0

    def __post_init__(self):
        if len(grid_sides(self.dims)) != 2:
            raise ValueError(f"Brown-Resnick lattice needs 2 sides, got dims {self.dims}")

    @cached_property
    def sites(self) -> np.ndarray:
        sites = centered_grid_sites(self.dims, self.spacing)
        sites.setflags(write=False)
        return sites

    @cached_property
    def plan(self) -> BrPlan:
        return BrPlan(self.sites, self.vario, self.config)

    def simulate(self, seed: int) -> LatticeField:
        result = sim_brown_resnick(self.sites, self.vario, self.config, seed=seed, plan=self.plan)
        return LatticeField(self.dims, result.values)

    def _physical(self, lag: Lag) -> Lag:
        return Lag.of(lag.norm * self.spacing, 0.0)

    def oracle_limit(self, lag: Lag) -> float:
        return br_extremogram(self._physical(lag), self.vario)

    def oracle_pa(self, lag: Lag, m: float) -> float:
        return br_pa_extremogram(self._physical(lag), self.vario, m=m).rho_pa

    def describe(self) -> str:
        dims = "x".join(str(n) for n in self.dims)
        return (
            f"brown-resnick {self.config.method} theta={self.vario.theta:g} "
            f"alpha={self.vario.alpha:g} dims={dims} spacing={self.spacing:g}"
        )


@dataclass(frozen=True)
class PointProcessModel:
    """Random planar locations carrying values from a field source."""

    region: tuple
    count_rule: object
    source: FieldSource

    def simulate(self, seed: int) -> PointField:
        return sim_point_field(self.region, self.count_rule, self.source, seed=seed)

    def oracle_limit(self, lag: Lag) -> float:
        if self.source.kind == "frechet_iid":
            return 1.0 if lag.norm == 0.0 else 0.0
        return br_extremogram(lag, self.source.vario)

    def oracle_pa(self, lag: Lag, m: float) -> float:
        if self.source.kind == "frechet_iid":
            return 1.0 if lag.norm == 0.0 else 1.0 / m
        return br_pa_extremogram(lag, self.source.vario, m=m).rho_pa

    def describe(self) -> str:
        return f"point-field {self.source.kind} region={self.region}"


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass(frozen=True, eq=False)
class McSummary:
    """Replicate aggregates of rho_hat, one column per estimator row.

    ``quantiles`` maps percent points to per-row arrays.  Oracle
    columns are filled when the model provides closed forms and both
    sets are the exceedance ray (1, inf); otherwise None.  ``mean_m``
    is the average tail index across usable replicates (constant for
    quantile rules).  ``failed_by_reason`` counts the failed replicates
    by exception class name.
    """

    lags: tuple[Lag, ...]
    distances: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    quantiles: dict
    n_reps: int
    n_used: int
    n_failed: int
    model: str
    estimator: str
    mean_m: float
    oracle_limit: np.ndarray | None = None
    oracle_pa: np.ndarray | None = None
    failed_by_reason: dict = field(default_factory=dict)


def _describe(model) -> str:
    describe = getattr(model, "describe", None)
    return describe() if callable(describe) else repr(model)


def _attach_oracles(model, lags, set_a, set_b, mean_m):
    if set_a != _RAY or set_b != _RAY or not lags:
        return None, None
    get_limit = getattr(model, "oracle_limit", None)
    get_pa = getattr(model, "oracle_pa", None)
    limit = pa = None
    try:
        if callable(get_limit):
            limit = np.array([get_limit(lag) for lag in lags])
        if callable(get_pa) and math.isfinite(mean_m):
            pa = np.array([get_pa(lag, mean_m) for lag in lags])
    except ExtremogramError:
        return None, None
    return limit, pa


# Errors that depend on a replicate's draw: that replicate is dropped.
# Any other error is one of configuration, which every replicate hits.
_DRAW_ERRORS = (
    DegenerateThreshold,
    DegenerateDenominator,
    FactorizationFailure,
    EmptyField,
    EmptyInput,
)


def _replicates(model, set_a, set_b, rule, config, lags, n_reps, seed, key):
    """Simulate -> estimate replicate r on the seed derived from (seed, *key, r).

    Returns the summary over the replicates that did not fail, without
    oracles, and the draw errors of those that did, in replicate order.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    kept, failures = [], []
    for r in range(n_reps):
        try:
            data = model.simulate(derive_seed(seed, *key, r))
            kept.append(run_estimator(data, set_a, set_b, rule, config, lags))
        except _DRAW_ERRORS as exc:
            failures.append(exc.with_traceback(None))  # its frames would pin the draw
    reasons = Counter(type(exc).__name__ for exc in failures)
    common = dict(n_reps=n_reps, n_used=len(kept), n_failed=len(failures),
                  failed_by_reason=dict(sorted(reasons.items())),
                  model=_describe(model), estimator=config.label())
    if not kept:
        empty = np.empty(0)
        return McSummary(lags=(), distances=empty, mean=empty, variance=empty,
                         quantiles={q: empty for q in MC_QUANTILES},
                         mean_m=math.nan, **common), failures
    stack = np.vstack([res.rho_hat for res in kept])
    q_rows = np.quantile(stack, np.array(MC_QUANTILES) / 100.0, axis=0)
    return McSummary(
        lags=kept[0].lags,
        distances=kept[0].distances,
        mean=stack.mean(axis=0),
        variance=stack.var(axis=0, ddof=1) if len(kept) > 1 else np.zeros(stack.shape[1]),
        quantiles=dict(zip(MC_QUANTILES, q_rows)),
        mean_m=float(np.mean([res.m for res in kept])),
        **common,
    ), failures


def mc_study(
    model,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    config: EstimatorConfig,
    lags,
    n_reps: int,
    seed: int = 0,
) -> McSummary:
    """Repeat simulate -> estimate and aggregate the estimates per row.

    Replicate r simulates with the seed derived from (seed, r).  A
    replicate whose draw degenerates (no usable tail, a failed
    factorization, too few points) is excluded and counted in
    ``n_failed`` and, by exception class, in ``failed_by_reason``;
    aggregation runs over the rest (all-NaN aggregates and empty rows
    when nothing succeeded).  Other errors are raised.
    """
    summary, _ = _replicates(model, set_a, set_b, rule, config, lags, n_reps, seed, ())
    limit, pa = _attach_oracles(model, summary.lags, set_a, set_b, summary.mean_m)
    return replace(summary, oracle_limit=limit, oracle_pa=pa)


@dataclass(frozen=True, eq=False)
class RateCheck:
    """Variance of rho_hat at a reference lag across grid sizes.

    ``slope`` is the fitted coefficient of log variance against
    log(size^d); None when fewer than two sizes or a zero variance
    makes the fit undefined.  The theoretical value for a lattice
    field with a fixed quantile threshold is -1.
    """

    sizes: tuple[int, ...]
    variances: np.ndarray
    means: np.ndarray
    n_reps: int
    ref_lag: Lag
    d: int
    slope: float | None


def clt_rate_check(
    make_model,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    config: EstimatorConfig,
    ref_lag,
    sizes,
    n_reps: int,
    seed: int = 0,
) -> RateCheck:
    """How fast the estimator variance shrinks as the grid grows.

    ``make_model(size)`` must build the model at linear size ``size``.
    A quantile threshold is required so the tail index m stays fixed
    across sizes; otherwise the rate comparison is meaningless.
    """
    if rule.kind != "quantile":
        raise DomainError("rate check requires a quantile threshold rule (fixed m)")
    size_list = [int(n) for n in sizes]
    if not size_list:
        raise ValueError("need at least one size")
    lag = as_lag(ref_lag)
    stats = []
    for size in size_list:
        summary, failures = _replicates(
            make_model(size), set_a, set_b, rule, config, [lag], n_reps, seed, (size,)
        )
        if failures:
            raise failures[0]
        stats.append((summary.mean[0], summary.variance[0]))
    means, variances = np.array(stats).T
    slope = None
    if len(size_list) >= 2 and np.all(variances > 0):
        x = np.log(np.array(size_list, dtype=float) ** lag.d)
        slope = float(np.polyfit(x, np.log(variances), 1)[0])
    return RateCheck(
        sizes=tuple(size_list),
        variances=variances,
        means=means,
        n_reps=n_reps,
        ref_lag=lag,
        d=lag.d,
        slope=slope,
    )
