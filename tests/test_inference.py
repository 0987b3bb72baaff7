"""Dispatch, permutation bands, Monte Carlo harness, rate check."""
import math

import numpy as np
import pytest

from extremogram import (
    BrLatticeModel,
    BrSimConfig,
    DegenerateDenominator,
    DomainError,
    EstimatorConfig,
    ExtremeSet,
    FrechetModel,
    KernelSpec,
    Lag,
    LatticeField,
    MC_QUANTILES,
    MmaModel,
    PointField,
    PointProcessModel,
    CountRule,
    FieldSource,
    ThresholdRule,
    TooFewPermutations,
    VariogramSpec,
    WeightSpec,
    br_extremogram,
    centered_grid_sites,
    clt_rate_check,
    derive_rng,
    derive_seed,
    kernel_ese,
    lattice_ese,
    mc_study,
    mma1_extremogram,
    mma1_pa_extremogram,
    permutation_bands,
    run_estimator,
    sim_frechet_iid,
    sim_mma,
    sim_point_field,
)
from extremogram.inference import _CHUNK_BYTES

RAY = ExtremeSet.ray(1.0)
Q90 = ThresholdRule.quantile(0.9)
LAT = EstimatorConfig(mode="lattice")


class ConstantModel:
    """Every draw is the same flat field; estimation always degenerates."""

    def simulate(self, seed):
        return LatticeField((6, 6), np.full(36, 3.0))

    def describe(self):
        return "constant"


def test_config_validation_and_label():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="nearest")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="kernel")  # no KernelSpec
    cfg = EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.0),
                          by_distance=True)
    assert "kernel" in cfg.label() and "by-distance" in cfg.label()
    assert "nu=plugin" in cfg.label()


def test_run_estimator_dispatch():
    lat = sim_frechet_iid((10, 10), seed=0)
    pts = sim_point_field((0, 10, 0, 10), CountRule.fixed(80),
                          FieldSource.frechet_iid(), seed=0)
    direct = lattice_ese(lat, RAY, RAY, Q90, [Lag.of(1, 0)])
    via = run_estimator(lat, RAY, RAY, Q90, LAT, [Lag.of(1, 0)])
    assert via.rho_hat[0] == direct.rho_hat[0]

    kcfg = EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.0))
    kdirect = kernel_ese(pts, RAY, RAY, Q90, kcfg.kernel, [Lag.of(1.0, 0.0)])
    kvia = run_estimator(pts, RAY, RAY, Q90, kcfg, [Lag.of(1.0, 0.0)])
    assert kvia.rho_hat[0] == kdirect.rho_hat[0]

    with pytest.raises(DomainError):
        run_estimator(pts, RAY, RAY, Q90, LAT, [Lag.of(1, 0)])
    with pytest.raises(DomainError):
        run_estimator(lat, RAY, RAY, Q90, kcfg, [Lag.of(1.0, 0.0)])


def test_run_estimator_by_distance_forms():
    lat = sim_frechet_iid((10, 10), seed=1)
    res = run_estimator(lat, RAY, RAY, Q90,
                        EstimatorConfig(mode="lattice", by_distance=True), 2.0)
    assert res.by_distance
    assert list(res.distances) == [1.0, math.sqrt(2.0), 2.0]

    pts = sim_point_field((0, 10, 0, 10), CountRule.fixed(150),
                          FieldSource.frechet_iid(), seed=1)
    kcfg = EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.0),
                           by_distance=True)
    res = run_estimator(pts, RAY, RAY, Q90, kcfg, [1.0, 2.0])
    assert res.by_distance and list(res.distances) == [1.0, 2.0]
    scalar = run_estimator(pts, RAY, RAY, Q90, kcfg, 1.5)
    assert list(scalar.distances) == [1.5]


def test_bands_validation():
    f = sim_frechet_iid((8, 8), seed=2)
    with pytest.raises(TooFewPermutations):
        permutation_bands(f, RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_perm=99)
    with pytest.raises(ValueError):
        permutation_bands(f, RAY, RAY, Q90, LAT, [Lag.of(1, 0)],
                          n_perm=100, level=1.0)


def _mma15():
    return sim_mma((15, 15), WeightSpec.indicator_ball(1.0), seed=3)


LAGS3 = [Lag.of(1, 0), Lag.of(0, 1), Lag.of(2, 0)]
LAT_BD = EstimatorConfig(mode="lattice", by_distance=True)
BOUNDED = ExtremeSet(1.0, 3.0)

BAND_CASES = {
    "vector-lags": (_mma15, RAY, RAY, Q90, LAT, LAGS3, 120),
    "by-distance": (_mma15, RAY, RAY, Q90, LAT_BD, 2.0, 120),
    "bounded-a": (_mma15, BOUNDED, RAY, Q90, LAT, LAGS3, 120),
    "bounded-b-absolute": (_mma15, RAY, BOUNDED, ThresholdRule.absolute(5.0), LAT_BD, 2.0, 120),
    "1d": (lambda: sim_frechet_iid((50,), seed=4), RAY, RAY, Q90, LAT, [Lag.of(1), Lag.of(-3)], 100),
    "3d": (lambda: sim_frechet_iid((6, 5, 4), seed=5), BOUNDED, BOUNDED, Q90, LAT_BD, 1.5, 100),
    # 40x40 shuffles are counted in several chunks; 130 leaves a partial one
    "chunk-remainder": (lambda: sim_mma((40, 40), WeightSpec.indicator_ball(1.0), seed=6),
                        RAY, RAY, ThresholdRule.quantile(0.97), LAT_BD, 2.0, 130),
    "kernel": (lambda: sim_point_field((0, 8, 0, 8), CountRule.fixed(60),
                                       FieldSource.frechet_iid(), seed=7),
               RAY, RAY, Q90, EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.5)),
               [Lag.of(1.0, 0.0), Lag.of(0.5, 0.5)], 100),
}


def _shuffled(data, rng):
    values = rng.permutation(data.values)
    if isinstance(data, LatticeField):
        return LatticeField(data.dims, values)
    return PointField(data.locations, values, data.region, data.intensity_hint)


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_bands_equal_per_permutation_reference(case):
    # reference: shuffle with the (seed, p) stream, estimate each shuffle,
    # take pooled and per-lag quantiles of the stacked estimates
    make, set_a, set_b, rule, config, lags, n_perm = BAND_CASES[case]
    data = make()
    if case == "chunk-remainder":
        chunk = _CHUNK_BYTES // (8 * data.size)
        assert 1 < chunk < n_perm and n_perm % chunk != 0
    band = permutation_bands(data, set_a, set_b, rule, config, lags, n_perm=n_perm, seed=7)
    stack = np.vstack([
        run_estimator(_shuffled(data, derive_rng(7, p)), set_a, set_b, rule,
                      config, lags).rho_hat
        for p in range(n_perm)
    ])
    lo, hi = np.quantile(stack.ravel(), [0.025, 0.975])
    col_lo = np.quantile(stack, 0.025, axis=0)
    col_hi = np.quantile(stack, 0.975, axis=0)
    assert band.lo == lo and band.hi == hi
    assert band.per_lag == tuple(zip(col_lo.tolist(), col_hi.tolist()))
    assert np.array_equal(band.observed.rho_hat,
                          run_estimator(data, set_a, set_b, rule, config, lags).rho_hat)


def test_bands_collapse_when_everything_exceeds():
    # lower bound far below every value: each indicator is all-ones and
    # every permuted estimate equals 1, so the envelope is the point {1}
    f = sim_frechet_iid((12, 12), seed=3)
    tiny = ExtremeSet.ray(1e-12)
    b = permutation_bands(f, tiny, tiny, Q90, LAT, [Lag.of(1, 0)],
                          n_perm=100, seed=0)
    assert (b.lo, b.hi) == (1.0, 1.0)
    assert b.per_lag == ((1.0, 1.0),)
    assert b.observed.rho_hat[0] == 1.0


def test_bands_flag_dependence():
    """MMA rho at lag 1 clears the null envelope; iid stays inside."""
    dep = sim_mma((30, 30), WeightSpec.indicator_ball(1.0), seed=4)
    b = permutation_bands(dep, RAY, RAY, Q90, LAT, [Lag.of(1, 0)],
                          n_perm=200, seed=5)
    assert b.observed.rho_hat[0] > b.hi
    iid = sim_frechet_iid((30, 30), seed=6)
    b2 = permutation_bands(iid, RAY, RAY, Q90, LAT, [Lag.of(1, 0)],
                           n_perm=200, seed=5)
    assert b2.lo <= b2.observed.rho_hat[0] <= b2.hi
    assert b2.level == 0.95 and b2.n_perm == 200


def test_bands_degenerate_observed_propagates():
    # an A set above every value degenerates the observed estimate
    # itself; shuffling preserves the value multiset, so nothing is
    # salvageable and the error must surface
    f = sim_frechet_iid((8, 8), seed=7)
    with pytest.raises(DegenerateDenominator):
        permutation_bands(f, ExtremeSet.ray(1e9), RAY, Q90, LAT,
                          [Lag.of(1, 0)], n_perm=100)


def test_mc_study_aggregates_and_oracles():
    model = MmaModel((15, 15), WeightSpec.indicator_ball(1.0))
    lags = [Lag.of(1, 0), Lag.of(2, 0)]
    s = mc_study(model, RAY, RAY, Q90, LAT, lags, n_reps=8, seed=1)
    assert s.n_reps == 8 and s.n_used == 8 and s.n_failed == 0
    assert s.mean.shape == (2,) and s.variance.shape == (2,)
    assert set(s.quantiles) == set(MC_QUANTILES)
    assert np.all(s.quantiles[25.0] <= s.quantiles[50.0])
    assert np.all(s.quantiles[50.0] <= s.quantiles[75.0])
    assert s.mean_m == 1.0 / (1.0 - 0.9)
    assert s.oracle_limit is not None
    assert s.oracle_limit[0] == mma1_extremogram(Lag.of(1, 0))
    assert s.oracle_limit[1] == mma1_extremogram(Lag.of(2, 0))
    assert s.oracle_pa[0] == mma1_pa_extremogram(Lag.of(1, 0), s.mean_m).rho_pa
    assert "mma" in s.model and s.estimator == "lattice"


def test_mc_study_equals_per_replicate_reference():
    model = MmaModel((12, 12), WeightSpec.indicator_ball(1.0))
    lags = [Lag.of(1, 0), Lag.of(1, 1)]
    s = mc_study(model, RAY, RAY, Q90, LAT, lags, n_reps=16, seed=2)
    stack = np.vstack([
        lattice_ese(model.simulate(derive_seed(2, r)), RAY, RAY, Q90, lags).rho_hat
        for r in range(16)
    ])
    assert np.array_equal(s.mean, stack.mean(axis=0))
    assert np.array_equal(s.variance, stack.var(axis=0, ddof=1))
    for q in MC_QUANTILES:
        assert np.array_equal(s.quantiles[q], np.quantile(stack, q / 100.0, axis=0))


def test_mc_study_skips_oracles_for_other_sets():
    model = MmaModel((12, 12), WeightSpec.indicator_ball(1.0))
    s = mc_study(model, ExtremeSet(1.0, 5.0), RAY, Q90, LAT,
                 [Lag.of(1, 0)], n_reps=4, seed=3)
    assert s.oracle_limit is None and s.oracle_pa is None


def test_mc_study_counts_failures():
    s = mc_study(ConstantModel(), RAY, RAY, Q90, LAT, [Lag.of(1, 0)],
                 n_reps=5, seed=0)
    assert s.n_used == 0 and s.n_failed == 5
    assert s.lags == () and s.mean.size == 0
    assert math.isnan(s.mean_m)
    with pytest.raises(ValueError):
        mc_study(ConstantModel(), RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_reps=0)


def test_mc_study_iid_mean_near_pa_level():
    # iid field: rho at any nonzero lag estimates 1/m
    s = mc_study(FrechetModel((25, 25)), RAY, RAY, Q90, LAT,
                 [Lag.of(1, 0)], n_reps=60, seed=4)
    assert abs(s.mean[0] - 0.1) < 0.03


def test_model_oracles():
    mma = MmaModel((10, 10), WeightSpec.indicator_ball(1.0))
    assert mma.oracle_limit(Lag.of(1, 0)) == pytest.approx(0.4, abs=1e-12)
    fre = FrechetModel((10, 10))
    assert fre.oracle_limit(Lag.of(0, 0)) == 1.0
    assert fre.oracle_limit(Lag.of(3, 1)) == 0.0
    assert fre.oracle_pa(Lag.of(3, 1), 20.0) == 0.05

    vario = VariogramSpec(theta=1.0, alpha=1.0)
    br = BrLatticeModel((5, 5), vario, BrSimConfig.spectral(200), spacing=0.5)
    grid_lag = Lag.of(2, 0)  # physical distance 1.0
    assert br.oracle_limit(grid_lag) == br_extremogram(Lag.of(1.0, 0.0), vario)
    assert br.sites.shape == (25, 2)

    ppm = PointProcessModel((0, 5, 0, 5), CountRule.fixed(50),
                            FieldSource.frechet_iid())
    assert ppm.oracle_limit(Lag.of(1.0, 0.0)) == 0.0
    assert ppm.oracle_pa(Lag.of(1.0, 0.0), 10.0) == 0.1
    assert "point-field" in ppm.describe()


def test_centered_grid_sites():
    sites = centered_grid_sites((3, 3), 2.0)
    assert sites.shape == (9, 2)
    assert np.allclose(sites.mean(axis=0), 0.0)
    assert tuple(sites[0]) == (-2.0, -2.0)
    assert tuple(sites[-1]) == (2.0, 2.0)
    # row-major: second site advances y first
    assert tuple(sites[1]) == (-2.0, 0.0)


def test_rate_check_requires_quantile_rule():
    with pytest.raises(DomainError):
        clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY,
                       ThresholdRule.absolute(5.0), LAT, (1, 0), (10, 20),
                       n_reps=10)


def test_rate_check_slope_near_minus_one():
    rc = clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                        (1, 0), (12, 24), n_reps=150, seed=0)
    assert rc.sizes == (12, 24) and rc.d == 2
    assert rc.ref_lag == Lag.of(1, 0)
    assert rc.variances.shape == (2,) and rc.means.shape == (2,)
    assert rc.variances[1] < rc.variances[0]
    assert -1.6 < rc.slope < -0.5


def test_rate_check_single_size_has_no_slope():
    rc = clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                        (1, 0), [16], n_reps=20, seed=1)
    assert rc.slope is None and rc.sizes == (16,)
    with pytest.raises(ValueError):
        clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                       (1, 0), [], n_reps=10)


def test_rate_check_equals_per_replicate_reference():
    rc = clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                        (1, 0), (10, 20), n_reps=40, seed=2)
    rows = [
        np.array([
            lattice_ese(FrechetModel((n, n)).simulate(derive_seed(2, n, r)),
                        RAY, RAY, Q90, [Lag.of(1, 0)]).rho_hat[0]
            for r in range(40)
        ])
        for n in (10, 20)
    ]
    variances = np.array([v.var(ddof=1) for v in rows])
    assert np.array_equal(rc.variances, variances)
    assert np.array_equal(rc.means, np.array([v.mean() for v in rows]))
    x = np.log(np.array([10.0, 20.0]) ** 2)
    assert rc.slope == float(np.polyfit(x, np.log(variances), 1)[0])


def test_rate_check_rejects_zero_replicates():
    with pytest.raises(ValueError):
        clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                       (1, 0), (10,), n_reps=0)
