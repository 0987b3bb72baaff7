"""Dispatch, permutation bands, Monte Carlo harness, rate check."""
import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from extremogram import (
    BrLatticeModel,
    BrSimConfig,
    DegenerateDenominator,
    DomainError,
    EmptyField,
    EstimatorConfig,
    ExtremeSet,
    FactorizationFailure,
    FrechetModel,
    KernelSpec,
    Lag,
    LagOutOfRange,
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
    kernel_ese_by_distance,
    kernel_tau_hat,
    lattice_ese,
    lattice_ese_by_distance,
    mc_study,
    mma1_extremogram,
    mma1_pa_extremogram,
    permutation_bands,
    run_estimator,
    sim_frechet_iid,
    sim_mma,
    sim_point_field,
)
import extremogram
from extremogram import oracles, simulate
from extremogram.inference import _CHUNK_BYTES, estimator_plan
from extremogram.kernel import KernelPlan
from extremogram.lattice import LatticePlan

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
    # the lattice estimate would ignore either, yet its label would name it
    for extra in (dict(kernel=KernelSpec.box(1.0)), dict(nu=5.0)):
        with pytest.raises(ValueError, match="kernel mode only"):
            EstimatorConfig(mode="lattice", **extra)
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


def _points60():
    return sim_point_field((0, 8, 0, 8), CountRule.fixed(60), FieldSource.frechet_iid(), seed=7)


LAGS3 = [Lag.of(1, 0), Lag.of(0, 1), Lag.of(2, 0)]
LAT_BD = EstimatorConfig(mode="lattice", by_distance=True)
BOUNDED = ExtremeSet(1.0, 3.0)
KBOX = EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.5))

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
    "kernel": (_points60, RAY, RAY, Q90, KBOX, [Lag.of(1.0, 0.0), Lag.of(0.5, 0.5)], 100),
    "kernel-by-distance": (_points60, RAY, RAY, Q90,
                           EstimatorConfig(mode="kernel", kernel=KernelSpec.epanechnikov(1.5),
                                           by_distance=True),
                           [1.0, 2.0], 100),
    # continuous weights, so estimating a shuffle with A and B swapped changes the band
    "kernel-bounded-a-known-nu": (_points60, BOUNDED, RAY, Q90,
                                  EstimatorConfig(mode="kernel", nu=0.8,
                                                  kernel=KernelSpec.epanechnikov(1.5)),
                                  [Lag.of(1.0, 0.0), Lag.of(0.5, 0.5)], 100),
    # no pair falls in a 1e-6 support: every shuffle estimates 0
    "kernel-degenerate": (_points60, RAY, RAY, Q90,
                          EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1e-6)),
                          [Lag.of(1.0, 0.0)], 100),
    # 1600 points are shuffled in several chunks; 130 leaves a partial one
    "kernel-chunk-remainder": (
        lambda: sim_point_field((0, 40, 0, 40), CountRule.fixed(1600),
                                FieldSource.frechet_iid(), seed=8),
        RAY, RAY, Q90, EstimatorConfig(mode="kernel", kernel=KernelSpec.box(0.8)),
        [Lag.of(1.0, 0.0), Lag.of(0.0, 2.0)], 130),
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
    if case.endswith("chunk-remainder"):
        chunk = _CHUNK_BYTES // (8 * data.values.size)
        assert 1 < chunk < n_perm and n_perm % chunk != 0
    band = permutation_bands(data, set_a, set_b, rule, config, lags, n_perm=n_perm, seed=7)
    if case == "kernel-degenerate":
        assert band.lo == band.hi == 0.0 and band.observed.bandwidth_degenerate
    stack = np.vstack([
        run_estimator(_shuffled(data, derive_rng(7, p)), set_a, set_b, rule,
                      config, lags).rho_hat
        for p in range(n_perm)
    ])
    # the levels of the default level=0.95; alpha / 2 is 0.025000000000000022,
    # which interpolates differently from 0.025 between distinct neighbours
    alpha = 1.0 - 0.95
    lo, hi = np.quantile(stack.ravel(), [alpha / 2.0, 1.0 - alpha / 2.0])
    col_lo = np.quantile(stack, alpha / 2.0, axis=0)
    col_hi = np.quantile(stack, 1.0 - alpha / 2.0, axis=0)
    assert band.lo == lo and band.hi == hi
    assert band.per_lag == tuple(zip(col_lo.tolist(), col_hi.tolist()))
    assert np.array_equal(band.observed.rho_hat,
                          run_estimator(data, set_a, set_b, rule, config, lags).rho_hat)


def _count_builds(monkeypatch, cls, built):
    """Record the class name of every ``cls`` built, however it is bound."""
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(cls.__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


@pytest.mark.parametrize("case", ["vector-lags", "by-distance", "kernel", "kernel-by-distance"])
def test_band_builds_one_plan(case, monkeypatch):
    make, set_a, set_b, rule, config, lags, n_perm = BAND_CASES[case]
    data = make()
    built = []
    _count_builds(monkeypatch, LatticePlan, built)
    _count_builds(monkeypatch, KernelPlan, built)
    permutation_bands(data, set_a, set_b, rule, config, lags, n_perm=n_perm, seed=7)
    assert built == ["LatticePlan" if config.mode == "lattice" else "KernelPlan"]


def _assert_same_estimate(a, b):
    for name in ("rho_hat", "pair_count", "exceed_count", "distances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.lags == b.lags


ESTIMATORS = {
    ("lattice", False): lattice_ese,
    ("lattice", True): lattice_ese_by_distance,
    ("kernel", False): kernel_ese,
    ("kernel", True): kernel_ese_by_distance,
}


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_a_prebuilt_plan_changes_no_estimate(case):
    make, set_a, set_b, rule, config, lags, _ = BAND_CASES[case]
    data = make()
    plan = estimator_plan(data, config, lags)
    _assert_same_estimate(run_estimator(data, set_a, set_b, rule, config, lags, plan=plan),
                          run_estimator(data, set_a, set_b, rule, config, lags))
    estimate = ESTIMATORS[config.mode, config.by_distance]
    if config.mode == "lattice":
        _assert_same_estimate(estimate(data, set_a, set_b, rule, lags, plan=plan),
                              estimate(data, set_a, set_b, rule, lags))
        return
    args = (data, set_a, set_b, rule, config.kernel)
    _assert_same_estimate(estimate(*args, lags, config.nu, plan=plan),
                          estimate(*args, lags, config.nu))
    with_plan = kernel_tau_hat(*args, plan.lags, config.nu, plan=plan)
    without = kernel_tau_hat(*args, plan.lags, config.nu)
    for name in ("tau", "pair_count", "exceed_count"):
        assert np.array_equal(getattr(with_plan, name), getattr(without, name)), name
    assert with_plan.lags == without.lags
    assert with_plan.degenerate == without.degenerate


def test_bands_refuse_a_field_of_the_wrong_kind():
    with pytest.raises(DomainError):
        permutation_bands(_points60(), RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_perm=100)
    with pytest.raises(DomainError):
        permutation_bands(_mma15(), RAY, RAY, Q90, KBOX, [Lag.of(1.0, 0.0)], n_perm=100)


@pytest.mark.parametrize("n_points", [0, 1])
def test_kernel_by_distance_on_too_few_points_is_an_empty_field(n_points):
    pf = PointField(np.full((n_points, 2), 1.0), np.full(n_points, 2.0), (0, 2, 0, 2))
    kbd = EstimatorConfig(mode="kernel", kernel=KBOX.kernel, by_distance=True)
    with pytest.raises(EmptyField):
        kernel_ese_by_distance(pf, RAY, RAY, Q90, KBOX.kernel, [1.0])
    with pytest.raises(EmptyField):
        run_estimator(pf, RAY, RAY, Q90, kbd, [1.0])


@pytest.mark.parametrize("by_distance", [False, True])
def test_mc_study_counts_point_draws_too_small_to_pair(by_distance):
    # intensity 3 on the unit square: about one draw in five holds 0 or 1 points
    model = PointProcessModel((0, 1, 0, 1), CountRule.poisson(3.0), FieldSource.frechet_iid())
    config = EstimatorConfig(mode="kernel", kernel=KernelSpec.box(1.0), by_distance=by_distance)
    lags = [0.3] if by_distance else [Lag.of(0.3, 0.0)]
    s = mc_study(model, RAY, RAY, Q90, config, lags, n_reps=20, seed=0)
    small = sum(model.simulate(derive_seed(0, r)).n_points < 2 for r in range(20))
    assert small > 0 and s.n_failed >= small
    assert s.n_used + s.n_failed == 20
    assert s.failed_by_reason["EmptyField"] >= small
    assert sum(s.failed_by_reason.values()) == s.n_failed


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


def test_bands_with_no_lags_are_a_value_error():
    # before, a max distance below 1 died in np.quantile with an IndexError
    kbd = EstimatorConfig(mode="kernel", kernel=KBOX.kernel, by_distance=True)
    cases = [(_mma15(), LAT_BD, 0.5), (_mma15(), LAT, []), (_points60(), KBOX, []),
             (_points60(), kbd, [])]
    for data, config, lags in cases:
        with pytest.raises(ValueError, match="no lags"):
            permutation_bands(data, RAY, RAY, Q90, config, lags, n_perm=100)


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
    assert s.failed_by_reason == {}
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


def test_mc_study_keeps_the_limit_when_the_finite_m_value_is_undefined():
    # every site exceeds a tiny absolute threshold, so m = 1: no PA value
    model = MmaModel((12, 12), WeightSpec.indicator_ball(1.0))
    s = mc_study(model, RAY, RAY, ThresholdRule.absolute(1e-9),
                 EstimatorConfig(mode="lattice", by_distance=True), 2.0, n_reps=3, seed=0)
    assert s.n_used == 3 and s.mean_m == 1.0
    assert s.oracle_pa is None
    assert s.oracle_limit.tolist() == [model.law.oracle_limit(lag) for lag in s.lags]
    assert s.oracle_limit.tolist() == [0.4, 0.4, 0.2]


def test_mc_study_counts_failures():
    s = mc_study(ConstantModel(), RAY, RAY, Q90, LAT, [Lag.of(1, 0)],
                 n_reps=5, seed=0)
    assert s.n_used == 0 and s.n_failed == 5
    assert s.failed_by_reason == {"DegenerateDenominator": 5}
    assert s.lags == () and s.mean.size == 0
    assert math.isnan(s.mean_m)
    with pytest.raises(ValueError):
        mc_study(ConstantModel(), RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_reps=0)


def _calls_under(monkeypatch, owner, name, caller):
    """Count calls of ``owner.name`` made while ``caller`` is running."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not caller.__code__:
            frame = frame.f_back
        calls.append(frame is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("config", [BrSimConfig.spectral(200), BrSimConfig.gaussian_max(200)])
def test_br_model_factors_once_per_study(config, monkeypatch):
    calls = _calls_under(monkeypatch, simulate, "_psd_factor", BrLatticeModel.simulate)
    model = BrLatticeModel((8, 8), VariogramSpec(0.5, 2.0), config, spacing=0.25)
    s = mc_study(model, RAY, RAY, Q90, EstimatorConfig(mode="lattice", by_distance=True),
                 1.0, n_reps=8, seed=0)
    assert s.n_used == 8
    assert calls == [True]


def test_mma_model_sorts_its_shells_once_per_study(monkeypatch):
    # every support of the study, for the draws and the oracles alike
    calls = _calls_under(monkeypatch, WeightSpec, "support", mc_study)
    model = MmaModel((12, 12), WeightSpec.geometric(0.5))
    s = mc_study(model, RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_reps=4, seed=0)
    assert s.n_used == 4 and s.oracle_limit is not None and s.oracle_pa is not None
    assert calls == [True]


def test_br_study_evaluates_each_limit_once(monkeypatch):
    # the finite-m value needs only tau_m and p_m, not the limit again
    calls = _calls_under(monkeypatch, oracles, "br_extremogram", mc_study)
    model = BrLatticeModel((6, 6), VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200))
    s = mc_study(model, RAY, RAY, Q90, EstimatorConfig(mode="lattice", by_distance=True),
                 2.0, n_reps=2, seed=0)
    assert s.oracle_limit is not None and s.oracle_pa is not None
    assert calls == [True] * len(s.lags)


@pytest.mark.parametrize("lag", [Lag.of(1), Lag.of(1, 0, 0), Lag.of(0.5, 0)])
def test_mma_law_refuses_a_lag_off_its_lattice(lag):
    law = MmaModel((10, 10), WeightSpec.indicator_ball(1.0)).law
    with pytest.raises(ValueError, match="2-d MMA lags"):
        law.oracle_limit(lag)
    with pytest.raises(ValueError, match="2-d MMA lags"):
        law.oracle_pa(lag, 10.0)


@pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -1.0])
def test_br_model_refuses_a_spacing_that_is_not_finite_and_positive(spacing):
    with pytest.raises(ValueError, match="spacing must be finite and positive"):
        BrLatticeModel((4, 4), VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200),
                       spacing=spacing)


def test_a_br_model_that_cannot_factor_fails_every_replicate(monkeypatch):
    def indefinite(build):
        raise FactorizationFailure("covariance is not PSD within tolerance")

    monkeypatch.setattr(simulate, "_psd_factor", indefinite)
    model = BrLatticeModel((6, 6), VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200))
    s = mc_study(model, RAY, RAY, Q90, LAT, [Lag.of(1, 0)], n_reps=3, seed=0)
    assert s.n_used == 0 and s.n_failed == 3
    assert s.failed_by_reason == {"FactorizationFailure": 3}


def test_mc_study_raises_configuration_errors():
    # a lag beyond the 6x6 grid fails every replicate: it is not a draw failure
    with pytest.raises(LagOutOfRange):
        mc_study(FrechetModel((6, 6)), RAY, RAY, Q90, LAT, [Lag.of(9, 0)],
                 n_reps=3, seed=0)


def test_mc_study_iid_mean_near_pa_level():
    # iid field: rho at any nonzero lag estimates 1/m
    s = mc_study(FrechetModel((25, 25)), RAY, RAY, Q90, LAT,
                 [Lag.of(1, 0)], n_reps=60, seed=4)
    assert abs(s.mean[0] - 0.1) < 0.03


def test_model_oracles():
    mma = MmaModel((10, 10), WeightSpec.indicator_ball(1.0))
    assert mma.law.oracle_limit(Lag.of(1, 0)) == pytest.approx(0.4, abs=1e-12)
    fre = FrechetModel((10, 10))
    assert fre.law.oracle_limit(Lag.of(0, 0)) == 1.0
    assert fre.law.oracle_limit(Lag.of(3, 1)) == 0.0
    assert fre.law.oracle_pa(Lag.of(3, 1), 20.0) == 0.05

    vario = VariogramSpec(theta=1.0, alpha=1.0)
    br = BrLatticeModel((5, 5), vario, BrSimConfig.spectral(200), spacing=0.5)
    grid_lag = Lag.of(2, 0)  # physical distance 1.0
    assert br.law.oracle_limit(grid_lag) == br_extremogram(Lag.of(1.0, 0.0), vario)
    assert br.sites.shape == (25, 2)

    ppm = PointProcessModel((0, 5, 0, 5), CountRule.fixed(50),
                            FieldSource.frechet_iid())
    assert ppm.law.oracle_limit(Lag.of(1.0, 0.0)) == 0.0
    assert ppm.law.oracle_pa(Lag.of(1.0, 0.0), 10.0) == 0.1
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


def test_rate_check_raises_a_draw_failure():
    with pytest.raises(DegenerateDenominator):
        clt_rate_check(lambda n: ConstantModel(), RAY, RAY, Q90, LAT,
                       (1, 0), (6, 8), n_reps=3)


def test_rate_check_refuses_repeated_sizes():
    # a repeated size would rerun the same replicate streams
    with pytest.raises(ValueError, match="distinct"):
        clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                       (1, 0), (10, 10), n_reps=3)


def test_rate_check_rejects_zero_replicates():
    with pytest.raises(ValueError):
        clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90, LAT,
                       (1, 0), (10,), n_reps=0)


def _record_calls(monkeypatch, name, calls):
    """Wrap ``<module>.<function>`` at every package attribute bound to it,
    as a tracer of the package does, appending ``name`` to ``calls`` on
    each call."""
    mod_name, fn_name = name.split(".")
    original = getattr(sys.modules[f"extremogram.{mod_name}"], fn_name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_key, mod in list(sys.modules.items()):
        if mod is not None and mod_key.split(".")[0] == "extremogram":
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, wrapper)


def test_the_benchmark_tracer_binds_every_traced_name():
    # Tracer.install raises for a traced name the package no longer binds,
    # and then every benchmark run fails
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install(extremogram)
        patches = list(t._patches)
    finally:
        t.uninstall()
    assert len(patches) >= len(tracer.TRACED)
    assert all(getattr(target, key) is original for target, key, original in patches)


def test_traced_call_chains_reach_the_declared_estimators(monkeypatch):
    # the benchmark's declared spans fire only through these module attributes
    calls = []
    _record_calls(monkeypatch, "kernel.kernel_tau_hat", calls)
    _record_calls(monkeypatch, "lattice.lattice_ese_by_distance", calls)
    kernel_ese_by_distance(_points60(), RAY, RAY, Q90, KBOX.kernel, [1.0])
    assert calls == ["kernel.kernel_tau_hat"]
    calls.clear()
    run_estimator(_mma15(), RAY, RAY, Q90, LAT_BD, 2.0)
    assert calls == ["lattice.lattice_ese_by_distance"]
    calls.clear()
    permutation_bands(_mma15(), RAY, RAY, Q90, LAT_BD, 2.0, n_perm=100, seed=0)
    assert calls == ["lattice.lattice_ese_by_distance"]
