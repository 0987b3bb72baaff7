"""Simulator laws: margins, determinism, weight handling."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extremogram import (
    BrLatticeModel,
    BrSimConfig,
    CountRule,
    EstimatorConfig,
    ExtremeSet,
    FieldSource,
    Lag,
    ThresholdRule,
    VariogramSpec,
    WeightSpec,
    mc_study,
    sim_brown_resnick,
    sim_frechet_iid,
    sim_gaussian_increments,
    sim_mma,
    sim_point_field,
)
from extremogram.inference import centered_grid_sites
from extremogram.simulate import _pair_distances


def frechet_cdf(x, scale=1.0):
    return np.exp(-scale / np.asarray(x, dtype=float))


def test_frechet_iid_margins():
    field = sim_frechet_iid((100, 100), seed=5)
    ks = stats.kstest(field.values, frechet_cdf).statistic
    assert ks < 0.02, ks


def test_frechet_iid_deterministic():
    a = sim_frechet_iid((10, 10), seed=1)
    b = sim_frechet_iid((10, 10), seed=1)
    c = sim_frechet_iid((10, 10), seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_weight_spec_ball_support():
    w = WeightSpec.indicator_ball(1.0)
    offsets, weights = w.support(2)
    assert len(offsets) == 5  # origin + 4 axis neighbours
    assert w.total_weight(2) == 5.0
    assert np.all(weights == 1.0)


def test_weight_spec_geometric_truncation():
    g = WeightSpec.geometric(0.5)
    # tail bound: dropped mass below 1e-12 of the total
    r = g.truncation(2)
    assert r >= 40
    total = g.total_weight(2)
    looser = WeightSpec.geometric(0.5, truncation_radius=r + 10).total_weight(2)
    assert abs(total - looser) <= 1e-11 * total


def test_weight_spec_explicit():
    w = WeightSpec.explicit({(0, 0): 1.0, (1, 0): 0.5})
    offsets, weights = w.support(2)
    assert len(offsets) == 2
    assert w.total_weight(2) == 1.5


def test_mma_marginal_law():
    """P(X <= x) = exp(-W_tot/x): the padded convolution sees full support."""
    w = WeightSpec.indicator_ball(1.0)
    field = sim_mma((120, 120), w, seed=0)
    # sites 3 apart share no noise terms, so the thinned sample is iid
    thinned = field.grid[::3, ::3].ravel()
    ks = stats.kstest(thinned, lambda x: frechet_cdf(x, scale=5.0)).statistic
    assert ks < 0.034, ks  # 5% critical value at n = 1600


def test_mma_deterministic_and_dependent():
    w = WeightSpec.indicator_ball(1.0)
    a = sim_mma((25, 25), w, seed=3)
    assert np.array_equal(a.values, sim_mma((25, 25), w, seed=3).values)
    # neighbouring sites share noise terms, so ties must occur
    g = a.grid
    shares = np.mean(g[1:, :] == g[:-1, :])
    assert shares > 0.1


def test_gaussian_increments_pinned_origin():
    sites = centered_grid_sites((5, 5), 1.0)
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    w = sim_gaussian_increments(sites, vario, seed=4)
    origin = np.flatnonzero((sites == 0).all(axis=1))
    assert w[origin[0]] == 0.0
    assert np.all(np.isfinite(w))


def test_gaussian_increments_variogram_scaling():
    # Var(W_s) = 2*delta(s) for the origin-pinned field
    sites = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    vario = VariogramSpec(theta=0.5, alpha=1.0)
    draws = np.array([
        sim_gaussian_increments(sites, vario, seed=s) for s in range(4000)
    ])
    var1 = draws[:, 1].var()
    var2 = draws[:, 2].var()
    assert abs(var1 - 2 * vario.delta(1.0)) < 0.08, var1
    assert abs(var2 - 2 * vario.delta(2.0)) < 0.15, var2


def test_brown_resnick_gaussian_max_margins_exact_law():
    """The rescaled max of N Gaussian copies has exact unit-Frechet margins."""
    sites = centered_grid_sites((20, 20), 1.0)
    vario = VariogramSpec(theta=0.5, alpha=1.0)
    config = BrSimConfig.gaussian_max(n_gaussians=400)
    values = np.concatenate([
        sim_brown_resnick(sites, vario, config, seed=s).values for s in range(25)
    ])
    ks = stats.kstest(values, frechet_cdf).statistic
    assert ks < 0.02, ks


def test_gaussian_max_follows_the_variogram():
    sites = centered_grid_sites((4, 4), 1.0)
    config = BrSimConfig.gaussian_max(n_gaussians=100)

    def draw(theta, alpha):
        return sim_brown_resnick(sites, VariogramSpec(theta, alpha), config, seed=2).values

    assert not np.array_equal(draw(0.5, 2.0), draw(1.0, 2.0))
    assert not np.array_equal(draw(0.5, 2.0), draw(1.0, 1.0))


def test_brown_resnick_draws_keep_their_bits():
    # seed-to-bits contract: a gaussian_max draw at theta=1, alpha=2 and a
    # spectral draw keep fixed bytes
    sites = centered_grid_sites((6, 6), 0.5)
    gmax = sim_brown_resnick(sites, VariogramSpec(1.0, 2.0), BrSimConfig.gaussian_max(200), seed=3)
    spec = sim_brown_resnick(sites, VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200), seed=3)
    digest = hashlib.sha256(gmax.values.tobytes() + spec.values.tobytes()).hexdigest()
    assert digest == "a35c60ce3f0118dfebceef456a3e032ceb3f7f766f4e735185503492b1009420"


_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30), st.data())
@settings(max_examples=100, deadline=None)
def test_pair_distances_equal_the_broadcast_norm_property(points, data):
    repeat = data.draw(st.sampled_from(points))
    sites = np.array(points + [repeat, (0.0, 0.0)])
    reference = np.linalg.norm(sites[:, None] - sites[None], axis=2)
    assert np.array_equal(_pair_distances(sites), reference)


def test_brown_resnick_spectral_margins_near_origin():
    sites = centered_grid_sites((5, 5), 1.0)
    vario = VariogramSpec(theta=0.5, alpha=1.0)
    config = BrSimConfig.spectral(n_terms=1000)
    values = np.concatenate([
        sim_brown_resnick(sites, vario, config, seed=s).values for s in range(400)
    ])
    # series truncation biases the margins slightly; near the origin the
    # drift term is small and the bias stays within this tolerance
    ks = stats.kstest(values, frechet_cdf).statistic
    assert ks < 0.05, ks


def test_brown_resnick_result_diagnostics():
    sites = centered_grid_sites((4, 4), 1.0)
    vario = VariogramSpec(theta=0.5, alpha=1.0)
    spec = sim_brown_resnick(sites, vario, BrSimConfig.spectral(), seed=0)
    assert spec.method == "spectral"
    assert 0.0 <= spec.truncation_fraction <= 1.0
    gmax = sim_brown_resnick(sites, vario, BrSimConfig.gaussian_max(), seed=0)
    assert gmax.method == "gaussian_max"
    assert gmax.truncation_fraction is None


def test_variogram_spec():
    vario = VariogramSpec(theta=0.5, alpha=1.5)
    assert vario.delta(0.0) == 0.0
    assert vario.delta(2.0) == 0.5 * 2.0**1.5
    with pytest.raises(ValueError):
        VariogramSpec(theta=-1.0, alpha=1.0)
    with pytest.raises(ValueError):
        VariogramSpec(theta=1.0, alpha=2.5)  # alpha beyond (0, 2]


def test_point_field_fixed_count():
    pf = sim_point_field((0, 10, 0, 10), CountRule.fixed(123), FieldSource.frechet_iid(), seed=2)
    assert pf.n_points == 123
    assert pf.intensity_hint == pytest.approx(1.23)
    x0, x1, y0, y1 = pf.region
    assert pf.locations[:, 0].min() >= x0 and pf.locations[:, 0].max() <= x1


def test_point_field_poisson_count():
    counts = [
        sim_point_field((0, 10, 0, 10), CountRule.poisson(2.0), FieldSource.frechet_iid(), seed=s).n_points
        for s in range(200)
    ]
    mean = np.mean(counts)
    # Poisson(200) per draw; the average over 200 draws is tight
    assert abs(mean - 200.0) < 5.0, mean
    assert np.std(counts) > 5.0  # counts actually vary


def test_point_field_brown_resnick_source():
    source = FieldSource.brown_resnick(
        VariogramSpec(theta=0.5, alpha=1.0), BrSimConfig.gaussian_max(n_gaussians=100)
    )
    pf = sim_point_field((0, 4, 0, 4), CountRule.fixed(60), source, seed=8)
    assert pf.n_points == 60
    assert np.all(pf.values > 0)


def test_count_rule_validation():
    with pytest.raises(ValueError):
        CountRule.poisson(0.0)
    with pytest.raises(ValueError):
        CountRule.fixed(-1)


def test_short_spectral_series_warns_at_the_callers_line():
    config = BrSimConfig.spectral(n_terms=20)
    vario = VariogramSpec(theta=1.0, alpha=1.0)
    with pytest.warns(RuntimeWarning, match="n_terms=20") as caught:
        sim_brown_resnick(centered_grid_sites((3, 3), 0.5), vario, config, seed=0)
    assert caught[0].filename == __file__
    with pytest.warns(RuntimeWarning, match="n_terms=20") as caught:
        sim_point_field((0, 2, 0, 2), CountRule.fixed(5),
                        FieldSource.brown_resnick(vario, config), seed=0)
    assert caught[0].filename == __file__
    model = BrLatticeModel((3, 3), vario, config, spacing=0.5)
    with pytest.warns(RuntimeWarning, match="n_terms=20") as caught:
        mc_study(model, ExtremeSet.ray(1.0), ExtremeSet.ray(1.0),
                 ThresholdRule.quantile(0.5), EstimatorConfig(mode="lattice"),
                 [Lag.of(1, 0)], n_reps=1, seed=0)
    assert caught[0].filename == __file__
