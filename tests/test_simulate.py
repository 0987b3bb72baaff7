"""Simulator laws: margins, determinism, weight handling."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from extremogram import (
    BrLatticeModel,
    BrPlan,
    BrSimConfig,
    CountRule,
    EstimatorConfig,
    ExtremeSet,
    FieldSource,
    FrechetModel,
    Lag,
    LatticeField,
    MmaModel,
    MmaPlan,
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
from extremogram.fields import derive_rng
from extremogram.inference import centered_grid_sites
from extremogram.simulate import (
    _PHI_CLIP,
    _TIE_MARGIN,
    _frechet,
    _pair_distances,
    _psd_factor,
    _sim_br_gaussian_max,
)


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
    with pytest.raises(ValueError, match="distinct"):
        WeightSpec(kind="explicit", mapping=(((0, 0), 1.0), ((0, 0), 2.0)))


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


def test_mma_draws_keep_their_bits():
    # seed-to-bits contract: SHA-256 of each draw's values, as the
    # all-shells loop computes them, with or without a prebuilt plan
    cases = {
        "geometric(0.5) 40x40": ((40, 40), WeightSpec.geometric(0.5), 1),
        "geometric(0.8) 12x12": ((12, 12), WeightSpec.geometric(0.8), 2),
        "indicator_ball(1) 20x20": ((20, 20), WeightSpec.indicator_ball(1), 3),
        "indicator_ball(3) 20x20": ((20, 20), WeightSpec.indicator_ball(3), 4),
        "explicit, max off the origin, 15x15": (
            (15, 15),
            WeightSpec.explicit({(0, 0): 1.0, (1, -2): 2.0, (-3, 1): 0.5, (2, 2): 0.75}),
            5,
        ),
        "geometric(0.5) 1-d 60": ((60,), WeightSpec.geometric(0.5), 6),
        "geometric(0.5) 3-d 4x4x4": ((4, 4, 4), WeightSpec.geometric(0.5), 7),
    }
    expected = {
        "geometric(0.5) 40x40": "f413a77d290afd1ab3ebb313341824b70de4fe5d0f688a07329d9fd347e1d38c",
        "geometric(0.8) 12x12": "2da147badb2ac23202cd5bb76947c1c4b8b578579bd0e61504a7d5efef83ae1a",
        "indicator_ball(1) 20x20": "910d93498ecdc6cedda841d3969068498d7d16ac72f92f2a8d0201d9b59c309d",
        "indicator_ball(3) 20x20": "cffe2a0cd338c13e8e1bc96c6f1616f3b56f96a8c9eb17c757ef17db8aa1daf3",
        "explicit, max off the origin, 15x15": "58c18a31389e9c5f10993feb7b2a96cc6b89d693ceccececc4122dad303aa098",
        "geometric(0.5) 1-d 60": "d248ff8af1cc756aa6144895b022d3169c538080d75b48e62f381cd31aee88f3",
        "geometric(0.5) 3-d 4x4x4": "ddd4b98c98da8ec75bef405026f75d9e346009958abe8a9dfafd08b422e48386",
    }
    for plan in (lambda w, d: None, MmaPlan):
        digests = {
            name: hashlib.sha256(
                sim_mma(dims, w, seed, plan=plan(w, len(dims))).values.tobytes()
            ).hexdigest()
            for name, (dims, w, seed) in cases.items()
        }
        assert digests == expected


def _sim_mma_all_shells(dims, weights, seed):
    """Reference: the same noise, every equal-weight shell, lightest first."""
    d = len(dims)
    offsets, wts = weights.support(d)
    pad = tuple(int(np.abs(offsets[:, i]).max()) for i in range(d))
    noise = _frechet(derive_rng(seed), tuple(n + 2 * p for n, p in zip(dims, pad)))
    out = np.zeros(dims)
    order = np.argsort(wts, kind="stable")
    offsets = offsets[order]
    wts = wts[order]
    boundaries = np.flatnonzero(np.diff(wts)) + 1
    for group in np.split(np.arange(len(wts)), boundaries):
        shell = np.zeros(dims)
        for k in group:
            sl = tuple(
                slice(p - int(o), p - int(o) + n)
                for p, o, n in zip(pad, offsets[k], dims)
            )
            np.maximum(shell, noise[sl], out=shell)
        np.maximum(out, wts[group[0]] * shell, out=out)
    return out.ravel()


@st.composite
def _mma_cases(draw):
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=d, max_size=d)))
    # a few shared weight values make multi-offset shells
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))
    offset = st.tuples(*[st.integers(-3, 3)] * d)
    weights = draw(st.one_of(
        st.builds(WeightSpec.explicit, st.dictionaries(offset, weight, min_size=1, max_size=12)),
        st.builds(WeightSpec.geometric, st.floats(0.05, 0.95), st.floats(0.5, 4.0)),
        st.builds(WeightSpec.indicator_ball, st.floats(0.0, 3.0)),
    ))
    return dims, weights, draw(st.integers(0, 2**32 - 1))


@given(_mma_cases())
@settings(max_examples=150, deadline=None)
def test_mma_pruned_shells_equal_all_shells_property(case):
    dims, weights, seed = case
    assert np.array_equal(sim_mma(dims, weights, seed).values, _sim_mma_all_shells(dims, weights, seed))


def test_mma_empty_grid_names_the_grid():
    for dims, w in [((0, 5), WeightSpec.geometric(0.5)),
                    ((0, 5), WeightSpec.indicator_ball(0)),
                    ((4, 0, 2), WeightSpec.indicator_ball(1)),
                    ((0,), WeightSpec.explicit({(2,): 1.0}))]:
        with pytest.raises(ValueError, match="all grid sides must be >= 1"):
            sim_mma(dims, w, seed=0)


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
    # spectral draw keep fixed bytes, with or without a prebuilt plan
    sites = centered_grid_sites((6, 6), 0.5)
    gmax_model = (sites, VariogramSpec(1.0, 2.0), BrSimConfig.gaussian_max(200))
    spec_model = (sites, VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200))
    for plan in (lambda *model: None, BrPlan):
        gmax = sim_brown_resnick(*gmax_model, seed=3, plan=plan(*gmax_model))
        spec = sim_brown_resnick(*spec_model, seed=3, plan=plan(*spec_model))
        digest = hashlib.sha256(gmax.values.tobytes() + spec.values.tobytes()).hexdigest()
        assert digest == "a35c60ce3f0118dfebceef456a3e032ceb3f7f766f4e735185503492b1009420"


def test_a_plan_for_other_inputs_is_refused():
    w = WeightSpec.geometric(0.5)
    plan = MmaPlan(w, 2)
    with pytest.raises(ValueError, match="MmaPlan"):
        sim_mma((5, 5), WeightSpec.geometric(0.6), 0, plan=plan)
    with pytest.raises(ValueError, match="MmaPlan"):
        sim_mma((5, 5, 5), w, 0, plan=plan)
    sites = centered_grid_sites((4, 4), 0.5)
    vario = VariogramSpec(0.5, 2.0)
    for config in (BrSimConfig.spectral(200), BrSimConfig.gaussian_max(200)):
        plan = BrPlan(sites, vario, config)
        others = [
            (sites + 0.1, vario, config),
            (sites[:-1], vario, config),
            (sites, VariogramSpec(0.5, 1.0), config),
            (sites, vario, BrSimConfig.spectral(300)),
            (sites, vario, BrSimConfig.gaussian_max(300)),
        ]
        for other in others:
            with pytest.raises(ValueError, match="BrPlan"):
                sim_brown_resnick(*other, seed=0, plan=plan)
        # a plan keeps its own copy of the sites
        moved = sites.copy()
        plan = BrPlan(moved, vario, config)
        moved[0] += 1.0
        with pytest.raises(ValueError, match="BrPlan"):
            sim_brown_resnick(moved, vario, config, seed=0, plan=plan)


@pytest.mark.parametrize("draw", [
    lambda dims: LatticeField(dims, np.ones(12)),
    lambda dims: sim_mma(dims, WeightSpec.indicator_ball(1), 0),
    lambda dims: sim_frechet_iid(dims, 0),
    lambda dims: MmaModel(dims, WeightSpec.indicator_ball(1)).simulate(0),
    lambda dims: FrechetModel(dims).simulate(0),
    lambda dims: BrLatticeModel(dims, VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200)),
])
def test_a_fractional_grid_side_is_refused(draw):
    for dims in [(3.5, 4), (3.9, 4), (3.0, 4)]:
        with pytest.raises(ValueError, match=r"grid sides must be integers, got \(3\.[059], 4\)"):
            draw(dims)


def test_numpy_integer_grid_sides_are_accepted():
    dims = (np.int64(3), np.int32(4))
    assert sim_mma(dims, WeightSpec.indicator_ball(1), 0).dims == (3, 4)
    assert LatticeField(dims, np.ones(12)).dims == (3, 4)


def test_brown_resnick_lattice_needs_two_sides():
    for dims in [(4, 4, 4), (5,)]:
        with pytest.raises(ValueError, match=r"Brown-Resnick lattice needs 2 sides, got dims"):
            BrLatticeModel(dims, VariogramSpec(0.5, 2.0), BrSimConfig.spectral(200))


class _FixedNormals:
    """Stands in for a Generator whose standard normals are the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


def _gaussian_max_reference(sites, vario, config, rng):
    """Transform every Gaussian to Frechet, then take each site's max."""
    n_rep = config.n_gaussians
    d_n = (1.0 / math.log(n_rep)) ** (1.0 / vario.alpha)
    factor = _psd_factor(1.0 / (1.0 + vario.delta(d_n * _pair_distances(sites))))
    gauss = factor @ rng.standard_normal((len(sites), n_rep))
    with np.errstate(divide="ignore"):
        frechet = -1.0 / np.log(np.minimum(ndtr(gauss), _PHI_CLIP))
    return frechet.max(axis=1) / n_rep


@st.composite
def _gaussian_max_cases(draw):
    coord = st.floats(0.0, 5.0)
    points = draw(st.lists(st.tuples(coord, coord), max_size=25))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    sites = np.array(points, dtype=float).reshape(-1, 2)
    vario = VariogramSpec(draw(st.floats(0.1, 3.0)), draw(st.floats(0.2, 2.0)))
    config = BrSimConfig.gaussian_max(draw(st.integers(2, 200)))
    return sites, vario, config, draw(st.integers(0, 2**32 - 1))


@given(_gaussian_max_cases())
@settings(max_examples=120, deadline=None)
def test_gaussian_max_equals_transform_then_max_property(case):
    sites, vario, config, seed = case
    got = sim_brown_resnick(sites, vario, config, seed=seed).values
    assert np.array_equal(got, _gaussian_max_reference(sites, vario, config, derive_rng(seed)))


def test_gaussian_max_transforms_a_near_tie_row_whole():
    # find x whose next float has a lower Phi after the one-site factor
    # sqrt(1 + jitter): there, the transform of the row max is not the max
    # of the transformed row, and only the guarded fallback is exact
    site = np.zeros((1, 2))
    vario = VariogramSpec(1.0, 1.0)
    rng = np.random.default_rng(0)
    for x in rng.uniform(1.0, 2.0, 10_000):
        rows = np.array([[x, np.nextafter(x, np.inf), -1.0]])
        config = BrSimConfig.gaussian_max(rows.shape[1])
        expected = _gaussian_max_reference(site, vario, config, _FixedNormals(rows))
        gauss = _psd_factor(np.ones((1, 1))) @ rows
        shortcut = -1.0 / np.log(np.minimum(ndtr(gauss.max()), _PHI_CLIP)) / rows.shape[1]
        if shortcut != expected[0]:
            break
    else:
        pytest.fail("no near-tie row found in 10,000 tries")
    got = _sim_br_gaussian_max(BrPlan(site, vario, config), _FixedNormals(rows)).values
    assert np.array_equal(got, expected)


def test_ndtr_is_monotone_across_the_tie_margin():
    # the gaussian_max shortcut rests on this: a scipy whose ndtr can drop
    # across a gap of _TIE_MARGIN would make it inexact
    x = np.random.default_rng(0).uniform(-38.0, 9.0, 1_000_000)
    for gap in (_TIE_MARGIN, 3 * _TIE_MARGIN, 1e3 * _TIE_MARGIN):
        assert np.all(ndtr(x + gap) >= ndtr(x)), gap


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
    assert spec.clip_fraction is None
    gmax = sim_brown_resnick(sites, vario, BrSimConfig.gaussian_max(), seed=0)
    assert gmax.method == "gaussian_max"
    assert gmax.truncation_fraction is None
    assert gmax.clip_fraction == 0.0  # the max of 1600 normals stays far below 8
    # Phi(9) rounds past the clip: of two nearly independent sites, the
    # first is capped there
    far_apart = np.array([[0.0, 0.0], [100.0, 0.0]])
    rows = np.array([[9.0, 0.0, -1.0], [1.0, 0.5, 2.0]])
    plan = BrPlan(far_apart, vario, BrSimConfig.gaussian_max(3))
    clipped = _sim_br_gaussian_max(plan, _FixedNormals(rows))
    assert clipped.clip_fraction == 0.5
    assert clipped.values[0] == -1.0 / np.log(_PHI_CLIP) / 3
    empty = sim_brown_resnick(np.empty((0, 2)), vario, BrSimConfig.gaussian_max(), seed=0)
    assert empty.values.shape == (0,) and empty.clip_fraction == 0.0


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
