"""Lattice estimator: exactness against a double loop, plus invariances."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremogram import (
    DegenerateDenominator,
    DegenerateThreshold,
    ExtremeSet,
    Lag,
    LagOutOfRange,
    LatticeField,
    ThresholdRule,
    derive_rng,
    lag_grid,
    lattice_ese,
    lattice_ese_by_distance,
    resolve_threshold,
    sim_frechet_iid,
    sim_mma,
    WeightSpec,
)
from extremogram import fields
from extremogram.lattice import LatticePlan

RAY = ExtremeSet.ray(1.0)


def brute_force(field, set_a, set_b, rule, lag):
    """Literal double loop over base sites t, pairing (t + h, t)."""
    a_m, m = resolve_threshold(field.values, rule)
    grid = field.grid
    off = lag.int_offset()
    hits = 0
    pairs = 0
    for t in np.ndindex(*field.dims):
        s = tuple(ti + o for ti, o in zip(t, off))
        if all(0 <= si < n for si, n in zip(s, field.dims)):
            pairs += 1
            in_a = bool(set_a.indicator(np.array([grid[s]]), a_m)[0])
            in_b = bool(set_b.indicator(np.array([grid[t]]), a_m)[0])
            if in_a and in_b:
                hits += 1
    denom = float(np.mean(set_a.indicator(field.values, a_m)))
    return hits, pairs, (hits / pairs) / denom


def random_field(dims, seed):
    rng = derive_rng(seed)
    return LatticeField(dims, rng.pareto(1.0, size=int(np.prod(dims))) + 1.0)


def test_exact_match_with_double_loop_2d():
    field = random_field((7, 9), seed=1)
    rule = ThresholdRule.quantile(0.8)
    lags = [Lag.of(1, 0), Lag.of(0, 1), Lag.of(-2, 1), Lag.of(3, -3), Lag.of(0, 0)]
    res = lattice_ese(field, RAY, RAY, rule, lags)
    for i, lag in enumerate(lags):
        hits, pairs, rho = brute_force(field, RAY, RAY, rule, lag)
        assert res.exceed_count[i] == hits
        assert res.pair_count[i] == pairs
        assert res.rho_hat[i] == rho  # bitwise: same reduction order


def test_exact_match_with_double_loop_asymmetric_sets():
    field = random_field((8, 8), seed=2)
    rule = ThresholdRule.quantile(0.7)
    set_a = ExtremeSet(1.0, 3.0)
    set_b = ExtremeSet.ray(2.0)
    for off in [(1, 0), (0, -1), (2, 2)]:
        lag = Lag.of(*off)
        res = lattice_ese(field, set_a, set_b, rule, [lag])
        hits, pairs, rho = brute_force(field, set_a, set_b, rule, lag)
        assert res.exceed_count[0] == hits and res.pair_count[0] == pairs
        assert res.rho_hat[0] == rho


def test_exact_match_1d_and_3d():
    rule = ThresholdRule.quantile(0.75)
    f1 = random_field((40,), seed=3)
    res = lattice_ese(f1, RAY, RAY, rule, [Lag.of(2)])
    assert (res.exceed_count[0], res.pair_count[0]) == brute_force(
        f1, RAY, RAY, rule, Lag.of(2)
    )[:2]
    f3 = random_field((5, 6, 4), seed=4)
    res = lattice_ese(f3, RAY, RAY, rule, [Lag.of(1, -1, 2)])
    assert (res.exceed_count[0], res.pair_count[0]) == brute_force(
        f3, RAY, RAY, rule, Lag.of(1, -1, 2)
    )[:2]


def test_pair_count_formula():
    field = random_field((10, 12), seed=5)
    res = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.9),
                      [Lag.of(3, -4), Lag.of(0, 5)])
    assert res.pair_count[0] == (10 - 3) * (12 - 4)
    assert res.pair_count[1] == 10 * (12 - 5)


def test_zero_lag_is_conditional_containment():
    # at h = 0 with A = B the ratio collapses to 1
    field = random_field((9, 9), seed=6)
    res = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.8), [Lag.of(0, 0)])
    assert res.rho_hat[0] == 1.0


def test_reversal_symmetry_identical_sets():
    """(t+h, t) pairs biject with (t-h, t) pairs when A == B."""
    field = random_field((11, 13), seed=7)
    rule = ThresholdRule.quantile(0.85)
    for off in [(1, 0), (2, -3), (0, 4)]:
        fwd = lattice_ese(field, RAY, RAY, rule, [Lag.of(*off)])
        rev = lattice_ese(field, RAY, RAY, rule, [Lag.of(*off).negate()])
        assert fwd.exceed_count[0] == rev.exceed_count[0]
        assert fwd.rho_hat[0] == rev.rho_hat[0]


def test_absolute_rule_scale_equivariance_is_bitwise():
    # doubling values and threshold multiplies by an exact power of two
    field = random_field((12, 12), seed=8)
    doubled = LatticeField(field.dims, field.values * 2.0)
    lags = lag_grid(2.0, 2)
    a = lattice_ese(field, RAY, RAY, ThresholdRule.absolute(4.0), lags)
    b = lattice_ese(doubled, RAY, RAY, ThresholdRule.absolute(8.0), lags)
    assert np.array_equal(a.exceed_count, b.exceed_count)
    assert np.array_equal(a.rho_hat, b.rho_hat)


def test_quantile_rule_scale_equivariance_counts():
    field = random_field((12, 12), seed=9)
    scaled = LatticeField(field.dims, field.values * 3.7)
    lags = lag_grid(2.0, 2)
    a = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.9), lags)
    b = lattice_ese(scaled, RAY, RAY, ThresholdRule.quantile(0.9), lags)
    assert np.array_equal(a.exceed_count, b.exceed_count)
    assert np.array_equal(a.pair_count, b.pair_count)


def test_threshold_monotonicity():
    """Raising q shrinks the exceedance sets, so joint counts cannot grow."""
    field = random_field((20, 20), seed=10)
    lags = lag_grid(3.0, 2)
    low = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.8), lags)
    high = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.95), lags)
    assert np.all(high.exceed_count <= low.exceed_count)


def test_permuted_values_lose_dependence():
    # shuffling an MMA field should push rho toward the exceedance rate 1-q
    field = sim_mma((40, 40), WeightSpec.indicator_ball(1.0), seed=11)
    rng = derive_rng(12)
    shuffled = LatticeField(field.dims, rng.permutation(field.values))
    lags = lag_grid(2.0, 2)
    dep = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.9), lags)
    indep = lattice_ese(shuffled, RAY, RAY, ThresholdRule.quantile(0.9), lags)
    assert dep.rho_hat.mean() > 2.5 * indep.rho_hat.mean()
    assert abs(indep.rho_hat.mean() - 0.1) < 0.05


def test_result_metadata():
    field = random_field((10, 10), seed=13)
    res = lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.97), [Lag.of(1, 0)])
    assert res.m == 1.0 / (1.0 - 0.97)
    assert res.mode == "lattice"
    assert not res.by_distance
    assert 0.0 < res.denom_rate < 1.0
    assert res.distances[0] == 1.0


def test_lag_out_of_range():
    field = random_field((6, 6), seed=14)
    rule = ThresholdRule.quantile(0.8)
    with pytest.raises(LagOutOfRange):
        lattice_ese(field, RAY, RAY, rule, [Lag.of(6, 0)])
    with pytest.raises(LagOutOfRange):
        lattice_ese(field, RAY, RAY, rule, [Lag.of(0.5, 0.0)])
    with pytest.raises(LagOutOfRange):
        lattice_ese(field, RAY, RAY, rule, [Lag.of(1, 0, 0)])


def test_no_lags_is_a_value_error():
    # an empty lag list, or a max distance below 1, leaves no row to estimate
    field = random_field((6, 6), seed=14)
    rule = ThresholdRule.quantile(0.8)
    with pytest.raises(ValueError, match="no lags"):
        lattice_ese(field, RAY, RAY, rule, [])
    for max_dist in (0.5, 0.999):
        with pytest.raises(ValueError, match="no lags"):
            lattice_ese_by_distance(field, RAY, RAY, rule, max_dist)


def test_degenerate_denominator_is_an_error():
    field = random_field((6, 6), seed=15)
    # nothing lands above 1000 * a_m
    with pytest.raises(DegenerateDenominator):
        lattice_ese(field, ExtremeSet.ray(1e6), RAY, ThresholdRule.absolute(1.0),
                    [Lag.of(1, 0)])


def test_constant_field_degenerates():
    field = LatticeField((5, 5), np.full(25, 2.0))
    # the 0.9-quantile equals every value; strict exceedance is empty
    with pytest.raises(DegenerateDenominator):
        lattice_ese(field, RAY, RAY, ThresholdRule.quantile(0.9), [Lag.of(1, 0)])


def test_by_distance_pools_equal_norm_lags():
    field = random_field((15, 15), seed=16)
    rule = ThresholdRule.quantile(0.9)
    pooled = lattice_ese_by_distance(field, RAY, RAY, rule, 2.0)
    assert list(pooled.distances) == [1.0, np.sqrt(2.0), 2.0]
    assert pooled.by_distance
    per_lag = lattice_ese(field, RAY, RAY, rule, lag_grid(2.0, 2))
    # distance-1 row pools the four unit lags
    unit = [i for i, lag in enumerate(per_lag.lags) if lag.norm == 1.0]
    assert pooled.pair_count[0] == per_lag.pair_count[unit].sum()
    assert pooled.exceed_count[0] == per_lag.exceed_count[unit].sum()
    expect = (
        pooled.exceed_count[0] / pooled.pair_count[0]
    ) / per_lag.denom_rate
    assert pooled.rho_hat[0] == pytest.approx(expect, abs=1e-15)


def test_by_distance_representative_lags_have_right_norm():
    field = random_field((15, 15), seed=17)
    pooled = lattice_ese_by_distance(field, RAY, RAY, ThresholdRule.quantile(0.9), 3.0)
    for lag, dist in zip(pooled.lags, pooled.distances):
        assert lag.norm == pytest.approx(dist, abs=1e-12)


def draw_sets_and_rule(draw):
    """A random pair of extreme sets and a threshold rule."""
    sets = [
        ExtremeSet(draw(st.sampled_from([0.5, 1.0, 1.5])),
                   draw(st.sampled_from([math.inf, 2.0, 4.0])))
        for _ in range(2)
    ]
    rule = draw(st.one_of(
        st.floats(0.3, 0.95).map(ThresholdRule.quantile),
        st.floats(1.0, 6.0).map(ThresholdRule.absolute),
    ))
    return *sets, rule


@st.composite
def lattice_cases(draw):
    """A small 1-3 d grid of random values, a pair of sets, a rule and lags."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    field = random_field(dims, draw(st.integers(0, 2**16)))
    set_a, set_b, rule = draw_sets_and_rule(draw)
    lag = st.tuples(*[st.integers(-(n - 1), n - 1) for n in dims]).map(Lag)
    return field, set_a, set_b, rule, draw(st.lists(lag, min_size=1, max_size=4))


def estimable(field, set_a, set_b, rule, estimate):
    """Whether ``estimate()`` has a finite answer; when it has none, check that
    it raises the degeneracy the threshold or the A set shows."""
    try:
        a_m, _ = resolve_threshold(field.values, rule)
    except DegenerateThreshold:
        with pytest.raises(DegenerateThreshold):
            estimate()
        return False
    if not np.any(set_a.indicator(field.values, a_m)):
        with pytest.raises(DegenerateDenominator):
            estimate()
        return False
    return True


@given(lattice_cases())
@settings(max_examples=80, deadline=None)
def test_lattice_ese_equals_double_loop_property(case):
    field, set_a, set_b, rule, lags = case
    if not estimable(field, set_a, set_b, rule,
                     lambda: lattice_ese(field, set_a, set_b, rule, lags)):
        return
    res = lattice_ese(field, set_a, set_b, rule, lags)
    for i, lag in enumerate(lags):
        hits, pairs, rho = brute_force(field, set_a, set_b, rule, lag)
        assert (res.exceed_count[i], res.pair_count[i]) == (hits, pairs)
        assert res.rho_hat[i] == rho


def test_a_plan_built_for_another_grid_is_refused():
    field = random_field((50, 50), seed=31)
    rule = ThresholdRule.quantile(0.9)
    with pytest.raises(ValueError, match="grid"):
        lattice_ese(field, RAY, RAY, rule, [Lag.of(1, 0)],
                    plan=LatticePlan((40, 40), [Lag.of(1, 0)]))
    with pytest.raises(ValueError, match="grid"):
        lattice_ese_by_distance(field, RAY, RAY, rule, 2.0,
                                plan=LatticePlan((50, 40), 2.0, by_distance=True))


@st.composite
def by_distance_cases(draw):
    """A 1-3 d grid with sides of at least 2, a max distance below its
    shortest side, a pair of sets and a rule."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    field = random_field(dims, draw(st.integers(0, 2**16)))
    max_dist = draw(st.floats(1.0, min(dims), exclude_max=True))
    return field, max_dist, *draw_sets_and_rule(draw)


def pooled_double_loop(field, set_a, set_b, a_m, lags):
    """Hits and pairs summed over ``lags`` by a literal double loop over base
    sites t, pairing (t + h, t)."""
    in_a = set_a.indicator(field.values, a_m).reshape(field.dims)
    in_b = set_b.indicator(field.values, a_m).reshape(field.dims)
    hits = pairs = 0
    for off in lags:
        for t in np.ndindex(*field.dims):
            s = tuple(ti + o for ti, o in zip(t, off))
            if all(0 <= si < n for si, n in zip(s, field.dims)):
                pairs += 1
                hits += bool(in_a[s] and in_b[t])
    return hits, pairs


@given(by_distance_cases())
@settings(max_examples=60, deadline=None)
def test_lattice_ese_by_distance_equals_pooled_double_loop_property(case):
    field, max_dist, set_a, set_b, rule = case
    d, reach = field.d, int(max_dist)
    # every integer offset in the ball, grouped into classes by squared norm
    classes = {}
    for off in itertools.product(range(-reach, reach + 1), repeat=d):
        nsq = sum(o * o for o in off)
        if 0 < nsq <= max_dist * max_dist:
            classes.setdefault(nsq, []).append(off)
    keys = [(lag.norm_sq, lag.offset) for lag in lag_grid(max_dist, d)]
    assert keys == sorted((float(k), tuple(map(float, off)))
                          for k, offs in classes.items() for off in offs)
    if not estimable(field, set_a, set_b, rule,
                     lambda: lattice_ese_by_distance(field, set_a, set_b, rule, max_dist)):
        return
    res = lattice_ese_by_distance(field, set_a, set_b, rule, max_dist)
    assert len(res.lags) == len(classes)
    a_m, _ = resolve_threshold(field.values, rule)
    rate = float(np.mean(set_a.indicator(field.values, a_m)))
    for i, nsq in enumerate(sorted(classes)):
        hits, pairs = pooled_double_loop(field, set_a, set_b, a_m, classes[nsq])
        assert (res.exceed_count[i], res.pair_count[i]) == (hits, pairs)
        assert res.rho_hat[i] == (hits / pairs) / rate
        assert res.lags[i].offset == tuple(map(float, max(classes[nsq])))
        assert res.distances[i] == math.sqrt(nsq)


_GRIDS = (((20, 20), 19.99), ((9,), 8.5), ((4, 9, 6), 3.9))  # dims, a max distance below


def test_a_max_distance_reaching_the_shortest_side_is_refused_before_lags_are_listed(
        monkeypatch):
    for dims, below in _GRIDS:
        assert LatticePlan(dims, below, by_distance=True).lags

    def unlisted(*args):
        raise AssertionError("the lag ball was built")

    monkeypatch.setattr(fields, "_lattice_ball", unlisted)
    for dims, _ in _GRIDS:
        with pytest.raises(LagOutOfRange):
            LatticePlan(dims, min(dims), by_distance=True)
    with pytest.raises(LagOutOfRange, match="max distance 100000"):
        LatticePlan((20, 20), 1e5, by_distance=True)
