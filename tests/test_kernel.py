"""Kernel estimator: normalization, exactness, and order invariances."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from extremogram import (
    CountRule,
    DegenerateDenominator,
    DegenerateThreshold,
    EmptyField,
    EseResult,
    ExtremeSet,
    FieldSource,
    KernelSpec,
    Lag,
    PointField,
    ThresholdRule,
    derive_rng,
    kernel_ese,
    kernel_ese_by_distance,
    kernel_p_hat,
    kernel_tau_hat,
    resolve_threshold,
    sim_point_field,
)
from extremogram.kernel import KernelPlan, _CellGrid

RAY = ExtremeSet.ray(1.0)


def brute_tau(pf, set_a, set_b, rule, kernel, lag, nu=None):
    """Double loop mirroring the estimator's pair definition.

    The difference vector is (s_i - s_j) + h exactly as in the
    estimator, and the accepted weights are summed in ascending order,
    so the result must match bit for bit.
    """
    nu_used = pf.n_points / pf.area if nu is None else nu
    a_m, m = resolve_threshold(pf.values, rule)
    ind_a = set_a.indicator(pf.values, a_m)
    ind_b = set_b.indicator(pf.values, a_m)
    lam = kernel.bandwidth
    h = np.asarray(lag.offset, dtype=float)
    contribs = []
    pairs = hits = 0
    for i in range(pf.n_points):
        for j in range(pf.n_points):
            if i == j:
                continue
            d = ((pf.locations[i] - pf.locations[j]) + h) / lam
            nsq = float(np.sum(d * d))
            if nsq <= 0.25:
                pairs += 1
                if ind_a[i] and ind_b[j]:
                    hits += 1
                    contribs.append(float(kernel.profile(nsq)) / (lam * lam))
    total = float(np.sort(np.array(contribs)).sum()) if contribs else 0.0
    tau = (m / (nu_used * nu_used * pf.area)) * total
    return tau, pairs, hits


def scatter(n, seed, side=10.0):
    rng = derive_rng(seed)
    locs = rng.uniform(0, side, size=(n, 2))
    vals = rng.pareto(1.0, size=n) + 1.0
    return PointField(locs, vals, (0.0, side, 0.0, side))


def test_kernel_normalizes_to_one():
    """Radial form: integral of w over the plane is int_0^{1/2} w(r^2) 2 pi r dr."""
    for spec in (KernelSpec.box(1.0), KernelSpec.epanechnikov(1.0)):
        total, err = quad(lambda r: float(spec.profile(r * r)) * 2 * math.pi * r,
                          0.0, 0.5)
        assert abs(total - 1.0) < 1e-12, (spec.shape, total)
        assert err < 1e-10


def test_kernel_scaling_and_support():
    spec = KernelSpec.box(0.5)
    assert spec.support_radius == 0.25


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec.box(0.0)


def test_p_hat_plugin_identity():
    pf = scatter(200, seed=1)
    p_hat, a_m, m, nu_used = kernel_p_hat(pf, RAY, ThresholdRule.quantile(0.9))
    n_a = int(np.count_nonzero(pf.values > a_m))
    assert nu_used == pf.n_points / pf.area
    assert p_hat == m * n_a / (nu_used * pf.area)
    with pytest.raises(EmptyField):
        kernel_p_hat(PointField(np.empty((0, 2)), [], (0, 1, 0, 1)), RAY,
                     ThresholdRule.quantile(0.9))


def test_tau_matches_double_loop_bitwise():
    pf = scatter(150, seed=2)
    rule = ThresholdRule.quantile(0.8)
    for spec in (KernelSpec.box(1.2), KernelSpec.epanechnikov(0.9)):
        res = kernel_tau_hat(pf, RAY, RAY, rule, spec,
                             [Lag.of(1.0, 0.0), Lag.of(0.7, -1.3), Lag.of(0.0, 2.0)])
        for k, lag in enumerate(res.lags):
            tau, pairs, hits = brute_tau(pf, RAY, RAY, rule, spec, lag)
            assert res.pair_count[k] == pairs
            assert res.exceed_count[k] == hits
            assert res.tau[k] == tau, (spec.shape, lag.offset)


def test_tau_matches_double_loop_asymmetric_sets():
    pf = scatter(120, seed=3)
    rule = ThresholdRule.quantile(0.7)
    set_a = ExtremeSet(1.0, 4.0)
    set_b = ExtremeSet.ray(1.5)
    spec = KernelSpec.box(1.0)
    res = kernel_tau_hat(pf, set_a, set_b, rule, spec, [Lag.of(1.5, 0.5)])
    tau, pairs, hits = brute_tau(pf, set_a, set_b, rule, spec, Lag.of(1.5, 0.5))
    assert res.tau[0] == tau and res.pair_count[0] == pairs


def test_tau_sign_symmetry_bitwise():
    """tau(h) == tau(-h) exactly when A == B: the pair map is an involution."""
    pf = scatter(250, seed=4)
    rule = ThresholdRule.quantile(0.85)
    spec = KernelSpec.epanechnikov(1.1)
    for off in [(1.0, 0.0), (0.6, 0.8), (1.3, -0.4)]:
        fwd = kernel_tau_hat(pf, RAY, RAY, rule, spec, [Lag.of(*off)])
        rev = kernel_tau_hat(pf, RAY, RAY, rule, spec, [Lag.of(*off).negate()])
        assert fwd.tau[0] == rev.tau[0], off
        assert fwd.pair_count[0] == rev.pair_count[0]


@st.composite
def kernel_cases(draw):
    """A few random points in a small window, a kernel, a rule and lags."""
    n = draw(st.integers(2, 25))
    pf = scatter(n, draw(st.integers(0, 2**16)), side=draw(st.sampled_from([2.0, 4.0])))
    shape = draw(st.sampled_from(["box", "epanechnikov"]))
    kernel = KernelSpec(shape, draw(st.floats(0.2, 2.0)))
    rule = draw(st.one_of(
        st.floats(0.3, 0.9).map(ThresholdRule.quantile),
        st.floats(1.0, 3.0).map(ThresholdRule.absolute),
    ))
    coord = st.floats(-2.0, 2.0)
    lags = draw(st.lists(st.tuples(coord, coord).map(Lag), min_size=1, max_size=3))
    return pf, kernel, rule, lags


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_tau_equals_double_loop_property(case):
    pf, kernel, rule, lags = case
    sets = (RAY, ExtremeSet(1.0, 2.5))
    try:
        res = kernel_tau_hat(pf, *sets, rule, kernel, lags)
    except DegenerateThreshold:
        return
    for k, lag in enumerate(lags):
        tau, pairs, hits = brute_tau(pf, *sets, rule, kernel, lag)
        assert (res.tau[k], res.pair_count[k], res.exceed_count[k]) == (tau, pairs, hits)
    # with A == B the pair map (i, j) -> (j, i) takes lag h to -h
    fwd = kernel_tau_hat(pf, RAY, RAY, rule, kernel, lags)
    rev = kernel_tau_hat(pf, RAY, RAY, rule, kernel, [lag.negate() for lag in lags])
    assert np.array_equal(fwd.tau, rev.tau)
    assert np.array_equal(fwd.pair_count, rev.pair_count)


def test_tau_relabeling_invariance_bitwise():
    pf = scatter(180, seed=5)
    rng = derive_rng(6)
    perm = rng.permutation(pf.n_points)
    shuffled = PointField(pf.locations[perm], pf.values[perm], pf.region)
    rule = ThresholdRule.quantile(0.8)
    spec = KernelSpec.box(1.0)
    lags = [Lag.of(1.0, 0.0), Lag.of(0.5, 0.5)]
    a = kernel_tau_hat(pf, RAY, RAY, rule, spec, lags)
    b = kernel_tau_hat(shuffled, RAY, RAY, rule, spec, lags)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.pair_count, b.pair_count)


def test_tau_translation_invariance():
    pf = scatter(150, seed=7)
    shift = np.array([3.25, -1.5])
    x0, x1, y0, y1 = pf.region
    moved = PointField(
        pf.locations + shift, pf.values,
        (x0 + shift[0], x1 + shift[0], y0 + shift[1], y1 + shift[1]),
    )
    rule = ThresholdRule.quantile(0.8)
    spec = KernelSpec.epanechnikov(1.0)
    a = kernel_tau_hat(pf, RAY, RAY, rule, spec, [Lag.of(1.0, -0.5)])
    b = kernel_tau_hat(moved, RAY, RAY, rule, spec, [Lag.of(1.0, -0.5)])
    assert a.tau[0] == pytest.approx(b.tau[0], rel=1e-10)


def test_tau_hand_value_single_pair():
    """One aligned pair under a box kernel: tau = m * w(0)/lambda^2 / (nu^2 |S|)."""
    locs = np.array([[1.0, 1.0], [2.0, 1.0]])
    pf = PointField(locs, [1.0, 1.0], (0.0, 4.0, 0.0, 1.0))  # area 4, nu = 1/2
    spec = KernelSpec.box(0.5)
    res = kernel_tau_hat(pf, RAY, RAY, ThresholdRule.absolute(0.5), spec,
                         [Lag.of(1.0, 0.0)])
    # m = 2/2 = 1, nu^2 |S| = 1, single in-support ordered pair at the center
    assert res.m == 1.0
    assert res.pair_count[0] == 1
    assert res.tau[0] == pytest.approx(16.0 / math.pi, rel=1e-14)


def test_kernel_ese_ratio_and_metadata():
    pf = scatter(300, seed=8)
    rule = ThresholdRule.quantile(0.9)
    spec = KernelSpec.box(1.0)
    lags = [Lag.of(1.0, 0.0)]
    res = kernel_ese(pf, RAY, RAY, rule, spec, lags)
    taus = kernel_tau_hat(pf, RAY, RAY, rule, spec, lags)
    p_hat, _, _, _ = kernel_p_hat(pf, RAY, rule)
    assert res.rho_hat[0] == taus.tau[0] / p_hat
    assert res.mode == "kernel"
    assert res.nu_used == pf.n_points / pf.area
    assert not res.bandwidth_degenerate


def test_kernel_ese_known_intensity():
    pf = sim_point_field((0, 10, 0, 10), CountRule.poisson(2.0),
                         FieldSource.frechet_iid(), seed=9)
    res = kernel_ese(pf, RAY, RAY, ThresholdRule.quantile(0.9),
                     KernelSpec.box(1.0), [Lag.of(1.0, 0.0)], nu=2.0)
    assert res.nu_used == 2.0


def test_kernel_ese_degenerate_denominator():
    pf = scatter(100, seed=10)
    with pytest.raises(DegenerateDenominator):
        kernel_ese(pf, ExtremeSet.ray(1e9), RAY, ThresholdRule.absolute(1.0),
                   KernelSpec.box(1.0), [Lag.of(1.0, 0.0)])


def test_kernel_ese_needs_two_points():
    pf = PointField(np.array([[0.5, 0.5]]), [2.0], (0, 1, 0, 1))
    with pytest.raises(EmptyField):
        kernel_ese(pf, RAY, RAY, ThresholdRule.absolute(1.0),
                   KernelSpec.box(0.5), [Lag.of(0.5, 0.0)])


def test_tiny_bandwidth_flags_degenerate():
    # points ~0.3 apart on average; a 1e-6 support captures no pair
    pf = scatter(100, seed=11)
    res = kernel_ese(pf, RAY, RAY, ThresholdRule.quantile(0.9),
                     KernelSpec.box(1e-6), [Lag.of(1.0, 0.0)])
    assert res.bandwidth_degenerate
    assert np.all(res.rho_hat == 0.0)
    assert np.all(res.pair_count == 0)


def test_by_distance_averages_ring():
    pf = scatter(400, seed=12)
    rule = ThresholdRule.quantile(0.9)
    spec = KernelSpec.box(1.0)
    res = kernel_ese_by_distance(pf, RAY, RAY, rule, spec, [1.0, 2.0])
    assert res.by_distance
    assert list(res.distances) == [1.0, 2.0]
    assert [lag.offset for lag in res.lags] == [(1.0, 0.0), (2.0, 0.0)]
    # manual ring average must agree
    ring = [Lag.of(math.cos(a), math.sin(a))
            for a in 2 * math.pi * np.arange(8) / 8]
    per = kernel_ese(pf, RAY, RAY, rule, spec, ring)
    assert res.rho_hat[0] == pytest.approx(float(per.rho_hat.mean()), abs=1e-15)
    assert res.pair_count[0] == per.pair_count.sum()
    with pytest.raises(ValueError):
        kernel_ese_by_distance(pf, RAY, RAY, rule, spec, [-1.0])


def test_no_lags_is_a_value_error():
    # before, an empty lag list gave an empty result flagged bandwidth_degenerate
    pf = scatter(50, seed=13)
    rule = ThresholdRule.quantile(0.9)
    spec = KernelSpec.box(1.0)
    with pytest.raises(ValueError, match="no lags"):
        kernel_ese(pf, RAY, RAY, rule, spec, [])
    with pytest.raises(ValueError, match="no lags"):
        kernel_ese_by_distance(pf, RAY, RAY, rule, spec, [])


def _assert_plan_matches_double_loop(pf, sets, rule, kernel, plan):
    res = kernel_tau_hat(pf, *sets, rule, kernel, plan.lags, plan=plan)
    for k, lag in enumerate(plan.lags):
        tau, pairs, hits = brute_tau(pf, *sets, rule, kernel, lag)
        assert (res.tau[k], res.pair_count[k], res.exceed_count[k]) == (tau, pairs, hits), lag


def _grid_field(side, seed):
    axis = np.arange(float(side))
    locs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = derive_rng(seed).pareto(1.0, size=len(locs)) + 1.0
    return PointField(locs, vals, (0.0, side, 0.0, side))


@pytest.mark.parametrize("shape", ["box", "epanechnikov"])
def test_plan_on_the_support_boundary_equals_double_loop(shape):
    # integer points, bandwidth 2, lag (1, 0): every unit step lands with
    # |d / lambda|^2 == 0.25 exactly, on the edge of the support
    pf = _grid_field(6, seed=20)
    kernel = KernelSpec(shape, 2.0)
    plan = KernelPlan(pf.locations, kernel, [Lag.of(1.0, 0.0), Lag.of(0.0, 0.0)])
    assert plan.pair_count[0] > pf.n_points  # boundary pairs are counted
    sets = (RAY, ExtremeSet(1.0, 2.5))
    _assert_plan_matches_double_loop(pf, sets, ThresholdRule.quantile(0.5), kernel, plan)


def test_plan_with_coincident_points_equals_double_loop():
    base = scatter(20, seed=21, side=3.0)
    locs = np.concatenate([base.locations, base.locations[:6], base.locations[:2]])
    vals = derive_rng(22).pareto(1.0, size=len(locs)) + 1.0
    pf = PointField(locs, vals, base.region)
    kernel = KernelSpec.epanechnikov(0.8)
    lags = [Lag.of(0.0, 0.0), Lag.of(0.5, -0.25), Lag.of(-0.5, 0.25)]
    plan = KernelPlan(pf.locations, kernel, lags)
    assert plan.pair_count[0] >= 2 * 8  # each copy pairs with its original at lag 0
    for sets in [(RAY, RAY), (RAY, ExtremeSet(1.0, 2.5)), (ExtremeSet(1.0, 2.5), RAY)]:
        _assert_plan_matches_double_loop(pf, sets, ThresholdRule.quantile(0.6), kernel, plan)


def test_by_distance_plan_at_ten_distances_equals_double_loop():
    pf = scatter(30, seed=23, side=12.0)
    kernel = KernelSpec.box(2.5)
    plan = KernelPlan(pf.locations, kernel, range(1, 11), by_distance=True)
    assert len(plan.lags) == 80 and np.all(plan.pair_count[-8:] > 0)
    _assert_plan_matches_double_loop(pf, (RAY, ExtremeSet(1.0, 3.0)), ThresholdRule.quantile(0.7), kernel, plan)


def _moved(pf, shift):
    x0, x1, y0, y1 = pf.region
    return PointField(pf.locations + shift, pf.values,
                      (x0 + shift[0], x1 + shift[0], y0 + shift[1], y1 + shift[1]))


_STRESS_CASES = {
    # coordinates near 5e5 carry ULPs of about 1e-10 into every difference
    "far from the origin": lambda: (
        _moved(scatter(60, seed=30, side=4.0), (5e5, -5e5)), KernelSpec.epanechnikov(0.9),
        [Lag.of(0.0, 0.0), Lag.of(0.7, -0.4), Lag.of(-1.5, 1.0), Lag.of(0.45, 0.0)]),
    # the support covers the whole region, so one cell holds every point
    "bandwidth wider than the region": lambda: (
        scatter(40, seed=31, side=2.0), KernelSpec.box(5.0),
        [Lag.of(0.0, 0.0), Lag.of(1.0, 1.0), Lag.of(3.0, -0.5)]),
    "two points": lambda: (
        PointField(np.array([[0.2, 0.3], [0.9, 0.6]]), [2.0, 3.0], (0.0, 1.0, 0.0, 1.0)),
        KernelSpec.box(0.5), [Lag.of(0.7, 0.3), Lag.of(-0.7, -0.3), Lag.of(0.0, 0.0)]),
}


@pytest.mark.parametrize("case", sorted(_STRESS_CASES))
def test_plan_stress_cases_equal_double_loop(case):
    pf, kernel, lags = _STRESS_CASES[case]()
    plan = KernelPlan(pf.locations, kernel, lags)
    assert plan.pair_count.sum() > 0
    for sets in [(RAY, RAY), (RAY, ExtremeSet(1.0, 2.5))]:
        _assert_plan_matches_double_loop(pf, sets, ThresholdRule.absolute(1.0), kernel, plan)


def test_a_lag_beyond_the_region_diagonal_has_no_pairs():
    pf = scatter(50, seed=32, side=5.0)
    kernel = KernelSpec.box(1.0)
    plan = KernelPlan(pf.locations, kernel, [Lag.of(8.0, 8.0), Lag.of(-45.0, 0.0)])
    _assert_plan_matches_double_loop(pf, (RAY, RAY), ThresholdRule.quantile(0.8), kernel, plan)
    res = kernel_ese(pf, RAY, RAY, ThresholdRule.quantile(0.8), kernel, plan.lags, plan=plan)
    assert res.bandwidth_degenerate and res.pair_count.tolist() == [0, 0]
    assert res.rho_hat.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n_points", [0, 1])
def test_a_plan_over_fewer_than_two_points_has_no_pairs(n_points):
    locations = np.full((n_points, 2), 0.5)
    kernel = KernelSpec.box(1.0)
    assert KernelPlan(locations, kernel, [Lag.of(0.0, 0.0), Lag.of(0.3, 0.0)]).pair_count.tolist() == [0, 0]
    assert KernelPlan(locations, kernel, [1.0], by_distance=True).pair_count.tolist() == [0] * 8


def test_a_tiny_bandwidth_keeps_the_cell_table_linear_in_the_points():
    # a 1e-9 bandwidth on a 40 x 40 region: cells of the support's width
    # would number about 1e21; the table holds about one cell per point
    base = scatter(1596, seed=33, side=40.0)
    locations = np.concatenate([base.locations, base.locations[:4]])
    kernel = KernelSpec.box(1e-9)
    plan = KernelPlan(locations, kernel, [Lag.of(0.0, 0.0), Lag.of(2.5e-10, 0.0), Lag.of(1.0, 0.0)])
    # only the four copies pair with their originals, in both orders
    copies = {(k, 1596 + k) for k in range(4)}
    for i, j, _ in plan._pairs[:2]:
        assert set(zip(i.tolist(), j.tolist())) == copies | {(j, i) for i, j in copies}
    assert plan.pair_count.tolist() == [8, 8, 0]
    grid = _CellGrid(locations, kernel.support_radius)
    assert len(grid.starts) - 1 <= (math.isqrt(len(locations)) + 5) ** 2


def test_kernel_ese_over_a_by_distance_plan_equals_kernel_ese_by_distance():
    pf = scatter(80, seed=24, side=8.0)
    kernel, rule = KernelSpec.epanechnikov(1.5), ThresholdRule.quantile(0.8)
    plan = KernelPlan(pf.locations, kernel, [1.0, 2.5], by_distance=True)
    pooled = kernel_ese(pf, RAY, RAY, rule, kernel, plan.lags, plan=plan)
    reference = kernel_ese_by_distance(pf, RAY, RAY, rule, kernel, [1.0, 2.5])
    for f in dataclasses.fields(EseResult):
        a, b = getattr(pooled, f.name), getattr(reference, f.name)
        assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), f.name
    assert pooled.lags == (Lag.of(1.0, 0.0), Lag.of(2.5, 0.0)) and pooled.by_distance


def test_a_by_distance_plan_labels_the_rows_with_its_own_distances():
    pf = scatter(80, seed=25, side=8.0)
    kernel, rule = KernelSpec.box(1.5), ThresholdRule.quantile(0.8)
    plan = KernelPlan(pf.locations, kernel, [1.0], by_distance=True)
    res = kernel_ese_by_distance(pf, RAY, RAY, rule, kernel, [3.0], plan=plan)
    assert res.lags == (Lag.of(1.0, 0.0),) and res.distances.tolist() == [1.0]
    assert res.rho_hat[0] == kernel_ese_by_distance(pf, RAY, RAY, rule, kernel, [1.0]).rho_hat[0]


def test_a_plan_built_for_other_locations_is_refused():
    pf, other = scatter(40, seed=26), scatter(40, seed=27)
    kernel, rule = KernelSpec.box(2.0), ThresholdRule.quantile(0.8)
    plan = KernelPlan(other.locations, kernel, [Lag.of(1.0, 0.0)])
    with pytest.raises(ValueError, match="other locations"):
        kernel_ese(pf, RAY, RAY, rule, kernel, plan.lags, plan=plan)
    rings = KernelPlan(other.locations, kernel, [1.0], by_distance=True)
    with pytest.raises(ValueError, match="other locations"):
        kernel_ese_by_distance(pf, RAY, RAY, rule, kernel, [1.0], plan=rings)


def test_a_plan_built_for_another_kernel_is_refused():
    pf = sim_point_field((0, 14, 0, 14), CountRule.fixed(200), FieldSource.frechet_iid(), seed=3)
    rule = ThresholdRule.quantile(0.9)
    wide = KernelPlan(pf.locations, KernelSpec.box(3.0), [1.0], by_distance=True)
    with pytest.raises(ValueError, match=r"box\(lambda=3\)"):
        kernel_ese_by_distance(pf, RAY, RAY, rule, KernelSpec.box(1.0), [1.0], plan=wide)
    shaped = KernelPlan(pf.locations, KernelSpec.epanechnikov(1.0), [Lag.of(1.0, 0.0)])
    with pytest.raises(ValueError, match="epanechnikov"):
        kernel_ese(pf, RAY, RAY, rule, KernelSpec.box(1.0), shaped.lags, plan=shaped)
