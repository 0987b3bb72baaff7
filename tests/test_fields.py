"""Container, set, lag, and threshold contracts."""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremogram import (
    BrLatticeModel,
    BrPlan,
    BrSimConfig,
    DegenerateThreshold,
    EmptyInput,
    EseResult,
    ExtremeSet,
    Lag,
    LatticeField,
    PointField,
    SpaceTimeGrid,
    ThresholdRule,
    VariogramSpec,
    WeightSpec,
    as_lag,
    derive_rng,
    derive_seed,
    lag_grid,
    resolve_threshold,
)
from extremogram import fields
from extremogram.fields import _MAX_BALL_BOX, _lattice_ball


def test_lattice_field_shape_and_freeze():
    f = LatticeField((3, 4), np.arange(12, dtype=float))
    assert f.d == 2 and f.size == 12
    assert f.grid.shape == (3, 4)
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # read-only buffer


def test_field_arrays_are_read_only_whatever_the_input_layout():
    # a column-major grid flattens by copy, which must not come out writable
    grid = np.arange(12, dtype=float).reshape(4, 3).T
    f = LatticeField((3, 4), grid)
    assert f.values.tolist() == grid.ravel().tolist()
    p = PointField(np.asfortranarray([[0.5, 0.5], [1.5, 2.5]]), [1.0, 2.0], (0, 3, 0, 3))
    assert not any(arr.flags.writeable for arr in (f.values, p.locations, p.values))


def test_frozen_arrays_can_not_be_made_writable_again():
    lattice = LatticeField((3, 4), np.arange(12, dtype=float))
    points = PointField([[0.5, 0.5], [1.5, 2.5]], [1.0, 2.0], (0, 3, 0, 3))
    ese = EseResult((Lag.of(1, 0),), [1.0], [0.5], [4], [1], 2.0, 10.0,
                    ExtremeSet.ray(), ExtremeSet.ray(), 0.1, "lattice")
    vario, config = VariogramSpec(0.5, 1.0), BrSimConfig.spectral(200)
    arrays = {
        "LatticeField.values": lattice.values,
        "PointField.locations": points.locations,
        "PointField.values": points.values,
        **{f"EseResult.{name}": getattr(ese, name)
           for name in ("distances", "rho_hat", "pair_count", "exceed_count")},
        "BrPlan.sites": BrPlan([[0.0, 0.0], [1.0, 0.0]], vario, config).sites,
        "BrLatticeModel.sites": BrLatticeModel((2, 2), vario, config).sites,
        "SpaceTimeGrid.values": SpaceTimeGrid(np.ones((2, 2, 2))).values,
    }
    thawed = []
    for name, arr in arrays.items():
        try:
            arr.setflags(write=True)
        except ValueError:
            continue
        thawed.append(name)
    assert thawed == []


def test_lattice_field_rejects_bad_input():
    with pytest.raises(ValueError):
        LatticeField((2, 2), [1.0, 2.0, 3.0])  # wrong length
    with pytest.raises(ValueError):
        LatticeField((2, 2), [1.0, 2.0, -3.0, 4.0])  # negative value
    with pytest.raises(ValueError):
        LatticeField((2, 2), [1.0, 2.0, math.inf, 4.0])
    with pytest.raises(ValueError):
        LatticeField((2, 2, 2, 2), np.ones(16))  # d > 3


def test_point_field_region_containment():
    locs = np.array([[0.5, 0.5], [9.5, 9.5]])
    pf = PointField(locs, [1.0, 2.0], (0.0, 10.0, 0.0, 10.0))
    assert pf.n_points == 2 and pf.area == 100.0
    with pytest.raises(ValueError):
        PointField(np.array([[11.0, 0.5]]), [1.0], (0.0, 10.0, 0.0, 10.0))


def test_extreme_set_membership_is_strict():
    s = ExtremeSet(1.0, 2.0)
    vals = np.array([1.0, 1.5, 2.0, 2.5])
    # both endpoints excluded, scale multiplies the bounds
    assert list(s.indicator(vals, 1.0)) == [False, True, False, False]
    assert list(s.indicator(vals * 10, 10.0)) == [False, True, False, False]
    ray = ExtremeSet.ray(1.0)
    assert ray.is_ray
    assert list(ray.indicator(vals, 1.0)) == [False, True, True, True]


def test_extreme_set_validation():
    with pytest.raises(ValueError):
        ExtremeSet(0.0, 2.0)
    with pytest.raises(ValueError):
        ExtremeSet(2.0, 1.0)
    with pytest.raises(ValueError):
        ExtremeSet(math.inf)


def test_lag_norm_is_derived_from_offset():
    lag = Lag.of(3.0, 4.0)
    assert lag.norm == 5.0
    assert lag.norm_sq == 25.0
    assert lag.negate().offset == (-3.0, -4.0)
    assert lag.int_offset() == (3, 4)
    with pytest.raises(ValueError):
        Lag.of(0.5, 0.5).int_offset()


def test_as_lag_coercions():
    assert as_lag(2.0).offset == (2.0,)
    assert as_lag((1, 2)).offset == (1.0, 2.0)
    assert as_lag(Lag.of(1, 2)).offset == (1.0, 2.0)
    with pytest.raises(ValueError):
        as_lag((1, 2), d=3)


def test_quantile_threshold_values():
    # 1..100 at q = 0.97: interpolated quantile lands between the order stats
    vals = np.arange(1.0, 101.0)
    a_m, m = resolve_threshold(vals, ThresholdRule.quantile(0.97))
    assert a_m == 97.03
    assert m == 33.33333333333331
    n_above = int((vals > a_m).sum())
    assert n_above == 3


def test_absolute_threshold_values():
    vals = np.arange(1.0, 101.0)
    a_m, m = resolve_threshold(vals, ThresholdRule.absolute(90.0))
    assert a_m == 90.0 and m == 10.0
    with pytest.raises(DegenerateThreshold):
        resolve_threshold(vals, ThresholdRule.absolute(1000.0))
    with pytest.raises(EmptyInput):
        resolve_threshold(np.array([]), ThresholdRule.quantile(0.5))


def test_threshold_rule_validation():
    with pytest.raises(ValueError):
        ThresholdRule.quantile(1.0)
    with pytest.raises(ValueError):
        ThresholdRule.quantile(0.0)
    with pytest.raises(ValueError):
        ThresholdRule.absolute(-1.0)


def test_lag_grid_small_cases():
    lags = lag_grid(1.0, 2)
    assert {l.offset for l in lags} == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    lags2 = lag_grid(1.5, 2)
    assert len(lags2) == 8  # adds the four diagonal neighbours
    assert lag_grid(1.0, 1) and lag_grid(1.0, 3)
    with pytest.raises(ValueError):
        lag_grid(0.0, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [0.0, 0.5, 1.0, math.sqrt(2.0), 2.5, 3.0])
def test_lattice_ball_equals_a_brute_force_loop(d, radius):
    # itertools.product walks the box in lexicographic order
    rows = [s for s in itertools.product(range(-4, 5), repeat=d)
            if sum(c * c for c in s) <= radius * radius]
    offsets, norm_sq = _lattice_ball(radius, d)
    assert np.array_equal(offsets, np.array(rows).reshape(-1, d))
    assert np.array_equal(norm_sq, [sum(c * c for c in s) for s in rows])
    assert offsets.dtype.kind == norm_sq.dtype.kind == "i"


@pytest.mark.parametrize("radius, d", [
    (math.inf, 2), (math.nan, 2), (-1.0, 2), (1.0, 0), (1.0, 4),
])
def test_lattice_ball_refuses_a_bad_radius_or_dimension(radius, d):
    with pytest.raises(ValueError):
        _lattice_ball(radius, d)
    with pytest.raises(ValueError):
        lag_grid(radius, d)


class _BoxBuilt(Exception):
    pass


@pytest.mark.parametrize("d, inside, past", [(1, 4_999_999.5, 5_000_000), (2, 1580.9, 1581),
                                             (3, 107.5, 108)])
def test_lattice_ball_refuses_a_box_past_its_bound_before_building_it(monkeypatch, d, inside,
                                                                       past):
    def built(*args, **kwargs):
        raise _BoxBuilt

    monkeypatch.setattr(fields.np, "meshgrid", built)
    assert (2 * int(inside) + 1) ** d <= _MAX_BALL_BOX < (2 * past + 1) ** d
    with pytest.raises(_BoxBuilt):
        _lattice_ball(inside, d)
    with pytest.raises(ValueError, match=re.escape(f"a {d}-d ball of radius {past:g} spans a box "
                                                   f"of {(2 * past + 1) ** d:,} offsets")):
        _lattice_ball(past, d)
    with pytest.raises(ValueError, match="more than the 10,000,000 allowed"):
        lag_grid(past, d)


def test_the_ball_bound_leaves_room_for_a_3d_geometric_half_support():
    radius = WeightSpec.geometric(0.5).truncation(3)
    assert 1_500_000 < (2 * int(radius) + 1) ** 3 <= _MAX_BALL_BOX


def test_derive_rng_is_keyed_and_stable():
    a = derive_rng(7, 3).random(4)
    b = derive_rng(7, 3).random(4)
    c = derive_rng(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(3, 7)  # key order matters


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=30, deadline=None)
def test_lag_grid_closed_under_negation(max_dist):
    lags = lag_grid(max_dist, 2)
    offs = {l.offset for l in lags}
    assert all(l.negate().offset in offs for l in lags)
    assert all(0.0 < l.norm <= max_dist + 1e-12 for l in lags)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=5, max_size=200),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=50, deadline=None)
def test_quantile_threshold_exceedance_fraction(values, q):
    """At most a (1-q) fraction can sit strictly above the q-quantile."""
    vals = np.array(values)
    a_m, m = resolve_threshold(vals, ThresholdRule.quantile(q))
    frac = (vals > a_m).mean()
    assert frac <= (1.0 - q) + 1.0 / vals.size + 1e-12
    assert m == 1.0 / (1.0 - q)
