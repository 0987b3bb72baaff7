"""Empirical spatial extremogram for fields observed on a regular lattice.

The estimate at lag h is a ratio of two rates: the fraction of ordered
site pairs (t + h, t), both inside the grid, whose values land in the
scaled sets (A at the displaced site, B at the base site), over the
fraction of all sites landing in the scaled A.  Pair counting is exact:
no wraparound, n(h) = prod_i (n_i - |h_i|).

`lattice_ese` keeps one row per vector lag; `lattice_ese_by_distance`
pools every integer lag of equal norm into a single row, which is the
natural display for isotropic fields.

Both run over one :class:`LatticePlan`, the value-free geometry of an
estimate (lag slices, pair counts, distance classes).  Values enter
only as indicator grids with a leading batch axis, so the same plan
counts one field or a whole batch of shuffles of it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDenominator, LagOutOfRange
from .fields import (
    ExtremeSet,
    Lag,
    LatticeField,
    ThresholdRule,
    as_lag,
    lag_grid,
    resolve_threshold,
)
from .results import EseResult

__all__ = ["LatticePlan", "lattice_plan", "lattice_ese", "lattice_ese_by_distance"]


def _lag_slices(dims, offset):
    """Index slices picking the displaced (t+h) and base (t) sites."""
    disp = tuple(
        slice(max(o, 0), n + min(o, 0)) for o, n in zip(offset, dims)
    )
    base = tuple(
        slice(max(-o, 0), n + min(-o, 0)) for o, n in zip(offset, dims)
    )
    return disp, base


def _check_lag(dims: tuple[int, ...], lag: Lag) -> tuple[int, ...]:
    if lag.d != len(dims):
        raise LagOutOfRange(
            f"lag {lag.offset} has dimension {lag.d}, field has {len(dims)}"
        )
    if not lag.is_integer:
        raise LagOutOfRange(f"lattice lags must be integer-valued, got {lag.offset}")
    off = lag.int_offset()
    for o, n in zip(off, dims):
        if abs(o) >= n:
            raise LagOutOfRange(
                f"lag {lag.offset} does not fit a grid with side lengths {dims}"
            )
    return off


class LatticePlan:
    """Value-free geometry of a lattice estimate on a grid of shape ``dims``.

    Holds, per lag, the slices picking the displaced and base sites and
    the pair count n(h); with ``by_distance`` the lags are pooled into
    one row per squared norm, sorted by distance, each represented by
    the lexicographically largest member of its class.  ``lags``,
    ``distances`` and ``pair_count`` describe the output rows.
    """

    def __init__(self, dims, lags, by_distance: bool = False):
        dims = tuple(dims)
        lag_list = list(lags)
        offsets = [_check_lag(dims, lag) for lag in lag_list]
        self._slices = [_lag_slices(dims, off) for off in offsets]
        lag_pairs = np.array(
            [math.prod(n - abs(o) for o, n in zip(off, dims)) for off in offsets],
            dtype=np.int64,
        )
        self.by_distance = by_distance
        if by_distance:
            keys = [int(round(lag.norm_sq)) for lag in lag_list]
            classes = sorted(set(keys))
            # lag-by-row 0/1 membership; integer sums pool exactly
            self._members = np.array(
                [[k == key for key in classes] for k in keys], dtype=np.int64
            ).reshape(len(keys), len(classes))
            self.lags = tuple(
                Lag(max(lag.offset for lag, k in zip(lag_list, keys) if k == key))
                for key in classes
            )
            self.distances = np.array([math.sqrt(key) for key in classes])
        else:
            self._members = None
            self.lags = tuple(lag_list)
            self.distances = np.array([lag.norm for lag in lag_list])
        self.pair_count = self._pool(lag_pairs[None, :])[0]

    def _pool(self, per_lag: np.ndarray) -> np.ndarray:
        """Sum per-lag columns of a (batch, lags) array into output rows."""
        return per_lag if self._members is None else per_lag @ self._members

    def hits(self, ind_a: np.ndarray, ind_b: np.ndarray) -> np.ndarray:
        """Pair hits per row for a batch of indicator grids.

        ``ind_a`` and ``ind_b`` have shape ``(batch, *dims)``; A is read
        at the displaced site t+h and B at the base site t.  Returns a
        ``(batch, rows)`` int64 array.
        """
        per_lag = np.empty((ind_a.shape[0], len(self._slices)), dtype=np.int64)
        for k, (disp, base) in enumerate(self._slices):
            both = ind_a[(Ellipsis, *disp)] & ind_b[(Ellipsis, *base)]
            per_lag[:, k] = [np.count_nonzero(grid) for grid in both]
        return self._pool(per_lag)

    def rho(self, hits: np.ndarray, denom_rate: float) -> np.ndarray:
        """rho_hat = [hits / n(h)] / denom_rate, elementwise over a hits batch."""
        return (hits / self.pair_count) / denom_rate


def lattice_plan(dims, lags, by_distance: bool = False) -> LatticePlan:
    """Plan of `lattice_ese` at vector ``lags`` or, with ``by_distance``,
    of `lattice_ese_by_distance` at the max distance ``lags``."""
    if not by_distance:
        return LatticePlan(dims, [as_lag(h) for h in lags])
    max_dist = float(lags)
    if not max_dist > 0:
        raise ValueError(f"max_dist must be positive, got {max_dist}")
    return LatticePlan(dims, lag_grid(max_dist, len(dims)), by_distance=True)


def _estimate(field: LatticeField, set_a, set_b, rule, plan: LatticePlan) -> EseResult:
    a_m, m = resolve_threshold(field.values, rule)
    grid = field.grid
    ind_a = set_a.indicator(grid, a_m)
    ind_b = set_b.indicator(grid, a_m)
    n_a = int(np.count_nonzero(ind_a))
    if n_a == 0:
        raise DegenerateDenominator(
            f"no site lands in {set_a.label()} at threshold {a_m:g}"
        )
    denom_rate = n_a / field.size
    hits = plan.hits(ind_a[None], ind_b[None])
    return EseResult(
        lags=plan.lags,
        distances=plan.distances,
        rho_hat=plan.rho(hits, denom_rate)[0],
        pair_count=plan.pair_count,
        exceed_count=hits[0],
        a_m=a_m,
        m=m,
        set_a=set_a,
        set_b=set_b,
        denom_rate=denom_rate,
        mode="lattice",
        by_distance=plan.by_distance,
    )


def lattice_ese(
    field: LatticeField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    lags,
) -> EseResult:
    """Extremogram estimate at each requested vector lag.

    rho_hat(h) = [hits(h) / n(h)] / [#{X in a_m A} / #sites] with
    hits counting ordered in-grid pairs where X_{t+h} lands in a_m A
    and X_t lands in a_m B, strict inequalities on both sides.

    Raises DegenerateDenominator when no site at all lands in the
    scaled A set (a NaN here would silently poison any aggregation),
    and LagOutOfRange for non-integer lags or |h_i| >= n_i.
    """
    return _estimate(field, set_a, set_b, rule, lattice_plan(field.dims, lags))


def lattice_ese_by_distance(
    field: LatticeField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    max_dist: float,
) -> EseResult:
    """Extremogram pooled over all integer lags of equal norm.

    Every lag with 0 < |h| <= max_dist is evaluated; lags sharing a
    squared norm are merged by summing hits and pair counts, so the
    pooled estimate is the pair-count-weighted mean of the per-lag
    ones.  Rows are sorted by distance; each row's representative lag
    is the lexicographically largest member of its class, e.g. (1,0)
    for distance 1 and (1,1) for sqrt 2.
    """
    plan = lattice_plan(field.dims, max_dist, by_distance=True)
    return _estimate(field, set_a, set_b, rule, plan)
