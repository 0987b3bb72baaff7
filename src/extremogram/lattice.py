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
estimate (lag slices, pair counts, distance classes), whose ``rows``
take flat indicators with a leading batch axis: one evaluation gives
the observed estimate and every shuffle of it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDenominator, LagOutOfRange
from .fields import (
    EseResult,
    ExtremeSet,
    Lag,
    LatticeField,
    ThresholdRule,
    as_lag,
    lag_grid,
    resolve_threshold,
)

__all__ = ["LatticePlan", "lattice_ese", "lattice_ese_by_distance"]


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


def _grid_lags(dims: tuple[int, ...], max_dist: float) -> list[Lag]:
    """`lag_grid`'s lags within ``max_dist`` on a grid of ``dims``.  A max distance
    reaching the shortest side, whose axis lag cannot fit, is refused before
    `lag_grid` lists its whole (2r+1)^d box; `lag_grid` refuses a non-finite one."""
    if min(dims) <= max_dist < math.inf:
        raise LagOutOfRange(f"max distance {max_dist:g} does not fit a grid with side lengths {dims}")
    return lag_grid(max_dist, len(dims))


class LatticePlan:
    """Value-free geometry of a lattice estimate on a grid of shape ``dims``:
    of `lattice_ese` at vector ``lags`` or, with ``by_distance``, of
    `lattice_ese_by_distance` at the max distance ``lags``.

    Holds, per lag, the slices picking the displaced and base sites and
    the pair count n(h).  An output row sums a run of lags: one vector
    lag or, with ``by_distance``, a distance class, the run of one squared
    norm in the sorted `lag_grid`, represented by its last (lexicographically
    largest) lag.  ``lags``, ``distances`` and ``pair_count`` describe the rows.
    """

    def __init__(self, dims, lags, by_distance: bool = False):
        dims = tuple(dims)
        lag_list = _grid_lags(dims, float(lags)) if by_distance else [as_lag(h) for h in lags]
        if not lag_list:
            raise ValueError(
                "no lags to estimate: give at least one lag, or a max distance of at least 1"
            )
        offsets = [_check_lag(dims, lag) for lag in lag_list]
        self.dims = dims
        self._slices = [_lag_slices(dims, off) for off in offsets]
        lag_pairs = np.array(
            [math.prod(n - abs(o) for o, n in zip(off, dims)) for off in offsets],
            dtype=np.int64,
        )
        self.by_distance = by_distance
        norm_sq = np.array([lag.norm_sq for lag in lag_list])
        ends = (np.flatnonzero(np.diff(norm_sq, append=np.inf)) if by_distance
                else np.arange(len(lag_list)))
        self._starts = np.r_[0, ends[:-1] + 1]
        self.lags = tuple(lag_list[k] for k in ends)
        self.distances = (np.sqrt(norm_sq[ends]) if by_distance
                          else np.array([lag.norm for lag in lag_list]))
        self.pair_count = self._pool(lag_pairs[None, :])[0]

    def _pool(self, per_lag: np.ndarray) -> np.ndarray:
        """Sum each run of per-lag columns of a (batch, lags) array into its
        output row; integer sums pool exactly."""
        return np.add.reduceat(per_lag, self._starts, axis=1)

    def rows(self, ind_a: np.ndarray, ind_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hits, rho_hat), each ``(batch, rows)``, for flat indicator
        batches of shape ``(batch, n_sites)``; A is read at the displaced
        site t+h and B at the base site t.  Each batch row divides by its
        own A-rate ``count_nonzero(ind_a) / n_sites``, which a shuffle keeps."""
        grid_a, grid_b = (ind.reshape(len(ind), *self.dims) for ind in (ind_a, ind_b))
        per_lag = np.empty((len(ind_a), len(self._slices)), dtype=np.int64)
        for k, (disp, base) in enumerate(self._slices):
            both = grid_a[(Ellipsis, *disp)] & grid_b[(Ellipsis, *base)]
            per_lag[:, k] = np.count_nonzero(both, axis=tuple(range(1, both.ndim)))
        hits = self._pool(per_lag)
        rate_a = np.count_nonzero(ind_a, axis=1) / ind_a.shape[1]
        return hits, (hits / self.pair_count) / rate_a[:, None]

    def shuffle_rho(self, field: LatticeField, ind_a, ind_b, observed: EseResult) -> np.ndarray:
        """rho_hat rows of shuffles of ``field``, given as its flat indicators
        gathered through each permutation."""
        return self.rows(ind_a, ind_b)[1]


def _estimate(field: LatticeField, set_a, set_b, rule, plan: LatticePlan) -> EseResult:
    if plan.dims != field.dims:
        raise ValueError(f"LatticePlan was built for a grid of {plan.dims}, field has {field.dims}")
    a_m, m = resolve_threshold(field.values, rule)
    ind_a = set_a.indicator(field.values, a_m)
    ind_b = set_b.indicator(field.values, a_m)
    n_a = int(np.count_nonzero(ind_a))
    if n_a == 0:
        raise DegenerateDenominator(
            f"no site lands in {set_a.label()} at threshold {a_m:g}"
        )
    hits, rho_hat = plan.rows(ind_a[None], ind_b[None])
    return EseResult(
        lags=plan.lags,
        distances=plan.distances,
        rho_hat=rho_hat[0],
        pair_count=plan.pair_count,
        exceed_count=hits[0],
        a_m=a_m,
        m=m,
        set_a=set_a,
        set_b=set_b,
        denom_rate=n_a / field.size,
        mode="lattice",
        by_distance=plan.by_distance,
    )


def lattice_ese(
    field: LatticeField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    lags,
    *, plan: LatticePlan | None = None,
) -> EseResult:
    """Extremogram estimate at each requested vector lag.

    rho_hat(h) = [hits(h) / n(h)] / [#{X in a_m A} / #sites] with
    hits counting ordered in-grid pairs where X_{t+h} lands in a_m A
    and X_t lands in a_m B, strict inequalities on both sides.

    Raises DegenerateDenominator when no site at all lands in the
    scaled A set (a NaN here would silently poison any aggregation),
    and LagOutOfRange for non-integer lags or |h_i| >= n_i.

    ``plan`` is ``LatticePlan(field.dims, lags)`` built beforehand, so
    that several estimates can share it; it is used as given, in place
    of ``lags``, and does not change the output.  A plan built for a
    grid of other ``dims`` is refused (ValueError).
    """
    return _estimate(field, set_a, set_b, rule, plan or LatticePlan(field.dims, lags))


def lattice_ese_by_distance(
    field: LatticeField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    max_dist: float,
    *, plan: LatticePlan | None = None,
) -> EseResult:
    """Extremogram pooled over all integer lags of equal norm.

    Every lag with 0 < |h| <= max_dist is evaluated; lags sharing a
    squared norm are merged by summing hits and pair counts, so the
    pooled estimate is the pair-count-weighted mean of the per-lag
    ones.  Rows are sorted by distance; each row's representative lag
    is the lexicographically largest member of its class, e.g. (1,0)
    for distance 1 and (1,1) for sqrt 2.

    ``plan`` is ``LatticePlan(field.dims, max_dist, by_distance=True)``
    built beforehand; it is used as given, in place of ``max_dist``,
    and does not change the output.  A plan built for a grid of other
    ``dims`` is refused (ValueError).
    """
    plan = plan or LatticePlan(field.dims, max_dist, by_distance=True)
    return _estimate(field, set_a, set_b, rule, plan)
