"""Kernel-weighted extremogram for irregularly spaced point samples.

Pairs of observation points never sit exactly at the lag of interest,
so the pair indicator is replaced by a kernel weight w_n(h + s_i - s_j)
concentrated on a disc of radius bandwidth/2.  The estimate is

    rho_hat(h) = tau_hat(h) / p_hat
    tau_hat(h) = (m / (nu^2 |S|)) sum_{i != j} w_n(h + s_i - s_j) 1A(i) 1B(j)
    p_hat      = (m / (nu |S|))  #{i: value in a_m A}

with |S| the area of the sampling rectangle and nu the point intensity
(measured, or the plug-in N/|S|).  The points are bucketed once into
square cells at least as wide as the kernel support; per lag h, the
candidates j of point i are the points in the 3x3 block of cells around
s_i + h, and the support test keeps the pairs inside the kernel disc.
Weight contributions are summed in ascending order, so results are
independent of point storage order and bit-identical to a brute-force
double loop that sums the same way.

Every estimate runs over one value-free :class:`KernelPlan`, which also
pools the output rows; values enter only as indicator vectors with a
leading batch axis, so the same plan serves one field or its shuffles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, EmptyField
from .fields import (EseResult, ExtremeSet, Lag, PointField, ThresholdRule, as_lag,
                     resolve_threshold)

__all__ = [
    "KernelSpec",
    "KernelTau",
    "KernelPlan",
    "kernel_p_hat",
    "kernel_tau_hat",
    "kernel_ese",
    "kernel_ese_by_distance",
]

_SHAPES = ("box", "epanechnikov")
# directions representing each distance of kernel_ese_by_distance
_N_ANGLES = 8
# relative slack of a search cell over the support radius
_CELL_MARGIN = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic planar smoothing kernel with bandwidth lambda.

    The unscaled kernel w is a probability density on R^2 supported on
    the disc of radius 1/2: box is (4/pi) on the disc, epanechnikov is
    (8/pi)(1 - 4|x|^2).  The bandwidth-lambda version used on data is
    w_n(x) = w(x/lambda)/lambda^2, supported on radius lambda/2.
    """

    shape: str
    bandwidth: float

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"kernel shape must be one of {_SHAPES}, got {self.shape!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @classmethod
    def box(cls, bandwidth: float) -> "KernelSpec":
        return cls("box", float(bandwidth))

    @classmethod
    def epanechnikov(cls, bandwidth: float) -> "KernelSpec":
        return cls("epanechnikov", float(bandwidth))

    @property
    def support_radius(self) -> float:
        return self.bandwidth / 2.0

    def profile(self, nsq) -> np.ndarray:
        """Unscaled density as a function of |x|^2, without the support test."""
        nsq = np.asarray(nsq, dtype=float)
        if self.shape == "box":
            return np.full(nsq.shape, 4.0 / math.pi)
        return (8.0 / math.pi) * (1.0 - 4.0 * nsq)

    def unscaled(self, points) -> np.ndarray:
        """Density w at rows of ``points`` (shape (k, 2))."""
        pts = np.asarray(points, dtype=float)
        nsq = np.sum(pts * pts, axis=-1)
        return np.where(nsq <= 0.25, self.profile(nsq), 0.0)

    def scaled(self, diffs) -> np.ndarray:
        """w_n at difference vectors ``diffs`` (shape (k, 2))."""
        lam = self.bandwidth
        return self.unscaled(np.asarray(diffs, dtype=float) / lam) / (lam * lam)

    def label(self) -> str:
        return f"{self.shape}(lambda={self.bandwidth:g})"


@dataclass(frozen=True, eq=False)
class KernelTau:
    """Per-lag weighted pair sums tau_hat plus the counts behind them.

    ``pair_count`` counts ordered point pairs whose difference falls in
    the kernel support at that lag, regardless of values;
    ``exceed_count`` those that also pass both set indicators.
    ``degenerate`` flags the case where no pair at any lag fell inside
    the support (bandwidth too small for the point spacing): tau is
    then identically zero and the flag is the only signal.
    """

    lags: tuple[Lag, ...]
    tau: np.ndarray
    pair_count: np.ndarray
    exceed_count: np.ndarray
    a_m: float
    m: float
    nu_used: float
    degenerate: bool


def _resolve_nu(pf: PointField, nu: float | None) -> float:
    if nu is None:
        return pf.n_points / pf.area
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"known intensity must be positive, got {nu}")
    return float(nu)


def kernel_p_hat(
    pf: PointField,
    set_a: ExtremeSet,
    rule: ThresholdRule,
    nu: float | None = None,
) -> tuple[float, float, float, float]:
    """Marginal tail estimate (p_hat, a_m, m, nu_used).

    p_hat = m * #{value in a_m A} / (nu |S|); with the plug-in
    intensity nu = N/|S| this is exactly m times the exceedance
    fraction.
    """
    if pf.n_points == 0:
        raise EmptyField("point field has no observations")
    nu_used = _resolve_nu(pf, nu)
    a_m, m = resolve_threshold(pf.values, rule)
    p_hat, _ = _p_hat(pf, set_a, a_m, m, nu_used)
    return p_hat, a_m, m, nu_used


def _p_hat(pf: PointField, set_a: ExtremeSet, a_m: float, m: float,
           nu_used: float) -> tuple[float, int]:
    """(p_hat, #{value in a_m A}) at a resolved threshold and intensity."""
    n_a = int(np.count_nonzero(set_a.indicator(pf.values, a_m)))
    return m * n_a / (nu_used * pf.area), n_a


class _CellGrid:
    """Planar points bucketed into square cells, for fixed-radius pair search.

    The cell side is at least ``radius * (1 + _CELL_MARGIN)``, so every
    point within ``radius`` of a query lies in the 3x3 block of cells
    around the query's cell, and at least extent/sqrt(N), so the table
    holds O(N) cells whatever the radius.  The margin outweighs the
    rounding of the cell coordinates and of the support test by orders of
    magnitude.  The table is padded by two empty cells on each side, and
    a query more than one cell outside the occupied box has no candidates.
    """

    def __init__(self, locations: np.ndarray, radius: float):
        n = len(locations)
        lo, hi = (locations.min(axis=0), locations.max(axis=0)) if n else (np.zeros(2),) * 2
        self.side = max(radius * (1.0 + _CELL_MARGIN), float((hi - lo).max()) / math.sqrt(max(n, 1)))
        self.coords = (locations - lo) / self.side  # in cell units, cell (0, 0) at lo
        self.span = np.floor((hi - lo) / self.side).astype(np.int64)  # last occupied cell
        self.width = int(self.span[1]) + 5
        cell_x, cell_y = np.floor(self.coords).astype(np.int64).T + 2
        key = cell_x * self.width + cell_y
        self.order = np.argsort(key, kind="stable")
        per_cell = np.bincount(key, minlength=(int(self.span[0]) + 5) * self.width)
        self.starts = np.concatenate([[0], np.cumsum(per_cell)])

    def candidates(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j): every point j in the 3x3 block of cells
        around the cell of s_i + h, for each point i."""
        query_x, query_y = np.floor(self.coords + np.asarray(h) / self.side).T
        near = np.flatnonzero((query_x >= -1) & (query_x <= self.span[0] + 1)
                              & (query_y >= -1) & (query_y <= self.span[1] + 1))
        centre = (query_x[near].astype(np.int64) + 2) * self.width + query_y[near].astype(np.int64) + 2
        # each column of the block is 3 consecutive keys, from the one below the centre row
        first_cell = (centre[:, None] + (np.arange(-1, 2) * self.width - 1)).ravel()
        first = self.starts[first_cell]
        count = self.starts[first_cell + 3] - first
        ends = np.cumsum(count)
        sorted_j = np.arange(count.sum()) - np.repeat(ends - count - first, count)
        return np.repeat(np.repeat(near, 3), count), self.order[sorted_j]


class KernelPlan:
    """Value-free geometry of a kernel estimate at vector ``lags`` or,
    with ``by_distance``, at the rings of the distances ``lags``: per
    lag, the ordered pairs (i, j), i != j, inside the kernel support and
    their weights w_n, ascending, so masked sums add in ascending order.

    The locations are bucketed once into a cell grid (``_CellGrid``)
    whose cells are at least as wide as the support radius.  For lag h
    the candidates j of point i are the points in the 3x3 block of cells
    around s_i + h; the support test
    ``|(s_i - s_j) + h|^2 / lambda^2 <= 1/4`` then decides membership.
    ``lags`` and ``pair_count`` are per lag; ``row_lags`` and
    ``distances`` label the rows ``pool`` forms.
    """

    def __init__(self, locations: np.ndarray, kernel: KernelSpec, lags, by_distance: bool = False):
        self.locations = locations
        self.kernel = kernel
        self.by_distance = by_distance
        self.lags = tuple(as_lag(h, d=2) for h in (_rings(lags) if by_distance else lags))
        # a ring is one lag, or _N_ANGLES lags starting at angle 0, at Lag.of(r, 0)
        self._ring = _N_ANGLES if by_distance else 1
        self.row_lags = self.lags[::self._ring]
        self.distances = np.array([lag.norm for lag in self.row_lags])
        if not self.lags:
            raise ValueError("no lags to estimate: give at least one lag or distance")
        grid = _CellGrid(locations, kernel.support_radius)
        loc_x, loc_y = np.ascontiguousarray(locations.T)
        lam = kernel.bandwidth
        self._pairs = []
        for lag in self.lags:
            h_x, h_y = lag.offset
            i, j = grid.candidates(lag.offset)
            # the support test on the scaled (s_i - s_j) + h, one component
            # at a time; its negation is exact, so tau(h) == tau(-h) holds
            # bit-for-bit when A == B
            d_x = ((loc_x[i] - loc_x[j]) + h_x) / lam
            d_y = ((loc_y[i] - loc_y[j]) + h_y) / lam
            nsq = d_x * d_x + d_y * d_y
            inside = np.flatnonzero(nsq <= 0.25)
            inside = inside[i[inside] != j[inside]]
            weights = kernel.profile(nsq[inside]) / (lam * lam)
            order = np.argsort(weights, kind="stable")
            inside = inside[order]
            self._pairs.append((i[inside], j[inside], weights[order]))
        self.pair_count = np.array([len(w) for _, _, w in self._pairs], dtype=np.int64)

    def counts(self, ind_a: np.ndarray, ind_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hits, weight sums), each ``(batch, lags)``, for indicator
        batches of shape ``(batch, n_points)``; A is read at i, B at j."""
        hits = np.empty((len(ind_a), len(self._pairs)), dtype=np.int64)
        sums = np.empty(hits.shape)
        for k, (i, j, w) in enumerate(self._pairs):
            both = ind_a[:, i] & ind_b[:, j]
            hits[:, k] = np.count_nonzero(both, axis=1)
            sums[:, k] = [w[row].sum() for row in both]
        return hits, sums

    def pool(self, per_lag: np.ndarray, reduce=np.sum) -> np.ndarray:
        """Output rows: the last (lag) axis of ``per_lag`` reduced ring by ring."""
        return reduce(per_lag.reshape(*per_lag.shape[:-1], -1, self._ring), axis=-1)

    def shuffle_rho(self, pf: PointField, ind_a, ind_b, observed: EseResult) -> np.ndarray:
        """rho_hat rows of shuffles of ``pf``, given as its indicator
        vectors gathered through each permutation, at the threshold, m
        and intensity of ``observed``."""
        m, nu_used = observed.m, observed.nu_used
        p_hat, _ = _p_hat(pf, observed.set_a, observed.a_m, m, nu_used)
        return self.pool(_tau(self.counts(ind_a, ind_b)[1], m, nu_used, pf.area) / p_hat, np.mean)


def _tau(sums, m: float, nu_used: float, area: float):
    return (m / (nu_used * nu_used * area)) * sums


def kernel_tau_hat(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    lags,
    nu: float | None = None,
    *, plan: KernelPlan | None = None,
) -> KernelTau:
    """Weighted ordered-pair sums tau_hat(h) for each requested lag.

    For lag h, the pairs visited are exactly those with
    |h + s_i - s_j| <= bandwidth/2 (the pairs of :class:`KernelPlan`,
    found through a cell grid of the locations); the A indicator is
    evaluated at point i and the B indicator at point j.

    ``plan`` is ``KernelPlan(pf.locations, kernel, lags)`` built
    beforehand, so that several estimates can share it; it is used as
    given, in place of ``lags``, and does not change the output.  A
    plan built for other locations or another kernel is refused
    (ValueError).
    """
    if pf.n_points < 2:
        raise EmptyField("kernel pair sums need at least 2 points")
    plan = plan or KernelPlan(pf.locations, kernel, lags)
    if not np.array_equal(plan.locations, pf.locations):
        raise ValueError("KernelPlan was built for other locations")
    if plan.kernel != kernel:
        raise ValueError(f"KernelPlan was built for {plan.kernel.label()}, not {kernel.label()}")
    nu_used = _resolve_nu(pf, nu)
    a_m, m = resolve_threshold(pf.values, rule)
    hits, sums = plan.counts(
        set_a.indicator(pf.values, a_m)[None], set_b.indicator(pf.values, a_m)[None]
    )
    return KernelTau(
        lags=plan.lags,
        tau=_tau(sums[0], m, nu_used, pf.area),
        pair_count=plan.pair_count,
        exceed_count=hits[0],
        a_m=a_m,
        m=m,
        nu_used=nu_used,
        degenerate=bool(plan.pair_count.sum() == 0),
    )


def kernel_ese(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    lags,
    nu: float | None = None,
    *, plan: KernelPlan | None = None,
) -> EseResult:
    """Kernel extremogram rho_hat(h) = tau_hat(h) / p_hat per vector lag.

    DegenerateDenominator when no point lands in the scaled A set.  A
    bandwidth too small to capture any pair yields all-zero rho with
    ``bandwidth_degenerate`` set rather than an error.

    ``plan`` is as in :func:`kernel_tau_hat`: used as given, in place
    of ``lags``, without changing the output; a by-distance plan gives
    the rows of :func:`kernel_ese_by_distance`.
    """
    plan = plan or KernelPlan(pf.locations, kernel, lags)
    taus = kernel_tau_hat(pf, set_a, set_b, rule, kernel, lags, nu, plan=plan)
    a_m, m, nu_used = taus.a_m, taus.m, taus.nu_used
    p_hat, n_a = _p_hat(pf, set_a, a_m, m, nu_used)
    if p_hat == 0.0:
        raise DegenerateDenominator(
            f"no point lands in {set_a.label()} at threshold {a_m:g}"
        )
    return EseResult(
        lags=plan.row_lags,
        distances=plan.distances,
        rho_hat=plan.pool(taus.tau / p_hat, np.mean),
        pair_count=plan.pool(taus.pair_count),
        exceed_count=plan.pool(taus.exceed_count),
        a_m=a_m,
        m=m,
        set_a=set_a,
        set_b=set_b,
        denom_rate=n_a / pf.n_points,
        mode="kernel",
        by_distance=plan.by_distance,
        bandwidth_degenerate=taus.degenerate,
        nu_used=nu_used,
    )


def _rings(distances) -> list[Lag]:
    """_N_ANGLES lags equally spaced on the circle of each distance (one
    distance or a list, each positive and finite)."""
    dists = [float(r) for r in np.atleast_1d(distances)]
    if any(not (math.isfinite(r) and r > 0) for r in dists):
        raise ValueError("distances must be positive and finite")
    return [
        Lag.of(r * math.cos(ang), r * math.sin(ang))
        for r in dists
        for ang in (2.0 * math.pi * k / _N_ANGLES for k in range(_N_ANGLES))
    ]


def kernel_ese_by_distance(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    distances,
    nu: float | None = None,
    *, plan: KernelPlan | None = None,
) -> EseResult:
    """Isotropic kernel extremogram: rho averaged around each distance.

    ``distances`` is one distance or a list.  Each distance r is
    represented by 8 lags equally spaced on the circle of radius r;
    rho_hat(r) is the plain average of the per-representative
    estimates (they share the denominator p_hat).  Counts are summed
    over representatives.

    ``plan`` is ``KernelPlan(pf.locations, kernel, distances,
    by_distance=True)`` built beforehand; it is used as given, in place
    of ``distances``, and does not change the output.
    """
    plan = plan or KernelPlan(pf.locations, kernel, distances, by_distance=True)
    return kernel_ese(pf, set_a, set_b, rule, kernel, distances, nu, plan=plan)
