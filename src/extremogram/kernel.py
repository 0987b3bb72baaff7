"""Kernel-weighted extremogram for irregularly spaced point samples.

Pairs of observation points never sit exactly at the lag of interest,
so the pair indicator is replaced by a kernel weight w_n(h + s_i - s_j)
concentrated on a disc of radius bandwidth/2.  The estimate is

    rho_hat(h) = tau_hat(h) / p_hat
    tau_hat(h) = (m / (nu^2 |S|)) sum_{i != j} w_n(h + s_i - s_j) 1A(i) 1B(j)
    p_hat      = (m / (nu |S|))  #{i: value in a_m A}

with |S| the area of the sampling rectangle and nu the point intensity
(measured, or the plug-in N/|S|).  A KD-tree restricts the double sum
to pairs inside the kernel support; weight contributions are summed in
ascending order, so results are independent of point storage order and
bit-identical to a brute-force double loop that sums the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateDenominator, EmptyField
from .fields import ExtremeSet, Lag, PointField, ThresholdRule, as_lag, resolve_threshold
from .results import EseResult

__all__ = [
    "KernelSpec",
    "KernelTau",
    "kernel_p_hat",
    "kernel_tau_hat",
    "kernel_ese",
    "kernel_ese_by_distance",
]

_SHAPES = ("box", "epanechnikov")


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


def _sorted_sum(values: np.ndarray) -> float:
    # ascending order: storage-order invariant and reproducible
    return float(np.sort(values).sum())


def kernel_tau_hat(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    lags,
    nu: float | None = None,
) -> KernelTau:
    """Weighted ordered-pair sums tau_hat(h) for each requested lag.

    For lag h, the pairs visited are exactly those with
    |h + s_i - s_j| <= bandwidth/2 (found by querying a KD-tree of the
    locations at the shifted positions s_i + h); the A indicator is
    evaluated at point i and the B indicator at point j.
    """
    if pf.n_points < 2:
        raise EmptyField("kernel pair sums need at least 2 points")
    lag_list = [as_lag(h, d=2) for h in lags]
    nu_used = _resolve_nu(pf, nu)
    a_m, m = resolve_threshold(pf.values, rule)
    ind_a = set_a.indicator(pf.values, a_m)
    ind_b = set_b.indicator(pf.values, a_m)
    scale = m / (nu_used * nu_used * pf.area)
    radius = kernel.support_radius

    tree = cKDTree(pf.locations)
    lam = kernel.bandwidth
    tau = np.zeros(len(lag_list))
    pairs = np.zeros(len(lag_list), dtype=np.int64)
    hits = np.zeros(len(lag_list), dtype=np.int64)
    for k, lag in enumerate(lag_list):
        h_vec = np.asarray(lag.offset, dtype=float)
        # slightly inflated query; membership is then decided from the
        # sign-symmetric difference (s_i - s_j) + h, whose negation is
        # exact, so tau(h) == tau(-h) holds bit-for-bit when A == B
        neighbor_lists = tree.query_ball_point(
            pf.locations + h_vec, r=radius * (1.0 + 1e-9)
        )
        counts = np.fromiter(
            (len(js) for js in neighbor_lists), dtype=np.int64, count=pf.n_points
        )
        if counts.sum() == 0:
            continue
        idx_i = np.repeat(np.arange(pf.n_points), counts)
        idx_j = np.concatenate([np.asarray(js, dtype=np.int64) for js in neighbor_lists])
        distinct = idx_i != idx_j
        idx_i, idx_j = idx_i[distinct], idx_j[distinct]
        scaled_diffs = ((pf.locations[idx_i] - pf.locations[idx_j]) + h_vec) / lam
        nsq = np.sum(scaled_diffs * scaled_diffs, axis=1)
        inside = nsq <= 0.25
        pairs[k] = int(np.count_nonzero(inside))
        both = inside & ind_a[idx_i] & ind_b[idx_j]
        hits[k] = int(np.count_nonzero(both))
        if hits[k] == 0:
            continue
        tau[k] = scale * _sorted_sum(kernel.profile(nsq[both]) / (lam * lam))
    return KernelTau(
        lags=tuple(lag_list),
        tau=tau,
        pair_count=pairs,
        exceed_count=hits,
        a_m=a_m,
        m=m,
        nu_used=nu_used,
        degenerate=bool(pairs.sum() == 0),
    )


def kernel_ese(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    lags,
    nu: float | None = None,
) -> EseResult:
    """Kernel extremogram rho_hat(h) = tau_hat(h) / p_hat per vector lag.

    DegenerateDenominator when no point lands in the scaled A set.  A
    bandwidth too small to capture any pair yields all-zero rho with
    ``bandwidth_degenerate`` set rather than an error.
    """
    taus = kernel_tau_hat(pf, set_a, set_b, rule, kernel, lags, nu)
    a_m, m, nu_used = taus.a_m, taus.m, taus.nu_used
    p_hat, n_a = _p_hat(pf, set_a, a_m, m, nu_used)
    if p_hat == 0.0:
        raise DegenerateDenominator(
            f"no point lands in {set_a.label()} at threshold {a_m:g}"
        )
    return EseResult(
        lags=taus.lags,
        distances=np.array([lag.norm for lag in taus.lags]),
        rho_hat=taus.tau / p_hat,
        pair_count=taus.pair_count,
        exceed_count=taus.exceed_count,
        a_m=a_m,
        m=m,
        set_a=set_a,
        set_b=set_b,
        denom_rate=n_a / pf.n_points,
        mode="kernel",
        bandwidth_degenerate=taus.degenerate,
        nu_used=nu_used,
    )


def _ring(distance: float, n_angles: int) -> list[Lag]:
    reps = []
    for k in range(n_angles):
        ang = 2.0 * math.pi * k / n_angles
        reps.append(Lag.of(distance * math.cos(ang), distance * math.sin(ang)))
    return reps


def kernel_ese_by_distance(
    pf: PointField,
    set_a: ExtremeSet,
    set_b: ExtremeSet,
    rule: ThresholdRule,
    kernel: KernelSpec,
    distances,
    nu: float | None = None,
    n_angles: int = 8,
) -> EseResult:
    """Isotropic kernel extremogram: rho averaged around each distance.

    Each distance r is represented by n_angles lags equally spaced on
    the circle of radius r; rho_hat(r) is the plain average of the
    per-representative estimates (they share the denominator p_hat).
    Counts are summed over representatives.
    """
    if n_angles < 1:
        raise ValueError(f"n_angles must be >= 1, got {n_angles}")
    dists = [float(r) for r in distances]
    if any(not (math.isfinite(r) and r > 0) for r in dists):
        raise ValueError("distances must be positive and finite")
    all_lags: list[Lag] = []
    for r in dists:
        all_lags.extend(_ring(r, n_angles))
    per_lag = kernel_ese(pf, set_a, set_b, rule, kernel, all_lags, nu)

    rho, pairs, hits, reps = [], [], [], []
    for g, r in enumerate(dists):
        rows = slice(g * n_angles, (g + 1) * n_angles)
        rho.append(float(np.mean(per_lag.rho_hat[rows])))
        pairs.append(int(per_lag.pair_count[rows].sum()))
        hits.append(int(per_lag.exceed_count[rows].sum()))
        reps.append(Lag.of(r, 0.0))
    return EseResult(
        lags=tuple(reps),
        distances=np.array(dists),
        rho_hat=np.array(rho),
        pair_count=np.array(pairs, dtype=np.int64),
        exceed_count=np.array(hits, dtype=np.int64),
        a_m=per_lag.a_m,
        m=per_lag.m,
        set_a=set_a,
        set_b=set_b,
        denom_rate=per_lag.denom_rate,
        mode="kernel",
        by_distance=True,
        bandwidth_degenerate=per_lag.bandwidth_degenerate,
        nu_used=per_lag.nu_used,
    )
