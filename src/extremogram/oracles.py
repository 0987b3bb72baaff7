"""Closed-form and pre-asymptotic reference values.

These are the analytic targets the estimators are judged against:

* tail dependence of max-moving-average fields from min/total weight sums,
* the same quantity for geometric weights through lattice shell counts,
* finite-threshold ("pre-asymptotic") versions of both, exact at tail
  index m under the Frechet marginal algebra,
* the Husler-Reiss bivariate CDF and the Brown-Resnick tail dependence
  derived from it, again with limit and finite-m versions,
* the law of each simulated field, held by its model as ``law``: an
  ``IidLaw``, ``MmaLaw`` or ``BrLaw`` with ``oracle_limit(lag)`` and
  ``oracle_pa(lag, m)``.

Every value is for the exceedance ray (1, inf) as both sets, the only
pair these closed forms hold for; no function takes other sets.
Everything here is deterministic, cheap, and independent of the
estimator code paths, so tests can use these functions as oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import Lag, as_lag
from .simulate import MmaPlan, VariogramSpec, WeightSpec, _ndtr

__all__ = [
    "IidLaw",
    "MmaLaw",
    "BrLaw",
    "LatticeCount",
    "PaValue",
    "mma_extremogram",
    "mma_pa_extremogram",
    "mma1_extremogram",
    "mma1_pa_extremogram",
    "mma_geometric_extremogram_classsum",
    "lattice_counts",
    "husler_reiss_cdf",
    "br_extremogram",
    "br_pa_extremogram",
    "br_pa_tau",
    "br_pa_exceedance",
]


@dataclass(frozen=True)
class PaValue:
    """A finite-m tail dependence value next to its m -> inf limit."""

    lag: Lag
    m: float
    rho_pa: float
    rho_limit: float


class IidLaw:
    """Independent unit-Frechet values: dependent at lag 0 only."""

    def oracle_limit(self, lag: Lag) -> float:
        return 1.0 if lag.norm == 0.0 else 0.0

    def oracle_pa(self, lag: Lag, m: float) -> float:
        return 1.0 if lag.norm == 0.0 else 1.0 / m


# ---------------------------------------------------------------------------
# max-moving averages


class MmaLaw:
    """Tail dependence of the MMA field whose draws ``plan`` serves.

    Reads the plan's truncated support in support order and scatters its
    weights on a dense grid over the support's bounding box (zero outside
    it), where w(h+s) is looked up.  Weights at s and s + h overlap only
    for |h| <= ``reach``, twice the truncation radius.  Each lag's limit
    is computed once and kept, as ``oracle_pa`` reads it too.
    """

    def __init__(self, plan: MmaPlan):
        self.d = plan.d
        self.offsets, self.wts = plan.support
        self.low = self.offsets.min(axis=0)
        self.grid = np.zeros(self.offsets.max(axis=0) - self.low + 1)
        self.grid[tuple((self.offsets - self.low).T)] = self.wts
        self.reach = 2.0 * plan.weights.truncation(plan.d)
        self._limits: dict[Lag, float] = {}

    def oracle_limit(self, lag: Lag) -> float:
        """``sum_s min(w(s), w(h+s)) / sum_s w(s)`` over the truncated support.

        The numerator is summed left to right in support order by
        ``cumsum``, as a scalar loop would.
        """
        if lag not in self._limits:
            self._limits[lag] = self._limit(lag)
        return self._limits[lag]

    def _limit(self, lag: Lag) -> float:
        if not lag.is_integer or lag.d != self.d:
            raise ValueError(f"{self.d}-d MMA lags live on the integer lattice, got {lag.offset}")
        # a lag component at or past the box width overlaps nothing; clipping
        # it to the width keeps huge lags within int64 in the sum below
        h = [min(max(c, -n), n) for c, n in zip(lag.int_offset(), self.grid.shape)]
        shifted = self.offsets + h - self.low
        inside = np.all((shifted >= 0) & (shifted < self.grid.shape), axis=1)
        other = np.zeros(len(self.wts))
        other[inside] = self.grid[tuple(shifted[inside].T)]
        return float(np.cumsum(np.minimum(self.wts, other))[-1]) / float(self.wts.sum())

    def oracle_pa(self, lag: Lag, m: float) -> float:
        return _mma_pa(self.oracle_limit(lag), m)


def _mma_pa(rho_limit: float, m: float) -> float:
    if not m > 1:
        raise DomainError(f"tail index m must exceed 1, got {m}")
    kappa = 2.0 - rho_limit  # 2 at rho_limit = 0, where the formula is 1/m up to rounding
    rho_pa = 1.0 / m if rho_limit == 0.0 else (2.0 / m - 1.0 + (1.0 - 1.0 / m) ** kappa) * m
    return float(rho_pa)


def mma_extremogram(weights: WeightSpec, h) -> float:
    """Limit tail dependence of an MMA field at integer lag h.

    Equals ``sum_s min(w(s), w(h+s)) / sum_s w(s)`` over the (truncated)
    weight support.  Both sets are fixed to the exceedance ray (1, inf),
    the only pair with this closed form.
    """
    lag = as_lag(h)
    return MmaLaw(MmaPlan(weights, lag.d)).oracle_limit(lag)


def mma_pa_extremogram(weights: WeightSpec, h, m: float) -> PaValue:
    """Finite-m tail dependence of an MMA field at integer lag h.

    With unit-Frechet noise the joint CDF satisfies
    ``P(X_0 <= x, X_h <= x) = exp(-kappa * W_tot / x)`` where
    ``kappa = 2 - rho_limit(h)`` (the max-overlap exponent), so with the
    threshold at the 1 - 1/m marginal quantile,

        rho_m(h) = (2/m - 1 + (1 - 1/m)^kappa) / (1/m).

    Exact for every m > 1 in exact arithmetic, and -> rho_limit as m
    grows.  In floating point the sum cancels as m grows: for
    geometric(0.5) at lag (1, 0) it gives 1.1102 at m = 1e16 and 0.0 at
    m = 1e17, against the limit 0.7733.
    """
    lag = as_lag(h)
    rho_limit = MmaLaw(MmaPlan(weights, lag.d)).oracle_limit(lag)
    return PaValue(lag=lag, m=float(m), rho_pa=_mma_pa(rho_limit, m), rho_limit=rho_limit)


_MMA1_BY_NORMSQ = {0.0: 1.0, 1.0: 2.0 / 5.0, 2.0: 2.0 / 5.0, 4.0: 1.0 / 5.0}
_MMA1_KAPPA_BY_NORMSQ = {0.0: 1.0, 1.0: 8.0 / 5.0, 2.0: 8.0 / 5.0, 4.0: 9.0 / 5.0}


def _mma1_norm_sq(h) -> float:
    lag = as_lag(h)
    if lag.d != 2:
        raise ValueError("the unit-ball MMA closed form is planar")
    nsq = lag.norm_sq
    for key in _MMA1_BY_NORMSQ:
        if abs(nsq - key) <= 1e-9:
            return key
    if nsq > 4.0:
        return math.inf
    raise DomainError(
        f"|h|^2 = {nsq:g} is not an attainable planar lattice distance"
    )


def mma1_extremogram(h) -> float:
    """Unit-ball MMA limit values: 2/5 at |h| in {1, sqrt 2}, 1/5 at 2, else 0."""
    key = _mma1_norm_sq(h)
    return 0.0 if math.isinf(key) else _MMA1_BY_NORMSQ[key]


def mma1_pa_extremogram(h, m: float) -> PaValue:
    """Finite-m values for the unit-ball MMA, via the piecewise exponents.

    (2/m - 1 + (1-1/m)^(8/5)) * m  at |h| in {1, sqrt 2},
    the same with exponent 9/5     at |h| = 2,
    1/m                            at |h| > 2.

    This is a separate code path from :func:`mma_pa_extremogram` (hard
    coded exponents rather than weight enumeration) so the two can be
    cross-checked against each other.
    """
    if not m > 1:
        raise DomainError(f"tail index m must exceed 1, got {m}")
    lag = as_lag(h)
    key = _mma1_norm_sq(lag)
    if math.isinf(key):
        return PaValue(lag=lag, m=float(m), rho_pa=1.0 / m, rho_limit=0.0)
    kappa = _MMA1_KAPPA_BY_NORMSQ[key]
    rho_pa = (2.0 / m - 1.0 + (1.0 - 1.0 / m) ** kappa) * m
    return PaValue(
        lag=lag, m=float(m), rho_pa=float(rho_pa), rho_limit=_MMA1_BY_NORMSQ[key]
    )


# ---------------------------------------------------------------------------
# lattice shell counts and the geometric class-sum form


@dataclass(frozen=True)
class LatticeCount:
    """Planar lattice shell counts relative to 0 and a second center -h.

    ``norms`` lists the distinct distances r <= max_radius (as exact
    squared norms in ``norm_sq``); ``p[r]`` counts points at |s| = r and
    ``q[r]`` counts points at min(|s|, |h+s|) = r.
    """

    h: Lag
    max_radius: float
    norm_sq: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @property
    def norms(self) -> np.ndarray:
        return np.sqrt(self.norm_sq.astype(float))


def lattice_counts(max_radius: float, h) -> LatticeCount:
    """Exhaustive planar shell counts p(r) and q(r) up to max_radius.

    Enumerates every integer point within max_radius of the origin or of
    -h, classifying by |s| and by min(|s|, |h+s|).  Distance classes are
    keyed by exact squared norms, so no float binning is involved.
    """
    lag = as_lag(h)
    if lag.d != 2 or not lag.is_integer:
        raise ValueError("lattice_counts is defined for integer planar lags")
    if not 0 < max_radius < math.inf:
        raise ValueError(f"max_radius must be finite and positive, got {max_radius}")
    hx, hy = lag.int_offset()
    reach = int(math.floor(max_radius))
    r2_max = int(math.floor(max_radius * max_radius))
    xs = np.arange(min(0, -hx) - reach, max(0, -hx) + reach + 1)
    ys = np.arange(min(0, -hy) - reach, max(0, -hy) + reach + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    n_self = gx * gx + gy * gy
    n_shift = (gx + hx) ** 2 + (gy + hy) ** 2
    n_min = np.minimum(n_self, n_shift)

    keys = np.unique(n_self[n_self <= r2_max])
    p = np.array([np.count_nonzero(n_self == k) for k in keys])
    q = np.array([np.count_nonzero(n_min == k) for k in keys])
    return LatticeCount(
        h=lag, max_radius=float(max_radius), norm_sq=keys.astype(np.int64), p=p, q=q
    )


def mma_geometric_extremogram_classsum(phi: float, h, max_radius: float = 60.0) -> float:
    """Geometric-weight MMA limit via the shell class sums.

    rho(h) = sum_{r >= |h|/2} phi^r [2 p(r) - q(r)] / sum_r phi^r p(r),
    both sums truncated at max_radius.  Classes below |h|/2 drop out
    because q = 2p there; they are kept in the code and contribute zero,
    which doubles as a consistency check on the counts.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    counts = lattice_counts(max_radius, h)
    r = counts.norms
    weights = np.power(phi, r)
    num = float(np.sum(weights * (2 * counts.p - counts.q)))
    den = float(np.sum(weights * counts.p))
    return num / den


# ---------------------------------------------------------------------------
# Husler-Reiss / Brown-Resnick


def husler_reiss_cdf(y1: float, y2: float, delta: float) -> float:
    """Bivariate Husler-Reiss CDF with dependence parameter delta >= 0.

    F(y1, y2) = exp{ -Phi(log(y2/y1)/(2 sqrt delta) + sqrt delta)/y1
                     -Phi(log(y1/y2)/(2 sqrt delta) + sqrt delta)/y2 }

    delta = 0 degenerates to complete dependence exp(-1/min(y1, y2));
    delta -> inf approaches independence exp(-1/y1 - 1/y2).
    """
    if not (y1 > 0 and y2 > 0):
        raise DomainError(f"arguments must be positive, got ({y1}, {y2})")
    if delta < 0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return math.exp(-1.0 / min(y1, y2))
    sd = math.sqrt(delta)
    z = math.log(y2 / y1) / (2.0 * sd)
    return math.exp(-_ndtr(z + sd) / y1 - _ndtr(-z + sd) / y2)


def _br_phibars(delta: float, c_a: float, c_b: float) -> tuple[float, float]:
    """Survivor values (1 - Phi_{cA,cB}(delta), 1 - Phi_{cB,cA}(delta))."""
    if delta == 0.0:
        if c_b > c_a:
            return 0.0, 1.0
        if c_b < c_a:
            return 1.0, 0.0
        return 0.5, 0.5
    sd = math.sqrt(delta)
    z = math.log(c_b / c_a) / (2.0 * sd)
    return _ndtr(-(z + sd)), _ndtr(z - sd)


def br_extremogram(h, vario: VariogramSpec, c_a: float = 1.0, c_b: float = 1.0) -> float:
    """Brown-Resnick limit tail dependence between rays (c_a, inf), (c_b, inf).

    rho = Phibar_{cA,cB}(delta(h)) + (c_a/c_b) * Phibar_{cB,cA}(delta(h))
    with Phi_{y1,y2}(delta) = Phi(log(y2/y1)/(2 sqrt delta) + sqrt delta).
    """
    if not (c_a > 0 and c_b > 0):
        raise DomainError("ray endpoints must be positive")
    lag = as_lag(h)
    pb1, pb2 = _br_phibars(vario.delta(lag.norm), c_a, c_b)
    return pb1 + (c_a / c_b) * pb2


def br_pa_exceedance(c_a: float, m: float, a_m: float | None = None) -> float:
    """p_m = m * P(X > a_m * c_a) for unit-Frechet margins; a_m defaults to m."""
    if not m > 1:
        raise DomainError(f"tail index m must exceed 1, got {m}")
    a = m if a_m is None else a_m
    return -m * math.expm1(-1.0 / (c_a * a))


def br_pa_tau(
    h,
    vario: VariogramSpec,
    c_a: float = 1.0,
    c_b: float = 1.0,
    m: float = 100.0 / 3.0,
    a_m: float | None = None,
) -> float:
    """tau_m = m * P(X_0 > a_m c_a, X_h > a_m c_b) for a Brown-Resnick field.

    Evaluated as m * [1 - e^{-u} - e^{-v} + F(a_m c_a, a_m c_b)] with the
    exact Husler-Reiss CDF F; written in expm1 form so large m does not
    lose precision to cancellation.  a_m defaults to m.
    """
    if not (c_a > 0 and c_b > 0):
        raise DomainError("ray endpoints must be positive")
    if not m > 1:
        raise DomainError(f"tail index m must exceed 1, got {m}")
    lag = as_lag(h)
    a = m if a_m is None else a_m
    u = 1.0 / (c_a * a)
    v = 1.0 / (c_b * a)
    delta = vario.delta(lag.norm)
    if delta == 0.0:
        # complete dependence: joint exceedance is the smaller-ray exceedance
        return -m * math.expm1(-min(u, v))
    pb1, pb2 = _br_phibars(delta, c_a, c_b)
    # w = u*Phi1 + v*Phi2 is the HR exponent; tau = m[-expm1(-u) + e^-v expm1(v-w)]
    v_minus_w = v * pb2 - u * (1.0 - pb1)
    return m * (-math.expm1(-u) + math.exp(-v) * math.expm1(v_minus_w))


def br_pa_extremogram(
    h,
    vario: VariogramSpec,
    c_a: float = 1.0,
    c_b: float = 1.0,
    m: float = 100.0 / 3.0,
    a_m: float | None = None,
) -> PaValue:
    """Finite-m Brown-Resnick tail dependence tau_m / p_m; a_m defaults to m."""
    lag = as_lag(h)
    tau = br_pa_tau(lag, vario, c_a, c_b, m, a_m)
    p = br_pa_exceedance(c_a, m, a_m)
    return PaValue(
        lag=lag,
        m=float(m),
        rho_pa=tau / p,
        rho_limit=br_extremogram(lag, vario, c_a, c_b),
    )


@dataclass(frozen=True)
class BrLaw:
    """Brown-Resnick field with lags counted in steps of ``spacing``."""

    vario: VariogramSpec
    spacing: float = 1.0

    def oracle_limit(self, lag: Lag) -> float:
        return br_extremogram(lag.norm * self.spacing, self.vario)

    def oracle_pa(self, lag: Lag, m: float) -> float:
        d = lag.norm * self.spacing
        return br_pa_tau(d, self.vario, m=m) / br_pa_exceedance(1.0, m)
