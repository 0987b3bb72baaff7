"""Heavy-tailed spatial field simulators.

Three families, all with unit-Frechet margins (CDF exp(-1/x)):

* iid Frechet noise on a grid,
* max-moving-averages (MMA) of Frechet noise under a weight function on
  the integer lattice, via ``X_t = max_s w(s) * Z_{t-s}``,
* Brown-Resnick max-stable fields with variogram ``delta(h) = theta*|h|^alpha``,
  through either a truncated spectral construction pinned at the origin or
  a rescaled-Gaussian-maxima construction.

Every simulator is a pure function of its inputs and an integer seed; see
:mod:`extremogram.fields` for the seeding contract.

A note on the spectral Brown-Resnick path: with the representation
``X_s = sup_j Gamma_j^{-1} exp(W_s^j - delta(s))`` truncated at J terms,
the number of terms needed for an accurate maximum grows rapidly with
``delta(s)``, i.e. with distance from the origin.  Keep sites within a few
variogram units of the origin (or use the gaussian_max method for large
windows) and watch the emitted truncation diagnostic.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import FactorizationFailure
from .fields import LatticeField, PointField, derive_rng

__all__ = [
    "WeightSpec",
    "VariogramSpec",
    "BrSimConfig",
    "BrSimResult",
    "CountRule",
    "FieldSource",
    "sim_frechet_iid",
    "sim_mma",
    "sim_gaussian_increments",
    "sim_brown_resnick",
    "sim_point_field",
]

_TINY = np.finfo(float).tiny
_PHI_CLIP = 1.0 - 1e-16  # keep Phi(z) away from 1 before taking logs

# shell-count bounds #{s in Z^d : j <= |s| < j+1} <= c_d * (j+1)^(d-1),
# used by the geometric truncation rule below
_SHELL_BOUND_COEF = {1: 2.0, 2: 8.0, 3: 30.0}


# ---------------------------------------------------------------------------
# weight functions on the integer lattice


@dataclass(frozen=True)
class WeightSpec:
    """Weight function for max-moving-average fields.

    Kinds
    -----
    ``indicator_ball(radius)``
        w(s) = 1 for |s| <= radius, else 0.
    ``geometric(phi)``
        w(s) = phi^|s|, truncated at the smallest radius whose geometric
        tail bound drops below ``tail_tol`` (override with
        ``truncation_radius``).
    ``explicit(mapping)``
        arbitrary finite support, offsets -> positive weights.
    """

    kind: str
    radius: float | None = None
    phi: float | None = None
    mapping: tuple[tuple[tuple[int, ...], float], ...] | None = None
    truncation_radius: float | None = None
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.kind == "indicator_ball":
            if self.radius is None or not self.radius >= 0:
                raise ValueError("indicator_ball needs radius >= 0")
        elif self.kind == "geometric":
            if self.phi is None or not 0.0 < self.phi < 1.0:
                raise ValueError("geometric needs phi in (0, 1)")
            if self.truncation_radius is not None and not self.truncation_radius > 0:
                raise ValueError("truncation_radius must be positive")
        elif self.kind == "explicit":
            if not self.mapping:
                raise ValueError("explicit needs a nonempty offset->weight mapping")
            d = len(self.mapping[0][0])
            for off, w in self.mapping:
                if len(off) != d:
                    raise ValueError("explicit offsets must share one dimension")
                if not (math.isfinite(w) and w > 0):
                    raise ValueError(f"explicit weight at {off} must be positive")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def indicator_ball(cls, radius: float) -> "WeightSpec":
        return cls(kind="indicator_ball", radius=float(radius))

    @classmethod
    def geometric(
        cls, phi: float, truncation_radius: float | None = None, tail_tol: float = 1e-12
    ) -> "WeightSpec":
        return cls(
            kind="geometric",
            phi=float(phi),
            truncation_radius=truncation_radius,
            tail_tol=tail_tol,
        )

    @classmethod
    def explicit(cls, mapping: dict[tuple[int, ...], float]) -> "WeightSpec":
        items = tuple(
            (tuple(int(c) for c in off), float(w)) for off, w in mapping.items()
        )
        return cls(kind="explicit", mapping=items)

    # -- support handling ---------------------------------------------------

    def truncation(self, d: int = 2) -> float:
        """Radius beyond which the weight is treated as zero."""
        if self.kind == "indicator_ball":
            return float(self.radius)
        if self.kind == "explicit":
            return max(math.hypot(*off) for off, _ in self.mapping)
        if self.truncation_radius is not None:
            return float(self.truncation_radius)
        return float(_geometric_truncation_radius(self.phi, d, self.tail_tol))

    def support(self, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """Offsets (K, d) and weights (K,) of the truncated support."""
        if not 1 <= d <= 3:
            raise ValueError(f"d must be 1..3, got {d}")
        if self.kind == "explicit":
            d_map = len(self.mapping[0][0])
            if d_map != d:
                raise ValueError(
                    f"explicit weights are {d_map}-dimensional, requested d={d}"
                )
            offsets = np.array([off for off, _ in self.mapping], dtype=int)
            weights = np.array([w for _, w in self.mapping], dtype=float)
            order = np.lexsort(offsets.T[::-1])
            return offsets[order], weights[order]
        radius = self.truncation(d)
        reach = int(math.floor(radius))
        axis = np.arange(-reach, reach + 1)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        norm_sq = (offsets * offsets).sum(axis=1)
        keep = norm_sq <= radius * radius
        offsets = offsets[keep]
        norms = np.sqrt(norm_sq[keep].astype(float))
        if self.kind == "indicator_ball":
            weights = np.ones(len(offsets))
        else:
            weights = np.power(self.phi, norms)
        return offsets, weights

    def total_weight(self, d: int = 2) -> float:
        """Sum of weights over the truncated support."""
        _, weights = self.support(d)
        return float(weights.sum())

    def label(self) -> str:
        if self.kind == "indicator_ball":
            return f"indicator_ball({self.radius:g})"
        if self.kind == "geometric":
            return f"geometric({self.phi:g})"
        return f"explicit({len(self.mapping)} offsets)"


def _geometric_truncation_radius(phi: float, d: int, tol: float) -> int:
    """Smallest R with the geometric shell tail bound below tol.

    Bounds sum_{|s| > R} phi^|s| by c_d * sum_{j >= R} (j+1)^(d-1) phi^j
    using the shell-count bound above; the series is summed until terms
    stop mattering.
    """
    coef = _SHELL_BOUND_COEF[d]
    for radius in range(1, 100000):
        tail = 0.0
        term_j = radius
        power = phi**radius
        while True:
            term = coef * (term_j + 1) ** (d - 1) * power
            tail += term
            if term < tol * 1e-6 or tail > tol:
                break
            term_j += 1
            power *= phi
        if tail < tol:
            return radius
    raise ValueError(f"no truncation radius found for phi={phi}")


# ---------------------------------------------------------------------------
# variograms and Brown-Resnick configuration


@dataclass(frozen=True)
class VariogramSpec:
    """Power variogram delta(h) = theta * |h|^alpha, alpha in (0, 2]."""

    theta: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")

    def delta(self, dist):
        """delta evaluated at one or many distances."""
        dist = np.asarray(dist, dtype=float)
        out = self.theta * np.power(dist, self.alpha)
        return float(out) if out.ndim == 0 else out

    def label(self) -> str:
        return f"{self.theta:g}*|h|^{self.alpha:g}"


DEFAULT_VARIOGRAM = VariogramSpec(theta=0.5, alpha=2.0)


@dataclass(frozen=True)
class BrSimConfig:
    """Brown-Resnick simulation method and its knobs.

    ``spectral(J)`` truncates the origin-pinned spectral sum after J terms
    and reports a truncation diagnostic.  ``gaussian_max(N, c, a)`` rescales
    the maximum of N Gaussian fields whose correlation at output lag h is
    ``1 / (1 + c * (d_N*|h|)^a)`` with ``d_N = (1/log N)^(1/a)``, so that
    ``log(N) * (1 - corr(h)) -> c*|h|^a`` and the target variogram is
    approached from below as N grows.
    """

    method: str
    n_terms: int = 1000
    n_gaussians: int = 1600
    corr_c: float = 1.0
    corr_a: float = 2.0
    jitter: float = 1e-10

    def __post_init__(self):
        if self.method not in ("spectral", "gaussian_max"):
            raise ValueError(f"unknown Brown-Resnick method {self.method!r}")
        if self.method == "spectral":
            if self.n_terms < 1:
                raise ValueError("spectral needs n_terms >= 1")
        else:
            if self.n_gaussians < 2:
                raise ValueError("gaussian_max needs n_gaussians >= 2")
            if not self.corr_c > 0:
                raise ValueError("corr_c must be positive")
            if not 0.0 < self.corr_a <= 2.0:
                raise ValueError("corr_a must be in (0, 2]")
        if not self.jitter >= 0:
            raise ValueError("jitter must be nonnegative")

    @classmethod
    def spectral(cls, n_terms: int = 1000, jitter: float = 1e-10) -> "BrSimConfig":
        return cls(method="spectral", n_terms=int(n_terms), jitter=jitter)

    @classmethod
    def gaussian_max(
        cls,
        n_gaussians: int = 1600,
        corr_c: float = 1.0,
        corr_a: float = 2.0,
        jitter: float = 1e-10,
    ) -> "BrSimConfig":
        return cls(
            method="gaussian_max",
            n_gaussians=int(n_gaussians),
            corr_c=corr_c,
            corr_a=corr_a,
            jitter=jitter,
        )

    def label(self) -> str:
        if self.method == "spectral":
            return f"spectral(J={self.n_terms})"
        return f"gaussian_max(N={self.n_gaussians},c={self.corr_c:g},a={self.corr_a:g})"


@dataclass(frozen=True)
class BrSimResult:
    """Brown-Resnick draw: values per site plus the truncation diagnostic.

    ``truncation_fraction`` is the fraction of sites where the J-th spectral
    term still exceeds 1% of the running maximum (None for gaussian_max).
    """

    values: np.ndarray
    truncation_fraction: float | None
    method: str


# ---------------------------------------------------------------------------
# simulators


def _frechet(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.maximum(rng.random(shape), _TINY)
    return -1.0 / np.log(u)


def sim_frechet_iid(dims, seed: int) -> LatticeField:
    """iid unit-Frechet noise on a grid, drawn as -1/log(U)."""
    dims = tuple(int(n) for n in dims)
    rng = derive_rng(seed)
    return LatticeField(dims, _frechet(rng, dims).ravel())


def sim_mma(dims, weights: WeightSpec, seed: int) -> LatticeField:
    """Max-moving-average field ``X_t = max_s w(s) * Z_{t-s}``.

    Z is iid unit Frechet on the grid padded by the weight support, so
    every output site sees the full support and the marginal law is
    exactly ``P(X <= x) = exp(-W_tot/x)`` with W_tot the (truncated)
    total weight.

    Parameters
    ----------
    dims : tuple of int
        Output grid shape, d in {1, 2, 3}.
    weights : WeightSpec
        Weight function; geometric supports are truncated per its rule.
    seed : int
    """
    dims = tuple(int(n) for n in dims)
    d = len(dims)
    offsets, wts = weights.support(d)
    pad = tuple(int(np.abs(offsets[:, i]).max()) for i in range(d))
    rng = derive_rng(seed)
    noise = _frechet(rng, tuple(n + 2 * p for n, p in zip(dims, pad)))
    out = np.zeros(dims)
    # group offsets sharing one weight value (equal-norm shells) so each
    # shell costs one multiply
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
    return LatticeField(dims, out.ravel())


def _increment_cov(sites: np.ndarray, vario: VariogramSpec, jitter: float):
    """Covariance of origin-pinned increments, plus delta(site) and origin mask."""
    norms = np.linalg.norm(sites, axis=1)
    d_site = vario.delta(norms)
    diff = sites[:, None, :] - sites[None, :, :]
    d_pair = vario.delta(np.linalg.norm(diff, axis=2))
    cov = d_site[:, None] + d_site[None, :] - d_pair
    cov[np.diag_indices_from(cov)] += jitter
    return cov, np.asarray(d_site, dtype=float).reshape(-1), norms == 0.0


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Dense factor F with F F^T ~= cov; Cholesky, then eigen fallback."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(cov)
    tol = 1e-8 * max(1.0, float(np.abs(cov.diagonal()).max()))
    if eigvals.min() < -tol:
        raise FactorizationFailure(
            f"covariance is not PSD within tolerance (min eigenvalue {eigvals.min():.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _draw_increments(
    sites: np.ndarray,
    vario: VariogramSpec,
    jitter: float,
    rng: np.random.Generator,
    n_draws: int,
):
    cov, d_site, at_origin = _increment_cov(sites, vario, jitter)
    factor = _psd_factor(cov)
    draws = factor @ rng.standard_normal((len(sites), n_draws))
    draws[at_origin, :] = 0.0  # the pinned origin carries no randomness
    return draws, d_site


def sim_gaussian_increments(
    sites, vario: VariogramSpec, jitter: float = 1e-10, seed: int = 0
) -> np.ndarray:
    """One draw of the origin-pinned Gaussian increment field.

    cov(W_s1, W_s2) = delta(s1) + delta(s2) - delta(s1 - s2); any site at
    the exact origin gets W = 0 exactly.  The covariance is factored
    densely with additive diagonal jitter; a PSD eigen-factorization is
    used when Cholesky fails (e.g. alpha = 2, where the matrix is
    rank-deficient by construction).

    Raises
    ------
    FactorizationFailure
        If the jittered covariance is indefinite beyond tolerance.
    """
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2:
        raise ValueError("sites must be an (N, d) array")
    rng = derive_rng(seed)
    draws, _ = _draw_increments(sites, vario, jitter, rng, 1)
    return draws[:, 0]


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _outside_stacklevel() -> int:
    """``stacklevel`` naming the innermost frame outside this package.

    Counted from the caller of this function, so a warning raised there
    points at the user's line whichever package path led to it.
    (``warnings.warn(skip_file_prefixes=...)`` needs Python 3.12.)
    """
    frame = sys._getframe(1)
    level = 1
    while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    return level


def _sim_br_spectral(sites, vario, config, rng):
    n_sites = len(sites)
    J = config.n_terms
    if J < 100:
        warnings.warn(
            f"spectral Brown-Resnick with n_terms={J} < 100 is likely badly truncated",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
    gamma = np.cumsum(rng.exponential(size=J))
    draws, d_site = _draw_increments(sites, vario, config.jitter, rng, J)
    np.subtract(draws, d_site[:, None], out=draws)
    terms = np.exp(draws, out=draws)
    terms /= gamma[None, :]
    values = terms.max(axis=1)
    last_significant = terms[:, -1] > 0.01 * values
    return BrSimResult(
        values=values,
        truncation_fraction=float(np.mean(last_significant)) if n_sites else 0.0,
        method="spectral",
    )


def _sim_br_gaussian_max(sites, vario, config, rng):
    # Correlation at lag h is 1/(1 + c*(d_N*|h|)^a) with d_N = (1/log N)^(1/a).
    # The variogram this converges to is c*|h|^a, so map (theta, alpha) onto
    # (c, a) when the caller left the defaults in place.
    n_rep = config.n_gaussians
    c, a = config.corr_c, config.corr_a
    d_n = (1.0 / math.log(n_rep)) ** (1.0 / a)
    diff = sites[:, None, :] - sites[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    corr = 1.0 / (1.0 + c * np.power(d_n * dist, a))
    corr[np.diag_indices_from(corr)] += config.jitter
    factor = _psd_factor(corr)
    gauss = factor @ rng.standard_normal((len(sites), n_rep))
    u = np.minimum(ndtr(gauss), _PHI_CLIP)
    with np.errstate(divide="ignore"):
        frechet = -1.0 / np.log(u)
    values = frechet.max(axis=1) / n_rep
    return BrSimResult(values=values, truncation_fraction=None, method="gaussian_max")


def _sim_br(sites, vario, config, rng) -> BrSimResult:
    if config.method == "spectral":
        return _sim_br_spectral(sites, vario, config, rng)
    return _sim_br_gaussian_max(sites, vario, config, rng)


def sim_brown_resnick(
    sites, vario: VariogramSpec, config: BrSimConfig, seed: int = 0
) -> BrSimResult:
    """Brown-Resnick max-stable field at arbitrary planar sites.

    With ``config.method == 'spectral'`` this evaluates
    ``X_s = max_{j<=J} Gamma_j^{-1} exp(W_s^j - delta(s))`` with cumulative
    unit-exponential Gamma_j and iid increment fields W^j; the result
    carries the truncation diagnostic described on :class:`BrSimResult`.
    With ``'gaussian_max'`` it rescales the maximum of N correlated
    Gaussian fields (exact unit-Frechet margins for every N; the joint law
    approaches Brown-Resnick as N grows).

    Returns
    -------
    BrSimResult
    """
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2:
        raise ValueError("sites must be an (N, d) array")
    return _sim_br(sites, vario, config, derive_rng(seed))


# ---------------------------------------------------------------------------
# point fields


@dataclass(frozen=True)
class CountRule:
    """How many points a point-field draw contains.

    ``poisson(nu)`` draws Poisson(nu * area) points; ``fixed(n)`` always
    places exactly n.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "poisson":
            if not self.value > 0:
                raise ValueError("poisson intensity must be positive")
        elif self.kind == "fixed":
            if int(self.value) != self.value or self.value < 0:
                raise ValueError("fixed count must be a nonnegative integer")
        else:
            raise ValueError(f"unknown count rule {self.kind!r}")

    @classmethod
    def poisson(cls, nu: float) -> "CountRule":
        return cls("poisson", float(nu))

    @classmethod
    def fixed(cls, n: int) -> "CountRule":
        return cls("fixed", int(n))

    def label(self) -> str:
        if self.kind == "poisson":
            return f"poisson(nu={self.value:g})"
        return f"fixed({int(self.value)})"


@dataclass(frozen=True)
class FieldSource:
    """Which field the point values are read from."""

    kind: str
    vario: VariogramSpec | None = None
    config: BrSimConfig | None = None

    def __post_init__(self):
        if self.kind == "frechet_iid":
            return
        if self.kind == "brown_resnick":
            if self.vario is None or self.config is None:
                raise ValueError("brown_resnick source needs vario and config")
            return
        raise ValueError(f"unknown field source {self.kind!r}")

    @classmethod
    def frechet_iid(cls) -> "FieldSource":
        return cls("frechet_iid")

    @classmethod
    def brown_resnick(cls, vario: VariogramSpec, config: BrSimConfig) -> "FieldSource":
        return cls("brown_resnick", vario=vario, config=config)

    def label(self) -> str:
        if self.kind == "frechet_iid":
            return "frechet_iid"
        return f"brown_resnick({self.vario.label()},{self.config.label()})"


def sim_point_field(
    region, count_rule: CountRule, field_source: FieldSource, seed: int = 0
) -> PointField:
    """Uniformly scattered points in a rectangle with field values attached.

    The count follows ``count_rule``, locations are iid uniform over the
    region, and values come from ``field_source`` evaluated jointly at the
    sampled locations.  ``intensity_hint`` records nu for Poisson counts
    and n/area for fixed counts.
    """
    x0, x1, y0, y1 = (float(c) for c in region)
    area = (x1 - x0) * (y1 - y0)
    if not area > 0:
        raise ValueError(f"region must have positive area, got {region}")
    rng = derive_rng(seed)
    if count_rule.kind == "poisson":
        n = int(rng.poisson(count_rule.value * area))
        hint = count_rule.value
    else:
        n = int(count_rule.value)
        hint = n / area if n else None
    uv = rng.random((n, 2))
    locations = np.column_stack(
        [x0 + (x1 - x0) * uv[:, 0], y0 + (y1 - y0) * uv[:, 1]]
    )
    if field_source.kind == "frechet_iid":
        values = _frechet(rng, n)
    else:
        values = _sim_br(locations, field_source.vario, field_source.config, rng).values
    return PointField(
        locations=locations,
        values=values,
        region=(x0, x1, y0, y1),
        intensity_hint=hint,
    )
