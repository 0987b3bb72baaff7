"""Heavy-tailed spatial field simulators.

Three families, all with unit-Frechet margins (CDF exp(-1/x)):

* iid Frechet noise on a grid,
* max-moving-averages (MMA) of Frechet noise under a weight function on
  the integer lattice, via ``X_t = max_s w(s) * Z_{t-s}``,
* Brown-Resnick max-stable fields with variogram ``delta(h) = theta*|h|^alpha``,
  through either a truncated spectral construction pinned at the origin or
  a rescaled maximum of N Gaussian fields with correlation
  ``1 / (1 + delta(d_N*h))``, ``d_N = (1/log N)^(1/alpha)``.  Both read the
  dependence from the variogram alone.

Every simulator is a pure function of its inputs and an integer seed; see
:mod:`extremogram.fields` for the seeding contract.  The MMA and
Brown-Resnick simulators take an optional ``plan=``, the value-free
part of a draw (:class:`MmaPlan`, :class:`BrPlan`), so that many seeds
of one model share it; a plan changes no draw.

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
from functools import cached_property

import numpy as np

from .errors import FactorizationFailure
from .fields import (LatticeField, PointField, _frozen, _lattice_ball, _sealed, derive_rng,
                     grid_sides)

__all__ = [
    "WeightSpec",
    "VariogramSpec",
    "BrSimConfig",
    "BrSimResult",
    "MmaPlan",
    "BrPlan",
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
# _ndtr, like the scipy ndtr it ports, can drop between arguments a few
# ULPs apart; past this gap it is monotone (see _sim_br_gaussian_max)
_TIE_MARGIN = 1e-10
_JITTER = 1e-10  # added to a covariance diagonal before it is factored
_TAIL_TOL = 1e-12  # geometric weights: tail mass left beyond the truncation
_BLOCK_BYTES = 1 << 19  # largest block of rows that _pairwise fills at once

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
        tail bound drops below 1e-12 (override with ``truncation_radius``).
    ``explicit(mapping)``
        arbitrary finite support, offsets -> positive weights.
    """

    kind: str
    radius: float | None = None
    phi: float | None = None
    mapping: tuple[tuple[tuple[int, ...], float], ...] | None = None
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.kind == "indicator_ball":
            if self.radius is None or not 0 <= self.radius < math.inf:
                raise ValueError(f"indicator_ball needs a finite radius >= 0, got {self.radius}")
        elif self.kind == "geometric":
            if self.phi is None or not 0.0 < self.phi < 1.0:
                raise ValueError("geometric needs phi in (0, 1)")
            if self.truncation_radius is not None and not 0 < self.truncation_radius < math.inf:
                raise ValueError("truncation_radius must be finite and positive")
        elif self.kind == "explicit":
            if not self.mapping:
                raise ValueError("explicit needs a nonempty offset->weight mapping")
            d = len(self.mapping[0][0])
            if not 1 <= d <= 3:
                raise ValueError(f"explicit offsets must have 1 to 3 components, got {d}")
            for off, w in self.mapping:
                if len(off) != d:
                    raise ValueError("explicit offsets must share one dimension")
                if not (math.isfinite(w) and w > 0):
                    raise ValueError(f"explicit weight at {off} must be positive")
            if len({off for off, _ in self.mapping}) != len(self.mapping):
                raise ValueError("explicit offsets must be distinct")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def indicator_ball(cls, radius: float) -> "WeightSpec":
        return cls(kind="indicator_ball", radius=float(radius))

    @classmethod
    def geometric(cls, phi: float, truncation_radius: float | None = None) -> "WeightSpec":
        return cls(kind="geometric", phi=float(phi), truncation_radius=truncation_radius)

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
        return float(_geometric_truncation_radius(self.phi, d, _TAIL_TOL))

    def support(self, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """Offsets (K, d) and weights (K,) of the truncated support."""
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
        offsets, norm_sq = _lattice_ball(self.truncation(d), d)
        if self.kind == "indicator_ball":
            return offsets, np.ones(len(offsets))
        return offsets, np.power(self.phi, np.sqrt(norm_sq.astype(float)))

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
    if d not in _SHELL_BOUND_COEF:
        raise ValueError(f"no shell-count bound for d={d}")
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


@dataclass(frozen=True)
class BrSimConfig:
    """Brown-Resnick simulation method and its size; the variogram is separate.

    ``spectral(J)`` truncates the origin-pinned spectral sum after J terms
    and reports a truncation diagnostic.  ``gaussian_max(N)`` rescales the
    maximum of N Gaussian fields whose correlation at output lag h is
    ``1 / (1 + delta(d_N*|h|))`` with ``d_N = (1/log N)^(1/alpha)``, so that
    ``log(N) * (1 - corr(h)) -> delta(h)`` (Husler & Reiss 1989) and the
    target variogram is approached from below as N grows.

    The Frechet transform ``-1/log(Phi(g))`` is monotone in g, so
    gaussian_max applies it to each site's largest Gaussian only, not to
    all N; a site whose runner-up lies within 1e-10 of its largest, where
    rounding in Phi could reorder them, transforms all N.  The values equal
    the transform-then-max bit for bit.
    """

    method: str
    n_terms: int = 1000
    n_gaussians: int = 1600

    def __post_init__(self):
        if self.method not in ("spectral", "gaussian_max"):
            raise ValueError(f"unknown Brown-Resnick method {self.method!r}")
        if self.method == "spectral":
            if self.n_terms < 1:
                raise ValueError("spectral needs n_terms >= 1")
        else:
            if self.n_gaussians < 2:
                raise ValueError("gaussian_max needs n_gaussians >= 2")

    @classmethod
    def spectral(cls, n_terms: int = 1000) -> "BrSimConfig":
        return cls(method="spectral", n_terms=int(n_terms))

    @classmethod
    def gaussian_max(cls, n_gaussians: int = 1600) -> "BrSimConfig":
        return cls(method="gaussian_max", n_gaussians=int(n_gaussians))


@dataclass(frozen=True)
class BrSimResult:
    """Brown-Resnick draw: values per site plus the method's diagnostic.

    ``truncation_fraction`` is the fraction of sites where the J-th spectral
    term still exceeds 1% of the running maximum (None for gaussian_max).
    ``clip_fraction`` is the fraction of sites whose largest Gaussian had
    Phi(g) clipped to ``1 - 1e-16`` before the Frechet transform, which caps
    the value there (None for spectral).
    """

    values: np.ndarray
    truncation_fraction: float | None
    method: str
    clip_fraction: float | None = None


# ---------------------------------------------------------------------------
# the standard normal CDF

# cephes' erfc on [1, 8) is exp(-x^2) P(x)/Q(x), on [8, inf) exp(-x^2) R(x)/S(x),
# and erf on [0, 1) is x T(x^2)/U(x^2); Q, S and U have an implied leading 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = 7.07106781186547524401e-1


def _horner(x: float, coefs: tuple, lead: float = 0.0) -> float:
    """cephes' polevl (lead 0) and p1evl (lead 1): ``a = a*x + c`` in order."""
    for c in coefs:
        lead = lead * x + c
    return lead


def _erf(x: float) -> float:
    """cephes' erf for 0 <= x <= 1."""
    z = x * x
    return x * _horner(z, _T) / _horner(z, _U, 1.0)


def _ndtr(x: float) -> float:
    """Standard normal CDF, a port of cephes' ndtr, erf and erfc (Moshier).

    It is the code behind ``scipy.special.ndtr``, in the same operations
    and order on Python floats, so it equals scipy's value bit for bit:
    ``tests/test_oracles.py::test_ndtr_equals_scipy_bit_for_bit`` checks
    every branch with ``==``.  The gaussian-max draws and the
    Brown-Resnick oracles call it, so the package loads no scipy.  erfc's
    arguments here are never negative, so its negative branch is left out.
    """
    if math.isnan(x):
        return x
    t = x * _SQRT1_2
    z = abs(t)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.copysign(_erf(z), t)
    if z < 1.0:
        tail = 1.0 - _erf(z)
    elif -z * z < -_MAXLOG:
        tail = 0.0  # exp(-z^2) underflows
    else:
        p, q = (_P, _Q) if z < 8.0 else (_R, _S)
        tail = math.exp(-z * z) * _horner(z, p) / _horner(z, q, 1.0)
    y = 0.5 * tail
    return 1.0 - y if t > 0 else y


# ---------------------------------------------------------------------------
# simulators


def _frechet(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.maximum(rng.random(shape), _TINY)
    return -1.0 / np.log(u)


def sim_frechet_iid(dims, seed: int) -> LatticeField:
    """iid unit-Frechet noise on a grid, drawn as -1/log(U)."""
    dims = grid_sides(dims)
    rng = derive_rng(seed)
    return LatticeField(dims, _frechet(rng, dims).ravel())


class MmaPlan:
    """Value-free part of an MMA draw in ``d`` dimensions.

    Holds the truncated ``support`` of ``weights`` as ``(offsets, wts)``,
    the noise pad per axis, and, sorted on first use, the support grouped
    into equal-weight ``shells``, heaviest first, each a ``(weight,
    offsets)`` pair.  Its arrays are read-only.  It depends on (weights,
    d) only, so one plan serves every grid and seed of that dimension,
    and the law of the weights.
    """

    def __init__(self, weights: WeightSpec, d: int):
        self.weights = weights
        self.d = d
        self.support = tuple(map(_sealed, weights.support(d)))
        self.pad = tuple(int(np.abs(self.support[0][:, i]).max()) for i in range(d))

    @cached_property
    def shells(self) -> tuple:
        offsets, wts = self.support
        order = np.argsort(-wts, kind="stable")
        wts = wts[order]
        starts = np.flatnonzero(np.diff(wts)) + 1
        return tuple(zip(wts[np.r_[0, starts]], np.split(_sealed(offsets[order]), starts)))


def sim_mma(dims, weights: WeightSpec, seed: int, *, plan: MmaPlan | None = None) -> LatticeField:
    """Max-moving-average field ``X_t = max_s w(s) * Z_{t-s}``.

    Z is iid unit Frechet on the grid padded by the weight support, so
    every output site sees the full support and the marginal law is
    exactly ``P(X <= x) = exp(-W_tot/x)`` with W_tot the (truncated)
    total weight.

    Equal-weight shells are visited heaviest first, and the loop stops
    before a shell of weight w once ``w * max(Z) <= min(X)``.  The stop is
    exact: max does not depend on order and rounding ``w * z`` is
    monotone in w and z, so no lighter shell can raise any site, and the
    values equal the all-shells maximum bit for bit.

    Parameters
    ----------
    dims : tuple of int
        Output grid shape, d in {1, 2, 3}.
    weights : WeightSpec
        Weight function; geometric supports are truncated per its rule.
    seed : int
    plan : MmaPlan, optional
        ``MmaPlan(weights, len(dims))`` built beforehand, so that many
        draws can share it; it does not change the draw.  A plan built
        for other weights or another dimension is refused (ValueError).
    """
    dims = grid_sides(dims)
    if plan is None:
        plan = MmaPlan(weights, len(dims))
    elif (plan.weights, plan.d) != (weights, len(dims)):
        raise ValueError("MmaPlan was built for other weights or another dimension")
    pad = plan.pad
    rng = derive_rng(seed)
    noise = _frechet(rng, tuple(n + 2 * p for n, p in zip(dims, pad)))
    out = np.zeros(dims)
    # each shell costs one multiply; stop at the first shell that can
    # raise no site (see the docstring).  The initial values let an
    # empty grid reach LatticeField's own check instead of failing in a
    # reduction.
    top = noise.max(initial=0.0)
    for weight, offsets in plan.shells:
        if weight * top <= out.min(initial=np.inf):
            break
        shell = np.zeros(dims)
        for off in offsets.tolist():
            sl = tuple(slice(p - o, p - o + n) for p, o, n in zip(pad, off, dims))
            np.maximum(shell, noise[sl], out=shell)
        np.maximum(out, weight * shell, out=out)
    return LatticeField(dims, out.ravel())


def _pairwise(sites: np.ndarray, fill) -> np.ndarray:
    """Lower triangle of ``fill`` mapped over the distances between sites.

    Returns an (n, n) array filled on and below the diagonal, the part
    that :func:`_psd_factor` reads; above it only the blocks that
    straddle the diagonal are filled, and the rest is 0.  The rows are
    filled one block at a time, so that no second (n, n) array is alive
    while it runs.  The block ``out[rows, cols]``, with ``cols`` running
    up to the block's last row, first holds the Euclidean distances
    between those sites, summed as (s_ik - s_jk)^2 over the coordinates
    in order and square-rooted, as ``scipy``'s ``cdist`` does, bit for
    bit, and then ``fill(block, rows, cols)``, the entries that those
    distances map to.
    """
    n = len(sites)
    out = np.zeros((n, n))
    step = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, n, step):
        rows, cols = slice(start, start + step), slice(0, start + step)
        block = out[rows, cols]
        for col in sites.T:
            diff = col[rows, None] - col[None, cols]
            diff *= diff
            block += diff
        np.sqrt(block, out=block)
        block[...] = fill(block, rows, cols)
    return out


def _increment_cov(sites: np.ndarray, vario: VariogramSpec):
    """Lower triangle of the covariance of origin-pinned increments (see
    :func:`_pairwise`), plus delta(site) and the origin mask, read-only."""
    norms = np.linalg.norm(sites, axis=1)
    d_site = vario.delta(norms)
    cov = _pairwise(
        sites, lambda dist, rows, cols: d_site[rows, None] + d_site[None, cols] - vario.delta(dist)
    )
    return cov, _sealed(d_site), _sealed(norms == 0.0)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Dense factor F with F F^T ~= cov + jitter*I; Cholesky, then eigen fallback.

    Reads only the lower triangle of the symmetric ``cov``, and adds the
    jitter to its diagonal in place.
    """
    cov[np.diag_indices_from(cov)] += _JITTER
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(cov, UPLO="L")
    tol = 1e-8 * max(1.0, float(np.abs(cov.diagonal()).max()))
    if eigvals.min() < -tol:
        raise FactorizationFailure(
            f"covariance is not PSD within tolerance (min eigenvalue {eigvals.min():.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


class BrPlan:
    """Value-free part of a Brown-Resnick draw at fixed ``sites``.

    Holds a read-only copy of the sites and the dense factor F, with
    ``F F^T ~= cov + jitter*I``, of the Gaussian covariance that
    ``config``'s method draws from.  For spectral that is the
    origin-pinned increment covariance, and the plan also holds delta
    at each site and the origin mask; for gaussian_max it is the
    correlation ``1 / (1 + delta(d_N*|h|))``.  Every array it holds is
    read-only.  Building a plan factors the covariance, so it raises
    FactorizationFailure where a draw would.
    """

    def __init__(self, sites, vario: VariogramSpec, config: BrSimConfig):
        self.sites = _frozen(sites)
        if self.sites.ndim != 2:
            raise ValueError("sites must be an (N, d) array")
        self.vario = vario
        self.config = config
        self.d_site = self.at_origin = None
        if config.method == "spectral":
            cov, self.d_site, self.at_origin = _increment_cov(self.sites, vario)
        else:
            d_n = (1.0 / math.log(config.n_gaussians)) ** (1.0 / vario.alpha)
            cov = _pairwise(
                self.sites, lambda dist, rows, cols: 1.0 / (1.0 + vario.delta(d_n * dist))
            )
        self.factor = _sealed(_psd_factor(cov))


def _draw_increments(plan: BrPlan, rng: np.random.Generator, n_draws: int) -> np.ndarray:
    """``n_draws`` increment fields as columns, from a spectral plan."""
    draws = plan.factor @ rng.standard_normal((len(plan.sites), n_draws))
    draws[plan.at_origin, :] = 0.0  # the pinned origin carries no randomness
    return draws


def sim_gaussian_increments(sites, vario: VariogramSpec, seed: int = 0) -> np.ndarray:
    """One draw of the origin-pinned Gaussian increment field.

    cov(W_s1, W_s2) = delta(s1) + delta(s2) - delta(s1 - s2); any site at
    the exact origin gets W = 0 exactly.  The covariance is factored
    densely with a 1e-10 diagonal jitter; a PSD eigen-factorization is
    used when Cholesky fails (e.g. alpha = 2, where the matrix is
    rank-deficient by construction).  This is the field each spectral
    Brown-Resnick term draws.

    Raises
    ------
    FactorizationFailure
        If the jittered covariance is indefinite beyond tolerance.
    """
    plan = BrPlan(sites, vario, BrSimConfig.spectral())
    return _draw_increments(plan, derive_rng(seed), 1)[:, 0]


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


def _sim_br_spectral(plan, rng):
    n_sites = len(plan.sites)
    J = plan.config.n_terms
    if J < 100:
        warnings.warn(
            f"spectral Brown-Resnick with n_terms={J} < 100 is likely badly truncated",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
    gamma = np.cumsum(rng.exponential(size=J))
    draws = _draw_increments(plan, rng, J)
    np.subtract(draws, plan.d_site[:, None], out=draws)
    terms = np.exp(draws, out=draws)
    terms /= gamma[None, :]
    values = terms.max(axis=1)
    last_significant = terms[:, -1] > 0.01 * values
    return BrSimResult(
        values=values,
        truncation_fraction=float(np.mean(last_significant)) if n_sites else 0.0,
        method="spectral",
    )


def _phi_to_frechet(phi):
    """-1/log(min(phi, _PHI_CLIP)): standard normal CDF values to unit Frechet."""
    with np.errstate(divide="ignore"):
        return -1.0 / np.log(np.minimum(phi, _PHI_CLIP))


def _sim_br_gaussian_max(plan, rng):
    """Max over N correlated Gaussians per site, Frechet-transformed, over N.

    The transform runs on each row's max alone.  That equals the max of the
    transformed row because the transform is monotone: ``min``, ``log`` and
    ``-1/x`` are, and ``_ndtr`` is between arguments more than
    ``_TIE_MARGIN`` apart.  Closer than that it can drop by an ULP, so a row
    with a second entry within ``_TIE_MARGIN`` of its max is transformed
    whole before its max is taken.
    """
    n_rep = plan.config.n_gaussians
    gauss = plan.factor @ rng.standard_normal((len(plan.sites), n_rep))
    top = gauss.max(axis=1)
    phi_top = np.array([_ndtr(v) for v in top.tolist()])
    values = _phi_to_frechet(phi_top)
    near = np.count_nonzero(gauss >= (top - _TIE_MARGIN)[:, None], axis=1) > 1
    for k in np.flatnonzero(near):
        values[k] = _phi_to_frechet(np.array([_ndtr(v) for v in gauss[k].tolist()])).max()
    return BrSimResult(
        values=values / n_rep,
        truncation_fraction=None,
        method="gaussian_max",
        clip_fraction=float(np.mean(phi_top >= _PHI_CLIP)) if len(plan.sites) else 0.0,
    )


def _sim_br(plan: BrPlan, rng) -> BrSimResult:
    if plan.config.method == "spectral":
        return _sim_br_spectral(plan, rng)
    return _sim_br_gaussian_max(plan, rng)


def sim_brown_resnick(
    sites, vario: VariogramSpec, config: BrSimConfig, seed: int = 0,
    *, plan: BrPlan | None = None,
) -> BrSimResult:
    """Brown-Resnick max-stable field at arbitrary planar sites.

    With ``config.method == 'spectral'`` this evaluates
    ``X_s = max_{j<=J} Gamma_j^{-1} exp(W_s^j - delta(s))`` with cumulative
    unit-exponential Gamma_j and iid increment fields W^j; the result
    carries the truncation diagnostic described on :class:`BrSimResult`.
    With ``'gaussian_max'`` it rescales the maximum of N Gaussian fields
    with correlation ``1 / (1 + delta(d_N*h))`` (exact unit-Frechet margins
    for every N; the joint law approaches Brown-Resnick with variogram
    ``vario`` as N grows).

    ``plan`` is ``BrPlan(sites, vario, config)`` built beforehand, so that
    many draws at the same sites share one factored covariance; it does
    not change the draw.  A plan built for other sites, another
    variogram or another config is refused (ValueError).

    Returns
    -------
    BrSimResult
    """
    if plan is None:
        plan = BrPlan(sites, vario, config)
    elif not (plan.vario == vario and plan.config == config
              and np.array_equal(plan.sites, np.asarray(sites, dtype=float))):
        raise ValueError("BrPlan was built for other sites, variogram or config")
    return _sim_br(plan, derive_rng(seed))


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
        plan = BrPlan(locations, field_source.vario, field_source.config)
        values = _sim_br(plan, rng).values
    return PointField(
        locations=locations,
        values=values,
        region=(x0, x1, y0, y1),
        intensity_hint=hint,
    )
