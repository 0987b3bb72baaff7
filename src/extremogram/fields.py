"""Core domain types: fields, extreme sets, lags, thresholds, seeding,
and the estimate record.

The estimators in this package all consume one of two data containers, a
:class:`LatticeField` (regular grid, d in {1, 2, 3}) or a
:class:`PointField` (irregularly sampled planar field), and all return one
:class:`EseResult`, which every writer reads.  All three are immutable
value types: each array is copied on construction and marked read-only,
so results can never be invalidated by later mutation.

Randomness contract
-------------------
Every stochastic routine in the package is a pure function of its inputs
and an integer seed.  Independent streams for replicate r are derived with
:func:`derive_rng` / :func:`derive_seed`, which feed ``(seed, r)`` through
``numpy.random.SeedSequence`` hashing, so replicate streams do not depend
on execution order or worker count.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateThreshold, EmptyInput

__all__ = [
    "EseResult",
    "LatticeField",
    "PointField",
    "ExtremeSet",
    "Lag",
    "ThresholdRule",
    "as_lag",
    "derive_rng",
    "derive_seed",
    "grid_sides",
    "lag_grid",
    "resolve_threshold",
]


# ---------------------------------------------------------------------------
# seeding helpers


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``(seed, *key)``.

    Uses ``SeedSequence`` entropy mixing, so streams for different keys are
    statistically independent and insensitive to the order in which they
    are created.
    """
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *key: int) -> int:
    """Integer sub-seed for stream ``(seed, *key)``; same mixing as derive_rng."""
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return int(np.random.SeedSequence(entropy).generate_state(2, np.uint64)[0])


# ---------------------------------------------------------------------------
# data containers


def grid_sides(dims) -> tuple[int, ...]:
    """Grid side lengths as ints; ValueError naming ``dims`` for a side
    that is not an integer (numpy integers are accepted, 3.5 is not
    truncated to 3)."""
    try:
        return tuple(operator.index(n) for n in dims)
    except TypeError:
        raise ValueError(f"grid sides must be integers, got {dims}") from None


def _frozen(values, dtype=float) -> np.ndarray:
    """Read-only view of a private C-order copy of ``values``.

    C order keeps a reshape(-1) a view.
    """
    return _sealed(np.array(values, dtype=dtype, order="C"))


def _sealed(arr: np.ndarray) -> np.ndarray:
    """Read-only view of ``arr``, which the caller hands over uncopied.

    A view of a read-only array can not be made writable again, as the
    array that owns the data could.
    """
    arr.setflags(write=False)
    return arr.view()


@dataclass(frozen=True)
class LatticeField:
    """Nonnegative observations on a full d-dimensional grid.

    Parameters
    ----------
    dims : tuple of int
        Grid side lengths, one entry per axis, d in {1, 2, 3}.
    values : array_like
        Observations in row-major order, length ``prod(dims)``.  Must be
        finite and nonnegative.
    """

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        dims = grid_sides(self.dims)
        if not 1 <= len(dims) <= 3:
            raise ValueError(f"lattice dimension must be 1..3, got {len(dims)}")
        if any(n < 1 for n in dims):
            raise ValueError(f"all grid sides must be >= 1, got {dims}")
        vals = _frozen(self.values).reshape(-1)
        if vals.size != math.prod(dims):
            raise ValueError(
                f"value count {vals.size} does not match grid {dims}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if np.any(vals < 0):
            raise ValueError("field values must be nonnegative")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        """Read-only view of the values shaped as the grid."""
        return self.values.reshape(self.dims)


@dataclass(frozen=True)
class PointField:
    """Nonnegative observations at scattered planar locations.

    ``region`` is the sampling window ``(x0, x1, y0, y1)``; every location
    must lie inside it (boundary included).  ``intensity_hint`` records the
    generating intensity when known, for estimators that accept a known
    point density.
    """

    locations: np.ndarray
    values: np.ndarray
    region: tuple[float, float, float, float]
    intensity_hint: float | None = None

    def __post_init__(self):
        locs = _frozen(self.locations)
        if locs.ndim != 2 or locs.shape[1] != 2:
            raise ValueError(f"locations must have shape (N, 2), got {locs.shape}")
        vals = _frozen(self.values).reshape(-1)
        if vals.size != locs.shape[0]:
            raise ValueError("locations and values must have equal length")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if vals.size and np.any(vals < 0):
            raise ValueError("field values must be nonnegative")
        region = tuple(float(c) for c in self.region)
        if len(region) != 4:
            raise ValueError("region must be (x0, x1, y0, y1)")
        x0, x1, y0, y1 = region
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"region must have positive area, got {region}")
        if not np.all(np.isfinite(locs)):
            raise ValueError("locations must be finite")
        if locs.size and (
            locs[:, 0].min() < x0
            or locs[:, 0].max() > x1
            or locs[:, 1].min() < y0
            or locs[:, 1].max() > y1
        ):
            raise ValueError("all locations must lie inside the region")
        if self.intensity_hint is not None and not self.intensity_hint > 0:
            raise ValueError("intensity_hint must be positive")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "region", region)

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def area(self) -> float:
        x0, x1, y0, y1 = self.region
        return (x1 - x0) * (y1 - y0)


# ---------------------------------------------------------------------------
# extreme sets, lags, thresholds


@dataclass(frozen=True)
class ExtremeSet:
    """Open interval ``(lower, upper)`` on the rescaled value axis.

    Membership of an observation x at threshold scale a is the strict
    two-sided test ``lower * a < x < upper * a``; ``upper`` may be ``inf``,
    giving the exceedance ray used throughout the tail formulas.
    """

    lower: float
    upper: float = math.inf

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if not (lower > 0 and math.isfinite(lower)):
            raise ValueError(f"lower endpoint must be positive finite, got {lower}")
        if not upper > lower:
            raise ValueError(f"need upper > lower, got ({lower}, {upper})")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def ray(cls, lower: float = 1.0) -> "ExtremeSet":
        """The exceedance ray (lower, inf)."""
        return cls(lower=lower)

    @property
    def is_ray(self) -> bool:
        return math.isinf(self.upper)

    def indicator(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Boolean mask of ``values/scale in (lower, upper)``, both strict."""
        values = np.asarray(values, dtype=float)
        out = values > self.lower * scale
        if math.isfinite(self.upper):
            out &= values < self.upper * scale
        return out

    def label(self) -> str:
        hi = "inf" if math.isinf(self.upper) else format(self.upper, "g")
        return f"({self.lower:g},{hi})"


@dataclass(frozen=True)
class Lag:
    """Spatial offset between two observation sites.

    The norm is always computed from the offset, never stored, so the two
    can not disagree.
    """

    offset: tuple[float, ...]

    def __post_init__(self):
        off = tuple(float(x) for x in self.offset)
        if not 1 <= len(off) <= 3:
            raise ValueError(f"lag dimension must be 1..3, got {len(off)}")
        if not all(math.isfinite(x) for x in off):
            raise ValueError("lag components must be finite")
        object.__setattr__(self, "offset", off)

    @classmethod
    def of(cls, *components: float) -> "Lag":
        return cls(tuple(components))

    @property
    def d(self) -> int:
        return len(self.offset)

    @property
    def norm(self) -> float:
        return math.hypot(*self.offset)

    @property
    def norm_sq(self) -> float:
        return math.fsum(x * x for x in self.offset)

    @property
    def is_integer(self) -> bool:
        return all(float(x).is_integer() for x in self.offset)

    def int_offset(self) -> tuple[int, ...]:
        if not self.is_integer:
            raise ValueError(f"lag {self.offset} is not integer-valued")
        return tuple(int(x) for x in self.offset)

    def negate(self) -> "Lag":
        return Lag(tuple(-x for x in self.offset))

    def label(self) -> str:
        return "(" + ",".join(format(x, "g") for x in self.offset) + ")"


def as_lag(obj, d: int | None = None) -> Lag:
    """Coerce a Lag, tuple, or scalar into a Lag (scalars become 1-d)."""
    if isinstance(obj, Lag):
        lag = obj
    elif np.isscalar(obj):
        lag = Lag((float(obj),))
    else:
        lag = Lag(tuple(obj))
    if d is not None and lag.d != d:
        raise ValueError(f"lag {lag.offset} has dimension {lag.d}, expected {d}")
    return lag


@dataclass(frozen=True)
class ThresholdRule:
    """How the exceedance scale a_m and tail index m are chosen.

    ``quantile(q)`` takes a_m as the empirical q-quantile (linear
    interpolation on order statistics) and m = 1/(1-q).  ``absolute(a)``
    takes a_m = a and m = N / #{values > a}.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("quantile", "absolute"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        value = float(self.value)
        if self.kind == "quantile" and not 0.0 < value < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {value}")
        if self.kind == "absolute" and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"absolute threshold must be positive, got {value}")
        object.__setattr__(self, "value", value)

    @classmethod
    def quantile(cls, q: float) -> "ThresholdRule":
        return cls("quantile", q)

    @classmethod
    def absolute(cls, a: float) -> "ThresholdRule":
        return cls("absolute", a)

    def label(self) -> str:
        if self.kind == "quantile":
            return f"q={self.value:g}"
        return f"abs={self.value:g}"


def resolve_threshold(values: np.ndarray, rule: ThresholdRule) -> tuple[float, float]:
    """Resolve a threshold rule on observed values.

    Returns
    -------
    (a_m, m) : tuple of float
        The exceedance scale and the tail index.  m is carried as a real
        number, never rounded.

    Raises
    ------
    EmptyInput
        If there are no observations.
    DegenerateThreshold
        If an absolute threshold leaves zero exceedances.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size == 0:
        raise EmptyInput("cannot resolve a threshold on zero observations")
    if rule.kind == "quantile":
        a_m = float(np.quantile(vals, rule.value))  # linear-interpolation quantile
        m = 1.0 / (1.0 - rule.value)
        return a_m, m
    a_m = float(rule.value)
    n_exc = int(np.count_nonzero(vals > a_m))
    if n_exc == 0:
        raise DegenerateThreshold(
            f"no value exceeds absolute threshold {a_m:g} (n={vals.size})"
        )
    return a_m, vals.size / n_exc


def lag_grid(max_dist: float, d: int) -> list[Lag]:
    """All nonzero integer lags with ``0 < |h| <= max_dist``.

    Sorted by (norm, lexicographic offset); includes both h and -h.
    """
    if not max_dist > 0:
        raise ValueError(f"max_dist must be positive, got {max_dist}")
    offsets, norm_sq = _lattice_ball(max_dist, d)
    lags = (Lag(tuple(row)) for row in offsets[norm_sq > 0].tolist())
    return sorted(lags, key=lambda lag: (lag.norm_sq, lag.offset))


# the most offsets a ball's box may hold: 10^7 int64 offsets in 3-d take
# 240 MB, and a 3-d geometric(0.5) support needs 1.6M of them
_MAX_BALL_BOX = 10**7


def _lattice_ball(radius: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets (K, d) with ``|s| <= radius``, in lexicographic order, and their |s|^2.

    A radius whose box of (2r+1)^d offsets exceeds ``_MAX_BALL_BOX`` is
    refused before the box is built.
    """
    if not 1 <= d <= 3:
        raise ValueError(f"d must be 1..3, got {d}")
    if not 0 <= radius < math.inf:
        raise ValueError(f"ball radius must be finite and nonnegative, got {radius}")
    box = (2 * int(radius) + 1) ** d
    if box > _MAX_BALL_BOX:
        raise ValueError(f"a {d}-d ball of radius {radius:g} spans a box of {box:,} offsets, "
                         f"more than the {_MAX_BALL_BOX:,} allowed")
    axis = np.arange(-int(radius), int(radius) + 1)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    norm_sq = (offsets * offsets).sum(axis=1)
    keep = norm_sq <= float(radius) * float(radius)
    return offsets[keep], norm_sq[keep]


# ---------------------------------------------------------------------------
# the estimate record


@dataclass(frozen=True, eq=False)
class EseResult:
    """Per-row extremogram estimates with the counts behind them.

    One row per vector lag, or per distance class when ``by_distance``
    is set (``lags`` then holds one representative lag per class).
    ``pair_count`` is the number of ordered pairs evaluated and
    ``exceed_count`` the number that hit both sets; for kernel
    estimates these count kernel-support visits instead, and
    ``rho_hat`` comes from the weighted sums rather than the raw
    counts.  ``denom_rate`` is the fraction of sites (or points) whose
    value lands in the scaled A set.
    """

    lags: tuple[Lag, ...]
    distances: np.ndarray
    rho_hat: np.ndarray
    pair_count: np.ndarray
    exceed_count: np.ndarray
    a_m: float
    m: float
    set_a: ExtremeSet
    set_b: ExtremeSet
    denom_rate: float
    mode: str
    by_distance: bool = False
    bandwidth_degenerate: bool = False
    nu_used: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "distances", _frozen(self.distances))
        object.__setattr__(self, "rho_hat", _frozen(self.rho_hat))
        object.__setattr__(self, "pair_count", _frozen(self.pair_count, np.int64))
        object.__setattr__(self, "exceed_count", _frozen(self.exceed_count, np.int64))
        n = len(self.lags)
        for name in ("distances", "rho_hat", "pair_count", "exceed_count"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per row")

    @property
    def n_rows(self) -> int:
        return len(self.lags)
