"""The estimate record every estimator returns and every writer reads.

Kept apart from the estimators so that the kernel estimator, the file
writers and the inference harness share the result type without
depending on the lattice estimator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExtremeSet, Lag

__all__ = ["EseResult"]


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "distances", _frozen(self.distances, float))
        object.__setattr__(self, "rho_hat", _frozen(self.rho_hat, float))
        object.__setattr__(self, "pair_count", _frozen(self.pair_count, np.int64))
        object.__setattr__(self, "exceed_count", _frozen(self.exceed_count, np.int64))
        n = len(self.lags)
        for name in ("distances", "rho_hat", "pair_count", "exceed_count"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per row")

    @property
    def n_rows(self) -> int:
        return len(self.lags)
