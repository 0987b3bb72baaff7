"""Block-maxima preparation of gridded space-time data.

Raw input is a cube of nonnegative values indexed (time, x, y), e.g.
accumulated rainfall per interval per grid cell.  Analysis-ready
lattice fields come out of two reductions: a spatial maximum over
non-overlapping k x k blocks at every time step, then temporal maxima
over index windows (which may overlap, e.g. six annual windows plus
the full record).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDivisibleBlock, WindowOutOfRange
from .fields import LatticeField, _frozen

__all__ = ["SpaceTimeGrid", "spatial_block_max", "temporal_max"]


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Nonnegative values on a (n_times, nx, ny) cube."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 3:
            raise ValueError(f"values must be (n_times, nx, ny), got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("space-time grid must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        if np.any(arr < 0):
            raise ValueError("values must be nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return (self.values.shape[1], self.values.shape[2])


def spatial_block_max(grid: SpaceTimeGrid, block: int) -> SpaceTimeGrid:
    """Maximum over non-overlapping block x block cells at each time.

    The block size must divide both grid sides; output dims are
    (nx/block, ny/block).  block=1 is the identity.
    """
    k = int(block)
    if k < 1:
        raise NonDivisibleBlock(f"block size must be >= 1, got {block}")
    nx, ny = grid.dims
    if nx % k or ny % k:
        raise NonDivisibleBlock(f"block {k} does not divide grid dims {nx}x{ny}")
    v = grid.values
    out = v.reshape(grid.n_times, nx // k, k, ny // k, k).max(axis=(2, 4))
    return SpaceTimeGrid(out)


def temporal_max(grid: SpaceTimeGrid, windows) -> list[LatticeField]:
    """One lattice field per time window, each cell the max over the window.

    Windows are half-open (start, stop) index pairs; they may overlap.
    """
    window_list = [(int(a), int(b)) for a, b in windows]
    if not window_list:
        raise WindowOutOfRange("need at least one time window")
    t = grid.n_times
    for start, stop in window_list:
        if not (0 <= start < stop <= t):
            raise WindowOutOfRange(
                f"window [{start}:{stop}) outside the valid range [0:{t})"
            )
    return [
        LatticeField(grid.dims, grid.values[start:stop].max(axis=0).ravel())
        for start, stop in window_list
    ]
