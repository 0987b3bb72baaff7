"""Block-maxima reductions on space-time cubes."""
import numpy as np
import pytest

from extremogram import (
    NonDivisibleBlock,
    SpaceTimeGrid,
    WindowOutOfRange,
    derive_rng,
    spatial_block_max,
    temporal_max,
)


def rain_cube(t, nx, ny, seed=0):
    rng = derive_rng(seed)
    return SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(t, nx, ny)))


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid(np.ones((4, 4)))  # 2-d
    with pytest.raises(ValueError):
        SpaceTimeGrid(np.full((2, 2, 2), -1.0))
    with pytest.raises(ValueError):
        SpaceTimeGrid(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        SpaceTimeGrid(np.empty((0, 2, 2)))
    g = SpaceTimeGrid(np.ones((3, 2, 2)))
    assert g.n_times == 3 and g.dims == (2, 2)
    assert not g.values.flags.writeable


def test_block_max_identity_at_one():
    g = rain_cube(3, 6, 4)
    out = spatial_block_max(g, 1)
    assert np.array_equal(out.values, g.values)


def test_block_max_matches_loop():
    g = rain_cube(2, 6, 9, seed=1)
    out = spatial_block_max(g, 3)
    assert out.dims == (2, 3)
    for t in range(2):
        for i in range(2):
            for j in range(3):
                block = g.values[t, 3 * i:3 * i + 3, 3 * j:3 * j + 3]
                assert out.values[t, i, j] == block.max()


def test_block_max_divisibility():
    g = rain_cube(2, 6, 6)
    with pytest.raises(NonDivisibleBlock):
        spatial_block_max(g, 4)
    with pytest.raises(NonDivisibleBlock):
        spatial_block_max(g, 0)


def test_temporal_max_windows():
    g = rain_cube(10, 4, 4, seed=2)
    fields = temporal_max(g, [(0, 5), (5, 10), (0, 10)])
    assert len(fields) == 3
    assert fields[0].dims == (4, 4)
    # half-open: window (0, 5) covers slices 0..4
    assert np.array_equal(fields[0].grid, g.values[:5].max(axis=0))
    # max over disjoint windows composes to the full-record max
    assert np.array_equal(
        np.maximum(fields[0].grid, fields[1].grid), fields[2].grid
    )


def test_temporal_max_window_validation():
    g = rain_cube(10, 4, 4)
    for bad in ([(0, 11)], [(-1, 5)], [(5, 5)], [(7, 3)]):
        with pytest.raises(WindowOutOfRange):
            temporal_max(g, bad)
    with pytest.raises(WindowOutOfRange):
        temporal_max(g, [])


def test_pipeline_composes():
    g = rain_cube(8, 12, 12, seed=3)
    pooled = spatial_block_max(g, 4)
    fields = temporal_max(pooled, [(0, 8)])
    assert fields[0].dims == (3, 3)
    assert fields[0].grid.max() == g.values.max()
