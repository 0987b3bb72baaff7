"""CSV round trips, header contracts, malformed-input diagnostics."""
import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremogram import (
    CountRule,
    DataFormatError,
    ESE_COLUMNS,
    EstimatorConfig,
    ExtremeSet,
    FieldSource,
    FrechetModel,
    Lag,
    LatticeField,
    PointField,
    SpaceTimeGrid,
    ThresholdRule,
    clt_rate_check,
    derive_rng,
    lattice_ese,
    lattice_ese_by_distance,
    mc_study,
    permutation_bands,
    read_ese,
    read_field,
    read_space_time,
    sidecar_path,
    sim_frechet_iid,
    sim_point_field,
    write_ese,
    write_field,
    write_mc,
    write_rate,
    write_space_time,
)
from extremogram.cli import main

RAY = ExtremeSet.ray(1.0)
Q90 = ThresholdRule.quantile(0.9)


def roundtrip_bytes(tmp_path, write, read):
    """write -> read -> write must reproduce the file byte for byte."""
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write(p1)
    obj = read(p1)
    write(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()
    return obj


def test_lattice_field_roundtrip(tmp_path):
    for dims in [(7,), (5, 4), (3, 4, 2)]:
        f = sim_frechet_iid(dims, seed=1)
        obj = roundtrip_bytes(
            tmp_path,
            lambda p, o=f: write_field(p, o),
            lambda p: read_field(p),
        )
        assert isinstance(obj, LatticeField)
        assert obj.dims == f.dims
        assert np.array_equal(obj.values, f.values)


def test_point_field_roundtrip(tmp_path):
    pf = sim_point_field((0, 8, 0, 6), CountRule.fixed(40),
                         FieldSource.frechet_iid(), seed=2)
    obj = roundtrip_bytes(
        tmp_path,
        lambda p, o=pf: write_field(p, o),
        lambda p: read_field(p),
    )
    assert isinstance(obj, PointField)
    assert obj.region == pf.region
    assert np.array_equal(obj.locations, pf.locations)
    assert np.array_equal(obj.values, pf.values)
    assert obj.intensity_hint == pf.intensity_hint


def _lattice_file(path, rows):
    path.write_text('# {"dims": [2, 2], "kind": "lattice"}\nx,y,value\n' + "\n".join(rows) + "\n")


def test_lattice_rows_are_placed_by_their_index_columns(tmp_path):
    p = tmp_path / "f.csv"
    _lattice_file(p, ["1,1,4", "0,0,1", "0,1,2", "1,0,3"])
    assert read_field(p).grid.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("rows, needle", [
    (["0,0,1", "0,1.5,2", "1,0,3", "1,1,4"], "bad index or value"),
    (["0,0,1", "0,x,2", "1,0,3", "1,1,4"], "bad index or value"),
    (["0,0,1", "0,99999999999999999999,2", "1,0,3", "1,1,4"], "bad index or value"),
    (["0,0,1", "0,0,2", "7,9,3", "1,1,4"], "line 5: cell (7, 9) is outside"),
    (["0,0,1", "0,-1,2", "1,0,3", "1,1,4"], "line 4: cell (0, -1) is outside"),
    # (0,0) twice leaves (0,1) missing
    (["0,0,1", "1,0,2", "0,0,3", "1,1,4"], "line 5: duplicate cell (0, 0)"),
    (["0,0,1", "0,1,2", "1,0,3"], "expected 4 rows"),
    # int() would read these as 1; only an optional '-' and ASCII digits count
    (["0,0,1", "0, 1,2", "1,0,3", "1,1,4"], "bad index or value"),
    (["0,0,1", "0,0_1,2", "1,0,3", "1,1,4"], "bad index or value"),
    # a bad value is named by its line; '#' starts no comment
    (["0,0,1", "0,1,abc", "1,0,3", "1,1,4"], "line 4: bad index or value"),
    (["0,0,1", "0,1,1.5#x", "1,0,3", "1,1,4"], "line 4: bad index or value"),
    (["0,0,1", "", "1,0,3", "1,1,4"], "line 4: expected 3 columns, got 1"),
])
def test_lattice_cells_must_be_integer_in_range_and_unique(tmp_path, rows, needle):
    p = tmp_path / "f.csv"
    _lattice_file(p, rows)
    with pytest.raises(DataFormatError) as err:
        read_field(p)
    assert needle in str(err.value)


_VALUE = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def any_field(draw):
    """A random lattice field of 1-3 d, or a random point field."""
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        return LatticeField(dims, draw(st.lists(_VALUE, min_size=math.prod(dims),
                                                max_size=math.prod(dims))))
    x0, y0 = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    w, h = draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6))
    n = draw(st.integers(0, 12))
    unit = st.floats(0.0, 1.0)
    locs = [(x0 + w * draw(unit), y0 + h * draw(unit)) for _ in range(n)]
    locs = [(min(x, x0 + w), min(y, y0 + h)) for x, y in locs]
    hint = draw(st.one_of(st.none(), st.floats(1e-3, 1e3)))
    return PointField(np.array(locs).reshape(n, 2), draw(st.lists(_VALUE, min_size=n, max_size=n)),
                      (x0, x0 + w, y0, y0 + h), hint)


@given(any_field())
@settings(max_examples=60, deadline=None)
def test_field_write_read_write_is_byte_identical_property(tmp_path_factory, field):
    tmp = tmp_path_factory.mktemp("rt")
    roundtrip_bytes(tmp, lambda p, o=field: write_field(p, o), read_field)


@st.composite
def shuffled_cube(draw):
    """A random cube of 1-4 cells per axis and an order for its rows."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    n = math.prod(shape)
    values = np.array(draw(st.lists(_VALUE, min_size=n, max_size=n))).reshape(shape)
    return SpaceTimeGrid(values), draw(st.permutations(range(n)))


@given(shuffled_cube())
@settings(max_examples=60, deadline=None)
def test_cube_rows_in_any_order_read_back_bit_for_bit_property(tmp_path_factory, case):
    grid, order = case
    tmp = tmp_path_factory.mktemp("cube")
    p1, p2 = tmp / "a.csv", tmp / "b.csv"
    write_space_time(p1, grid)
    header, *rows = p1.read_text().splitlines()
    p2.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
    back = read_space_time(p2)
    assert back.values.shape == grid.values.shape
    assert back.values.tobytes() == grid.values.tobytes()
    write_space_time(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_header_is_json_comment(tmp_path):
    f = sim_frechet_iid((4, 4), seed=3)
    p = tmp_path / "f.csv"
    write_field(p, f)
    first = p.read_text().splitlines()[0]
    assert first.startswith("# ")
    meta = json.loads(first[2:])
    assert meta["kind"] == "lattice" and meta["dims"] == [4, 4]


def test_field_malformed_lines_are_located(tmp_path):
    p = tmp_path / "bad.csv"
    f = sim_frechet_iid((3, 3), seed=4)
    write_field(p, f)
    lines = p.read_text().splitlines()
    lines[4] = "1,not_a_number"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 5"):
        read_field(p)
    p.write_text("no json header\nrest\n")
    with pytest.raises(DataFormatError):
        read_field(p)


def test_ese_csv_contract(tmp_path):
    f = sim_frechet_iid((10, 10), seed=5)
    res = lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0), Lag.of(0, 1)])
    p = tmp_path / "ese.csv"
    write_ese(p, res)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(ESE_COLUMNS)
    assert lines[0] == "lag_x,lag_y,distance,rho_hat,pair_count,exceed_count,band_lo,band_hi"
    first = lines[1].split(",")
    assert len(first) == 8
    assert first[6] == "" and first[7] == ""  # no band attached

    table, meta = read_ese(p)
    assert table.dtype.names == ESE_COLUMNS
    assert np.array_equal(table.lag_x, [1.0, 0.0])
    assert np.array_equal(table.rho_hat, res.rho_hat)
    assert np.all(np.isnan(table.band_lo))
    table.band_lo[0] = 0.0  # the caller's own copy
    assert meta["mode"] == "lattice" and meta["m"] == res.m
    assert meta["set_a"] == "(1,inf)"
    assert meta["reference_rate"] == 1.0 / res.m


def test_ese_roundtrip_is_lossless(tmp_path):
    # .17g prints float64 exactly, so rho survives the trip bit for bit
    f = sim_frechet_iid((12, 12), seed=6)
    res = lattice_ese_by_distance(f, RAY, RAY, Q90, 2.0)
    p = tmp_path / "bydist.csv"
    write_ese(p, res)
    table, meta = read_ese(p)
    assert np.array_equal(table.rho_hat, res.rho_hat)
    assert np.array_equal(table.distance, res.distances)
    assert meta["by_distance"] is True


def test_ese_reads_back_bit_for_bit_with_and_without_bands(tmp_path):
    f = sim_frechet_iid((10, 10), seed=7)
    lags = [Lag.of(1, 0), Lag.of(0, 1), Lag.of(2, 1)]
    res = lattice_ese(f, RAY, RAY, Q90, lags)
    band = permutation_bands(f, RAY, RAY, Q90, EstimatorConfig(mode="lattice"),
                             lags, n_perm=100, seed=0)
    for name, b in (("plain.csv", None), ("banded.csv", band)):
        write_ese(tmp_path / name, res, band=b)
        table, _ = read_ese(tmp_path / name)
        assert np.array_equal(table.lag_x, [1.0, 0.0, 2.0])
        assert np.array_equal(table.lag_y, [0.0, 1.0, 1.0])
        assert np.array_equal(table.distance, res.distances)
        assert np.array_equal(table.rho_hat, res.rho_hat)
        assert table.pair_count.dtype == table.exceed_count.dtype == np.int64
        assert np.array_equal(table.pair_count, res.pair_count)
        assert np.array_equal(table.exceed_count, res.exceed_count)
        lo, hi = (math.nan, math.nan) if b is None else (b.lo, b.hi)
        assert np.array_equal(table.band_lo, [lo] * 3, equal_nan=True)
        assert np.array_equal(table.band_hi, [hi] * 3, equal_nan=True)


@pytest.mark.parametrize("column, token", [
    # int() would read the first three as 10, float() the last as 5.0
    (4, "1_0"), (4, " 10"), (5, "+10"), (5, "1_0"), (3, "0_5"), (0, "x"), (6, "lo"),
])
def test_ese_malformed_tokens_are_named_by_their_line(tmp_path, column, token):
    f = sim_frechet_iid((10, 10), seed=5)
    p = tmp_path / "ese.csv"
    write_ese(p, lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0), Lag.of(0, 1)]))
    lines = p.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = token
    lines[2] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="ese.csv: line 3: bad index or value"):
        read_ese(p)


def test_a_sidecar_that_is_not_strict_json_is_refused_before_writing(tmp_path):
    f = sim_frechet_iid((10, 10), seed=5)
    p = tmp_path / "ese.csv"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_ese(p, lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0)]), extra_meta={"x": math.nan})
    assert os.listdir(tmp_path) == []


def test_ese_sidecar_that_is_not_json_is_a_data_error(tmp_path):
    f = sim_frechet_iid((10, 10), seed=5)
    p = tmp_path / "ese.csv"
    write_ese(p, lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0)]))
    (tmp_path / "ese.json").write_text('{"mode": "lattice",')
    with pytest.raises(DataFormatError, match="ese.json: bad JSON sidecar"):
        read_ese(p)


def test_ese_band_columns_and_sidecar(tmp_path):
    f = sim_frechet_iid((10, 10), seed=7)
    lags = [Lag.of(1, 0), Lag.of(2, 0)]
    res = lattice_ese(f, RAY, RAY, Q90, lags)
    band = permutation_bands(f, RAY, RAY, Q90, EstimatorConfig(mode="lattice"),
                             lags, n_perm=100, seed=0)
    p = tmp_path / "banded.csv"
    write_ese(p, res, band=band, extra_meta={"source": "unit-test"})
    table, meta = read_ese(p)
    assert np.all(table.band_lo == band.lo)
    assert np.all(table.band_hi == band.hi)
    assert meta["band"]["n_perm"] == 100
    assert meta["band"]["level"] == 0.95
    assert len(meta["band"]["per_lag"]) == 2
    assert meta["source"] == "unit-test"
    assert sidecar_path(str(p)).endswith("banded.json")


def test_ese_rejects_3d_lags(tmp_path):
    f = sim_frechet_iid((4, 4, 4), seed=8)
    res = lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0, 0)])
    with pytest.raises(DataFormatError):
        write_ese(tmp_path / "threed.csv", res)


def test_mc_writer_rejects_3d_lags_before_writing(tmp_path):
    s = mc_study(FrechetModel((4, 4, 4)), RAY, RAY, Q90,
                 EstimatorConfig(mode="lattice"), [Lag.of(1, 0, 0)], n_reps=2, seed=0)
    p = tmp_path / "mc3.csv"
    with pytest.raises(DataFormatError, match="3-d lags"):
        write_mc(p, s)
    assert not p.exists() and not (tmp_path / "mc3.json").exists()


def test_space_time_roundtrip(tmp_path):
    rng = derive_rng(9)
    grid = SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(4, 3, 5)))
    obj = roundtrip_bytes(
        tmp_path,
        lambda p, o=grid: write_space_time(p, o),
        lambda p: read_space_time(p),
    )
    assert obj.values.shape == (4, 3, 5)
    assert np.array_equal(obj.values, grid.values)


def test_space_time_header_and_errors(tmp_path):
    rng = derive_rng(10)
    grid = SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(2, 2, 2)))
    p = tmp_path / "st.csv"
    write_space_time(p, grid)
    lines = p.read_text().splitlines()
    header_at = 1 if lines[0].startswith("#") else 0
    assert lines[header_at] == "t,x,y,value"

    # duplicate cell
    dup = lines + [lines[header_at + 1]]
    p.write_text("\n".join(dup) + "\n")
    with pytest.raises(DataFormatError):
        read_space_time(p)

    # missing cell
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError):
        read_space_time(p)

    # malformed row cites its line number
    bad = list(lines)
    bad[header_at + 2] = "0,0,x,1.0"
    p.write_text("\n".join(bad) + "\n")
    with pytest.raises(DataFormatError, match=f"line {header_at + 3}"):
        read_space_time(p)

    # an index int() would accept ("1_0" as 10) is malformed too
    bad[header_at + 2] = "0,0,0_1,1.0"
    p.write_text("\n".join(bad) + "\n")
    with pytest.raises(DataFormatError, match=f"line {header_at + 3}: bad index"):
        read_space_time(p)


@pytest.mark.parametrize("kind, row, needle", [
    ("cube", "0,0,1,abc", "line 3: bad index or value"),
    ("cube", "0,0,1,1.5#x", "line 3: bad index or value"),
    ("cube", "", "line 3: expected 4 columns, got 1"),
    ("point", "1,1,abc", "line 4: bad index or value"),
    ("point", "1,1,1.5#x", "line 4: bad index or value"),
    ("point", "", "line 4: expected 3 columns, got 1"),
])
def test_cube_and_point_rows_are_named_by_their_line(tmp_path, kind, row, needle):
    p = tmp_path / "rows.csv"
    if kind == "cube":
        write_space_time(p, SpaceTimeGrid(np.ones((1, 2, 2))))
        read = read_space_time
    else:
        write_field(p, sim_point_field((0, 4, 0, 4), CountRule.fixed(3),
                                       FieldSource.frechet_iid(), seed=1))
        read = read_field
    lines = p.read_text().splitlines()
    lines[2 if kind == "cube" else 3] = row  # the second data row
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=needle):
        read(p)


def test_cube_index_checks_come_before_allocation(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("t,x,y,value\n0,0,0,1.0\n9999999999,0,0,1.0\n")
    with pytest.raises(DataFormatError, match="2 rows cannot fill a 10000000000x1x1 cube"):
        read_space_time(p)
    p.write_text("t,x,y,value\n0,0,0,1.0\n0,-9999999999,0,1.0\n")
    with pytest.raises(DataFormatError, match="line 3: negative index"):
        read_space_time(p)
    p.write_text("t,x,y,value\n0,0,0,1.0\n0,0,99999999999999999999,1.0\n")
    with pytest.raises(DataFormatError, match="line 3: bad index or value"):
        read_space_time(p)


@pytest.mark.parametrize("write", [
    lambda p: write_field(p, sim_frechet_iid((4, 4), seed=2)),
    lambda p: write_space_time(p, SpaceTimeGrid(np.ones((2, 2, 2)))),
    lambda p: write_ese(p, lattice_ese(sim_frechet_iid((8, 8), seed=2), RAY, RAY, Q90,
                                       [Lag.of(1, 0)])),
], ids=["field", "cube", "ese"])
def test_a_failed_write_leaves_the_previous_files_and_no_temp_file(tmp_path, monkeypatch, write):
    table, side = tmp_path / "out.csv", tmp_path / "out.json"
    table.write_text("previous table\n")
    side.write_text("previous sidecar\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(table)
    assert table.read_text() == "previous table\n"
    assert side.read_text() == "previous sidecar\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json"]
    monkeypatch.undo()
    write(table)
    assert table.read_text() != "previous table\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json"]


def test_mc_writer(tmp_path):
    s = mc_study(FrechetModel((10, 10)), RAY, RAY, Q90,
                 EstimatorConfig(mode="lattice"), [Lag.of(1, 0)],
                 n_reps=5, seed=0)
    p = tmp_path / "mc.csv"
    write_mc(p, s)
    lines = p.read_text().splitlines()
    assert lines[0] == ("lag_x,lag_y,distance,mean,variance,"
                        "q2.5,q25,q50,q75,q97.5,oracle_limit,oracle_pa")
    cells = lines[1].split(",")
    assert float(cells[3]) == s.mean[0]
    assert float(cells[10]) == 0.0  # iid oracle limit off the diagonal
    meta = json.loads(open(sidecar_path(str(p))).read())
    assert meta["n_reps"] == 5 and meta["n_used"] == 5
    assert "frechet" in meta["model"]


def test_mc_writer_empty_oracles(tmp_path):
    s = mc_study(FrechetModel((10, 10)), ExtremeSet(1.0, 3.0), RAY, Q90,
                 EstimatorConfig(mode="lattice"), [Lag.of(1, 0)],
                 n_reps=3, seed=1)
    p = tmp_path / "mc2.csv"
    write_mc(p, s)
    cells = p.read_text().splitlines()[1].split(",")
    assert cells[10] == "" and cells[11] == ""


def test_rate_writer(tmp_path):
    rc = clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90,
                        EstimatorConfig(mode="lattice"), (1, 0), (10, 20),
                        n_reps=30, seed=2)
    p = tmp_path / "rate.csv"
    write_rate(p, rc)
    lines = p.read_text().splitlines()
    assert lines[0] == "size,mean,variance"
    assert len(lines) == 3
    assert int(lines[1].split(",")[0]) == 10
    meta = json.loads(open(sidecar_path(str(p))).read())
    assert meta["slope"] == rc.slope
    assert meta["d"] == 2 and meta["n_reps"] == 30


def test_fmt_is_exact_for_float64(tmp_path):
    # adversarial values with long binary expansions
    vals = np.array([1 / 3, math.pi, 0.1, 2 ** -40 + 1, 1e300])
    f = LatticeField((5,), vals)
    p = tmp_path / "exact.csv"
    write_field(p, f)
    back = read_field(p)
    assert np.array_equal(back.values, vals)


def test_writers_refuse_a_path_that_is_its_own_sidecar(tmp_path):
    f = sim_frechet_iid((6, 6), seed=6)
    res = lattice_ese(f, RAY, RAY, Q90, [Lag.of(1, 0)])
    s = mc_study(FrechetModel((6, 6)), RAY, RAY, Q90,
                 EstimatorConfig(mode="lattice"), [Lag.of(1, 0)],
                 n_reps=2, seed=0)
    rc = clt_rate_check(lambda n: FrechetModel((n, n)), RAY, RAY, Q90,
                        EstimatorConfig(mode="lattice"), (1, 0), (6,),
                        n_reps=2, seed=0)
    p = tmp_path / "out.json"
    for write, obj in ((write_ese, res), (write_mc, s), (write_rate, rc)):
        with pytest.raises(ValueError, match="sidecar"):
            write(p, obj)
        assert not p.exists()


_FIELD_ROWS = "x,value\n0,1\n"
_REFUSED_FILES = [
    (read_field, '# {"kind": "lattice", "dims": [1]}\n', ": too short to be a field file"),
    (read_field, "# {dims\n" + _FIELD_ROWS, ": line 1: bad JSON header"),
    (read_field, '# {"dims": [1]}\n' + _FIELD_ROWS, ": line 1: header must be an object with 'kind'"),
    (read_field, '# {"kind": "mesh"}\n' + _FIELD_ROWS, ": unknown field kind 'mesh'"),
    (read_ese, "lag_x,rho\n1,0.5\n", ": line 1: expected header lag_x,lag_y,"),
    (read_space_time, "t,x,value\n0,0,1\n", ": line 1: expected header t,x,y,value"),
    (read_space_time, "t,x,y,value\n", ": no data rows"),
    (read_space_time, "t,x,y,value\n0,0,0,1\n0,0,1,-1\n", ": line 3: value must be finite"),
    (read_space_time, "t,x,y,value\n0,0,0,inf\n", ": line 2: value must be finite"),
    (read_space_time, "t,x,y,value\n0,0,0,nan\n", ": line 2: value must be finite"),
]


@pytest.mark.parametrize("read, text, needle", _REFUSED_FILES,
                         ids=[f"{read.__name__}-{i}" for i, (read, _, _) in enumerate(_REFUSED_FILES)])
def test_a_refused_file_names_its_path_and_line(
        tmp_path, monkeypatch, capsys, read, text, needle):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}{needle}")
    if read is read_ese:  # no command reads an estimate table
        return
    monkeypatch.chdir(tmp_path)
    if read is read_field:
        argv = ["estimate", "--mode", "lattice", "--threshold", "q=0.9", "--lags", "1",
                "--out", "o.csv"]
    else:
        argv = ["ingest", "--block", "1", "--windows", "0:1", "--out-dir", "o"]
    assert main([*argv, "--input", "in.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DataFormatError"
    assert payload["message"].startswith(f"in.csv{needle}")
    assert os.listdir(tmp_path) == ["in.csv"]


@pytest.mark.parametrize("bad", ["-1.5", "nan"])
def test_unusable_field_values_are_data_errors(tmp_path, bad):
    lat = tmp_path / "lat.csv"
    write_field(lat, sim_frechet_iid((3, 3), seed=7))
    lines = lat.read_text().splitlines()
    lines[3] = "0,1," + bad
    lat.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="lat.csv"):
        read_field(lat)

    pts = tmp_path / "pts.csv"
    write_field(pts, sim_point_field((0, 4, 0, 4), CountRule.fixed(5),
                                     FieldSource.frechet_iid(), seed=7))
    lines = pts.read_text().splitlines()
    lines[2] = "1,1," + bad
    pts.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="pts.csv"):
        read_field(pts)


def test_a_cube_read_peaks_below_80_bytes_a_row(tmp_path):
    # the body text is released before loadtxt streams the rows from the
    # handle: no list of lines and no joined copy sit beside the records
    p = tmp_path / "cube.csv"
    write_space_time(p, SpaceTimeGrid(derive_rng(11).gamma(2.0, 1.0, size=(12, 60, 60))))
    read_space_time(p)  # compiled patterns and numpy's parser are cached from here on
    tracemalloc.start()
    try:
        grid = read_space_time(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (12, 60, 60)
    assert peak <= 80 * 43_200, f"{peak / 43_200:.0f} B per row"


def _ese_file(p, banded):
    f = sim_frechet_iid((10, 10), seed=7)
    lags = [Lag.of(1, 0), Lag.of(0, 1), Lag.of(2, 1)]
    band = permutation_bands(f, RAY, RAY, Q90, EstimatorConfig(mode="lattice"), lags,
                             n_perm=100, seed=0) if banded else None
    write_ese(p, lattice_ese(f, RAY, RAY, Q90, lags), band=band)


def _point_field(count=3):
    return sim_point_field((0, 4, 0, 4), CountRule.fixed(count), FieldSource.frechet_iid(),
                           seed=1)


def _lattice_bits(p):
    f = read_field(p)
    return f.dims, f.values.tobytes()


def _point_bits(p):
    f = read_field(p)
    return f.region, f.intensity_hint, f.locations.tobytes(), f.values.tobytes()


def _cube_bits(p):
    values = read_space_time(p).values
    return values.shape, values.tobytes()


# (write, the bits a read gives) per file kind
_FILE_KINDS = {
    "lattice": (lambda p: write_field(p, sim_frechet_iid((3, 4), seed=1)), _lattice_bits),
    "point": (lambda p: write_field(p, _point_field(count=12)), _point_bits),
    "cube": (lambda p: write_space_time(p, SpaceTimeGrid(derive_rng(3).gamma(2.0, 1.0, (2, 3, 4)))),
             _cube_bits),
    "ese": (lambda p: _ese_file(p, False), lambda p: read_ese(p)[0].tobytes()),
    "banded ese": (lambda p: _ese_file(p, True), lambda p: read_ese(p)[0].tobytes()),
}


@pytest.mark.parametrize("ending", ["\r\n", "\r", None], ids=["crlf", "cr", "no final newline"])
@pytest.mark.parametrize("kind", list(_FILE_KINDS))
def test_crlf_cr_and_unterminated_files_read_back_like_lf_files(tmp_path, kind, ending):
    write, bits = _FILE_KINDS[kind]
    lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
    write(lf)
    text = lf.read_text()
    assert text.endswith("\n") and "\r" not in text
    other.write_bytes((text[:-1] if ending is None else text.replace("\n", ending)).encode())
    assert bits(other) == bits(lf)


@pytest.mark.parametrize("kind, at, needle", [
    ("cube", "first", "line 2: expected 4 columns, got 1"),
    ("cube", "last", "line 6: expected 4 columns, got 1"),
    ("point", "first", "line 3: expected 3 columns, got 1"),
    ("point", "last", "line 6: expected 3 columns, got 1"),
])
def test_a_blank_first_or_last_row_is_named_by_its_line(tmp_path, kind, at, needle):
    # loadtxt would skip a blank row without a word
    p = tmp_path / "rows.csv"
    if kind == "cube":
        write_space_time(p, SpaceTimeGrid(np.ones((1, 2, 2))))
    else:
        write_field(p, _point_field())
    lines = p.read_text().splitlines()
    if at == "first":
        lines.insert(1 if kind == "cube" else 2, "")
    else:
        lines.append("")
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=needle):
        (read_space_time if kind == "cube" else read_field)(p)


_ODD_BREAKS = ["\x0b", "\x0c", "\x85", "\u2028"]


@pytest.mark.parametrize("brk", _ODD_BREAKS, ids=[f"U+{ord(c):04X}" for c in _ODD_BREAKS])
@pytest.mark.parametrize("kind, line", [("cube", 3), ("point", 4), ("ese", 3)])
def test_a_line_break_other_than_newline_is_refused_naming_its_line(
        tmp_path, monkeypatch, capsys, kind, line, brk):
    # loadtxt reads "1.5" followed by any of these as 1.5, while
    # str.splitlines would break the line there
    monkeypatch.chdir(tmp_path)
    if kind == "cube":
        write_space_time("in.csv", SpaceTimeGrid(np.ones((1, 2, 2))))
    elif kind == "point":
        write_field("in.csv", _point_field())
    else:
        _ese_file("in.csv", False)
    lines = (tmp_path / "in.csv").read_text().split("\n")
    lines[line - 1] += brk
    (tmp_path / "in.csv").write_text("\n".join(lines))
    needle = f"in.csv: line {line}: line break U+{ord(brk):04X} is refused"
    read = {"cube": read_space_time, "point": read_field, "ese": read_ese}[kind]
    with pytest.raises(DataFormatError, match=re.escape(needle)):
        read("in.csv")
    if kind == "ese":  # no command reads an estimate table
        return
    argv = (["ingest", "--block", "1", "--windows", "0:1", "--out-dir", "o"] if kind == "cube"
            else ["estimate", "--mode", "kernel", "--bandwidth", "1", "--threshold", "q=0.5",
                  "--lags", "1", "--out", "o.csv"])
    assert main([*argv, "--input", "in.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["message"].startswith(needle)
    assert os.listdir(tmp_path) == ["in.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("bad", [None, "0,0,1,abc"], ids=["good", "bad row"])
def test_a_cube_read_through_a_named_pipe_reads_like_its_file(tmp_path, bad):
    # a pipe cannot seek back to its body, so its rows parse from the text
    cube, pipe = tmp_path / "cube.csv", tmp_path / "cube.fifo"
    write_space_time(cube, SpaceTimeGrid(derive_rng(4).gamma(2.0, 1.0, (2, 3, 4))))
    if bad:
        lines = cube.read_text().splitlines()
        lines[2] = bad
        cube.write_text("\n".join(lines) + "\n")
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(cube.read_bytes(),), daemon=True)
    writer.start()
    try:
        if bad:
            with pytest.raises(DataFormatError, match="cube.fifo: line 3: bad index or value"):
                read_space_time(pipe)
        else:
            assert _cube_bits(pipe) == _cube_bits(cube)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
