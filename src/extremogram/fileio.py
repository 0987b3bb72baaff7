"""CSV serialization for fields, estimates, and space-time cubes.

All files are plain CSV with deterministic formatting (floats as 17
significant digits), so write -> read -> write is byte-identical and
outputs diff cleanly.  Field files carry their geometry in a one-line
JSON header comment.  Estimate files use the fixed column contract

    lag_x,lag_y,distance,rho_hat,pair_count,exceed_count,band_lo,band_hi

(band columns empty unless bands were computed) and are accompanied by
a JSON sidecar with the threshold, denominator rate, and any band or
run metadata.  Space-time cubes are long-format t,x,y,value with
integer indices from zero.  Lattice and cube rows may come in any order,
since each is placed by its index columns; every malformed row fails
hard, named by its line.  Every write is atomic: the text goes to a
temporary file in the same directory, which then replaces the target.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import secrets
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .fields import LatticeField, PointField
from .inference import BandResult, McSummary, RateCheck
from .pipeline import SpaceTimeGrid
from .results import EseResult

__all__ = [
    "EseTable",
    "ESE_COLUMNS",
    "write_field",
    "read_field",
    "write_ese",
    "read_ese",
    "sidecar_path",
    "write_space_time",
    "read_space_time",
    "write_mc",
    "write_rate",
]

ESE_COLUMNS = (
    "lag_x",
    "lag_y",
    "distance",
    "rho_hat",
    "pair_count",
    "exceed_count",
    "band_lo",
    "band_hi",
)

_AXIS_NAMES = ("x", "y", "z")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` whole: a crash leaves the old file or the new."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_with_sidecar(path, table: str, meta: dict) -> None:
    # a .json table path is its own sidecar; refuse before writing either
    side = sidecar_path(path)
    if side == str(path):
        raise ValueError(
            f"{path}: output path collides with its JSON sidecar; use another extension"
        )
    side_text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    _write_text(path, table)
    _write_text(side, side_text)


def _header_line(meta: dict) -> str:
    return "# " + json.dumps(meta, sort_keys=True)


def sidecar_path(path: str) -> str:
    base, _ = os.path.splitext(str(path))
    return base + ".json"


# ---------------------------------------------------------------------------
# field files


def write_field(path, field: LatticeField | PointField) -> None:
    """Write a lattice or point field with a JSON geometry header."""
    if isinstance(field, LatticeField):
        meta = {"kind": "lattice", "dims": list(field.dims)}
        columns = ",".join(_AXIS_NAMES[: field.d]) + ",value"
        rows = _format_rows(field.d, [*np.indices(field.dims).reshape(field.d, -1), field.values])
    elif isinstance(field, PointField):
        hint = field.intensity_hint
        meta = {
            "kind": "point",
            "region": [float(c) for c in field.region],
            "intensity_hint": None if hint is None else float(hint),
        }
        columns = "x,y,value"
        rows = _format_rows(0, [*field.locations.T, field.values])
    else:
        raise DataFormatError(f"cannot serialize {type(field).__name__}")
    _write_text(path, f"{_header_line(meta)}\n{columns}\n{rows}")


def _parse_header(line: str, path) -> dict:
    if not line.startswith("# "):
        raise DataFormatError(f"{path}: line 1: expected '# {{json}}' header")
    try:
        meta = json.loads(line[2:])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: line 1: bad JSON header ({exc})") from exc
    if not isinstance(meta, dict) or "kind" not in meta:
        raise DataFormatError(f"{path}: line 1: header must be an object with 'kind'")
    return meta


def read_field(path) -> LatticeField | PointField:
    """Read a field file written by :func:`write_field`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataFormatError(f"{path}: too short to be a field file")
    meta = _parse_header(lines[0], path)
    kind = meta["kind"]
    if kind == "lattice":
        dims = tuple(int(n) for n in meta.get("dims", ()))
        if not 1 <= len(dims) <= 3:
            raise DataFormatError(f"{path}: line 1: bad dims {meta.get('dims')!r}")
        if len(lines) - 2 != math.prod(dims):
            raise DataFormatError(
                f"{path}: expected {math.prod(dims)} rows for dims {dims}, got {len(lines) - 2}"
            )
        idx, values = _read_rows(path, lines, 2, len(dims), len(dims) + 1)
        return _checked(path, LatticeField, dims, _place(path, dims, idx, values[:, 0], 3))
    if kind == "point":
        region = tuple(float(c) for c in meta.get("region", ()))
        if len(region) != 4:
            raise DataFormatError(f"{path}: line 1: bad region {meta.get('region')!r}")
        hint = meta.get("intensity_hint")
        _, cols = _read_rows(path, lines, 2, 0, 3)
        return _checked(
            path, PointField, cols[:, :2], cols[:, 2], region, None if hint is None else float(hint)
        )
    raise DataFormatError(f"{path}: unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# indexed rows: integer index columns, then float value columns


def _format_rows(n_index: int, columns) -> str:
    """Newline-terminated CSV rows: ``n_index`` integer columns, then floats.

    One format string covers the whole table; values print at 17
    significant digits, which read back bit for bit.
    """
    row = ",".join(["{}"] * n_index + ["{:.17g}"] * (len(columns) - n_index)) + "\n"
    cells = itertools.chain.from_iterable(zip(*(col.tolist() for col in columns)))
    return (row * len(columns[0])).format(*cells)


def _read_rows(path, lines, n_header: int, n_index: int, n_cols: int):
    """Index columns ``(n, n_index)`` int64 and values ``(n, n_cols - n_index)``.

    The rows are ``lines[n_header:]``.  A blank row, a wrong column
    count or a token that is not a number raises, naming its line.
    """
    body = lines[n_header:]
    dtype = np.dtype([("i", np.int64, (n_index,)), ("v", np.float64, (n_cols - n_index,))])
    bad = _bad_index_row(lines, n_header, n_index)
    if bad is None:
        try:
            table = _parse_rows(body, dtype)
            return table["i"], table["v"]
        except ValueError:
            # loadtxt numbers rows its own way; bisect for the first bad row
            bad, hi = 0, len(body)
            while hi - bad > 1:
                mid = (bad + hi) // 2
                try:
                    _parse_rows(body[bad:mid], dtype)
                    bad = mid
                except ValueError:
                    hi = mid
    got = body[bad].count(",") + 1
    why = "bad index or value" if got == n_cols else f"expected {n_cols} columns, got {got}"
    raise DataFormatError(f"{path}: line {n_header + bad + 1}: {why}")


def _parse_rows(rows, dtype) -> np.ndarray:
    # loadtxt skips empty rows (of split lines, only "") and warns on no
    # rows; neither may pass.  comments=None: "1.5#junk" is not 1.5
    if "" in rows:
        raise ValueError("blank row")
    if not rows:
        return np.empty(0, dtype)
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _bad_index_row(lines, n_header: int, n_index: int) -> int | None:
    # [0-9-] only: int() would also take spaces, '+', '_' and non-ASCII
    # digits; the lookahead also fails on a blank row
    text = "\n".join(lines)
    start = sum(map(len, lines[:n_header])) + n_header - 1
    bad = re.compile(r"\n(?!(?:[0-9-]+,){%d})" % n_index).search(text, start)
    return None if bad is None else text.count("\n", start, bad.start())


def _place(path, dims, idx: np.ndarray, values, first_line: int) -> np.ndarray:
    """Values on a row-major grid of ``dims``, each row at its index cell.

    With one row per cell, a cell that is out of range or repeated is
    the only way a cell can be missing; each is named by its line.
    """
    outside = np.any((idx < 0) | (idx >= np.array(dims)), axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        raise DataFormatError(
            f"{path}: line {row + first_line}: cell {tuple(idx[row].tolist())} is outside dims {dims}"
        )
    flat = np.ravel_multi_index(tuple(idx.T), dims)
    _, first = np.unique(flat, return_index=True)
    if len(first) != len(flat):
        row = int(np.setdiff1d(np.arange(len(flat)), first)[0])
        raise DataFormatError(
            f"{path}: line {row + first_line}: duplicate cell {tuple(idx[row].tolist())}"
        )
    out = np.empty(len(flat))
    out[flat] = values
    return out.reshape(dims)


def _checked(path, field_type, *args):
    # a field the file describes but the type rejects is bad data
    try:
        return field_type(*args)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# estimate files


@dataclass(frozen=True, eq=False)
class EseTable:
    """Columns of an estimate CSV; band columns are NaN when absent."""

    lag_x: np.ndarray
    lag_y: np.ndarray
    distance: np.ndarray
    rho_hat: np.ndarray
    pair_count: np.ndarray
    exceed_count: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray


def _ese_meta(result: EseResult, band: BandResult | None, extra_meta) -> dict:
    meta = {
        "mode": result.mode,
        "by_distance": result.by_distance,
        "set_a": result.set_a.label(),
        "set_b": result.set_b.label(),
        "a_m": result.a_m,
        "m": result.m,
        "denom_rate": result.denom_rate,
        "reference_rate": 1.0 / result.m,
        "bandwidth_degenerate": result.bandwidth_degenerate,
    }
    if result.nu_used is not None:
        meta["nu_used"] = result.nu_used
    if band is not None:
        meta["band"] = {
            "lo": band.lo,
            "hi": band.hi,
            "level": band.level,
            "n_perm": band.n_perm,
            "per_lag": [[lo, hi] for lo, hi in band.per_lag],
        }
    if extra_meta:
        meta.update(extra_meta)
    return meta


def _check_planar(d: int) -> None:
    if d > 2:
        raise DataFormatError("the lag_x,lag_y column contract cannot represent 3-d lags")


def _lag_xy(lags) -> list[tuple[float, float]]:
    _check_planar(max((lag.d for lag in lags), default=1))
    return [(lag.offset[0], lag.offset[1] if lag.d == 2 else 0.0) for lag in lags]


def write_ese(path, result: EseResult, band: BandResult | None = None, extra_meta: dict | None = None) -> None:
    """Write an estimate to CSV plus a JSON metadata sidecar.

    The pooled band, when given, is repeated on every row (it is
    constant by construction); per-lag bands live in the sidecar.
    """
    blo = _fmt(band.lo) if band is not None else ""
    bhi = _fmt(band.hi) if band is not None else ""
    lines = [",".join(ESE_COLUMNS)]
    for (lx, ly), dist, rho, pc, ec in zip(
        _lag_xy(result.lags),
        result.distances,
        result.rho_hat,
        result.pair_count,
        result.exceed_count,
    ):
        lines.append(
            f"{_fmt(lx)},{_fmt(ly)},{_fmt(dist)},{_fmt(rho)},{int(pc)},{int(ec)},{blo},{bhi}"
        )
    _write_with_sidecar(path, "\n".join(lines) + "\n", _ese_meta(result, band, extra_meta))


def read_ese(path) -> tuple[EseTable, dict]:
    """Read an estimate CSV and its sidecar (empty dict when absent)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != ESE_COLUMNS:
        raise DataFormatError(f"{path}: line 1: expected header {','.join(ESE_COLUMNS)}")
    cols = {name: [] for name in ESE_COLUMNS}
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(ESE_COLUMNS):
            raise DataFormatError(
                f"{path}: line {ln}: expected {len(ESE_COLUMNS)} columns, got {len(parts)}"
            )
        try:
            for name, raw in zip(ESE_COLUMNS, parts):
                if name in ("band_lo", "band_hi"):
                    cols[name].append(math.nan if raw == "" else float(raw))
                elif name in ("pair_count", "exceed_count"):
                    cols[name].append(int(raw))
                else:
                    cols[name].append(float(raw))
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: bad number ({exc})") from exc
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side) as fh:
            meta = json.load(fh)
    return (
        EseTable(
            lag_x=np.array(cols["lag_x"]),
            lag_y=np.array(cols["lag_y"]),
            distance=np.array(cols["distance"]),
            rho_hat=np.array(cols["rho_hat"]),
            pair_count=np.array(cols["pair_count"], dtype=np.int64),
            exceed_count=np.array(cols["exceed_count"], dtype=np.int64),
            band_lo=np.array(cols["band_lo"]),
            band_hi=np.array(cols["band_hi"]),
        ),
        meta,
    )


# ---------------------------------------------------------------------------
# space-time cubes


def write_space_time(path, grid: SpaceTimeGrid) -> None:
    """Write a cube as long-format t,x,y,value rows in index order."""
    idx = np.indices(grid.values.shape).reshape(3, -1)
    _write_text(path, "t,x,y,value\n" + _format_rows(3, [*idx, grid.values.ravel()]))


def read_space_time(path) -> SpaceTimeGrid:
    """Read a t,x,y,value CSV into a complete cube.

    Indices must be nonnegative integers; every (t, x, y) cell must
    appear exactly once; values must be finite and nonnegative.  Any
    violation is a hard error naming the offending line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].replace(" ", "") != "t,x,y,value":
        raise DataFormatError(f"{path}: line 1: expected header t,x,y,value")
    if len(lines) == 1:
        raise DataFormatError(f"{path}: no data rows")
    idx, values = _read_rows(path, lines, 1, 3, 4)
    values = values[:, 0]
    negative = np.any(idx < 0, axis=1)
    if negative.any():
        raise DataFormatError(f"{path}: line {int(np.argmax(negative)) + 2}: negative index")
    unusable = ~(np.isfinite(values) & (values >= 0))
    if unusable.any():
        raise DataFormatError(
            f"{path}: line {int(np.argmax(unusable)) + 2}: value must be finite and >= 0"
        )
    # sized only once no index is negative and the rows can fill the cube
    dims = tuple(int(n) + 1 for n in idx.max(axis=0))
    if len(idx) != math.prod(dims):
        raise DataFormatError(
            f"{path}: {len(idx)} rows cannot fill a {dims[0]}x{dims[1]}x{dims[2]} cube"
        )
    return SpaceTimeGrid(_place(path, dims, idx, values, 2))


# ---------------------------------------------------------------------------
# study outputs


def write_mc(path, summary: McSummary, extra_meta: dict | None = None) -> None:
    """Write Monte Carlo aggregates, one row per estimator row."""
    q_names = [f"q{q:g}" for q in sorted(summary.quantiles)]
    header = ["lag_x", "lag_y", "distance", "mean", "variance", *q_names,
              "oracle_limit", "oracle_pa"]
    lines = [",".join(header)]
    for i, (lx, ly) in enumerate(_lag_xy(summary.lags)):
        cells = [
            _fmt(lx), _fmt(ly), _fmt(summary.distances[i]),
            _fmt(summary.mean[i]), _fmt(summary.variance[i]),
        ]
        cells.extend(_fmt(summary.quantiles[q][i]) for q in sorted(summary.quantiles))
        cells.append("" if summary.oracle_limit is None else _fmt(summary.oracle_limit[i]))
        cells.append("" if summary.oracle_pa is None else _fmt(summary.oracle_pa[i]))
        lines.append(",".join(cells))
    meta = {
        "model": summary.model,
        "estimator": summary.estimator,
        "n_reps": summary.n_reps,
        "n_used": summary.n_used,
        "n_failed": summary.n_failed,
        "mean_m": summary.mean_m,
    }
    if extra_meta:
        meta.update(extra_meta)
    _write_with_sidecar(path, "\n".join(lines) + "\n", meta)


def _rate_table(rate: RateCheck) -> str:
    """The per-size ``size,mean,variance`` table, shared with the CLI's stdout."""
    rows = [f"{size},{_fmt(mean)},{_fmt(var)}"
            for size, mean, var in zip(rate.sizes, rate.means, rate.variances)]
    return "\n".join(["size,mean,variance", *rows]) + "\n"


def write_rate(path, rate: RateCheck, extra_meta: dict | None = None) -> None:
    """Write the per-size variance table; the slope goes in the sidecar."""
    meta = {
        "slope": rate.slope,
        "d": rate.d,
        "ref_lag": list(rate.ref_lag.offset),
        "n_reps": rate.n_reps,
    }
    if extra_meta:
        meta.update(extra_meta)
    _write_with_sidecar(path, _rate_table(rate), meta)
