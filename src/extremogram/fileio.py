"""CSV serialization for fields, estimates, and space-time cubes.

All files are plain CSV with deterministic formatting (floats as 17
significant digits), so write -> read -> write is byte-identical and
outputs diff cleanly.  Field files carry their geometry in a one-line
JSON header comment.  Estimate files use the fixed column contract

    lag_x,lag_y,distance,rho_hat,pair_count,exceed_count,band_lo,band_hi

(band columns empty unless bands were computed) and are accompanied by
a JSON sidecar with the threshold, denominator rate, and any band or
run metadata.  Space-time cubes are long-format t,x,y,value with
integer indices from zero; malformed rows fail hard with their line
number.
"""
from __future__ import annotations

import json
import math
import os
import re
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


def _header_line(meta: dict) -> str:
    return "# " + json.dumps(meta, sort_keys=True)


def sidecar_path(path: str) -> str:
    base, _ = os.path.splitext(str(path))
    return base + ".json"


def _distinct_sidecar(path) -> str:
    # a .json table path is its own sidecar; refuse before writing either
    side = sidecar_path(path)
    if side == str(path):
        raise ValueError(
            f"{path}: output path collides with its JSON sidecar; use another extension"
        )
    return side


# ---------------------------------------------------------------------------
# field files


def write_field(path, field: LatticeField | PointField) -> None:
    """Write a lattice or point field with a JSON geometry header."""
    lines = []
    if isinstance(field, LatticeField):
        meta = {"kind": "lattice", "dims": list(field.dims)}
        axes = _AXIS_NAMES[: field.d]
        lines.append(_header_line(meta))
        lines.append(",".join(axes) + ",value")
        idx = np.stack(
            np.meshgrid(*(np.arange(n) for n in field.dims), indexing="ij"), axis=-1
        ).reshape(-1, field.d)
        for row, v in zip(idx, field.values):
            lines.append(",".join(str(int(i)) for i in row) + "," + _fmt(v))
    elif isinstance(field, PointField):
        hint = field.intensity_hint
        meta = {
            "kind": "point",
            "region": [float(c) for c in field.region],
            "intensity_hint": None if hint is None else float(hint),
        }
        lines.append(_header_line(meta))
        lines.append("x,y,value")
        for (px, py), v in zip(field.locations, field.values):
            lines.append(f"{_fmt(px)},{_fmt(py)},{_fmt(v)}")
    else:
        raise DataFormatError(f"cannot serialize {type(field).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        d = len(dims)
        body = lines[2:]
        for ln, line in enumerate(body, start=3):
            if line.count(",") != d:
                raise DataFormatError(
                    f"{path}: line {ln}: expected {d + 1} columns, got {line.count(',') + 1}"
                )
        if len(body) != math.prod(dims):
            raise DataFormatError(
                f"{path}: expected {math.prod(dims)} rows for dims {dims}, got {len(body)}"
            )
        _check_index_tokens(path, lines, 2, d)
        # one split of the whole body, then each column at a stride; a
        # per-row parse loop doubles the read time of a 60x60 field
        tokens = ",".join(body).split(",")
        try:
            values = [float(v) for v in tokens[d :: d + 1]]
            idx = np.array([tokens[k :: d + 1] for k in range(d)], dtype=np.int64).T
        except (ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}: bad index or value ({exc})") from exc
        return _checked(path, LatticeField, dims, _place(path, dims, idx, values))
    if kind == "point":
        region = tuple(float(c) for c in meta.get("region", ()))
        if len(region) != 4:
            raise DataFormatError(f"{path}: line 1: bad region {meta.get('region')!r}")
        hint = meta.get("intensity_hint")
        locs, values = [], []
        for ln, line in enumerate(lines[2:], start=3):
            parts = line.split(",")
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}: line {ln}: expected 3 columns, got {len(parts)}"
                )
            try:
                locs.append((float(parts[0]), float(parts[1])))
                values.append(float(parts[2]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {ln}: bad number") from exc
        return _checked(
            path,
            PointField,
            np.array(locs, dtype=float).reshape(len(locs), 2),
            np.array(values),
            region,
            None if hint is None else float(hint),
        )
    raise DataFormatError(f"{path}: unknown field kind {kind!r}")


def _check_index_tokens(path, lines, n_header: int, n_index: int) -> None:
    # [0-9-] only: int() would also take spaces, '+', '_' and non-ASCII digits
    text = "\n".join(lines)
    start = sum(map(len, lines[:n_header])) + n_header - 1
    bad = re.compile(r"\n(?!(?:[0-9-]+,){%d})" % n_index).search(text, start)
    if bad is not None:
        line = text.count("\n", 0, bad.start()) + 2
        raise DataFormatError(f"{path}: line {line}: bad index or value (not ASCII digits)")


def _place(path, dims, idx: np.ndarray, values) -> np.ndarray:
    """Row-major lattice values with each row placed at its index cell.

    With one row per cell, a cell that is out of range or repeated is
    the only way a cell can be missing; each is named by its line.
    """
    outside = np.any((idx < 0) | (idx >= np.array(dims)), axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        raise DataFormatError(
            f"{path}: line {row + 3}: cell {tuple(idx[row].tolist())} is outside dims {dims}"
        )
    flat = np.ravel_multi_index(tuple(idx.T), dims)
    _, first = np.unique(flat, return_index=True)
    if len(first) != len(flat):
        row = int(np.setdiff1d(np.arange(len(flat)), first)[0])
        raise DataFormatError(
            f"{path}: line {row + 3}: duplicate cell {tuple(idx[row].tolist())}"
        )
    out = np.empty(len(flat))
    out[flat] = values
    return out


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


def _lag_xy(lags) -> list[tuple[float, float]]:
    if any(lag.d > 2 for lag in lags):
        raise DataFormatError("the lag_x,lag_y column contract cannot represent 3-d lags")
    return [(lag.offset[0], lag.offset[1] if lag.d == 2 else 0.0) for lag in lags]


def write_ese(path, result: EseResult, band: BandResult | None = None, extra_meta: dict | None = None) -> None:
    """Write an estimate to CSV plus a JSON metadata sidecar.

    The pooled band, when given, is repeated on every row (it is
    constant by construction); per-lag bands live in the sidecar.
    """
    side = _distinct_sidecar(path)
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(side, "w") as fh:
        json.dump(_ese_meta(result, band, extra_meta), fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    nx, ny = grid.dims
    lines = ["t,x,y,value"]
    for t in range(grid.n_times):
        for x in range(nx):
            row = grid.values[t, x]
            for y in range(ny):
                lines.append(f"{t},{x},{y},{_fmt(row[y])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    entries = []
    for ln, line in enumerate(lines[1:], start=2):
        if line == "":
            raise DataFormatError(f"{path}: line {ln}: blank row")
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(
                f"{path}: line {ln}: expected 4 columns, got {len(parts)}"
            )
        try:
            t, x, y = int(parts[0]), int(parts[1]), int(parts[2])
            v = float(parts[3])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: bad number ({exc})") from exc
        if t < 0 or x < 0 or y < 0:
            raise DataFormatError(f"{path}: line {ln}: negative index")
        if not (math.isfinite(v) and v >= 0):
            raise DataFormatError(f"{path}: line {ln}: value must be finite and >= 0")
        entries.append((ln, t, x, y, v))
    if not entries:
        raise DataFormatError(f"{path}: no data rows")
    _check_index_tokens(path, lines, 1, 3)
    n_t = max(e[1] for e in entries) + 1
    n_x = max(e[2] for e in entries) + 1
    n_y = max(e[3] for e in entries) + 1
    if len(entries) != n_t * n_x * n_y:
        raise DataFormatError(
            f"{path}: {len(entries)} rows cannot fill a {n_t}x{n_x}x{n_y} cube"
        )
    values = np.full((n_t, n_x, n_y), -1.0)
    for ln, t, x, y, v in entries:
        if values[t, x, y] >= 0:
            raise DataFormatError(f"{path}: line {ln}: duplicate cell ({t},{x},{y})")
        values[t, x, y] = v
    return SpaceTimeGrid(values)


# ---------------------------------------------------------------------------
# study outputs


def write_mc(path, summary: McSummary, extra_meta: dict | None = None) -> None:
    """Write Monte Carlo aggregates, one row per estimator row."""
    side = _distinct_sidecar(path)
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(side, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")


def _rate_table(rate: RateCheck) -> str:
    """The per-size ``size,mean,variance`` table, shared with the CLI's stdout."""
    rows = [f"{size},{_fmt(mean)},{_fmt(var)}"
            for size, mean, var in zip(rate.sizes, rate.means, rate.variances)]
    return "\n".join(["size,mean,variance", *rows]) + "\n"


def write_rate(path, rate: RateCheck, extra_meta: dict | None = None) -> None:
    """Write the per-size variance table; the slope goes in the sidecar."""
    side = _distinct_sidecar(path)
    meta = {
        "slope": rate.slope,
        "d": rate.d,
        "ref_lag": list(rate.ref_lag.offset),
        "n_reps": rate.n_reps,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(path, "w") as fh:
        fh.write(_rate_table(rate))
    with open(side, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
