"""CSV serialization for fields, estimates, space-time cubes and study tables.

All files are plain CSV with deterministic formatting (floats as 17
significant digits), so write -> read -> write is byte-identical and
outputs diff cleanly.  Every table (field, cube, estimate, MC, rate,
oracle) goes through one row codec: the column dtypes decide how each
cell prints, and a structured dtype decides how each row parses.  Field
files carry their geometry in a one-line JSON header comment.  Estimate
files use the fixed column contract

    lag_x,lag_y,distance,rho_hat,pair_count,exceed_count,band_lo,band_hi

(band columns empty unless bands were computed) and are accompanied by
a JSON sidecar with the threshold, denominator rate, and any band or
run metadata.  Space-time cubes are long-format t,x,y,value with
integer indices from zero.  Lattice and cube rows may come in any order,
since each is placed by its index columns.  Every malformed row or token
of a field, cube or estimate table fails hard, named by its line.  Every
write is atomic: the text goes to a temporary file in the same
directory, which then replaces the target.
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

_ESE_DTYPE = np.dtype([(name, "i8" if name.endswith("_count") else "f8") for name in ESE_COLUMNS])

_AXIS_NAMES = ("x", "y", "z")


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
        table = _table([*_AXIS_NAMES[: field.d], "value"],
                       [*np.indices(field.dims).reshape(field.d, -1), field.values])
    elif isinstance(field, PointField):
        hint = field.intensity_hint
        meta = {
            "kind": "point",
            "region": [float(c) for c in field.region],
            "intensity_hint": None if hint is None else float(hint),
        }
        table = _table(["x", "y", "value"], [*field.locations.T, field.values])
    else:
        raise DataFormatError(f"cannot serialize {type(field).__name__}")
    _write_text(path, f"{_header_line(meta)}\n{table}")


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
        dims = tuple(_header_value(path, meta, "dims", lambda v: (
            isinstance(v, list) and 1 <= len(v) <= 3 and all(type(n) is int for n in v))))
        if len(lines) - 2 != math.prod(dims):
            raise DataFormatError(
                f"{path}: expected {math.prod(dims)} rows for dims {dims}, got {len(lines) - 2}"
            )
        rows = _read_rows(path, lines, 2, np.dtype([("i", np.int64, (len(dims),)), ("v", float)]))
        return _checked(path, LatticeField, dims, _place(path, dims, rows["i"], rows["v"], 3))
    if kind == "point":
        # JSON numbers parse to int or float, never to their subclass bool
        region = _header_value(path, meta, "region", lambda v: (
            isinstance(v, list) and len(v) == 4 and all(type(c) in (int, float) for c in v)))
        hint = _header_value(path, meta, "intensity_hint",
                             lambda v: v is None or type(v) in (int, float))
        rows = _read_rows(path, lines, 2, np.dtype([("xy", float, (2,)), ("v", float)]))
        return _checked(path, PointField, rows["xy"], rows["v"], region,
                        None if hint is None else float(hint))
    raise DataFormatError(f"{path}: unknown field kind {kind!r}")


def _header_value(path, meta: dict, key: str, ok):
    # a header value of the wrong type is bad data, not a crash later
    value = meta.get(key)
    if not ok(value):
        raise DataFormatError(f"{path}: line 1: bad {key} {value!r}")
    return value


# ---------------------------------------------------------------------------
# the row codec: column dtypes decide how cells print and parse


def _table(names, columns) -> str:
    """A header line of ``names``, then :func:`_format_rows` of ``columns``."""
    return ",".join(names) + "\n" + _format_rows(columns)


def _format_rows(columns) -> str:
    """Newline-terminated CSV rows, one cell per column array.

    One format string covers the whole table.  Float columns print at
    17 significant digits, which read back bit for bit; integer and
    text columns print as they are, so an empty cell is the text "".
    """
    row = ",".join("{:.17g}" if col.dtype.kind == "f" else "{}" for col in columns) + "\n"
    cells = itertools.chain.from_iterable(zip(*(col.tolist() for col in columns)))
    return (row * len(columns[0])).format(*cells)


def _read_rows(path, lines, n_header: int, dtype: np.dtype) -> np.ndarray:
    """``lines[n_header:]`` parsed as one record each of the structured ``dtype``.

    Its fields take the columns in order, a field of shape ``(k,)`` k of
    them.  A blank row, a wrong column count, an integer cell that is
    not ``[0-9-]`` only or a token that is not a number raises, naming
    its line.
    """
    body = lines[n_header:]
    kinds = "".join(dtype[name].base.kind * math.prod(dtype[name].shape) for name in dtype.names)
    bad = _bad_int_row(lines, n_header, kinds)
    if bad is None:
        try:
            return _parse_rows(body, dtype)
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
    why = "bad index or value" if got == len(kinds) else f"expected {len(kinds)} columns, got {got}"
    raise DataFormatError(f"{path}: line {n_header + bad + 1}: {why}")


def _parse_rows(rows, dtype) -> np.ndarray:
    # loadtxt skips empty rows (of split lines, only "") and warns on no
    # rows; neither may pass.  comments=None: "1.5#junk" is not 1.5
    if "" in rows:
        raise ValueError("blank row")
    if not rows:
        return np.empty(0, dtype)
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _bad_int_row(lines, n_header: int, kinds: str) -> int | None:
    # [0-9-] only in integer cells: int() would also take spaces, '+', '_'
    # and non-ASCII digits; the lookahead also fails on a blank row
    if "i" not in kinds:
        return None
    cells = ["[0-9-]+" if kind == "i" else "[^,\n]*" for kind in kinds[: kinds.rindex("i") + 1]]
    text = "\n".join(lines)
    start = sum(map(len, lines[:n_header])) + n_header - 1
    bad = re.compile(r"\n(?!%s(?![^,\n]))" % ",".join(cells)).search(text, start)
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


def _lag_columns(lags) -> np.ndarray:
    """The lag_x and lag_y columns; a 1-d lag has lag_y 0."""
    _check_planar(max((lag.d for lag in lags), default=1))
    return np.array([(*lag.offset, 0.0)[:2] for lag in lags]).reshape(-1, 2).T


def write_ese(path, result: EseResult, band: BandResult | None = None, extra_meta: dict | None = None) -> None:
    """Write an estimate to CSV plus a JSON metadata sidecar.

    The pooled band, when given, is repeated on every row (it is
    constant by construction); per-lag bands live in the sidecar.
    """
    bounds = ("", "") if band is None else (band.lo, band.hi)
    columns = [*_lag_columns(result.lags), result.distances, result.rho_hat, result.pair_count,
               result.exceed_count, *(np.full(result.n_rows, bound) for bound in bounds)]
    _write_with_sidecar(path, _table(ESE_COLUMNS, columns), _ese_meta(result, band, extra_meta))


def read_ese(path) -> tuple[EseTable, dict]:
    """Read an estimate CSV and its sidecar (empty dict when absent)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != ESE_COLUMNS:
        raise DataFormatError(f"{path}: line 1: expected header {','.join(ESE_COLUMNS)}")
    # a row without a band has both band cells empty
    lines = [line[:-1] + "nan,nan" if line.endswith(",,") else line for line in lines]
    rows = _read_rows(path, lines, 1, _ESE_DTYPE)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side) as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{side}: bad JSON sidecar ({exc})") from exc
    return EseTable(**{name: rows[name] for name in ESE_COLUMNS}), meta


# ---------------------------------------------------------------------------
# space-time cubes


def write_space_time(path, grid: SpaceTimeGrid) -> None:
    """Write a cube as long-format t,x,y,value rows in index order."""
    idx = np.indices(grid.values.shape).reshape(3, -1)
    _write_text(path, _table(["t", "x", "y", "value"], [*idx, grid.values.ravel()]))


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
    rows = _read_rows(path, lines, 1, np.dtype([("i", np.int64, (3,)), ("v", float)]))
    idx, values = rows["i"], rows["v"]
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
    names, columns = _mc_columns(summary)
    oracles = [np.full(len(summary.lags), "") if col is None else col
               for col in (summary.oracle_limit, summary.oracle_pa)]
    table = _table(
        ["lag_x", "lag_y", "distance", *names, "oracle_limit", "oracle_pa"],
        [*_lag_columns(summary.lags), summary.distances, *columns, *oracles],
    )
    meta = {
        "model": summary.model,
        "estimator": summary.estimator,
        "n_reps": summary.n_reps,
        "n_used": summary.n_used,
        "n_failed": summary.n_failed,
        "failed_by_reason": summary.failed_by_reason,
        "mean_m": summary.mean_m,
    }
    if extra_meta:
        meta.update(extra_meta)
    _write_with_sidecar(path, table, meta)


def _mc_columns(summary: McSummary):
    """Names and columns of the mean, variance and quantiles of each row."""
    qs = sorted(summary.quantiles)
    return (["mean", "variance", *(f"q{q:g}" for q in qs)],
            [summary.mean, summary.variance, *(summary.quantiles[q] for q in qs)])


def _mc_stdout(summary: McSummary, by_distance: bool) -> str:
    """The CLI's ``mc`` table, oracles when known: rows keyed by a short
    distance or, for vector lags, by the lag itself."""
    names, columns = _mc_columns(summary)
    if summary.oracle_pa is not None:
        names += ["oracle_limit", "oracle_pa"]
        columns += [summary.oracle_limit, summary.oracle_pa]
    if by_distance:
        return _table(["distance", *names], [np.char.mod("%g", summary.distances), *columns])
    # a label such as (1,0) holds commas, so its cell is quoted
    labels = np.array([f'"{lag.label()}"' for lag in summary.lags], dtype=str)
    return _table(["lag", *names], [labels, *columns])


def _rate_table(rate: RateCheck) -> str:
    """The per-size ``size,mean,variance`` table, shared with the CLI's stdout."""
    return _table(["size", "mean", "variance"], [np.array(rate.sizes), rate.means, rate.variances])


def _rate_stdout(rate: RateCheck) -> str:
    """The CLI's ``rate-check`` table, with the fitted slope as a comment."""
    slope = "" if rate.slope is None else f"{rate.slope:.17g}"
    return _rate_table(rate) + f"# slope={slope}\n"


def _oracle_table(distances, rho_limit, rho_pa, m) -> str:
    """The CLI's ``oracle`` table; ``rho_pa`` and ``m`` columns only with ``m``."""
    names = ["distance", "rho_limit"]
    columns = [np.char.mod("%g", distances), np.array(rho_limit, dtype=float)]
    if m is not None:
        names += ["rho_pa", "m"]
        columns += [np.array(rho_pa, dtype=float), np.full(len(distances), float(m))]
    return _table(names, columns)


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
