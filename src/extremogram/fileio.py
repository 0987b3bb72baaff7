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
of a field, cube or estimate table fails hard, named by its line, and so
does a line break other than LF, CRLF or CR.  Those tables are parsed
by one streaming row reader, which holds no list of lines.  Every
write is atomic: the text goes to a temporary file in the same
directory, which then replaces the target.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import os
import re

import numpy as np

from .errors import DataFormatError
from .fields import EseResult, LatticeField, PointField
from .inference import BandResult, McSummary, RateCheck
from .pipeline import SpaceTimeGrid

__all__ = [
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
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
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
    # allow_nan=False: strict JSON parsers reject NaN and Infinity
    side_text = json.dumps(meta, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    def layout(head, n_rows):
        if len(head) < 2:
            raise DataFormatError(f"{path}: too short to be a field file")
        meta = _parse_header(head[0], path)
        kind = meta["kind"]
        if kind == "lattice":
            dims = tuple(_header_value(path, meta, "dims", lambda v: (
                isinstance(v, list) and 1 <= len(v) <= 3 and all(type(n) is int for n in v))))
            if n_rows != math.prod(dims):
                raise DataFormatError(
                    f"{path}: expected {math.prod(dims)} rows for dims {dims}, got {n_rows}"
                )
            return (np.dtype([("i", np.int64, (len(dims),)), ("v", float)]), lambda rows:
                    _checked(path, LatticeField, dims, _place(path, dims, rows["i"], rows["v"], 3)))
        if kind == "point":
            # JSON numbers parse to int or float, never to their subclass bool
            region = _header_value(path, meta, "region", lambda v: (
                isinstance(v, list) and len(v) == 4 and all(type(c) in (int, float) for c in v)))
            hint = _header_value(path, meta, "intensity_hint",
                                 lambda v: v is None or type(v) in (int, float))
            return (np.dtype([("xy", float, (2,)), ("v", float)]), lambda rows:
                    _checked(path, PointField, rows["xy"], rows["v"], region,
                             None if hint is None else float(hint)))
        raise DataFormatError(f"{path}: unknown field kind {kind!r}")

    return _read_table(path, 2, layout)


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


# the line breaks that str.splitlines knows besides \n; text mode has
# already turned \r and \r\n into \n
_ODD_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# errors="surrogateescape" reads a byte that is not UTF-8 as one of
# U+DC80..U+DCFF, which valid UTF-8 never reads as
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _check_text(path, part: str, first_line: int, breaks: str = "") -> None:
    """Refuse a byte of ``part``, which starts at line ``first_line``, that
    is not UTF-8, then any of ``breaks``, naming its line."""
    byte = None if part.isascii() else _NOT_UTF8.search(part)
    # str.find, one break at a time, is a fast scan; a regex is not
    at = byte.start() if byte else min((i for i in map(part.find, breaks) if i >= 0), default=None)
    if at is not None:
        line = first_line + part.count("\n", 0, at)
        why = (f"byte 0x{ord(part[at]) - 0xDC00:02X} is not UTF-8" if byte else
               f"line break U+{ord(part[at]):04X} is refused; only \\n, \\r\\n and \\r end a line")
        raise DataFormatError(f"{path}: line {line}: {why}")


def _read_table(path, n_header: int, layout, fill=None):
    """The file at ``path`` as ``n_header`` header lines and body rows.

    The one row reader of field, cube and estimate files.  It opens the
    file once and reads its text once.  ``layout(head, n_rows)`` gets
    the header lines (fewer in a shorter file) and the number of body
    rows; it raises on a bad header and returns the structured dtype of
    a row and a function from the parsed records to the result.  The
    dtype's fields take the columns in order, a field of shape ``(k,)``
    k of them.  Once the body text is checked it is released, and
    ``np.loadtxt`` streams the rows from the same handle, each through
    ``fill`` when given.  A byte that is not UTF-8, a line break other
    than LF, CRLF or CR, a blank row, a wrong column count, an integer
    cell that is not ``[0-9-]`` only or a token that is not a number
    raises, naming its line.
    """
    # text mode reads \r and \r\n as \n
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        head = [fh.readline() for _ in range(n_header)]
        start = fh.tell() if fh.seekable() else 0
        text = fh.read()
        # a pipe cannot seek back to its body, so it parses from a copy
        body = fh if fh.seekable() else io.StringIO(text)
        _check_text(path, "".join(head), 1, _ODD_BREAKS)
        _check_text(path, text, n_header + 1, _ODD_BREAKS)
        # a last row may lack its \n
        n_rows = text.count("\n") + (text != "" and text[-1] != "\n")
        dtype, build = layout([line.removesuffix("\n") for line in head if line], n_rows)

        def parse(lines):
            # comments=None: "1.5#junk" is not 1.5
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)

        kinds = "".join(dtype[name].base.kind * math.prod(dtype[name].shape)
                        for name in dtype.names)
        bad = _bad_row(text, kinds) if n_rows else None
        del text
        body.seek(start)
        rows = body if fill is None else map(fill, body)
        if bad is None:
            try:
                # loadtxt warns on no rows
                records = parse(rows) if n_rows else np.empty(0, dtype)
            except ValueError:
                # loadtxt numbers rows its own way; bisect for the first bad row
                body.seek(start)
                lines = list(rows)
                bad, hi = 0, len(lines)
                while hi - bad > 1:
                    mid = (bad + hi) // 2
                    try:
                        parse(lines[bad:mid])
                        bad = mid
                    except ValueError:
                        hi = mid
            else:
                return build(records)
        body.seek(start)
        got = next(itertools.islice(rows, bad, None)).count(",") + 1
    why = "bad index or value" if got == len(kinds) else f"expected {len(kinds)} columns, got {got}"
    raise DataFormatError(f"{path}: line {n_header + bad + 1}: {why}")


def _bad_row(text: str, kinds: str) -> int | None:
    """The index of the first row of ``text`` that is blank or has an
    integer cell that is not ``[0-9-]`` only, or None.

    int() would also take spaces, '+', '_' and non-ASCII digits, and
    loadtxt skips a blank row without a word.
    """
    if "i" in kinds:
        cells = ["[0-9-]+" if kind == "i" else "[^,\n]*" for kind in kinds[: kinds.rindex("i") + 1]]
        row = ",".join(cells) + "(?![^,\n])"
    else:
        row = "[^\n]"
    # the final \n ends the last row and starts no other
    end = len(text) - text.endswith("\n")
    if not re.compile(row).match(text, 0, end):
        return 0
    # a search led by a literal \n scans fast; one led by (?:^|\n) does not
    bad = re.compile(r"\n(?!%s)" % row).search(text, 0, end)
    return None if bad is None else text.count("\n", 0, bad.end())


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
    if np.bincount(flat).max(initial=0) > 1:
        _, first = np.unique(flat, return_index=True)
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


def read_ese(path) -> tuple[np.recarray, dict]:
    """Read an estimate CSV and its sidecar (empty dict when absent).

    The table is a record array with one field per ``ESE_COLUMNS``
    entry, so ``table.rho_hat`` is that column; band columns are NaN
    when absent.  The table is the caller's own, so it is writable.
    """
    def layout(head, n_rows):
        if not head or tuple(head[0].split(",")) != ESE_COLUMNS:
            raise DataFormatError(f"{path}: line 1: expected header {','.join(ESE_COLUMNS)}")
        return _ESE_DTYPE, lambda rows: rows.view(np.recarray)

    table = _read_table(path, 1, layout, _fill_band)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        _check_text(side, text, 1)
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{side}: bad JSON sidecar ({exc})") from exc
    return table, meta


def _fill_band(line: str) -> str:
    # a row without a band has both band cells empty
    row = line.removesuffix("\n")
    return row[:-1] + "nan,nan\n" if row.endswith(",,") else line


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
    def layout(head, n_rows):
        if not head or head[0].replace(" ", "") != "t,x,y,value":
            raise DataFormatError(f"{path}: line 1: expected header t,x,y,value")
        if not n_rows:
            raise DataFormatError(f"{path}: no data rows")
        return np.dtype([("i", np.int64, (3,)), ("v", float)]), lambda rows: rows

    rows = _read_table(path, 1, layout)
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


def write_mc(path, summary: McSummary) -> None:
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
        "mean_m": None if math.isnan(summary.mean_m) else summary.mean_m,
    }
    _write_with_sidecar(path, table, meta)


def _mc_columns(summary: McSummary):
    """Names and columns of the mean, variance and quantiles of each row."""
    qs = sorted(summary.quantiles)
    return (["mean", "variance", *(f"q{q:g}" for q in qs)],
            [summary.mean, summary.variance, *(summary.quantiles[q] for q in qs)])


def _mc_stdout(summary: McSummary, by_distance: bool) -> str:
    """The CLI's ``mc`` table with each oracle column the summary holds:
    rows keyed by a short distance or, for vector lags, by the lag itself."""
    names, columns = _mc_columns(summary)
    for name in ("oracle_limit", "oracle_pa"):
        if getattr(summary, name) is not None:
            names.append(name)
            columns.append(getattr(summary, name))
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


def write_rate(path, rate: RateCheck) -> None:
    """Write the per-size variance table; the slope goes in the sidecar."""
    meta = {
        "slope": rate.slope,
        "d": rate.d,
        "ref_lag": list(rate.ref_lag.offset),
        "n_reps": rate.n_reps,
    }
    _write_with_sidecar(path, _rate_table(rate), meta)
