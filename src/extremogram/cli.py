"""Command-line surface: simulate, estimate, bands, oracle, mc, rate-check, ingest.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 degenerate estimation (threshold or denominator collapsed).  Every
failing exit writes one machine-readable line
``{"error": ..., "message": ...}`` to stderr so batch drivers can react.

Reproducibility rule: every command that draws randomness (simulate,
mc, rate-check, bands) requires an explicit --seed.

Flag values are separated numbers (``_values``) or ``<tag><number>``
(``_tagged``); a malformed one exits 1 with a UsageError naming the flag.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import fileio
from .errors import (
    DataFormatError,
    DegenerateDenominator,
    DegenerateThreshold,
    EmptyField,
    EmptyInput,
    ExtremogramError,
    FactorizationFailure,
    NonDivisibleBlock,
    WindowOutOfRange,
)
from .fields import (
    ExtremeSet,
    Lag,
    LatticeField,
    PointField,
    ThresholdRule,
    lag_grid,
)
from .inference import (
    BrLatticeModel,
    EstimatorConfig,
    FrechetModel,
    MmaModel,
    PointProcessModel,
    clt_rate_check,
    mc_study,
    permutation_bands,
    run_estimator,
)
from .kernel import KernelSpec
from .lattice import _grid_lags
from .oracles import BrLaw, MmaLaw
from .pipeline import spatial_block_max, temporal_max
from .simulate import (
    BrSimConfig,
    CountRule,
    FieldSource,
    MmaPlan,
    VariogramSpec,
    WeightSpec,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


# checked in order: the first matching row gives the exit code
_EXIT_CODES = (
    # estimation ran but degenerated
    ((DegenerateThreshold, DegenerateDenominator, FactorizationFailure), 3),
    # the input data cannot be used
    ((DataFormatError, EmptyInput, EmptyField, NonDivisibleBlock, WindowOutOfRange, OSError), 2),
    # bad flags or parameter combinations, or a request larger than memory
    ((UsageError, ValueError, ExtremogramError, MemoryError), 1),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1, not 2."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# flag value parsers


def _values(text: str, flag: str, kind=float, sep: str = ",") -> tuple:
    """The ``sep``-separated parts of ``text``, each read by ``kind``."""
    try:
        return tuple(kind(p) for p in text.split(sep))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} must be {noun} separated by {sep!r}, got {text!r}")


def _flagged(flag: str, text: str, build):
    """``build()``, whose ValueError is a UsageError naming ``flag`` and its ``text``."""
    try:
        return build()
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}")


def _tagged(text: str, flag: str, builders: dict):
    """Read ``<tag><number>`` and build the value with that tag's builder."""
    for tag, build in builders.items():
        if text.startswith(tag):
            return _flagged(flag, text, lambda: build(float(text[len(tag):])))
    forms = " or ".join(f"{tag}<number>" for tag in builders)
    raise UsageError(f"{flag} must be {forms}, got {text!r}")


def _parse_dims(text: str) -> tuple[int, ...]:
    dims = _values(text, "--dims", int)
    if not 1 <= len(dims) <= 3 or any(n < 1 for n in dims):
        raise UsageError(f"--dims must be 1 to 3 positive sides, got {text!r}")
    return dims


def _parse_sets(args) -> tuple[ExtremeSet, ExtremeSet]:
    set_a = _parse_set(args.set_a, "--set-a")
    return set_a, (_parse_set(args.set_b, "--set-b") if args.set_b else set_a)


def _parse_set(text: str, flag: str) -> ExtremeSet:
    bounds = _values(text, flag)
    if len(bounds) != 2:
        raise UsageError(f"{flag} must be 'lower,upper' with inf allowed, got {text!r}")
    return ExtremeSet(*bounds)


def _parse_threshold(text: str) -> ThresholdRule:
    return _tagged(text, "--threshold",
                   {"q=": ThresholdRule.quantile, "abs=": ThresholdRule.absolute})


def _parse_lag_spec(text: str, flag: str):
    """Lag grammar: 'x,y;x,y;...' explicit vectors, else a scalar.

    The scalar reading depends on the estimator: max distance for lag
    enumeration, or (kernel --by-distance) one target distance.  A
    comma list without ';' is a distance list for kernel --by-distance;
    a single vector therefore needs a trailing ';' ("1,0;").
    Returns one of ("vectors", [...]), ("scalar", x), ("list", [...]).
    """
    if ";" not in text:
        values = _values(text, flag)
        return ("list", list(values)) if "," in text else ("scalar", values[0])
    vectors = [_values(part, flag) for part in text.split(";") if part.strip()]
    if not vectors:
        raise UsageError(f"{flag} has no lag vectors in {text!r}")
    if any(len(vector) > 3 for vector in vectors):
        raise UsageError(f"{flag} vectors must have 1 to 3 components, got {text!r}")
    return ("vectors", vectors)


def _resolve_lags(spec, config: EstimatorConfig, dims):
    """Turn a parsed lag flag into what run_estimator expects (``dims`` None: points)."""
    kind, value = spec
    if config.by_distance:
        if config.mode == "lattice":
            if kind != "scalar":
                raise UsageError(
                    "lattice --by-distance takes a single max distance for --lags"
                )
            return value
        if kind == "scalar":
            return [value]
        if kind == "list":
            return value
        raise UsageError("kernel --by-distance takes distances, not lag vectors")
    if kind == "vectors":
        return [Lag.of(*v) for v in value]
    if kind == "scalar":
        if config.mode == "lattice" and dims is not None:
            return _grid_lags(dims, value)
        d = 2 if dims is None else len(dims)
        return _flagged("--lags", f"{value:g}", lambda: lag_grid(value, d))
    raise UsageError(
        "a comma list of distances needs --by-distance; "
        "use 'x,y;x,y' for explicit vector lags"
    )


def _parse_nu(text: str) -> float | None:
    return None if text == "plugin" else _tagged(text, "--nu", {"known=": float})


def _parse_region(text: str) -> tuple[float, float, float, float]:
    region = _values(text, "--region")
    if len(region) != 4:
        raise UsageError(f"--region must be x0,x1,y0,y1, got {text!r}")
    return region


def _parse_weights(text: str) -> WeightSpec:
    return _tagged(text, "--weights",
                   {"ball:": WeightSpec.indicator_ball, "geom:": WeightSpec.geometric})


def _parse_windows(text: str) -> list[tuple[int, int]]:
    windows = [_values(part, "--windows", int, ":") for part in text.split(",")]
    if any(len(window) != 2 for window in windows):
        raise UsageError(f"--windows must be start:stop pairs, got {text!r}")
    return windows


def _snap_distance(dist: float, reach: float) -> Lag:
    """Nearest planar integer lag to the requested distance.

    Distances in tables are often rounded (1.41 for sqrt 2); snapping
    maps them back to an attainable lattice separation.  Each row i
    tries only the j at the floor and ceiling of sqrt(dist^2 - i^2),
    as |(i, j)| grows with j.  Lags longer than ``reach`` all give the
    same value, so a distance well past it is not searched.
    """
    if dist > reach + 1.0:  # a searched lag lies within 1/2 of dist, so past reach too
        return Lag.of(math.ceil(dist), 0)
    best, best_err = (0, 0), abs(dist)
    for i in range(int(math.ceil(dist)) + 2):
        root = math.sqrt(max(dist * dist - i * i, 0.0))
        for j in sorted({min(math.floor(root), i), min(math.ceil(root), i)}):
            err = abs(math.hypot(i, j) - dist)
            if err < best_err - 1e-12:
                best, best_err = (i, j), err
    return Lag.of(*best)


def _variogram(args) -> VariogramSpec:
    return VariogramSpec(theta=args.theta, alpha=args.alpha)


def _br_config(args) -> BrSimConfig:
    if args.method == "spectral":
        return BrSimConfig.spectral(n_terms=args.terms)
    return BrSimConfig.gaussian_max(n_gaussians=args.gaussians)


def _read_input(path):
    if not os.path.exists(path):
        raise DataFormatError(f"input file not found: {path}")
    return fileio.read_field(path)


def _check_mode_matches(data, mode: str) -> None:
    # a field file of the wrong kind is a data problem, not a flag typo
    if mode == "lattice" and not isinstance(data, LatticeField):
        raise DataFormatError("--mode lattice needs a lattice field file")
    if mode == "kernel" and not isinstance(data, PointField):
        raise DataFormatError("--mode kernel needs a point field file")


def _estimator_config(args) -> EstimatorConfig:
    if args.mode == "kernel" and args.bandwidth is None:
        raise UsageError("--mode kernel requires --bandwidth")
    kernel = None if args.bandwidth is None else KernelSpec(args.kernel, args.bandwidth)
    return EstimatorConfig(
        mode=args.mode,
        by_distance=args.by_distance,
        kernel=kernel,
        nu=_parse_nu(args.nu),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    fileio.write_field(args.out, _field_model(args).simulate(args.seed))
    print(args.out)
    return 0


def _estimate_once(args):
    # flag misuse should be reported before any file is touched
    config = _estimator_config(args)
    set_a, set_b = _parse_sets(args)
    rule = _parse_threshold(args.threshold)
    lag_spec = _parse_lag_spec(args.lags, "--lags")
    data = _read_input(args.input)
    _check_mode_matches(data, args.mode)
    lags = _resolve_lags(lag_spec, config, getattr(data, "dims", None))
    return data, set_a, set_b, rule, config, lags


def _cmd_estimate(args) -> int:
    data, set_a, set_b, rule, config, lags = _estimate_once(args)
    result = run_estimator(data, set_a, set_b, rule, config, lags)
    fileio.write_ese(args.out, result, extra_meta={"input": args.input})
    print(args.out)
    return 0


def _cmd_bands(args) -> int:
    data, set_a, set_b, rule, config, lags = _estimate_once(args)
    band = permutation_bands(
        data, set_a, set_b, rule, config, lags,
        n_perm=args.permutations, level=args.level, seed=args.seed,
    )
    fileio.write_ese(args.out, band.observed, band=band, extra_meta={"input": args.input})
    print(args.out)
    return 0


def _cmd_oracle(args) -> int:
    distances = _values(args.lags, "--lags")
    if not all(math.isfinite(d) and d >= 0 for d in distances):
        raise UsageError(f"--lags distances must be finite and nonnegative, got {args.lags!r}")
    if args.m is not None and not math.isfinite(args.m):
        raise UsageError(f"--m must be finite, got {args.m}")
    if args.model == "geometric" and args.phi is None:
        raise UsageError("--model geometric requires --phi")
    if args.model != "geometric" and args.phi is not None:
        raise UsageError(f"--phi applies to --model geometric only, not {args.model}")
    if args.model == "brown-resnick":
        law = BrLaw(_variogram(args))
        lags = [Lag.of(d, 0.0) for d in distances]
    else:
        if args.model == "mma1":
            weights = WeightSpec.indicator_ball(1.0)
        else:
            weights = WeightSpec.geometric(args.phi)
        law = MmaLaw(MmaPlan(weights, 2))
        lags = [_snap_distance(d, law.reach) for d in distances]
    limits = [law.oracle_limit(lag) for lag in lags]
    pas = [law.oracle_pa(lag, args.m) for lag in lags] if args.m is not None else None
    text = fileio._oracle_table(distances, limits, pas, args.m)
    _write_or_print(args.out, fileio._write_text, text, text)
    return 0


def _write_or_print(out: str | None, write, obj, table: str) -> None:
    """``write(out, obj)`` and print the path with --out, else print ``table``."""
    if out:
        write(out, obj)
        print(out)
    else:
        sys.stdout.write(table)


def _lattice_model(args, dims):
    """The lattice model named by --model on a grid of ``dims`` (simulate, mc, rate-check)."""
    if args.model == "frechet":
        return FrechetModel(dims)
    if args.model == "mma1":
        return MmaModel(dims, WeightSpec.indicator_ball(1.0))
    if args.model == "mma":
        model = MmaModel(dims, _parse_weights(args.weights))
        # the support is built here, so a ball too large to build names its flag
        _flagged("--weights", args.weights, lambda: model.plan)
        return model
    if len(dims) != 2:
        raise UsageError("brown-resnick simulation is planar; --dims nx,ny")
    return BrLatticeModel(dims, _variogram(args), _br_config(args), spacing=args.spacing)


def _field_model(args):
    """The model named by --model and its flags (simulate and mc)."""
    if args.model != "point-field":
        return _lattice_model(args, _parse_dims(args.dims))
    region = _parse_region(args.region)
    if (args.intensity is None) == (args.count is None):
        raise UsageError("point-field needs exactly one of --intensity or --count")
    rule = (
        CountRule.poisson(args.intensity)
        if args.intensity is not None
        else CountRule.fixed(args.count)
    )
    if args.source == "frechet":
        source = FieldSource.frechet_iid()
    else:
        source = FieldSource.brown_resnick(_variogram(args), _br_config(args))
    return PointProcessModel(region, rule, source)


def _cmd_mc(args) -> int:
    model = _field_model(args)
    config = _estimator_config(args)
    dims = getattr(model, "dims", None)
    lags = _resolve_lags(_parse_lag_spec(args.lags, "--lags"), config, dims)
    set_a, set_b = _parse_sets(args)
    if args.out and dims is not None:
        fileio._check_planar(len(dims))  # before the study, not after it
    summary = mc_study(
        model, set_a, set_b, _parse_threshold(args.threshold), config, lags,
        n_reps=args.reps, seed=args.seed,
    )
    _write_or_print(args.out, fileio.write_mc, summary, fileio._mc_stdout(summary, config.by_distance))
    return 0


def _cmd_rate_check(args) -> int:
    sizes = _values(args.sizes, "--sizes", int)
    kind, ref = _parse_lag_spec(args.ref_lag, "--ref-lag")
    if kind == "vectors":
        if len(ref) != 1:
            raise UsageError(f"--ref-lag takes one lag, got {args.ref_lag!r}")
        ref = ref[0]
    ref_lag = Lag.of(ref, 0.0) if kind == "scalar" else Lag.of(*ref)
    set_a, set_b = _parse_sets(args)
    rate = clt_rate_check(
        lambda n: _lattice_model(args, (n, n)), set_a, set_b, _parse_threshold(args.threshold),
        EstimatorConfig("lattice"), ref_lag,
        sizes=sizes, n_reps=args.reps, seed=args.seed,
    )
    _write_or_print(args.out, fileio.write_rate, rate, fileio._rate_stdout(rate))
    return 0


def _cmd_ingest(args) -> int:
    windows = _parse_windows(args.windows)
    grid = fileio.read_space_time(args.input)
    blocked = spatial_block_max(grid, args.block)
    fields = temporal_max(blocked, windows)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {
        "input": args.input,
        "block": args.block,
        "dims": list(blocked.dims),
        "n_times": blocked.n_times,
        "windows": [],
    }
    for (start, stop), field in zip(windows, fields):
        path = os.path.join(args.out_dir, f"field_t{start}-{stop}.csv")
        fileio.write_field(path, field)
        manifest["windows"].append({"start": start, "stop": stop, "path": path})
    json.dump(manifest, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_estimator_flags(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="field file from simulate/ingest")
    p.add_argument("--mode", choices=("lattice", "kernel"), required=True)
    p.add_argument("--set-a", default="1,inf", help="extreme set as 'lower,upper'")
    p.add_argument("--set-b", default=None, help="second set; defaults to --set-a")
    p.add_argument("--threshold", required=True, help="q=<quantile> or abs=<level>")
    p.add_argument("--lags", required=True,
                   help="max distance, 'x,y;x,y' vectors, or distance list")
    p.add_argument("--by-distance", action="store_true",
                   help="one output row per distance class")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="kernel bandwidth (kernel mode)")
    p.add_argument("--kernel", choices=("box", "epanechnikov"), default="box")
    p.add_argument("--nu", default="plugin", help="'plugin' or 'known=<intensity>'")


def _add_model_flags(p: _Parser, models) -> None:
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--dims", default="40,40")
    p.add_argument("--weights", default="ball:1", help="ball:<radius> or geom:<phi>")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5,
                   help="variogram theta*|h|^alpha: theta (both --method choices)")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="variogram theta*|h|^alpha: alpha (both --method choices)")
    p.add_argument("--method", choices=("spectral", "gaussian-max"), default="spectral")
    p.add_argument("--terms", type=int, default=1000,
                   help="spectral series length")
    p.add_argument("--gaussians", type=int, default=1600,
                   help="gaussian-max replicate count")
    p.add_argument("--region", default="0,10,0,10", help="x0,x1,y0,y1")
    p.add_argument("--intensity", type=float, default=None,
                   help="Poisson intensity for point-field")
    p.add_argument("--count", type=int, default=None,
                   help="fixed point count for point-field")
    p.add_argument("--source", choices=("frechet", "brown-resnick"), default="frechet")


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="extremogram",
                     description="extremal spatial dependence toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="draw one field and write it to a file")
    _add_model_flags(p, ("frechet", "mma", "brown-resnick", "point-field"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="tail dependence estimates from a field file")
    _add_estimator_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bands", help="estimates plus permutation null bands")
    _add_estimator_flags(p)
    p.add_argument("--permutations", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("oracle", help="closed-form dependence values")
    p.add_argument("--model", choices=("mma1", "geometric", "brown-resnick"),
                   required=True)
    p.add_argument("--lags", required=True, help="comma-separated distances")
    p.add_argument("--m", type=float, default=None,
                   help="tail index for finite-level columns")
    p.add_argument("--phi", type=float, default=None, help="geometric weight ratio")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mc", help="replicate simulate+estimate and aggregate")
    _add_model_flags(p, ("frechet", "mma1", "mma", "brown-resnick", "point-field"))
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("lattice", "kernel"), default="lattice")
    p.add_argument("--set-a", default="1,inf")
    p.add_argument("--set-b", default=None)
    p.add_argument("--threshold", required=True)
    p.add_argument("--lags", default="2")
    p.add_argument("--by-distance", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--kernel", choices=("box", "epanechnikov"), default="box")
    p.add_argument("--nu", default="plugin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("rate-check", help="variance scaling across grid sizes")
    p.add_argument("--model", choices=("mma1", "mma", "frechet"), required=True)
    p.add_argument("--weights", default="ball:1")
    p.add_argument("--sizes", default="20,40,80")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ref-lag", default="1,0")
    p.add_argument("--set-a", default="1,inf")
    p.add_argument("--set-b", default=None)
    p.add_argument("--threshold", default="q=0.97")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rate_check)

    p = sub.add_parser("ingest", help="space-time cube to block-maxima field files")
    p.add_argument("--input", required=True, help="t,x,y,value CSV")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--windows", required=True, help="start:stop[,start:stop...]")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    except _HANDLED as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        # numpy raises a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
