"""Command-line surface: simulate, estimate, bands, oracle, mc, rate-check, ingest.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 degenerate estimation (threshold or denominator collapsed).  Every
failing exit writes one machine-readable line
``{"error": ..., "message": ...}`` to stderr so batch drivers can react.

Reproducibility rule: every command that draws randomness (simulate,
mc, rate-check, bands) requires an explicit --seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import fileio
from .errors import (
    DataFormatError,
    DegenerateDenominator,
    DegenerateThreshold,
    DomainError,
    EmptyField,
    EmptyInput,
    FactorizationFailure,
    LagOutOfRange,
    NonDivisibleBlock,
    TooFewPermutations,
    UnsupportedSets,
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
from .oracles import (
    br_extremogram,
    br_pa_extremogram,
    mma1_extremogram,
    mma1_pa_extremogram,
    mma_geometric_extremogram_classsum,
    mma_pa_extremogram,
)
from .pipeline import spatial_block_max, temporal_max
from .simulate import (
    BrSimConfig,
    CountRule,
    FieldSource,
    VariogramSpec,
    WeightSpec,
)

__all__ = ["main"]

# exception -> exit code 1 (bad flags or parameter combinations)
_CONFIG_ERRORS = (
    ValueError,
    DomainError,
    LagOutOfRange,
    UnsupportedSets,
    TooFewPermutations,
)
# exception -> exit code 2 (the input data cannot be used)
_DATA_ERRORS = (
    DataFormatError,
    EmptyInput,
    EmptyField,
    NonDivisibleBlock,
    WindowOutOfRange,
    OSError,
)
# exception -> exit code 3 (estimation ran but degenerated)
_DEGENERATE_ERRORS = (
    DegenerateThreshold,
    DegenerateDenominator,
    FactorizationFailure,
)


class UsageError(Exception):
    pass


# checked in order: the first matching row gives the exit code
_EXIT_CODES = (
    ((UsageError,), 1),
    (_DEGENERATE_ERRORS, 3),
    (_DATA_ERRORS, 2),
    (_CONFIG_ERRORS, 1),
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1, not 2."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# flag value parsers


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--dims must be comma-separated integers, got {text!r}")
    if not 1 <= len(dims) <= 3 or any(n < 1 for n in dims):
        raise UsageError(f"--dims must be 1 to 3 positive sides, got {text!r}")
    return dims


def _parse_sets(args) -> tuple[ExtremeSet, ExtremeSet]:
    set_a = _parse_set(args.set_a)
    return set_a, (_parse_set(args.set_b) if args.set_b else set_a)


def _parse_set(text: str) -> ExtremeSet:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"set must be 'lower,upper' with inf allowed, got {text!r}")
    try:
        lower, upper = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"set bounds must be numbers or inf, got {text!r}")
    return ExtremeSet(lower, upper)


def _parse_threshold(text: str) -> ThresholdRule:
    if text.startswith("q="):
        try:
            return ThresholdRule.quantile(float(text[2:]))
        except ValueError as exc:
            raise UsageError(f"bad quantile threshold {text!r}: {exc}")
    if text.startswith("abs="):
        try:
            return ThresholdRule.absolute(float(text[4:]))
        except ValueError as exc:
            raise UsageError(f"bad absolute threshold {text!r}: {exc}")
    raise UsageError(f"--threshold must be q=<quantile> or abs=<level>, got {text!r}")


def _parse_lag_spec(text: str):
    """Lag grammar: 'x,y;x,y;...' explicit vectors, else a scalar.

    The scalar reading depends on the estimator: max distance for lag
    enumeration, or (kernel --by-distance) one target distance.  A
    comma list without ';' is a distance list for kernel --by-distance;
    a single vector therefore needs a trailing ';' ("1,0;").
    Returns one of ("vectors", [...]), ("scalar", x), ("list", [...]).
    """
    if ";" in text:
        vectors = []
        parts = [p for p in text.split(";") if p.strip()]
        if not parts:
            raise UsageError(f"no lag vectors in {text!r}")
        for part in parts:
            comps = part.split(",")
            if len(comps) < 1 or len(comps) > 3:
                raise UsageError(f"lag vector must have 1..3 components, got {part!r}")
            try:
                vectors.append(tuple(float(c) for c in comps))
            except ValueError:
                raise UsageError(f"bad lag vector {part!r}")
        return ("vectors", vectors)
    if "," in text:
        try:
            return ("list", [float(p) for p in text.split(",")])
        except ValueError:
            raise UsageError(f"bad lag list {text!r}")
    try:
        return ("scalar", float(text))
    except ValueError:
        raise UsageError(f"bad lag specification {text!r}")


def _resolve_lags(spec, config: EstimatorConfig, d: int):
    """Turn a parsed lag flag into what run_estimator expects."""
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
        return lag_grid(value, d)
    raise UsageError(
        "a comma list of distances needs --by-distance; "
        "use 'x,y;x,y' for explicit vector lags"
    )


def _parse_nu(text: str) -> float | None:
    if text == "plugin":
        return None
    if text.startswith("known="):
        try:
            return float(text[6:])
        except ValueError:
            raise UsageError(f"bad intensity {text!r}")
    raise UsageError(f"--nu must be 'plugin' or 'known=<value>', got {text!r}")


def _parse_region(text: str) -> tuple[float, float, float, float]:
    try:
        region = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--region must be x0,x1,y0,y1, got {text!r}")
    if len(region) != 4:
        raise UsageError(f"--region must have 4 components, got {text!r}")
    return region


def _parse_weights(text: str) -> WeightSpec:
    if text.startswith("ball:"):
        try:
            return WeightSpec.indicator_ball(float(text[5:]))
        except ValueError:
            raise UsageError(f"bad ball radius in {text!r}")
    if text.startswith("geom:"):
        try:
            return WeightSpec.geometric(float(text[5:]))
        except ValueError:
            raise UsageError(f"bad geometric ratio in {text!r}")
    raise UsageError(f"--weights must be ball:<radius> or geom:<phi>, got {text!r}")


def _parse_windows(text: str) -> list[tuple[int, int]]:
    windows = []
    for part in text.split(","):
        bounds = part.split(":")
        if len(bounds) != 2:
            raise UsageError(f"window must be start:stop, got {part!r}")
        try:
            windows.append((int(bounds[0]), int(bounds[1])))
        except ValueError:
            raise UsageError(f"window bounds must be integers, got {part!r}")
    return windows


def _snap_distance(dist: float) -> Lag:
    """Nearest planar integer lag to the requested distance.

    Distances in tables are often rounded (1.41 for sqrt 2); snapping
    maps them back to an attainable lattice separation.
    """
    if dist < 0:
        raise UsageError(f"distances must be nonnegative, got {dist}")
    reach = int(math.ceil(dist)) + 1
    best, best_err = (0, 0), abs(dist)
    for i in range(reach + 1):
        for j in range(i + 1):
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
    kernel = None
    if args.mode == "kernel":
        if args.bandwidth is None:
            raise UsageError("--mode kernel requires --bandwidth")
        if args.kernel == "box":
            kernel = KernelSpec.box(args.bandwidth)
        else:
            kernel = KernelSpec.epanechnikov(args.bandwidth)
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
    lag_spec = _parse_lag_spec(args.lags)
    data = _read_input(args.input)
    _check_mode_matches(data, args.mode)
    lags = _resolve_lags(lag_spec, config, getattr(data, "d", 2))
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
    try:
        distances = [float(p) for p in args.lags.split(",")]
    except ValueError:
        raise UsageError(f"--lags must be comma-separated distances, got {args.lags!r}")
    header = "distance,rho_limit" + (",rho_pa,m" if args.m is not None else "")
    lines = [header]
    for dist in distances:
        if args.model == "mma1":
            lag = _snap_distance(dist)
            limit = mma1_extremogram(lag)
            pa = mma1_pa_extremogram(lag, args.m).rho_pa if args.m is not None else None
        elif args.model == "geometric":
            if args.phi is None:
                raise UsageError("--model geometric requires --phi")
            lag = _snap_distance(dist)
            limit = mma_geometric_extremogram_classsum(args.phi, lag)
            pa = (
                mma_pa_extremogram(WeightSpec.geometric(args.phi), lag, args.m).rho_pa
                if args.m is not None
                else None
            )
        else:
            vario = _variogram(args)
            lag = Lag.of(dist, 0.0)
            limit = br_extremogram(lag, vario)
            pa = br_pa_extremogram(lag, vario, m=args.m).rho_pa if args.m is not None else None
        row = f"{dist:g},{limit:.17g}"
        if pa is not None:
            row += f",{pa:.17g},{args.m:.17g}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _field_model(args):
    """The model named by --model and its flags (simulate and mc)."""
    if args.model != "point-field":
        dims = _parse_dims(args.dims)
        if args.model == "frechet":
            return FrechetModel(dims)
        if args.model == "mma1":
            return MmaModel(dims, WeightSpec.indicator_ball(1.0))
        if args.model == "mma":
            return MmaModel(dims, _parse_weights(args.weights))
        if len(dims) != 2:
            raise UsageError("brown-resnick simulation is planar; --dims nx,ny")
        return BrLatticeModel(dims, _variogram(args), _br_config(args), spacing=args.spacing)
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


def _mc_estimator(args) -> EstimatorConfig:
    if args.mode == "kernel" and args.model not in ("point-field",):
        raise UsageError("kernel mode in mc/rate-check needs --model point-field")
    return _estimator_config(args)


def _print_or_write_mc(summary, out: str | None) -> None:
    if out:
        fileio.write_mc(out, summary)
        print(out)
        return
    import io

    buf = io.StringIO()
    q_names = [f"q{q:g}" for q in sorted(summary.quantiles)]
    buf.write("distance,mean,variance," + ",".join(q_names))
    if summary.oracle_pa is not None:
        buf.write(",oracle_limit,oracle_pa")
    buf.write("\n")
    for i in range(len(summary.lags)):
        cells = [f"{summary.distances[i]:g}", f"{summary.mean[i]:.17g}",
                 f"{summary.variance[i]:.17g}"]
        cells += [f"{summary.quantiles[q][i]:.17g}" for q in sorted(summary.quantiles)]
        if summary.oracle_pa is not None:
            cells += [f"{summary.oracle_limit[i]:.17g}", f"{summary.oracle_pa[i]:.17g}"]
        buf.write(",".join(cells) + "\n")
    sys.stdout.write(buf.getvalue())


def _cmd_mc(args) -> int:
    model = _field_model(args)
    config = _mc_estimator(args)
    d = 2 if args.model == "point-field" else len(_parse_dims(args.dims))  # points are planar
    lags = _resolve_lags(_parse_lag_spec(args.lags), config, d)
    set_a, set_b = _parse_sets(args)
    summary = mc_study(
        model, set_a, set_b, _parse_threshold(args.threshold), config, lags,
        n_reps=args.reps, seed=args.seed,
    )
    _print_or_write_mc(summary, args.out)
    return 0


def _cmd_rate_check(args) -> int:
    try:
        sizes = tuple(int(p) for p in args.sizes.split(","))
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    ref = _parse_lag_spec(args.ref_lag)
    if ref[0] == "vectors":
        ref_lag = Lag.of(*ref[1][0])
    elif ref[0] == "list":
        ref_lag = Lag.of(*ref[1])
    else:
        ref_lag = Lag.of(ref[1], 0.0)
    if args.model == "mma1":
        weights = WeightSpec.indicator_ball(1.0)
        make_model = lambda n: MmaModel((n, n), weights)  # noqa: E731
    elif args.model == "mma":
        weights = _parse_weights(args.weights)
        make_model = lambda n: MmaModel((n, n), weights)  # noqa: E731
    elif args.model == "frechet":
        make_model = lambda n: FrechetModel((n, n))  # noqa: E731
    else:
        raise UsageError("rate-check supports --model mma1|mma|frechet")
    set_a, set_b = _parse_sets(args)
    rate = clt_rate_check(
        make_model, set_a, set_b, _parse_threshold(args.threshold),
        EstimatorConfig("lattice"), ref_lag,
        sizes=sizes, n_reps=args.reps, seed=args.seed,
    )
    if args.out:
        fileio.write_rate(args.out, rate)
        print(args.out)
    else:
        sys.stdout.write("size,mean,variance\n")
        for size, mean, var in zip(rate.sizes, rate.means, rate.variances):
            sys.stdout.write(f"{size},{mean:.17g},{var:.17g}\n")
        slope = "" if rate.slope is None else f"{rate.slope:.17g}"
        sys.stdout.write(f"# slope={slope}\n")
    return 0


def _cmd_ingest(args) -> int:
    grid = fileio.read_space_time(args.input)
    blocked = spatial_block_max(grid, args.block)
    windows = _parse_windows(args.windows)
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


def _add_estimator_flags(p: _Parser, with_input: bool = True) -> None:
    if with_input:
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
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
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


def _build_parser() -> _Parser:
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
    except (UsageError, *_DEGENERATE_ERRORS, *_DATA_ERRORS, *_CONFIG_ERRORS) as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
