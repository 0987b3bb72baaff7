"""The four study-shaped workloads of the benchmark.

Each workload builds its inputs from the workload seed with the
benchmark's own numpy generator, so the library receives only finished
inputs.  One op is one unit of a paper study; ops run closed-loop, one
caller, each starting when the previous one returns.  Every op result
is checked against a reference that does not go through the code under
test, and the numbers a study reports are folded into a digest so that
the same seed can be held to bit-identical output.

Only the top-level ``extremogram`` API and ``extremogram.cli.main`` are
used, always looked up at call time so that the traced run sees every
call.  No call passes ``threads=``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

# The estimate table's documented column contract (README, "File formats").
ESE_HEADER = "lag_x,lag_y,distance,rho_hat,pair_count,exceed_count,band_lo,band_hi"


def sub_seed(seed: int, *key: int) -> int:
    """Integer stream for (seed, *key), independent of the library's seeding."""
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


class Digest:
    """SHA-256 over the exact float64 bits of the numbers a study reports."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for arr in arrays:
            a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            self._h.update(str(a.shape).encode())
            self._h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Workload:
    """Inputs, one op, its check and its digest.

    ``prepare(i)`` and ``cleanup`` run outside the timed region; ``run``
    is the op.  ``check`` returns a list of problems, empty when the
    result is correct.
    """

    name = ""
    # functions that must fire in a traced run of this workload
    declared_spans: tuple[str, ...] = ()

    def __init__(self, ex, seed: int, work_dir: str):
        self.ex = ex
        self.seed = int(seed)
        self.work_dir = work_dir

    def prepare(self, i: int):
        return i

    def run(self, ctx):
        raise NotImplementedError

    def check(self, ctx, result) -> list[str]:
        raise NotImplementedError

    def digest(self, result, dig: Digest) -> None:
        raise NotImplementedError

    def cleanup(self, ctx) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# bands_lattice: criterion 9's unit of work


def pooled_lattice_rho(values: np.ndarray, q: float, max_dist: float):
    """Brute-force pooled-by-distance extremogram on a 2-d grid.

    Exceedance of the linear-interpolation q-quantile on both sides,
    ordered in-grid pairs for every integer lag with 0 < |h| <= max_dist,
    pooled over lags of equal squared norm.
    """
    a_m = np.quantile(values.ravel(), q)
    ind = values > a_m
    nx, ny = ind.shape
    denom = np.count_nonzero(ind) / ind.size
    reach = int(math.floor(max_dist))
    pooled: dict[int, list[int]] = {}
    for hx in range(-reach, reach + 1):
        for hy in range(-reach, reach + 1):
            nsq = hx * hx + hy * hy
            if nsq == 0 or nsq > max_dist * max_dist:
                continue
            base = ind[max(0, -hx): nx - max(0, hx), max(0, -hy): ny - max(0, hy)]
            disp = ind[max(0, hx): nx + min(0, hx), max(0, hy): ny + min(0, hy)]
            hits, pairs = pooled.setdefault(nsq, [0, 0])
            pooled[nsq] = [hits + int(np.count_nonzero(base & disp)), pairs + base.size]
    keys = sorted(pooled)
    dists = np.sqrt(np.array(keys, dtype=float))
    rho = np.array([(pooled[k][0] / pooled[k][1]) / denom for k in keys])
    return dists, rho


class BandsLattice(Workload):
    """permutation_bands on 40x40, alternating iid and MMA ball(1) fields."""

    name = "bands_lattice"
    declared_spans = (
        "inference.permutation_bands",
        "lattice.lattice_ese_by_distance",
        "fields.resolve_threshold",
    )
    DIMS = (40, 40)
    Q = 0.97
    MAX_DIST = 2.0
    N_PERM = 500
    POOL = 4  # distinct fields per run, half iid, half MMA

    def __init__(self, ex, seed, work_dir):
        super().__init__(ex, seed, work_dir)
        ray = ex.ExtremeSet.ray(1.0)
        self.sets = (ray, ray)
        self.rule = ex.ThresholdRule.quantile(self.Q)
        self.config = ex.EstimatorConfig(mode="lattice", by_distance=True)
        rng = np.random.default_rng(sub_seed(self.seed, 1))
        self.fields, self.refs = [], []
        for k in range(self.POOL):
            if k % 2 == 0:
                # iid unit Frechet, drawn as -1/log(U)
                u = np.maximum(rng.random(self.DIMS), np.finfo(float).tiny)
                values = -1.0 / np.log(u)
            else:
                values = self._mma_ball1(rng)
            self.fields.append(ex.LatticeField(self.DIMS, values.ravel()))
            self.refs.append(pooled_lattice_rho(values, self.Q, self.MAX_DIST))

    def _mma_ball1(self, rng) -> np.ndarray:
        # X_t = max over the 5-point unit ball of Z_{t-s}, Z iid unit Frechet
        nx, ny = self.DIMS
        u = np.maximum(rng.random((nx + 2, ny + 2)), np.finfo(float).tiny)
        z = -1.0 / np.log(u)
        out = z[1:-1, 1:-1].copy()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            np.maximum(out, z[1 + dx: nx + 1 + dx, 1 + dy: ny + 1 + dy], out=out)
        return out

    def prepare(self, i):
        return i % self.POOL, sub_seed(self.seed, 2, i)

    def run(self, ctx):
        k, perm_seed = ctx
        return self.ex.permutation_bands(
            self.fields[k], *self.sets, self.rule, self.config, self.MAX_DIST,
            n_perm=self.N_PERM, level=0.95, seed=perm_seed,
        )

    def check(self, ctx, result):
        k, _ = ctx
        dists, rho = self.refs[k]
        obs = result.observed
        problems = []
        if not (np.array_equal(np.asarray(obs.distances), dists)
                and np.allclose(obs.rho_hat, rho, rtol=1e-12, atol=0.0)):
            problems.append(f"observed rho_hat {list(obs.rho_hat)} != brute force {list(rho)}")
        if not (math.isfinite(result.lo) and math.isfinite(result.hi)
                and result.lo <= result.hi):
            problems.append(f"band ({result.lo}, {result.hi}) is not finite lo <= hi")
        if result.n_perm != self.N_PERM:
            problems.append(f"n_perm {result.n_perm} != {self.N_PERM}")
        return problems

    def digest(self, result, dig):
        obs = result.observed
        dig.add(obs.distances, obs.rho_hat, obs.pair_count, obs.exceed_count,
                [result.lo, result.hi], result.per_lag)


# ---------------------------------------------------------------------------
# mc_lattice: one calibration round of criteria 4 and 6


class McLattice(Workload):
    """Two mc_study calls: geometric MMA 40x40 and spectral BR 20x20."""

    name = "mc_lattice"
    declared_spans = (
        "inference.mc_study",
        "simulate.sim_mma",
        "simulate.sim_brown_resnick",
        "lattice.lattice_ese_by_distance",
    )

    def __init__(self, ex, seed, work_dir):
        super().__init__(ex, seed, work_dir)
        ray = ex.ExtremeSet.ray(1.0)
        self.sets = (ray, ray)
        config = ex.EstimatorConfig(mode="lattice", by_distance=True)
        self.studies = (
            # (model, rule, max distance, replicates)
            (ex.MmaModel((40, 40), ex.WeightSpec.geometric(0.5)),
             ex.ThresholdRule.quantile(0.90), config, 1.0, 4),
            (ex.BrLatticeModel((20, 20), ex.VariogramSpec(theta=0.5, alpha=2.0),
                               ex.BrSimConfig.spectral(1000), spacing=0.2),
             ex.ThresholdRule.quantile(0.97), config, 2.0, 8),
        )

    def prepare(self, i):
        return [sub_seed(self.seed, 3, i, s) for s in range(len(self.studies))]

    def run(self, ctx):
        return [
            self.ex.mc_study(model, *self.sets, rule, config, max_dist, n_reps=reps, seed=s)
            for (model, rule, config, max_dist, reps), s in zip(self.studies, ctx)
        ]

    def check(self, ctx, result):
        problems = []
        for (_, _, _, _, reps), summary in zip(self.studies, result):
            if summary.n_failed != 0 or summary.n_used != reps:
                problems.append(f"{summary.model}: {summary.n_failed} of {reps} replicates failed")
            for col in ("oracle_limit", "oracle_pa"):
                vals = getattr(summary, col)
                if vals is None or len(vals) != len(summary.mean) or not np.all(np.isfinite(vals)):
                    problems.append(f"{summary.model}: oracle column {col} missing")
            if len(summary.mean) == 0 or not np.all(np.isfinite(summary.mean)):
                problems.append(f"{summary.model}: mean rho_hat not finite")
        return problems

    def digest(self, result, dig):
        for s in result:
            dig.add(s.distances, s.mean, s.variance,
                    [s.quantiles[q] for q in sorted(s.quantiles)],
                    [s.n_reps, s.n_used, s.n_failed, s.mean_m],
                    s.oracle_limit, s.oracle_pa)


# ---------------------------------------------------------------------------
# points_kernel: one criterion-8 replicate


class PointsKernel(Workload):
    """BR gaussian_max point field, kernel estimates at two bandwidths."""

    name = "points_kernel"
    declared_spans = (
        "simulate.sim_point_field",
        "kernel.kernel_ese_by_distance",
        "kernel.kernel_tau_hat",
    )

    def __init__(self, ex, seed, work_dir):
        super().__init__(ex, seed, work_dir)
        ray = ex.ExtremeSet.ray(1.0)
        self.sets = (ray, ray)
        self.rule = ex.ThresholdRule.quantile(0.97)
        self.count = ex.CountRule.fixed(1600)
        self.source = ex.FieldSource.brown_resnick(
            ex.VariogramSpec(theta=1.0, alpha=2.0), ex.BrSimConfig.gaussian_max(1600)
        )
        self.kernels = [ex.KernelSpec.box(c / math.log(40)) for c in (1.0, 5.0)]

    def prepare(self, i):
        return sub_seed(self.seed, 4, i)

    def run(self, ctx):
        pf = self.ex.sim_point_field((0, 40, 0, 40), self.count, self.source, seed=ctx)
        return [
            self.ex.kernel_ese_by_distance(pf, *self.sets, self.rule, k, [1.0, 2.0])
            for k in self.kernels
        ]

    def check(self, ctx, result):
        problems = []
        for k, res in zip(self.kernels, result):
            rho = np.asarray(res.rho_hat)
            if rho.shape != (2,) or not np.all(np.isfinite(rho)) or np.any(rho < 0):
                problems.append(f"{k.label()}: rho_hat {rho.tolist()} not finite and >= 0")
            if res.bandwidth_degenerate:
                problems.append(f"{k.label()}: bandwidth degenerate")
        return problems

    def digest(self, result, dig):
        for res in result:
            dig.add(res.distances, res.rho_hat, res.pair_count, res.exceed_count, [res.m])


# ---------------------------------------------------------------------------
# cli_pipeline: the README / criterion-12 shell workflow, in process


def parse_field_file(path: str, dims) -> np.ndarray:
    """Lattice values placed by their index columns, independent of fileio."""
    with open(path) as fh:
        header = fh.readline()
        columns = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not header.startswith("# ") or columns != "x,y,value":
        raise ValueError(f"{path}: unexpected field file header")
    out = np.full(dims, np.nan)
    out[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    return out


def parse_ese_file(path: str) -> np.ndarray:
    """Numeric rows of an estimate table; raises on a broken column contract."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ESE_HEADER:
        raise ValueError(f"{path}: header {lines[:1]} != {ESE_HEADER}")
    n_cols = ESE_HEADER.count(",") + 1
    table = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ValueError(f"{path}: row {line!r} has {len(parts)} columns")
        table.append([math.nan if p == "" else float(p) for p in parts])
    return np.array(table, dtype=float).reshape(len(table), n_cols)


class CliPipeline(Workload):
    """``ingest`` a space-time cube, then ``estimate`` on every window field."""

    name = "cli_pipeline"
    declared_spans = (
        "cli.main",
        "fileio.read_space_time",
        "fileio.write_field",
        "fileio.read_field",
        "fileio.write_ese",
        "pipeline.spatial_block_max",
        "pipeline.temporal_max",
        "lattice.lattice_ese",
    )
    SHAPE = (12, 60, 60)
    WINDOWS = ((0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12), (0, 12))
    LAGS = "1,0;0,1;1,1;2,0"

    def __init__(self, ex, seed, work_dir):
        super().__init__(ex, seed, work_dir)
        import extremogram.cli

        self.cli = extremogram.cli
        rng = np.random.default_rng(sub_seed(self.seed, 5))
        self.cube = rng.gamma(2.0, 1.0, size=self.SHAPE)
        self.cube_path = os.path.join(work_dir, f"cube_{self.seed}.csv")
        t, x, y = np.meshgrid(*(np.arange(n) for n in self.SHAPE), indexing="ij")
        rows = np.column_stack([t.ravel(), x.ravel(), y.ravel(), self.cube.ravel()])
        np.savetxt(self.cube_path, rows, fmt=["%d", "%d", "%d", "%.17g"],
                   delimiter=",", header="t,x,y,value", comments="")
        self.expected = [self.cube[a:b].max(axis=0) for a, b in self.WINDOWS]

    def _main(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def prepare(self, i):
        return tempfile.mkdtemp(prefix="op_", dir=self.work_dir)

    def run(self, ctx):
        windows = ",".join(f"{a}:{b}" for a, b in self.WINDOWS)
        code, text = self._main(["ingest", "--input", self.cube_path, "--block", "1",
                                 "--windows", windows,
                                 "--out-dir", os.path.join(ctx, "fields")])
        codes, outputs = [code], []
        manifest = json.loads(text) if code == 0 else {"windows": []}
        for w in manifest["windows"]:
            est = os.path.join(ctx, f"est_{w['start']}-{w['stop']}.csv")
            code, _ = self._main(["estimate", "--input", w["path"], "--mode", "lattice",
                                  "--threshold", "q=0.75", "--lags", self.LAGS,
                                  "--out", est])
            codes.append(code)
            outputs.append((w["path"], est))
        return codes, outputs

    def check(self, ctx, result):
        codes, outputs = result
        problems = []
        if any(c != 0 for c in codes):
            problems.append(f"exit codes {codes}")
        if len(outputs) != len(self.WINDOWS):
            problems.append(f"{len(outputs)} window fields, expected {len(self.WINDOWS)}")
            return problems
        for (field_path, est_path), expect in zip(outputs, self.expected):
            try:
                values = parse_field_file(field_path, self.SHAPE[1:])
                table = parse_ese_file(est_path)
            except (OSError, ValueError) as exc:
                problems.append(str(exc))
                continue
            if not np.array_equal(values, expect):
                problems.append(f"{field_path}: values differ from the window maximum")
            if table.shape[0] != 4 or not np.all(np.isfinite(table[:, :6])):
                problems.append(f"{est_path}: expected 4 finite estimate rows")
        return problems

    def digest(self, result, dig):
        for field_path, est_path in result[1]:
            dig.add(parse_field_file(field_path, self.SHAPE[1:]), parse_ese_file(est_path))

    def cleanup(self, ctx):
        shutil.rmtree(ctx, ignore_errors=True)

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cube_path)


WORKLOADS = {w.name: w for w in (BandsLattice, McLattice, PointsKernel, CliPipeline)}
