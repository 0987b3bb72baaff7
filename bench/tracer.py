"""Outside-in per-layer tracing of the extremogram package.

Each traced public function is replaced, at every module attribute
that binds it, by a wrapper that records a span (function, start, end,
parent span, op id).  Classes are never replaced, so ``isinstance``
checks keep working; a method is wrapped on its class.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the
durations of its child spans (the run is single-threaded, so children
never overlap).  Counts are read from returned results and from the
files a call read or wrote, after the span has closed.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced public function; the module is
# the layer the function is charged to.
TRACED = (
    ("fields", "resolve_threshold"),
    ("fields", "ExtremeSet.indicator"),
    ("fields", "derive_rng"),
    ("simulate", "sim_mma"),
    ("simulate", "sim_frechet_iid"),
    ("simulate", "sim_brown_resnick"),
    ("simulate", "sim_point_field"),
    ("lattice", "lattice_ese"),
    ("lattice", "lattice_ese_by_distance"),
    ("kernel", "kernel_ese"),
    ("kernel", "kernel_ese_by_distance"),
    ("kernel", "kernel_tau_hat"),
    ("kernel", "kernel_p_hat"),
    ("oracles", "mma_extremogram"),
    ("oracles", "mma_pa_extremogram"),
    ("oracles", "br_extremogram"),
    ("oracles", "br_pa_extremogram"),
    ("inference", "permutation_bands"),
    ("inference", "mc_study"),
    ("inference", "run_estimator"),
    ("pipeline", "spatial_block_max"),
    ("pipeline", "temporal_max"),
    ("fileio", "read_space_time"),
    ("fileio", "read_field"),
    ("fileio", "write_field"),
    ("fileio", "write_ese"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
LAYERS = ("fields", "simulate", "lattice", "kernel", "oracles", "inference",
          "pipeline", "fileio", "cli")

LATTICE_ESTIMATORS = ("lattice.lattice_ese", "lattice.lattice_ese_by_distance")
KERNEL_ESTIMATORS = ("kernel.kernel_ese", "kernel.kernel_ese_by_distance")

# name -> (unit, description) of every count the trace derives
COUNTS = {
    "lattice.pairs_per_op": ("count", "ordered site pairs evaluated by the lattice estimators"),
    "kernel.support_pairs_per_op": ("count", "point pairs inside the kernel support"),
    "kernel.hit_frac": ("frac", "support pairs with both ends extreme, over support pairs"),
    "inference.permutations_per_op": ("count", "permutations drawn by permutation_bands"),
    "inference.mc_failed_frac": ("frac", "failed mc_study replicates over replicates"),
    "simulate.br_repeat_sites_frac": ("frac", "Brown-Resnick draws whose sites equal an earlier draw's"),
    "fileio.rows_read_per_op": ("count", "data rows in files read"),
    "fileio.bytes_read_per_op": ("B", "bytes of files read"),
    "fileio.rows_written_per_op": ("count", "data rows in files written"),
    "fileio.bytes_written_per_op": ("B", "bytes of files written, sidecars included"),
    "fileio.read_MBps": ("MB/s", "bytes read over time inside the read calls"),
    "fileio.write_MBps": ("MB/s", "bytes written over time inside the write calls"),
    "trace_overhead_frac": ("frac", "traced op time over untraced op time, minus 1"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls_per_op", "count"))
        out.append((f"{name}.self_ms_per_op", "ms"))
    out.extend((name, unit) for name, (unit, _) in COUNTS.items())
    return out


def _file_rows_bytes(path, header_lines: int) -> tuple[int, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return max(data.count(b"\n") - header_lines, 0), len(data)


class Tracer:
    """Install with ``install(package)``; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent span, op id)
        self.op_id = -1
        self._stack: list[int] = []
        self._open = Counter()
        self._patches: list = []
        self._br_sites: set[bytes] = set()
        self.counts = Counter()
        self.io_time = Counter()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"{package.__name__}.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for idx, (mod_name, attr) in enumerate(TRACED):
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[fn_name]
                self._patch(cls, fn_name, original, self._wrap(idx, original))
                continue
            original = getattr(owner, fn_name)
            wrapper = self._wrap(idx, original)
            bound = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{NAMES[idx]} is bound nowhere")

    def _patch(self, target, key, original, wrapper) -> None:
        setattr(target, key, wrapper)
        self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)
        signature = inspect.signature(fn) if observe else None
        spans, stack, is_open = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            is_open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                is_open[name] -= 1
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.op_id)
            if observe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                observe(bound, result, end - start)
            return result

        return wrapper

    def _inside(self, names) -> bool:
        return any(self._open[n] for n in names)

    # -- counts read from results and files ----------------------------------

    def _observe_lattice_ese(self, args, result, dt) -> None:
        # an estimator called from another one is counted by the outer call
        if not self._inside(LATTICE_ESTIMATORS):
            self.counts["lattice_pairs"] += int(np.sum(result.pair_count))

    _observe_lattice_ese_by_distance = _observe_lattice_ese

    def _observe_kernel_ese(self, args, result, dt) -> None:
        if not self._inside(KERNEL_ESTIMATORS):
            self.counts["kernel_pairs"] += int(np.sum(result.pair_count))
            self.counts["kernel_hits"] += int(np.sum(result.exceed_count))

    _observe_kernel_ese_by_distance = _observe_kernel_ese

    def _observe_permutation_bands(self, args, result, dt) -> None:
        self.counts["permutations"] += int(result.n_perm)

    def _observe_mc_study(self, args, result, dt) -> None:
        self.counts["mc_reps"] += int(result.n_reps)
        self.counts["mc_failed"] += int(result.n_failed)

    def _br_draw(self, sites) -> None:
        key = hashlib.sha256(np.ascontiguousarray(sites, dtype=np.float64).tobytes()).digest()
        self.counts["br_draws"] += 1
        self.counts["br_repeat"] += key in self._br_sites
        self._br_sites.add(key)

    def _observe_sim_brown_resnick(self, args, result, dt) -> None:
        # a point-field draw is counted once, from the locations it returns
        if not self._inside(("simulate.sim_point_field",)):
            self._br_draw(args["sites"])

    def _observe_sim_point_field(self, args, result, dt) -> None:
        if args["field_source"].kind == "brown_resnick":
            self._br_draw(result.locations)

    def _io(self, direction: str, path, header_lines: int, dt: float, extra=()) -> None:
        rows, size = _file_rows_bytes(path, header_lines)
        for side in extra:
            if os.path.exists(side):
                size += os.path.getsize(side)
        self.counts[f"rows_{direction}"] += rows
        self.counts[f"bytes_{direction}"] += size
        self.io_time[direction] += dt

    def _observe_read_space_time(self, args, result, dt) -> None:
        self._io("read", args["path"], 1, dt)

    def _observe_read_field(self, args, result, dt) -> None:
        self._io("read", args["path"], 2, dt)

    def _observe_write_field(self, args, result, dt) -> None:
        self._io("written", args["path"], 2, dt)

    def _observe_write_ese(self, args, result, dt) -> None:
        import extremogram

        sidecar = getattr(extremogram, "sidecar_path", None)
        self._io("written", args["path"], 1, dt,
                 extra=(sidecar(args["path"]),) if sidecar else ())

    # -- reduction ---------------------------------------------------------

    def fired(self) -> set[str]:
        return {NAMES[s[0]] for s in self.spans if s is not None}

    def metrics(self, n_ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-op self time and calls of every traced function, plus counts."""
        n = len(NAMES)
        calls = np.zeros(n)
        self_s = np.zeros(n)
        child = np.zeros(len(self.spans))
        for sid in range(len(self.spans) - 1, -1, -1):
            idx, start, end, parent, _ = self.spans[sid]
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            calls[idx] += 1
            self_s[idx] += dur - child[sid]
        ops = max(n_ops, 1)
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls_per_op"] = calls[i] / ops
            out[f"{name}.self_ms_per_op"] = 1e3 * self_s[i] / ops
        c = self.counts

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out["lattice.pairs_per_op"] = c["lattice_pairs"] / ops
        out["kernel.support_pairs_per_op"] = c["kernel_pairs"] / ops
        out["kernel.hit_frac"] = frac("kernel_hits", "kernel_pairs")
        out["inference.permutations_per_op"] = c["permutations"] / ops
        out["inference.mc_failed_frac"] = frac("mc_failed", "mc_reps")
        out["simulate.br_repeat_sites_frac"] = frac("br_repeat", "br_draws")
        for direction in ("read", "written"):
            out[f"fileio.rows_{direction}_per_op"] = c[f"rows_{direction}"] / ops
            out[f"fileio.bytes_{direction}_per_op"] = c[f"bytes_{direction}"] / ops
        for direction, key in (("read", "read_MBps"), ("written", "write_MBps")):
            t = self.io_time[direction]
            out[f"fileio.{key}"] = c[f"bytes_{direction}"] / t / 1e6 if t else 0.0
        out["trace_overhead_frac"] = overhead_frac
        return out

    def layer_shares(self, traced_op_s: float) -> dict[str, float]:
        """Share of traced op wall time spent as self time in each layer."""
        m = self.metrics(1, 0.0)
        shares = Counter()
        for name in NAMES:
            shares[name.split(".")[0]] += m[f"{name}.self_ms_per_op"] / 1e3
        total = traced_op_s if traced_op_s > 0 else 1.0
        out = {layer: shares[layer] / total for layer in LAYERS}
        out["outside"] = max(1.0 - sum(out.values()), 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as CSV: name,start_s,end_s,parent,op."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for sid, (idx, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{NAMES[idx]},{start:.9f},{end:.9f},{parent},{op}\n")
