#!/usr/bin/env python3
"""Benchmark of the extremogram package: study-shaped closed-loop workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload bands_lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick

Workloads: bands_lattice, mc_lattice, points_kernel, cli_pipeline (see
``workloads.py``); ``all`` runs each in a fresh process.

One run measures one workload in this process for ``--seconds`` seconds
with one caller, each op starting when the previous one returns.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the same figures with sample counts, plus
throughput_ops_s, op_ms_p50, failed_ops_frac and the run record; the
full result, with every op time and, for a traced run, every span, is
written under ``.bench_out/``.  The exit code is 0 only when every op
and the digest of the default seed's results were correct; it is 3,
with no result line, when no result can be produced (for instance
outside a checkout).

``setup_s`` is the median over fresh processes of the time from process
start to the first timed op: package import, building the inputs from
the seed, and one untimed warm-up op.  The warm-up op is op 0 of the
default seed, whose results must match the digest in ``spec.json``.

A traced run first times ops untraced for half the run, then replays the
same ops with every public layer function wrapped (see ``tracer.py``).
"""
import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from time import perf_counter

from record import DriftProbe, loadavg, machine_record
from tracer import Tracer, per_layer_names
from workloads import WORKLOADS, Digest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 0
SETUP_PROBES = 3
DRIFT_EVERY_S = 2.0
CHILD_TIMEOUT_S = 170
# (name, unit) of the end-to-end metrics in the result line.  Throughput
# and op_ms_p50 are printed and recorded but left out of the result line:
# on a shared host whose CPU speed shifts by up to 1.6x for tens of seconds
# to minutes at a time, the mean and the median of one run follow the share
# of the run spent at each speed, so their run-to-run spread reaches the
# largest bound a regression check could use.  p90 reads the slow speed,
# which nearly every run meets, and is steadier.
END_TO_END = (
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
REPORTED = (("throughput_ops_s", "1/s"), ("op_ms_p50", "ms"))

with open(os.path.join(BENCH_DIR, "spec.json")) as _fh:
    SPEC = json.load(_fh)


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


def package_init() -> str:
    init = os.path.join(SRC, "extremogram", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"{init} not found: run from the root of a repository checkout")
    return init


def import_package():
    init = package_init()
    sys.path.insert(0, SRC)
    import extremogram

    if os.path.abspath(extremogram.__file__) != init:
        raise BenchError(f"imported {extremogram.__file__}, expected {init}")
    return extremogram


# ---------------------------------------------------------------------------
# one op at a time


def run_op(work, i: int, digest: Digest | None = None) -> tuple[float | None, list[str]]:
    """Run op i; returns (seconds or None when it raised, problems)."""
    ctx = work.prepare(i)
    try:
        t0 = perf_counter()
        try:
            result = work.run(ctx)
        except Exception:  # an op that raises is a failed op, not a dead run
            return None, [traceback.format_exc(limit=3)]
        dt = perf_counter() - t0
        problems = work.check(ctx, result)
        if digest is not None:
            work.digest(result, digest)
        return dt, problems
    finally:
        work.cleanup(ctx)


def digest_op(ex, name: str, work_dir: str, work=None) -> tuple[str, list[str]]:
    """Run op 0 of the default seed; returns (digest of its results, problems)."""
    ref = work if work is not None and work.seed == DEFAULT_SEED else (
        WORKLOADS[name](ex, DEFAULT_SEED, work_dir))
    digest = Digest()
    try:
        _, problems = run_op(ref, 0, digest)
    finally:
        if ref is not work:
            ref.close()
    return digest.hexdigest(), problems


def setup(name: str, seed: int, work_dir: str):
    """Import, build inputs, run the warm-up op; returns (work, problems)."""
    ex = import_package()
    work = WORKLOADS[name](ex, seed, work_dir)
    digest, problems = digest_op(ex, name, work_dir, work)
    expected = SPEC["digests"].get(name)
    if digest != expected:
        problems.append(f"digest of default-seed op 0 is {digest}, spec.json records {expected}")
    return work, problems


def run_loop(work, indices, seconds: float, probe: DriftProbe, failures: list, tracer=None):
    """Closed loop over ``indices`` until ``seconds`` pass.

    Returns ({op index: seconds} of the ops that completed, ops attempted).
    """
    times, attempted = {}, 0
    start = last_probe = perf_counter()
    for i in indices:
        if attempted and perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op_id = i
        attempted += 1
        dt, problems = run_op(work, i)
        if dt is None or problems:
            failures.append({"op": i, "traced": tracer is not None, "problems": problems})
        if dt is not None:
            times[i] = dt
        if perf_counter() - last_probe >= DRIFT_EVERY_S:
            probe.sample("between")
            last_probe = perf_counter()
    return times, attempted


def percentile(values, q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# set-up time, from fresh processes


def probe_setup(name: str, seed: int, n: int) -> tuple[list[float], list[str]]:
    samples, problems = [], []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        ready = json.loads(lines[-1])
        samples.append(ready["ready"] - t0)
        problems.extend(ready["problems"])
    return samples, problems


def setup_probe_main(args) -> int:
    work_dir = tempfile.mkdtemp(prefix="probe_", dir=WORK_ROOT)
    try:
        work, problems = setup(args.workload, args.seed, work_dir)
        ready = time.monotonic()
        work.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"ready": ready, "problems": problems}))
    return 0


# ---------------------------------------------------------------------------
# one workload


def workload_main(args) -> int:
    name, seed = args.workload, args.seed
    package_init()
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    load_before = loadavg()
    setup_samples, setup_problems = ([], [])
    if not args.trace:
        setup_samples, setup_problems = probe_setup(name, seed, SETUP_PROBES)
    work_dir = tempfile.mkdtemp(prefix="run_", dir=WORK_ROOT)
    try:
        t_setup = time.monotonic()
        work, warm_problems = setup(name, seed, work_dir)
        own_setup_s = time.monotonic() - t_setup
        record = machine_record(ROOT, seed)
        probe = DriftProbe()
        probe.sample("before")
        failures = []
        if setup_problems or warm_problems:
            failures.append({"op": "warm-up", "problems": setup_problems + warm_problems})
        indices = range(args.ops) if args.ops else itertools.count()
        if args.trace:
            untraced, n_untraced = run_loop(work, indices, args.seconds / 2, probe, failures)
            tracer = Tracer()
            tracer.install(sys.modules["extremogram"])
            t_traced = perf_counter()
            try:
                traced, n_traced = run_loop(work, sorted(untraced), float("inf"), probe,
                                            failures, tracer)
            finally:
                tracer.uninstall()
            traced_wall = perf_counter() - t_traced
            attempted = n_untraced + n_traced
        else:
            untraced, attempted = run_loop(work, indices, args.seconds, probe, failures)
        probe.sample("after")
        work.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = loadavg()

    attempted += 1  # the warm-up op, which carries the digest check
    failed = len(failures)
    result = {
        "workload": name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "record": record, "load_before": load_before, "load_after": load_after,
        "drift_probe": probe.summary(), "own_setup_s": own_setup_s,
        "failures": failures,
    }
    if args.trace:
        missing = [s for s in WORKLOADS[name].declared_spans if s not in tracer.fired()]
        if missing:
            raise BenchError(f"{name}: declared spans never fired: {', '.join(missing)}; "
                             "a call has moved, update the benchmark")
        if not traced:
            raise BenchError(f"{name}: no traced op completed")
        overhead = sum(traced.values()) / sum(untraced[i] for i in traced) - 1.0
        values = tracer.metrics(len(traced), overhead)
        units = dict(per_layer_names())
        shares = tracer.layer_shares(sum(traced.values()))
        result["layer_shares"] = shares
        result["roles"] = check_roles(name, shares)
        result["traced_ops"] = len(traced)
        result["traced_wall_s"] = traced_wall
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-s{seed}.csv")
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        ok = list(untraced.values())
        if not ok:
            raise BenchError(f"{name}: no op completed")
        if not setup_samples:
            raise BenchError(f"{name}: no set-up probe completed: {setup_problems}")
        values = {
            "throughput_ops_s": len(ok) / sum(ok),
            "op_ms_p50": 1e3 * statistics.median(ok),
            "op_ms_p90": 1e3 * percentile(ok, 0.90),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        result["reported"] = {k: {"value": values.pop(k), "unit": u} for k, u in REPORTED}
        result["op_s"] = ok
        result["setup_samples_s"] = setup_samples
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result.update(metrics=metrics, attempted=attempted, failed=failed)
    with open(os.path.join(OUT_DIR, f"{name}-s{seed}-t{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print("record: " + json.dumps({k: result[k] for k in
                                   ("record", "load_before", "load_after", "drift_probe")}))
    for f in failures:
        print(f"FAILED op {f['op']}: {' | '.join(f['problems'])}", file=sys.stderr)
    print(summary_line(name, result, len(untraced), len(setup_samples)))
    if args.trace:
        print("layer shares: " + "  ".join(f"{k}={v:.1%}" for k, v in result["layer_shares"].items()))
        for line in result["roles"]:
            print("role: " + line)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def summary_line(name: str, result: dict, n_ops: int, n_setup: int) -> str:
    """Every end-to-end figure, the gated and the reported ones, with sample counts."""
    shown = {**result["metrics"], **result.get("reported", {})}
    order = ("throughput_ops_s", "op_ms_p50", "op_ms_p90", "setup_s", "peak_rss_mb",
             "trace_overhead_frac")
    parts = [f"{name}:"]
    parts += [f"{k}={shown[k]['value']:.4g} {shown[k]['unit']}" for k in order if k in shown]
    parts.append(f"[ops n={n_ops}" + (f", setup n={n_setup}]" if n_setup else "]"))
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_ops_frac={frac:.4g} ({result['failed']}/{result['attempted']})")
    return "  ".join(parts)


def check_roles(name: str, shares: dict) -> list[str]:
    """Compare the traced layer shares with the workload's stated role."""
    role = SPEC["roles"][name]
    lines = []
    dominant = sum(shares[layer] for layer in role["dominant"])
    verdict = "OK" if dominant >= role["min_dominant_share"] else "MISMATCH"
    lines.append(f"{verdict} {'+'.join(role['dominant'])} {dominant:.1%} "
                 f"(stated >= {role['min_dominant_share']:.0%})")
    for layer in role["bypassed"]:
        verdict = "OK" if shares[layer] <= role["max_bypassed_share"] else "MISMATCH"
        lines.append(f"{verdict} {layer} {shares[layer]:.2%} "
                     f"(stated bypassed, <= {role['max_bypassed_share']:.0%})")
    return lines


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def child_run(name: str, seed: int, seconds: int, trace: int, extra=()) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10 * seconds, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def all_main(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = child_run(name, args.seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("record: "):
                print(line)
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {code})")
            combined["correct"] = False
            worst = worst or code or 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
        worst = worst or code
    print(json.dumps(combined))
    return worst


def quick_main(args) -> int:
    """Self-check: every workload untraced and traced with a handful of ops."""
    end_to_end = {n for n, _ in END_TO_END}
    per_layer = {n for n, _ in per_layer_names()}
    bad = 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, want in (("workloads", set(WORKLOADS)), ("end_to_end", end_to_end),
                      ("per_layer", per_layer)):
        names = {m["name"] for m in declared[key]}
        if names != want:
            print(f"FAIL BENCHMARK.json {key} differ from the benchmark: {sorted(names ^ want)}")
            bad += 1
    for name in WORKLOADS:
        for trace in (0, 1):
            code, out = child_run(name, args.seed, 60, trace, ("--ops", str(args.ops)))
            lines = out.strip().splitlines()
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = None
                problems.append("no result line")
            if res is not None:
                want = per_layer if trace else end_to_end
                if set(res["metrics"]) != want:
                    problems.append(f"metric names differ: {sorted(set(res['metrics']) ^ want)}")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{res['failed']} of {res['attempted']} ops failed")
            roles = [ln for ln in lines if ln.startswith("role: ")]
            problems.extend(ln for ln in roles if "MISMATCH" in ln)
            verdict = "FAIL" if problems else "ok"
            print(f"{verdict} {name} trace={trace} {'; '.join(problems)}")
            for ln in lines[:-1]:
                if not ln.startswith("record: "):
                    print("    " + ln)
            bad += bool(problems)
    print(json.dumps({"quick_failed": bad}))
    return 1 if bad else 0


def print_digest_main(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ex = import_package()
    out = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="digest_", dir=WORK_ROOT)
    try:
        for name in names:
            digest, problems = digest_op(ex, name, work_dir)
            out[name] = f"FAILED: {problems}" if problems else digest
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out, indent=2))
    return 1 if any(v.startswith("FAILED") for v in out.values()) else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="self-check: every workload, untraced and traced, a few ops each")
    p.add_argument("--ops", type=int, default=0,
                   help="stop after this many ops (the self-check uses it)")
    p.add_argument("--print-digest", action="store_true",
                   help="print the digest of the default seed's op 0 and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.quick:
            args.ops = args.ops or 3
            return quick_main(args)
        if args.print_digest:
            return print_digest_main(args)
        if args.setup_probe:
            return setup_probe_main(args)
        if args.workload == "all":
            return all_main(args)
        return workload_main(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
