"""Run record: the machine and software a result was measured on.

Also the host-drift probe: a fixed numpy-only reference op timed before,
between and after the ops.  It is reported alongside the metrics and
never used to adjust them.
"""
from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
from time import perf_counter


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # the thread count OpenBLAS actually uses, from the loaded library
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


class DriftProbe:
    """Times a fixed numpy sort (a few ms); the median of five repeats is one sample.

    The array is kept small so that the probe does not raise peak memory.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(20140801).random(200_000)
        self.samples: list[tuple[str, float]] = []

    def sample(self, when: str) -> None:
        times = []
        for _ in range(5):
            t0 = perf_counter()
            self._np.sort(self._data, kind="quicksort").sum()
            times.append(perf_counter() - t0)
        self.samples.append((when, 1e3 * statistics.median(times)))

    def summary(self) -> dict:
        between = [ms for when, ms in self.samples if when == "between"]
        by_when = {when: ms for when, ms in self.samples if when != "between"}
        return {
            "unit": "ms",
            "before": by_when.get("before"),
            "after": by_when.get("after"),
            "between_n": len(between),
            "between_median": statistics.median(between) if between else None,
            "between_max": max(between) if between else None,
        }
