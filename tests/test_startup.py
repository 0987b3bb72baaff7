"""The numpy-only commands never load scipy in a fresh interpreter.

scipy is imported where it is called: by the kernel estimator and the
gaussian-max Brown-Resnick simulator.  Spectral Brown-Resnick draws,
and the Brown-Resnick oracles with their own normal CDF, need numpy
alone.  pytest has imported scipy already, so the probe runs in its own
process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import extremogram

_PROBE = r"""
import contextlib
import io
import json
import sys

import numpy as np

import extremogram
import extremogram.cli
from extremogram import SpaceTimeGrid, write_space_time
from extremogram.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


write_space_time("cube.csv", SpaceTimeGrid(np.random.default_rng(5).pareto(1.0, (6, 8, 8))))
lattice = ["--mode", "lattice", "--threshold", "q=0.9", "--lags", "2", "--by-distance"]
for argv in (
    ["simulate", "--model", "mma", "--dims", "16,16", "--seed", "1", "--out", "mma.csv"],
    ["estimate", "--input", "mma.csv", *lattice, "--out", "est.csv"],
    ["bands", "--input", "mma.csv", *lattice, "--permutations", "100", "--seed", "7",
     "--out", "bands.csv"],
    ["ingest", "--input", "cube.csv", "--block", "2", "--windows", "0:3,3:6",
     "--out-dir", "ingested"],
    ["oracle", "--model", "geometric", "--phi", "0.5", "--lags", "1,2.5", "--m", "10"],
    ["mc", "--model", "mma", "--dims", "12,12", "--threshold", "q=0.9", "--reps", "4",
     "--lags", "2", "--seed", "0"],
    ["simulate", "--model", "brown-resnick", "--dims", "8,8", "--seed", "1", "--out", "br.csv"],
    ["oracle", "--model", "brown-resnick", "--lags", "0,0.5,2.5", "--m", "10"],
    ["mc", "--model", "brown-resnick", "--dims", "8,8", "--threshold", "q=0.9", "--reps", "2",
     "--seed", "0"],
):
    run(argv)
numpy_only = scipy_modules()
run(["simulate", "--model", "brown-resnick", "--method", "gaussian-max", "--gaussians", "50",
     "--dims", "8,8", "--seed", "1", "--out", "gmax.csv"])
print(json.dumps({"numpy_only": numpy_only, "gaussian_max": scipy_modules()}))
"""


def test_numpy_only_commands_do_not_import_scipy(tmp_path):
    src = str(Path(extremogram.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["numpy_only"] == []
    # the probe sees a first-use import, so the empty list above is not vacuous
    assert "scipy.special" in loaded["gaussian_max"]
    assert not [m for m in loaded["gaussian_max"] if m.startswith("scipy.spatial")]
