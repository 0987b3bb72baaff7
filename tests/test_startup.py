"""Every command runs in an interpreter where scipy cannot be imported.

The package needs numpy alone: the kernel estimator finds its pairs
through a numpy cell grid, and the gaussian-max Brown-Resnick simulator
and the Brown-Resnick oracles compute the normal CDF with their own port
of cephes' ``ndtr``.  pytest has imported scipy already, so the probe
runs in its own process, with an import hook that refuses ``scipy`` and
every submodule of it.  A scan of the sources also holds the package to
numpy's public modules, but for the Cholesky gufunc that factors a
Brown-Resnick covariance in place.
"""
import ast
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
import os
import sys


class NoScipy:
    # a meta-path finder consulted before the real ones
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None


sys.meta_path.insert(0, NoScipy())

import numpy as np

import extremogram
import extremogram.cli
from extremogram import SpaceTimeGrid, write_space_time
from extremogram.cli import main


def run(argv, out):
    # exit 0 and a nonempty output: the file given to --out, else stdout
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    assert code == 0, (argv, code)
    assert (os.path.getsize(out) if out else len(stdout.getvalue())) > 0, argv


write_space_time("cube.csv", SpaceTimeGrid(np.random.default_rng(5).pareto(1.0, (6, 8, 8))))
lattice = ["--mode", "lattice", "--threshold", "q=0.9", "--lags", "2", "--by-distance"]
kernel = ["--mode", "kernel", "--bandwidth", "1.5", "--threshold", "q=0.9"]
points = ["--model", "point-field", "--region", "0,8,0,8", "--count", "120"]
ran = []
for out, argv in (
    ("mma.csv", ["simulate", "--model", "mma", "--dims", "16,16", "--seed", "1"]),
    ("est.csv", ["estimate", "--input", "mma.csv", *lattice]),
    ("bands.csv", ["bands", "--input", "mma.csv", *lattice, "--permutations", "100",
                   "--seed", "7"]),
    (None, ["ingest", "--input", "cube.csv", "--block", "2", "--windows", "0:3,3:6",
            "--out-dir", "ingested"]),
    (None, ["oracle", "--model", "geometric", "--phi", "0.5", "--lags", "1,2.5", "--m", "10"]),
    (None, ["mc", "--model", "mma", "--dims", "12,12", "--threshold", "q=0.9", "--reps", "4",
            "--lags", "2", "--seed", "0"]),
    ("br.csv", ["simulate", "--model", "brown-resnick", "--dims", "8,8", "--seed", "1"]),
    (None, ["oracle", "--model", "brown-resnick", "--lags", "0,0.5,2.5", "--m", "10"]),
    (None, ["mc", "--model", "brown-resnick", "--dims", "8,8", "--threshold", "q=0.9",
            "--reps", "2", "--seed", "0"]),
    ("gmax.csv", ["simulate", "--model", "brown-resnick", "--method", "gaussian-max",
                  "--gaussians", "50", "--dims", "8,8", "--seed", "1"]),
    ("pts.csv", ["simulate", *points, "--source", "brown-resnick", "--method", "gaussian-max",
                 "--gaussians", "50", "--seed", "1"]),
    ("kvec.csv", ["estimate", "--input", "pts.csv", *kernel, "--lags", "1,0;0.5,0.5"]),
    ("kdist.csv", ["estimate", "--input", "pts.csv", *kernel, "--lags", "1,2",
                   "--by-distance"]),
    ("kbands.csv", ["bands", "--input", "pts.csv", *kernel, "--lags", "1", "--by-distance",
                    "--permutations", "100", "--seed", "7"]),
    (None, ["mc", *points, *kernel, "--lags", "1", "--reps", "2", "--seed", "0"]),
):
    run(argv + ["--out", out] if out else argv, out)
    ran.append(argv[0])
assert sorted(os.listdir("ingested")) == ["field_t0-3.csv", "field_t3-6.csv"]
print(json.dumps({"ran": ran, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_numpy_only_commands_do_not_import_scipy(tmp_path):
    src = str(Path(extremogram.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert len(report["ran"]) == 15 and report["scipy"] == []


def _imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every import in ``source``, at any depth:
    ``import a.b``, ``from a.b import c`` (as ``a.b.c``), ``__import__("a")``
    and ``importlib.import_module("a")``.  Relative imports are left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            names = [node.args[0].value] if called in ("__import__", "import_module") else []
        else:
            continue
        found += [(node.lineno, name) for name in names if isinstance(name, str)]
    return sorted(found)


def _scipy_imports(source: str) -> list[int]:
    """Lines of ``source`` that import scipy or a submodule of it, at any depth."""
    return sorted({line for line, name in _imports(source) if name.split(".")[0] == "scipy"})


def _private_numpy_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import in ``source`` that reaches a private
    numpy module: the dotted name up to its first ``_`` part after numpy."""
    found = []
    for line, name in _imports(source):
        parts = name.split(".")
        private = [i for i, part in enumerate(parts) if i and part.startswith("_")]
        if parts[0] == "numpy" and private:
            found.append((line, ".".join(parts[:private[0] + 1])))
    return found


def test_no_module_of_the_package_imports_scipy():
    modules = sorted(Path(extremogram.__file__).resolve().parent.rglob("*.py"))
    assert len(modules) >= 10
    found = {path.name: _scipy_imports(path.read_text()) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan sees imports inside functions, in every spelling
    assert _scipy_imports(
        "import numpy, scipy.linalg\n"
        "def f():\n    from scipy.special import ndtr\n"
        "class C:\n    def g(self):\n        import scipy as sp\n"
        "importlib.import_module('scipy.spatial')\n__import__('scipy')\n"
        "from . import scipy_like\nimport scipyish\n"
    ) == [1, 3, 6, 7, 8]


def test_no_module_of_the_package_imports_a_private_numpy_module():
    # simulate.py alone reaches the gufunc behind np.linalg.cholesky, which
    # can write the factor into the covariance it reads
    modules = sorted(Path(extremogram.__file__).resolve().parent.rglob("*.py"))
    found = {path.name: _private_numpy_imports(path.read_text()) for path in modules}
    assert {name: [module for _, module in hits] for name, hits in found.items() if hits} == {
        "simulate.py": ["numpy.linalg._umath_linalg"]
    }
    assert _private_numpy_imports(
        "import numpy as np, numpy.linalg\n"
        "from numpy.linalg._umath_linalg import cholesky_lo\n"
        "def f():\n    from numpy._core import multiarray\n"
        "import numpy.linalg._linalg\n"
        "class C:\n    def g(self):\n        from numpy.linalg import _umath_linalg\n"
        "importlib.import_module('numpy._core._exceptions')\n__import__('numpy._utils')\n"
        "from numpy.random import default_rng\nimport _numpy_like\nfrom . import _private\n"
    ) == [(2, "numpy.linalg._umath_linalg"), (4, "numpy._core"), (5, "numpy.linalg._linalg"),
          (8, "numpy.linalg._umath_linalg"), (9, "numpy._core"), (10, "numpy._utils")]
