"""Golden bytes: every CLI table, sidecar and stdout at fixed seeds.

The digests pin the exact output of the commands below, so a change to
how any table is formatted or parsed shows up here byte for byte.  The
commands run with relative paths in a scratch directory, because the
estimate sidecars record their input path.  Brown-Resnick models are
left out: their draws go through BLAS, whose last bits may differ
between builds.
"""
import contextlib
import hashlib
import io

import numpy as np

from extremogram import SpaceTimeGrid, write_space_time
from extremogram.cli import main

_LATTICE = ["--mode", "lattice", "--threshold", "q=0.9"]
_MC = ["mc", "--threshold", "q=0.9", "--reps", "4"]
_RATE = ["rate-check", "--model", "frechet", "--sizes", "8,12", "--reps", "10",
         "--seed", "0", "--threshold", "q=0.9"]

_STEPS = [
    ("simulate_mma", ["simulate", "--model", "mma", "--dims", "16,16", "--seed", "1",
                      "--out", "mma.csv"]),
    ("simulate_points", ["simulate", "--model", "point-field", "--count", "200",
                         "--region", "0,8,0,8", "--seed", "2", "--out", "points.csv"]),
    ("ingest", ["ingest", "--input", "cube.csv", "--block", "2", "--windows", "0:3,3:6",
                "--out-dir", "ingested"]),
    ("estimate_by_distance", ["estimate", "--input", "mma.csv", *_LATTICE, "--lags", "3",
                              "--by-distance", "--out", "est_by_distance.csv"]),
    ("estimate_vectors", ["estimate", "--input", "mma.csv", *_LATTICE,
                          "--lags", "1,0;0,1;2,1", "--out", "est_vectors.csv"]),
    ("estimate_kernel", ["estimate", "--input", "points.csv", "--mode", "kernel",
                         "--bandwidth", "1.0", "--threshold", "q=0.9", "--lags", "1,2",
                         "--by-distance", "--out", "est_kernel.csv"]),
    ("bands", ["bands", "--input", "mma.csv", *_LATTICE, "--lags", "2", "--by-distance",
               "--permutations", "100", "--seed", "7", "--out", "bands.csv"]),
    ("mc_by_distance", [*_MC, "--model", "mma1", "--dims", "12,12", "--lags", "2",
                        "--seed", "0"]),
    ("mc_by_distance_out", [*_MC, "--model", "mma1", "--dims", "12,12", "--lags", "2",
                            "--seed", "0", "--out", "mc_by_distance.csv"]),
    ("mc_vectors", [*_MC, "--model", "frechet", "--dims", "10,10", "--lags", "1,0;0,1;",
                    "--no-by-distance", "--seed", "1"]),
    ("mc_vectors_out", [*_MC, "--model", "frechet", "--dims", "10,10", "--lags", "1,0;0,1;",
                        "--no-by-distance", "--seed", "1", "--out", "mc_vectors.csv"]),
    ("mc_3d", [*_MC, "--model", "frechet", "--dims", "4,4,4", "--lags", "1", "--seed", "3"]),
    ("rate", _RATE),
    ("rate_out", [*_RATE, "--out", "rate.csv"]),
    ("oracle", ["oracle", "--model", "mma1", "--lags", "0,1,1.41,2"]),
    ("oracle_m", ["oracle", "--model", "mma1", "--lags", "1,2", "--m", "33.333333333333336"]),
    ("oracle_out", ["oracle", "--model", "geometric", "--phi", "0.5", "--lags", "1,2.5",
                    "--out", "oracle.csv"]),
    ("oracle_m_out", ["oracle", "--model", "geometric", "--phi", "0.5", "--lags", "1,2.5",
                      "--m", "10", "--out", "oracle_m.csv"]),
]

GOLDEN = {
    "simulate_mma stdout":
        "6380dd955c118f49bd433bce503aae466eafe552ed960d277759c97225066dce",
    "simulate_points stdout":
        "3a0a3cccb3bedf30a55b132ca786fae812290d0149101589cb1ef922bb4bb255",
    "ingest stdout":
        "48b2577eece9a0791d5eafb7693e7b94fddec1a8d23f65ce5970892c0e9b56df",
    "estimate_by_distance stdout":
        "971ebea9a8691219425add3d7f56a8cb0b2a2a200844d9b6c416ee152dcacab6",
    "estimate_vectors stdout":
        "b158481b41de4f1b669dc8fc5f48c21f8b00434590e2712a45a8f2b01ca3f458",
    "estimate_kernel stdout":
        "181b15d8f5ca9e7471b3b3814ffeaa7d030c6f3570cc62c40b2398e84c99d98f",
    "bands stdout":
        "107d45be8857c3ea28d9bbd3cbb7ef667efda2e64a3f3aeb490b406c39242887",
    "mc_by_distance stdout":
        "4b0ae512fbd6ab63439d6dd3a0094829380a7c5aea154087d82f3fa4e623d2ae",
    "mc_by_distance_out stdout":
        "df70e482719425dae71fe1922064db179807227dc7c7bf49a68eb2475168dc19",
    "mc_vectors stdout":
        "7a33b003cce1449c5fbdaba15ff2df335e1880cda3358bc08bc5576f977534fc",
    "mc_vectors_out stdout":
        "b0a9d8900b2ee484e350043050d21e6a16df7dae54c08b99daa2cf21a1638326",
    "mc_3d stdout":
        "daf5c1bfe7107c3bb21108e6361e278b1c2449dd702af08217b90f6b8bb9481b",
    "rate stdout":
        "687ba548e891a5ac3b15aad53b33b24aaadc2bd0c52ec5e4db4a376ba7b409f4",
    "rate_out stdout":
        "c4e9d24801c1f4960122c80b01404a34badd505ecab85d4f85aeffa2b1d8e0aa",
    "oracle stdout":
        "429b8e7c9bedd396a8508c7cf3eee4ffd009679e613c7b2d1c33e5cb45ece8fd",
    "oracle_m stdout":
        "8c41b097b22fb91486ab2c0ac0ea1aad5a7ca32076c4fd8f6aeb1c2ba6ee65a9",
    "oracle_out stdout":
        "8a164098a9c709c5fd1b9a1b6a9b553cceb433e1dddd4261e1bba2e75c22c795",
    "oracle_m_out stdout":
        "d403b55b31eb54886d13219a5c65e71c478ae68285c17c10425ec69b99758aa5",
    "bands.csv":
        "4bb9eb8b7396ce8e4e78aff7883b7ab72e287030ab047fc9dbd11629b912151c",
    "bands.json":
        "9ad0c03a9159d94022dcc34e9d84145bf1bfc1507f887412e59a675954f90400",
    "cube.csv":
        "a9a3c45805920d56961a3a4a862bd3a37431c15e73e172bc082b1e5b82781652",
    "est_by_distance.csv":
        "1b5175142716f9fcb943d7c6b57d142f09cc09ec3fde5a1c17fa15407c851ae4",
    "est_by_distance.json":
        "e36d0d95d4646b3d5fa84cd6ea56b70993e4404f36b4d4ab18579d0caf0d7e6c",
    "est_kernel.csv":
        "f35f9c991d6580b5ab6105270e7dd0525a74541173633792c40b4a8df6b1974e",
    "est_kernel.json":
        "c736548f065fababe993953d238fabf707db0e79115070ede9d428e763b80ba5",
    "est_vectors.csv":
        "9cb6bcc7f565131385308569627d78026874c662dd1bc71b9df9682dba7805f8",
    "est_vectors.json":
        "86bcb43c59c8ce7a57a0d52844c2ba372f549e625c081e7458f66622edcff4ba",
    "ingested/field_t0-3.csv":
        "a7991ad680009050cf3d526f04a573290de637e7483e5617e9ed494a3d18d4d6",
    "ingested/field_t3-6.csv":
        "cfd6c5718a9028ec8fbba4fa3ff6575bdb11c54e8a73baadf1444d29cf9117cf",
    "mc_by_distance.csv":
        "f3fa360cb09c2bdb5f024d51ac836dc2af58dff38fffa8279ef66cc3ec050490",
    "mc_by_distance.json":
        "79f1f57dfa1cd242f6ceda2d7e2e2981c1c2e4e1b63fe6ffce62f86cd393cff3",
    "mc_vectors.csv":
        "1bfd037ef2a90206995fc49767b790767287ec358ced16578304a60d4fd5fbc4",
    "mc_vectors.json":
        "0137edff3176151ec5eea6cb2ee571b8debfb8aff0adf487685792bcbb74eb15",
    "mma.csv":
        "b6cb56638ee905e91caf2184a39d70e84d59cea20e6c724ae738d4a7b9e0252a",
    "oracle.csv":
        "60329f7a1a41a743bc4da85e4b295192d720d337eefc59b149c6a3addce72adb",
    "oracle_m.csv":
        "d3544baa2e493a1488291cf8a8eb0cdd22b518acce5a98e6ae376f92bf6a9ff6",
    "points.csv":
        "82491b1b67c4a44793d04a1ae0e94dcc49b684be1680088c024434f7ccdbe613",
    "rate.csv":
        "17860235ee81ddc073826b50355e884d7dab15a651817531d534a5272f857601",
    "rate.json":
        "60de14800f06f66a6c74a5fbb4ea676f7f595dcb324f6a5266835701115fa392",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(workdir) -> dict:
    """SHA-256 of each step's stdout and of every file the steps leave in ``workdir``.

    ``workdir`` must be the current directory: the steps name their
    files relative to it.
    """
    rng = np.random.default_rng(5)
    write_space_time("cube.csv", SpaceTimeGrid(rng.pareto(1.0, (6, 8, 8))))
    digests = {}
    for name, argv in _STEPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, name
        digests[f"{name} stdout"] = _sha(out.getvalue().encode())
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = _sha(path.read_bytes())
    return digests


def test_cli_outputs_match_their_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_all(tmp_path) == GOLDEN
