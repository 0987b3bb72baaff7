"""Block-maxima ingestion, end to end through the command line.

Mirrors a rainfall-style workflow: a space-time cube of short-interval
measurements on a fine grid is reduced to per-window spatial fields by
10x10 spatial block maxima plus temporal window maxima, and each field
is then fed to the estimator and the permutation bands.  Everything
below runs through the same entry point the installed `extremogram`
script uses, so each step is shown with its shell equivalent.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from extremogram import SpaceTimeGrid, derive_rng, read_ese, write_space_time
from extremogram.cli import main

with tempfile.TemporaryDirectory(prefix="rainfall_demo_") as tmp:
    workdir = Path(tmp)

    # synthetic cube: 6 "years" of 120x120 gamma-distributed intensities
    rng = derive_rng(42)
    cube = SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(6, 120, 120)))
    cube_path = workdir / "cube.csv"
    write_space_time(str(cube_path), cube)
    print(f"wrote {cube_path} ({cube.values.shape[0]} time slices)")

    # extremogram ingest --input cube.csv --block 10 \
    #   --windows 0:1,1:2,...,0:6 --out-dir fields/
    windows = ",".join(f"{t}:{t + 1}" for t in range(6)) + ",0:6"
    out_dir = workdir / "fields"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["ingest", "--input", str(cube_path), "--block", "10",
                     "--windows", windows, "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads(buf.getvalue())
    print(f"ingest: {len(manifest['windows'])} fields on a "
          f"{manifest['dims'][0]}x{manifest['dims'][1]} grid")

    # per-window estimate plus bands on the all-years field
    last = manifest["windows"][-1]
    for w in manifest["windows"]:
        out = workdir / f"ese_{w['start']}_{w['stop']}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["estimate", "--input", w["path"], "--mode", "lattice",
                         "--threshold", "q=0.75", "--lags", "1,0;0,1;1,1;2,0",
                         "--out", str(out)])
        assert code == 0
        table, meta = read_ese(str(out))
        tag = f"window {w['start']}:{w['stop']}"
        print(f"{tag:>12}: rho_hat {np.round(table.rho_hat, 3).tolist()} "
              f"(threshold {meta['a_m']:.2f})")

    band_out = workdir / "bands.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["bands", "--input", last["path"], "--mode", "lattice",
                     "--threshold", "q=0.75", "--lags", "1,0;0,1;1,1;2,0",
                     "--permutations", "500", "--seed", "0",
                     "--out", str(band_out)])
    assert code == 0
    table, meta = read_ese(str(band_out))
    print(f"\nall-years field: null band [{table.band_lo[0]:.3f}, "
          f"{table.band_hi[0]:.3f}] from {meta['band']['n_perm']} permutations")
    print("iid-by-construction cube, so the observed values should sit inside")
