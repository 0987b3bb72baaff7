"""Command-line interface: exit codes, output contracts, end-to-end flows."""
import json

import numpy as np
import pytest

from extremogram import (
    BrLatticeModel,
    BrSimConfig,
    CountRule,
    FieldSource,
    FrechetModel,
    Lag,
    MmaModel,
    PointProcessModel,
    SpaceTimeGrid,
    VariogramSpec,
    WeightSpec,
    derive_rng,
    mma1_pa_extremogram,
    read_ese,
    read_field,
    write_field,
    write_space_time,
)
from extremogram.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_field_deterministically(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code, out, _ = run(capsys, "simulate", "--model", "frechet",
                       "--dims", "8,8", "--seed", "5", "--out", p1)
    assert code == 0 and out.strip() == p1
    run(capsys, "simulate", "--model", "frechet", "--dims", "8,8",
        "--seed", "5", "--out", p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert read_field(p1).dims == (8, 8)


def test_simulate_requires_seed(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--model", "frechet",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "--seed" in err


def test_estimate_end_to_end(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    out = str(tmp_path / "ese.csv")
    run(capsys, "simulate", "--model", "mma", "--weights", "ball:1",
        "--dims", "25,25", "--seed", "1", "--out", src)
    code, text, _ = run(capsys, "estimate", "--input", src, "--mode", "lattice",
                        "--threshold", "q=0.9", "--lags", "1,0;0,1;2,0",
                        "--out", out)
    assert code == 0 and text.strip() == out
    table, meta = read_ese(out)
    assert len(table.rho_hat) == 3
    assert meta["mode"] == "lattice"
    assert meta["input"] == src
    # neighbor dependence beats the reference rate for this model
    assert table.rho_hat[0] > meta["reference_rate"]


def test_estimate_mode_mismatch_is_data_error(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "8,8",
        "--seed", "2", "--out", src)
    code, _, err = run(capsys, "estimate", "--input", src, "--mode", "kernel",
                       "--bandwidth", "1.0", "--threshold", "q=0.9",
                       "--lags", "1,0;", "--out", str(tmp_path / "o.csv"))
    assert code == 2 and "point field" in err


def test_estimate_missing_input_is_data_error(tmp_path, capsys):
    code, _, _ = run(capsys, "estimate", "--input", str(tmp_path / "nope.csv"),
                     "--mode", "lattice", "--threshold", "q=0.9",
                     "--lags", "1,0;", "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_degenerate_threshold_is_json_exit_3(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "8,8",
        "--seed", "3", "--out", src)
    code, _, err = run(capsys, "estimate", "--input", src, "--mode", "lattice",
                       "--threshold", "abs=1e9", "--lags", "1,0;",
                       "--out", str(tmp_path / "o.csv"))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "DegenerateThreshold"
    assert payload["message"]


def test_oracle_mma1_values(capsys):
    code, out, _ = run(capsys, "oracle", "--model", "mma1",
                       "--lags", "1,1.41,2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance,rho_limit"
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    assert rhos == [0.4, 0.4, 0.2, 0.0]


def test_oracle_with_m_adds_pa_columns(capsys):
    code, out, _ = run(capsys, "oracle", "--model", "mma1", "--lags", "1",
                       "--m", "33.333333333333336")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance,rho_limit,rho_pa,m"
    cells = lines[1].split(",")
    expected = mma1_pa_extremogram(Lag.of(1, 0), 33.333333333333336).rho_pa
    assert float(cells[2]) == expected


def test_oracle_geometric_requires_phi(capsys):
    code, _, err = run(capsys, "oracle", "--model", "geometric", "--lags", "1")
    assert code == 1 and "--phi" in err


def test_oracle_brown_resnick(capsys):
    code, out, _ = run(capsys, "oracle", "--model", "brown-resnick",
                       "--lags", "0,1", "--theta", "1.0", "--alpha", "1.0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 1.0  # zero separation is full dependence
    assert 0.0 < float(rows[1][1]) < 1.0


def test_bands_end_to_end(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    out = str(tmp_path / "bands.csv")
    run(capsys, "simulate", "--model", "mma", "--dims", "20,20",
        "--seed", "4", "--out", src)
    code, _, _ = run(capsys, "bands", "--input", src, "--mode", "lattice",
                     "--threshold", "q=0.9", "--lags", "1,0;",
                     "--permutations", "120", "--seed", "0", "--out", out)
    assert code == 0
    table, meta = read_ese(out)
    assert np.isfinite(table.band_lo[0]) and np.isfinite(table.band_hi[0])
    assert meta["band"]["n_perm"] == 120


def test_bands_rejects_too_few_permutations(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "10,10",
        "--seed", "5", "--out", src)
    code, _, _ = run(capsys, "bands", "--input", src, "--mode", "lattice",
                     "--threshold", "q=0.9", "--lags", "1,0;",
                     "--permutations", "10", "--seed", "0",
                     "--out", str(tmp_path / "o.csv"))
    assert code == 1


def test_mc_requires_seed(capsys):
    code, _, err = run(capsys, "mc", "--model", "mma1", "--reps", "5",
                       "--threshold", "q=0.97")
    assert code == 1 and "--seed" in err


def test_mc_stdout_table(capsys):
    code, out, _ = run(capsys, "mc", "--model", "mma1", "--dims", "15,15",
                       "--lags", "2", "--reps", "6", "--seed", "0",
                       "--threshold", "q=0.9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("distance,mean,variance,q2.5,")
    assert lines[0].endswith("oracle_limit,oracle_pa")
    assert len(lines) == 4  # distances 1, sqrt2, 2


def test_mc_writes_file(tmp_path, capsys):
    out = str(tmp_path / "mc.csv")
    code, text, _ = run(capsys, "mc", "--model", "frechet", "--dims", "12,12",
                        "--lags", "1,0;", "--no-by-distance", "--reps", "4",
                        "--seed", "1", "--threshold", "q=0.9", "--out", out)
    assert code == 0 and text.strip() == out
    assert open(out).readline().startswith("lag_x,lag_y,")


def test_mc_point_field_ignores_dims(capsys):
    # a point field is planar; --dims belongs to the lattice models
    code, out, err = run(capsys, "mc", "--model", "point-field", "--dims", "0",
                         "--region", "0,6,0,6", "--count", "60", "--mode", "kernel",
                         "--bandwidth", "1.0", "--lags", "1", "--reps", "2",
                         "--seed", "0", "--threshold", "q=0.9")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("distance,mean,variance,") and len(lines) == 2


def test_rate_check_stdout(capsys):
    code, out, _ = run(capsys, "rate-check", "--model", "frechet",
                       "--sizes", "10,20", "--reps", "40", "--seed", "0",
                       "--threshold", "q=0.9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,mean,variance"
    assert lines[-1].startswith("# slope=")
    slope = float(lines[-1].split("=")[1])
    assert -2.0 < slope < -0.3


def test_rate_check_rejects_absolute_threshold(capsys):
    code, _, _ = run(capsys, "rate-check", "--model", "frechet",
                     "--sizes", "10,20", "--reps", "10", "--seed", "0",
                     "--threshold", "abs=1.0")
    assert code == 1


def test_ingest_end_to_end(tmp_path, capsys):
    cube = str(tmp_path / "cube.csv")
    rng = derive_rng(11)
    write_space_time(cube, SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(6, 12, 12))))
    out_dir = str(tmp_path / "fields")
    code, out, _ = run(capsys, "ingest", "--input", cube, "--block", "3",
                       "--windows", "0:3,3:6,0:6", "--out-dir", out_dir)
    assert code == 0
    manifest = json.loads(out)
    assert manifest["dims"] == [4, 4]
    assert len(manifest["windows"]) == 3
    assert manifest["windows"][0]["path"].endswith("field_t0-3.csv")
    for w in manifest["windows"]:
        assert read_field(w["path"]).dims == (4, 4)

    # the produced field feeds straight into estimate
    ese = str(tmp_path / "ese.csv")
    code, _, _ = run(capsys, "estimate", "--input", manifest["windows"][2]["path"],
                     "--mode", "lattice", "--threshold", "q=0.8",
                     "--lags", "1,0;", "--out", ese)
    assert code == 0


def test_ingest_bad_block_is_data_error(tmp_path, capsys):
    cube = str(tmp_path / "cube.csv")
    rng = derive_rng(12)
    write_space_time(cube, SpaceTimeGrid(rng.gamma(2.0, 1.0, size=(2, 6, 6))))
    code, _, _ = run(capsys, "ingest", "--input", cube, "--block", "4",
                     "--windows", "0:2", "--out-dir", str(tmp_path / "o"))
    assert code == 2
    code, _, _ = run(capsys, "ingest", "--input", cube, "--block", "2",
                     "--windows", "0:9", "--out-dir", str(tmp_path / "o"))
    assert code == 2


def test_help_and_bad_command(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "frobnicate")[0] == 1
    code, _, err = run(capsys, "estimate", "--input", "x.csv",
                       "--mode", "kernel", "--threshold", "q=0.9",
                       "--lags", "1", "--out", "y.csv")
    assert code == 1 and "--bandwidth" in err


def test_lag_grammar_errors(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "8,8",
        "--seed", "6", "--out", src)
    # comma list is only meaningful with --by-distance
    code, _, _ = run(capsys, "estimate", "--input", src, "--mode", "lattice",
                     "--threshold", "q=0.9", "--lags", "1,2,3",
                     "--out", str(tmp_path / "o.csv"))
    assert code == 1
    # scalar without --by-distance expands to the lag grid and works
    code, _, _ = run(capsys, "estimate", "--input", src, "--mode", "lattice",
                     "--threshold", "q=0.9", "--lags", "2",
                     "--out", str(tmp_path / "grid.csv"))
    assert code == 0
    table, _ = read_ese(str(tmp_path / "grid.csv"))
    assert len(table.rho_hat) > 4


@pytest.mark.parametrize("flags, model", [
    (["--model", "frechet", "--dims", "6,5"], FrechetModel((6, 5))),
    (["--model", "mma", "--dims", "7,7", "--weights", "geom:0.5"],
     MmaModel((7, 7), WeightSpec.geometric(0.5))),
    (["--model", "brown-resnick", "--dims", "4,4", "--spacing", "0.3",
      "--method", "gaussian-max", "--gaussians", "50"],
     BrLatticeModel((4, 4), VariogramSpec(0.5, 2.0), BrSimConfig.gaussian_max(50),
                    spacing=0.3)),
    (["--model", "point-field", "--region", "0,3,0,2", "--count", "12",
      "--source", "brown-resnick", "--terms", "200"],
     PointProcessModel((0.0, 3.0, 0.0, 2.0), CountRule.fixed(12),
                       FieldSource.brown_resnick(VariogramSpec(0.5, 2.0),
                                                 BrSimConfig.spectral(200)))),
])
def test_simulate_writes_the_models_draw(tmp_path, capsys, flags, model):
    cli_out, ref_out = tmp_path / "cli.csv", tmp_path / "ref.csv"
    code, _, _ = run(capsys, "simulate", *flags, "--seed", "9", "--out", str(cli_out))
    assert code == 0
    write_field(ref_out, model.simulate(9))
    assert cli_out.read_bytes() == ref_out.read_bytes()


def test_estimate_refuses_a_table_path_that_is_its_own_sidecar(tmp_path, capsys):
    src = str(tmp_path / "field.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "8,8",
        "--seed", "2", "--out", src)
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "estimate", "--input", src, "--mode", "lattice",
                       "--threshold", "q=0.9", "--lags", "1,0;", "--out", str(out))
    assert code == 1 and "sidecar" in err
    assert not out.exists()


def test_negative_field_value_is_data_error(tmp_path, capsys):
    src = tmp_path / "field.csv"
    run(capsys, "simulate", "--model", "frechet", "--dims", "4,4",
        "--seed", "3", "--out", str(src))
    lines = src.read_text().splitlines()
    lines[2] = "0,0,-2"
    src.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "estimate", "--input", str(src), "--mode", "lattice",
                       "--threshold", "q=0.9", "--lags", "1,0;",
                       "--out", str(tmp_path / "o.csv"))
    assert code == 2 and "nonnegative" in err


def test_every_failing_exit_prints_one_json_line(tmp_path, capsys):
    cases = [
        (1, "frobnicate", ["frobnicate"]),
        (1, "--workers", ["bands", "--input", "x.csv", "--mode", "lattice",
                          "--threshold", "q=0.9", "--lags", "1,0;", "--seed", "0",
                          "--workers", "2", "--out", "y.csv"]),
        (1, "--phi", ["oracle", "--model", "geometric", "--lags", "1"]),
        (1, "planar", ["simulate", "--model", "brown-resnick", "--dims", "4,4,4",
                       "--seed", "0", "--out", str(tmp_path / "x.csv")]),
        (2, "not found", ["estimate", "--input", str(tmp_path / "nope.csv"),
                          "--mode", "lattice", "--threshold", "q=0.9",
                          "--lags", "1,0;", "--out", str(tmp_path / "o.csv")]),
    ]
    for expected, needle, argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == expected
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
        assert needle in payload["message"]
