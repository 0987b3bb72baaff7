"""Command-line interface: exit codes, output contracts, end-to-end flows."""
import argparse
import csv
import json
import math
import os
import random

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
    mma_pa_extremogram,
    read_ese,
    read_field,
    sim_frechet_iid,
    sim_point_field,
    write_field,
    write_space_time,
)
from extremogram import cli, errors, fields
from extremogram.cli import _build_parser, _snap_distance, main


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


@pytest.mark.parametrize("model", ["mma1", "brown-resnick"])
def test_oracle_refuses_phi_for_other_models(capsys, model):
    code, out, err = run(capsys, "oracle", "--model", model, "--phi", "0.5", "--lags", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "UsageError",
        "message": f"--phi applies to --model geometric only, not {model}",
    }


def test_oracle_brown_resnick(capsys):
    code, out, _ = run(capsys, "oracle", "--model", "brown-resnick",
                       "--lags", "0,1", "--theta", "1.0", "--alpha", "1.0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 1.0  # zero separation is full dependence
    assert 0.0 < float(rows[1][1]) < 1.0


def test_oracle_reports_the_law_mc_simulates(capsys):
    """Geometric rows are the simulated model's oracles, not a separate closed form."""
    code, out, _ = run(capsys, "oracle", "--model", "geometric", "--phi", "0.9",
                       "--lags", "1,2,5", "--m", "10")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    model = MmaModel((40, 40), WeightSpec.geometric(0.9))
    # the distances snap to these lattice lags; 5 is first met at (4, 3)
    for row, lag in zip(rows, [Lag.of(1, 0), Lag.of(2, 0), Lag.of(4, 3)], strict=True):
        pa = mma_pa_extremogram(WeightSpec.geometric(0.9), lag, 10.0)
        assert float(row["rho_limit"]) == model.law.oracle_limit(lag) == pa.rho_limit
        assert float(row["rho_pa"]) == model.law.oracle_pa(lag, 10.0) == pa.rho_pa


def _full_scan_snap(dist):
    """Nearest planar integer lag by trying every (i, j), j <= i <= ceil(dist) + 1."""
    best, best_err = (0, 0), abs(dist)
    for i in range(math.ceil(dist) + 2):
        for j in range(i + 1):
            err = abs(math.hypot(i, j) - dist)
            if err < best_err - 1e-12:
                best, best_err = (i, j), err
    return Lag.of(*best)


def test_snap_distance_equals_the_full_scan():
    rnd = random.Random(3)
    norms = [math.hypot(i, j) for i in range(30) for j in range(i + 1)]
    dists = [*norms, *(round(d, k) for d in norms for k in (1, 2)),
             *(d + e for d in norms for e in (-2e-12, -5e-13, 5e-13, 2e-12, -0.5, 0.5)),
             *(rnd.uniform(0, 60) for _ in range(500))]
    for dist in (d for d in dists if d >= 0):
        assert _snap_distance(dist, math.inf) == _full_scan_snap(dist), dist


@pytest.mark.parametrize("flags, weights, top", [
    (["mma1"], WeightSpec.indicator_ball(1.0), 6.0),
    (["geometric", "--phi", "0.5"], WeightSpec.geometric(0.5), 104.0),
])
def test_oracle_rows_past_the_support_are_zero_and_one_over_m(capsys, flags, weights, top):
    dists = [k / 4 for k in range(max(0, int(4 * (top - 8))), int(4 * top))]
    code, out, _ = run(capsys, "oracle", "--model", *flags,
                       "--lags", ",".join(map(str, dists + [1e6, 1e300])), "--m", "10")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    # distances up to the top straddle twice the support radius; they still
    # read the fully searched lag, and the far ones read exactly 0 and 1/m
    for row, dist in zip(rows, dists):
        pa = mma_pa_extremogram(weights, _full_scan_snap(dist), 10.0)
        assert (float(row["rho_limit"]), float(row["rho_pa"])) == (pa.rho_limit, pa.rho_pa)
    assert [(float(r["rho_limit"]), float(r["rho_pa"])) for r in rows[-2:]] == [(0.0, 0.1)] * 2


def test_the_parser_is_built_once_with_immutable_defaults():
    parser = _build_parser()
    assert _build_parser() is parser
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            # a list default or an append action would carry values from one parse to the next
            assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction))
            assert isinstance(action.default, (type(None), str, int, float)), (command, action)


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


def test_no_lags_is_json_exit_1(tmp_path, capsys):
    # before, estimate wrote an empty table with exit 0 and bands died with
    # an IndexError traceback
    lat, pts = str(tmp_path / "lat.csv"), str(tmp_path / "pts.csv")
    run(capsys, "simulate", "--model", "frechet", "--dims", "30,30", "--seed", "1", "--out", lat)
    run(capsys, "simulate", "--model", "point-field", "--region", "0,10,0,10",
        "--count", "80", "--seed", "1", "--out", pts)
    out = tmp_path / "o.csv"
    for cmd in ("estimate", "bands"):
        for src, flags in ((lat, ["--mode", "lattice", "--by-distance"]),
                           (lat, ["--mode", "lattice"]),
                           (pts, ["--mode", "kernel", "--bandwidth", "1"])):
            extra = ["--permutations", "100", "--seed", "0"] if cmd == "bands" else []
            code, _, err = run(capsys, cmd, "--input", src, *flags, "--threshold", "q=0.9",
                               "--lags", "0.5", *extra, "--out", str(out))
            assert code == 1 and not out.exists()
            payload = json.loads(err)
            assert payload["error"] == "ValueError" and "no lags" in payload["message"]


def test_a_poisson_point_field_keeps_its_intensity_and_is_refused_by_lattice_mode(
        tmp_path, capsys):
    pts, out = str(tmp_path / "pts.csv"), tmp_path / "o.csv"
    code, _, _ = run(capsys, "simulate", "--model", "point-field", "--region", "0,10,0,10",
                     "--intensity", "0.8", "--seed", "1", "--out", pts)
    assert code == 0 and read_field(pts).intensity_hint == 0.8
    code, _, err = run(capsys, "estimate", "--input", pts, "--mode", "lattice",
                       "--threshold", "q=0.9", "--lags", "1", "--out", str(out))
    assert code == 2 and not out.exists()
    assert json.loads(err)["error"] == "DataFormatError"


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


def test_mc_stdout_keeps_the_limit_when_the_finite_m_value_is_undefined(tmp_path, capsys):
    # an absolute rule this low gives mean_m = 1, where MMA has no finite-m value
    flags = ["mc", "--model", "mma1", "--dims", "12,12", "--reps", "3", "--seed", "0",
             "--threshold", "abs=1e-9", "--lags", "2"]
    code, out, _ = run(capsys, *flags)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert "oracle_pa" not in rows[0]
    assert [float(row["oracle_limit"]) for row in rows] == [0.4, 0.4, 0.2]
    path = str(tmp_path / "mc.csv")
    run(capsys, *flags, "--out", path)
    with open(path) as fh:
        written = list(csv.DictReader(fh))
    assert [row["oracle_limit"] for row in written] == [row["oracle_limit"] for row in rows]
    assert all(row["oracle_pa"] == "" for row in written)


def test_mc_sidecar_without_usable_replicates_is_strict_json(tmp_path, capsys):
    def refuse(token):
        pytest.fail(f"sidecar holds the non-JSON token {token}")

    out = str(tmp_path / "x.csv")
    code, _, _ = run(capsys, "mc", "--model", "frechet", "--dims", "6,6", "--reps", "2",
                     "--seed", "0", "--threshold", "abs=1e9", "--lags", "1", "--out", out)
    assert code == 0
    with open(tmp_path / "x.json") as fh:
        meta = json.load(fh, parse_constant=refuse)
    assert meta["n_used"] == 0 and meta["mean_m"] is None


def test_mc_stdout_keys_vector_lags_by_lag(capsys):
    # (1,0) and (0,1) share distance 1; their rows must still be told apart
    for dims, lags, labels in [("12,12", "1,0;0,1;", ["(1,0)", "(0,1)"]),
                               ("4,4,4", "1,0,0;0,0,1;", ["(1,0,0)", "(0,0,1)"])]:
        code, out, _ = run(capsys, "mc", "--model", "frechet", "--dims", dims,
                           "--lags", lags, "--no-by-distance", "--reps", "4",
                           "--seed", "0", "--threshold", "q=0.9")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][:2] == ["lag", "mean"]
        assert [row[0] for row in rows[1:]] == labels
        assert all(len(row) == len(rows[0]) for row in rows)


def test_mc_writes_file(tmp_path, capsys):
    out = str(tmp_path / "mc.csv")
    code, text, _ = run(capsys, "mc", "--model", "frechet", "--dims", "12,12",
                        "--lags", "1,0;", "--no-by-distance", "--reps", "4",
                        "--seed", "1", "--threshold", "q=0.9", "--out", out)
    assert code == 0 and text.strip() == out
    assert open(out).readline().startswith("lag_x,lag_y,")


def test_mc_refuses_3d_lags_for_out_before_simulating(tmp_path, capsys, monkeypatch):
    calls = []
    simulate = FrechetModel.simulate
    monkeypatch.setattr(FrechetModel, "simulate",
                        lambda self, seed: calls.append(seed) or simulate(self, seed))
    out = tmp_path / "m3.csv"
    code, stdout, err = run(capsys, "mc", "--model", "frechet", "--dims", "4,4,4",
                            "--reps", "2", "--seed", "0", "--threshold", "q=0.9",
                            "--out", str(out))
    assert code == 2 and stdout == "" and calls == []
    payload = json.loads(err)
    assert payload["error"] == "DataFormatError" and "3-d lags" in payload["message"]
    assert not out.exists() and not (tmp_path / "m3.json").exists()


def test_mc_point_field_ignores_dims(capsys):
    # a point field is planar; --dims belongs to the lattice models
    code, out, err = run(capsys, "mc", "--model", "point-field", "--dims", "0",
                         "--region", "0,6,0,6", "--count", "60", "--mode", "kernel",
                         "--bandwidth", "1.0", "--lags", "1", "--reps", "2",
                         "--seed", "0", "--threshold", "q=0.9")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("distance,mean,variance,") and len(lines) == 2


def test_rate_check_stdout(tmp_path, capsys):
    argv = ["rate-check", "--model", "frechet", "--sizes", "10,20", "--reps", "40",
            "--seed", "0", "--threshold", "q=0.9"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,mean,variance"
    assert lines[-1].startswith("# slope=")
    slope = float(lines[-1].split("=")[1])
    assert -2.0 < slope < -0.3
    table = tmp_path / "rate.csv"
    assert run(capsys, *argv, "--out", str(table))[0] == 0
    assert lines[:-1] == table.read_text().splitlines()


@pytest.mark.parametrize("flags, error", [
    (["--model", "mma1", "--dims", "5,5", "--lags", "9"], "LagOutOfRange"),
    (["--model", "point-field", "--count", "40", "--mode", "lattice"], "DomainError"),
    (["--model", "mma1", "--dims", "8,8", "--mode", "kernel", "--bandwidth", "1"],
     "DomainError"),
])
def test_mc_configuration_error_is_json_exit_1(capsys, flags, error):
    # every replicate would raise it, so it is reported, not counted as failures
    code, out, err = run(capsys, "mc", *flags, "--reps", "2", "--seed", "0",
                         "--threshold", "q=0.9")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error


def test_rate_check_rejects_absolute_threshold(capsys):
    code, _, _ = run(capsys, "rate-check", "--model", "frechet",
                     "--sizes", "10,20", "--reps", "10", "--seed", "0",
                     "--threshold", "abs=1.0")
    assert code == 1


@pytest.mark.parametrize("flags, error", [
    (["--sizes", "10,10"], "ValueError"),
    (["--ref-lag", "1,0;5,5"], "UsageError"),
])
def test_rate_check_refuses_repeated_sizes_and_several_ref_lags(capsys, flags, error):
    code, out, err = run(capsys, "rate-check", "--model", "mma1", "--sizes", "10,20",
                         "--reps", "4", "--seed", "0", *flags)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_rate_check_reads_one_ref_lag_vector_as_its_components(capsys):
    argv = ["rate-check", "--model", "frechet", "--sizes", "10,20", "--reps", "10",
            "--seed", "0", "--threshold", "q=0.9"]
    vector, components = (run(capsys, *argv, "--ref-lag", ref) for ref in ("1,0;", "1,0"))
    assert vector[0] == components[0] == 0
    assert vector[1] == components[1] and vector[1].startswith("size,mean,variance")
    code, out, err = run(capsys, *argv, "--ref-lag", "1,0;0,1")
    assert code == 1 and out == "" and "--ref-lag" in json.loads(err)["message"]


EXIT_CODES = {
    "DegenerateThreshold": 3, "DegenerateDenominator": 3, "FactorizationFailure": 3,
    "DataFormatError": 2, "EmptyInput": 2, "EmptyField": 2, "NonDivisibleBlock": 2,
    "WindowOutOfRange": 2, "DomainError": 1, "LagOutOfRange": 1, "UnsupportedSets": 1,
    "TooFewPermutations": 1, "ExtremogramError": 1, "FileNotFoundError": 2, "ValueError": 1,
}


@pytest.mark.parametrize("exc", [getattr(errors, name) for name in errors.__all__]
                         + [FileNotFoundError, ValueError])
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, exc):
    def fail(*args):
        raise exc("boom")

    monkeypatch.setattr(cli, "_snap_distance", fail)
    code, out, err = run(capsys, "oracle", "--model", "mma1", "--lags", "1")
    assert code == EXIT_CODES[exc.__name__] and out == ""
    assert json.loads(err) == {"error": exc.__name__, "message": "boom"}


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


@pytest.mark.parametrize("spacing", ["nan", "inf", "0", "-1"])
def test_simulate_refuses_a_bad_br_spacing_in_one_json_line(tmp_path, capsys, spacing):
    out = tmp_path / "x.csv"
    code, text, err = run(capsys, "simulate", "--model", "brown-resnick", "--dims", "4,4",
                          f"--spacing={spacing}", "--seed", "0", "--out", str(out))
    assert code == 1 and text == "" and not out.exists()
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ValueError",
        "message": f"spacing must be finite and positive, got {float(spacing)}",
    }


_ESTIMATE = ["estimate", "--input", "nope.csv", "--mode", "lattice", "--threshold", "q=0.9",
             "--lags", "1", "--out", "o.csv"]
_RATE = ["rate-check", "--model", "mma1", "--reps", "2", "--seed", "0"]
_SIMULATE = ["simulate", "--seed", "0", "--out", "x.csv"]
# --windows is read before the input, so a missing input does not hide it
_INGEST = ["ingest", "--input", "missing.csv", "--block", "1", "--out-dir", "fields"]


_MALFORMED = [
    ("--dims", "4,x", [*_SIMULATE, "--model", "frechet"]),
    ("--dims", "0", [*_SIMULATE, "--model", "frechet"]),
    ("--set-a", "1", _ESTIMATE),
    ("--set-b", "a,b", _ESTIMATE),
    ("--threshold", "q=x", _ESTIMATE),
    ("--threshold", "p=0.9", _ESTIMATE),
    ("--nu", "known=x", [*_ESTIMATE, "--mode", "kernel", "--bandwidth", "1"]),
    ("--nu", "guess", [*_ESTIMATE, "--mode", "kernel", "--bandwidth", "1"]),
    ("--region", "0,1,0", [*_SIMULATE, "--model", "point-field", "--count", "5"]),
    ("--weights", "ball:x", [*_SIMULATE, "--model", "mma"]),
    ("--weights", "cone:1", [*_SIMULATE, "--model", "mma"]),
    ("--windows", "0-3", _INGEST),
    ("--windows", "0:x", _INGEST),
    ("--sizes", "10,x", _RATE),
    ("--lags", "1,x", ["oracle", "--model", "mma1"]),
    ("--lags", "1,0,0,0;", _ESTIMATE),
]


@pytest.mark.parametrize("flag, value, argv", _MALFORMED,
                         ids=[f"{flag}={value}" for flag, value, _ in _MALFORMED])
def test_a_malformed_flag_value_is_a_usage_error_naming_the_flag(
        tmp_path, monkeypatch, capsys, flag, value, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError" and flag in payload["message"]
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "fields").exists()


_BALL_CMDS = [
    ["estimate", "--input", "f.csv", "--mode", "lattice", "--threshold", "q=0.9", "--out", "o.csv"],
    ["bands", "--input", "f.csv", "--mode", "lattice", "--threshold", "q=0.9",
     "--permutations", "100", "--seed", "0", "--out", "o.csv"],
    ["mc", "--model", "mma1", "--dims", "8,8", "--threshold", "q=0.9", "--reps", "2",
     "--seed", "0", "--out", "o.csv"],
]
_UNBOUNDED = [
    *[[*argv, *by, "--lags", lags] for argv in _BALL_CMDS for by in ([], ["--by-distance"])
      for lags in ("inf", "1e400")],
    [*_SIMULATE, "--model", "mma", "--dims", "4,4", "--weights", "ball:inf"],
    ["mc", "--model", "mma", "--dims", "4,4", "--weights", "ball:inf", "--threshold", "q=0.9",
     "--lags", "1", "--reps", "2", "--seed", "0", "--out", "o.csv"],
    ["rate-check", "--model", "mma", "--weights", "ball:inf", "--sizes", "8,10", "--reps", "2",
     "--seed", "0", "--out", "o.csv"],
]


@pytest.mark.parametrize("argv", _UNBOUNDED, ids=[" ".join(argv) for argv in _UNBOUNDED])
def test_an_unbounded_lag_or_weight_radius_is_refused_in_one_json_line(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_field("f.csv", sim_frechet_iid((10, 10), 1))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert "finite" in payload["message"]
    if "--weights" in argv:
        assert payload["error"] == "UsageError" and "--weights" in payload["message"]
    assert sorted(os.listdir(tmp_path)) == ["f.csv"]


_PAST_THE_GRID = [[*argv, *by] for argv in _BALL_CMDS for by in ([], ["--by-distance"])]


@pytest.mark.parametrize("argv", _PAST_THE_GRID, ids=[" ".join(argv) for argv in _PAST_THE_GRID])
def test_a_max_distance_past_the_grid_is_refused_before_lags_are_listed(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_field("f.csv", sim_frechet_iid((20, 20), 1))

    def unlisted(*args):
        raise AssertionError("the lag ball was built")

    monkeypatch.setattr(fields, "_lattice_ball", unlisted)
    code, out, err = run(capsys, *argv, "--lags", "100000")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "LagOutOfRange"
    assert sorted(os.listdir(tmp_path)) == ["f.csv"]


_PAST_THE_BALL_BOUND = [
    ["estimate", "--input", "p.csv", "--mode", "kernel", "--bandwidth", "1", "--threshold",
     "q=0.9", "--lags", "100000", "--out", "o.csv"],
    [*_SIMULATE, "--model", "mma", "--dims", "8,8", "--weights", "ball:100000"],
]


@pytest.mark.parametrize("argv", _PAST_THE_BALL_BOUND,
                         ids=[" ".join(argv) for argv in _PAST_THE_BALL_BOUND])
def test_a_ball_past_its_bound_is_refused_before_its_box_is_built(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_field("p.csv", sim_point_field((0, 8, 0, 8), CountRule.fixed(40),
                                         FieldSource.frechet_iid(), seed=1))

    def built(*args, **kwargs):
        raise AssertionError("the ball's box was built")

    monkeypatch.setattr(fields.np, "meshgrid", built)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValueError" and "ball of radius 100000" in payload["message"]
    assert sorted(os.listdir(tmp_path)) == ["p.csv"]


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


@pytest.mark.parametrize("header", [
    '{"dims": 5, "kind": "lattice"}',
    '{"dims": ["a", 2], "kind": "lattice"}',
    '{"intensity_hint": null, "kind": "point", "region": 7}',
    '{"intensity_hint": "x", "kind": "point", "region": [0, 1, 0, 1.5]}',
])
def test_wrong_typed_field_header_is_a_data_error(tmp_path, capsys, header):
    src = tmp_path / "field.csv"
    src.write_text(f"# {header}\nx,y,value\n0,0,1\n0,1,2\n")
    code, out, err = run(capsys, "estimate", "--input", str(src), "--mode", "lattice",
                         "--threshold", "q=0.9", "--lags", "1,0;",
                         "--out", str(tmp_path / "o.csv"))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DataFormatError" and "field.csv: line 1: bad " in payload["message"]


def test_every_failing_exit_prints_one_json_line(tmp_path, capsys):
    cases = [
        (1, "frobnicate", ["frobnicate"]),
        (1, "--workers", ["bands", "--input", "x.csv", "--mode", "lattice",
                          "--threshold", "q=0.9", "--lags", "1,0;", "--seed", "0",
                          "--workers", "2", "--out", "y.csv"]),
        (1, "--phi", ["oracle", "--model", "geometric", "--lags", "1"]),
        (1, "finite and nonnegative", ["oracle", "--model", "mma1", "--lags", "inf"]),
        (1, "finite and nonnegative", ["oracle", "--model", "brown-resnick", "--lags", "-1"]),
        (1, "--m must be finite", ["oracle", "--model", "mma1", "--lags", "1", "--m", "inf"]),
        (1, "planar", ["simulate", "--model", "brown-resnick", "--dims", "4,4,4",
                       "--seed", "0", "--out", str(tmp_path / "x.csv")]),
        (2, "not found", ["estimate", "--input", str(tmp_path / "nope.csv"),
                          "--mode", "lattice", "--threshold", "q=0.9",
                          "--lags", "1,0;", "--out", str(tmp_path / "o.csv")]),
        # kernel flags under lattice mode are refused before the input is read
        (1, "kernel mode only", ["estimate", "--input", str(tmp_path / "nope.csv"),
                                 "--mode", "lattice", "--nu", "known=5", "--threshold",
                                 "q=0.9", "--lags", "1", "--out", str(tmp_path / "o.csv")]),
        (1, "kernel mode only", ["estimate", "--input", str(tmp_path / "nope.csv"),
                                 "--mode", "lattice", "--bandwidth", "1.0", "--threshold",
                                 "q=0.9", "--lags", "1", "--out", str(tmp_path / "o.csv")]),
        (1, "kernel mode only", ["mc", "--model", "mma1", "--dims", "8,8", "--nu", "known=5",
                                 "--reps", "2", "--seed", "0", "--threshold", "q=0.9",
                                 "--lags", "1"]),
    ]
    for expected, needle, argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == expected
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
        assert needle in payload["message"]
