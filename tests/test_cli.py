import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernstein_bounds import cli


@pytest.fixture()
def tri_file(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    return str(f)


def test_alpha_subcommand(tri_file, capsys):
    assert cli.main(["alpha", tri_file, "0.25", "0.25"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_alpha_parse_failure_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a polygon\n")
    assert cli.main(["alpha", str(bad), "0.2", "0.2"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_alpha_outside_point_is_exit_3(tri_file, capsys):
    assert cli.main(["alpha", tri_file, "0.9", "0.9"]) == 3
    assert "domain error" in capsys.readouterr().err


def test_missing_body_file_is_exit_4(tmp_path, capsys):
    assert cli.main(["alpha", str(tmp_path / "nope.txt"), "0.2", "0.2"]) == 4
    assert "io error" in capsys.readouterr().err


def test_unwritable_output_is_exit_4(capsys):
    rc = cli.main(["verify", "--degree", "1", "--trials", "5", "--seed", "1",
                   "--out", "/nonexistent-dir/report.json"])
    assert rc == 4


def test_compare_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["compare", "--grid", "8", "--dirs", "12", "--out", str(out1)]) == 0
    assert cli.main(["compare", "--grid", "8", "--dirs", "12", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "x1,x2,phi,inv_E,kr,baran,quotient"
    row = lines[1].split(",")
    assert len(row) == 7
    # values are %.12g formatted (round-trip stable)
    for tok in row:
        assert f"{float(tok):.12g}" == tok
    summary = capsys.readouterr().out
    assert "min_quotient" in summary


def test_compare_json_payload(tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["compare", "--grid", "6", "--dirs", "8", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["summary"]["min_quotient"] >= 1.0 - 1e-9
    assert len(payload["rows"]) > 0
    first = payload["rows"][0]
    assert set(first) == {"x1", "x2", "phi", "inv_E", "kr", "baran", "quotient"}


def test_compare_writes_stdout_without_out(capsys):
    assert cli.main(["compare", "--grid", "5", "--dirs", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x1,x2,phi")


def test_constants_echo(capsys):
    assert cli.main(["constants", "--grid", "60"]) == 0
    out = capsys.readouterr().out
    assert "2.2882456" in out
    assert "2.8284271" in out
    assert "1.7320508" in out
    assert "ceiling" in out


def test_kernel_kr_csv(tmp_path, capsys):
    out = tmp_path / "hex.csv"
    rc = cli.main(["kernel", "0.333333333333", "0.333333333333",
                   "--dirs", "256", "--out", str(out), "--format", "csv"])
    assert rc == 0
    assert "area = 18" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == 7  # six hexagon vertices


def test_kernel_baran_svg(tmp_path, capsys):
    out = tmp_path / "kern.svg"
    rc = cli.main(["kernel", "0.333333333333", "0.333333333333", "--source", "baran",
                   "--dirs", "512", "--out", str(out), "--format", "svg"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "closed_form_area" in text
    assert "area_discrepancy" in text
    disc = float(text.split("area_discrepancy = ")[1].split("\n")[0])
    assert disc < 1e-3
    svg = out.read_text()
    assert svg.count("<path") == 2


def test_kernel_outside_point_is_exit_3(capsys):
    assert cli.main(["kernel", "0.8", "0.8"]) == 3


def test_verify_deterministic_json(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    for out in (out1, out2):
        assert cli.main(["verify", "--degree", "2", "--trials", "40", "--seed", "5",
                        "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["violations"] == []
    assert rep["max_quotient"] < 1.0 + 1e-3
    assert rep["slack"] == pytest.approx(1e-3)


def test_extremal_values(capsys):
    assert cli.main(["extremal", "0.5", "0", "1.5", "0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.7627471740390861, rel=1e-11)
    assert cli.main(["extremal", "0.2", "0", "0.3", "0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-12)


def test_extremal_odd_arity_is_exit_3(capsys):
    assert cli.main(["extremal", "0.5", "0", "1.5"]) == 3


def test_ellipse_subcommand(tri_file, capsys):
    rc = cli.main(["ellipse", tri_file, "0.1", "0.1", str(math.pi / 4)])
    assert rc == 0
    val = float(capsys.readouterr().out)
    assert val == pytest.approx(0.2828427, abs=1e-5)


@pytest.mark.parametrize(
    "argv",
    [
        ["ellipse", "nan", "0.25", "0"],
        ["ellipse", "0.3", "0.25", "nan"],
        ["alpha", "nan", "0.2"],
    ],
)
def test_non_finite_input_is_exit_3(tri_file, capsys, argv):
    assert cli.main([argv[0], tri_file, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "nan", "0", "0", "0"],
        ["extremal", "0.2", "0", "inf", "0"],
        ["kernel", "nan", "0.25", "--dirs", "8"],
    ],
)
def test_non_finite_point_is_exit_3(capsys, argv):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ")


@pytest.mark.parametrize("vertex", ["nan 0", "0 inf"])
def test_non_finite_vertex_is_exit_3(tmp_path, capsys, vertex):
    body = tmp_path / "bad.txt"
    body.write_text(f"{vertex}\n1 0\n0 1\n")
    assert cli.main(["alpha", str(body), "0.2", "0.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "0.3", "0.25", "--dirs", "0"],
        ["compare", "--grid", "4", "--dirs", "0"],
        ["compare", "--grid", "4", "--dirs", "-3"],
    ],
)
def test_non_positive_dirs_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--dirs: must be a positive integer" in capsys.readouterr().err


def test_ellipse_centroid_axis_value(tri_file, capsys):
    rc = cli.main(["ellipse", tri_file, "0.333333333333", "0.333333333333", "0"])
    assert rc == 0
    val = float(capsys.readouterr().out)
    assert val == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-5)


def test_kernel_quarter_point_area(tmp_path):
    out = tmp_path / "q.csv"
    rc = cli.main(["kernel", "0.25", "0.25", "--source", "baran",
                   "--dirs", "512", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    area = 0.5 * abs(np.sum(rows[:, 0] * np.roll(rows[:, 1], -1)
                            - np.roll(rows[:, 0], -1) * rows[:, 1]))
    assert area == pytest.approx(4.0 * math.pi * math.sqrt(2.0), rel=1e-3)


def test_compare_quotients_at_centroid():
    rows, _ = cli.comparison_sweep(20, 36)
    at_m = [r for r in rows if abs(r.x1 - 1 / 3) < 1e-12 and abs(r.x2 - 1 / 3) < 1e-12]
    assert at_m
    axis = next(r for r in at_m if r.phi == 0.0)
    diag = next(r for r in at_m if abs(r.phi - math.pi / 4.0) < 1e-12)
    assert axis.quotient == pytest.approx(1.0, abs=1e-9)
    assert diag.quotient == pytest.approx(2.0 * math.sqrt(3.0) / 3.0, abs=1e-12)


def test_console_entry_point_runs():
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bernstein_bounds.cli", "constants", "--grid", "55"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "2.2882456" in proc.stdout


def test_comparison_row_enforces_domination():
    with pytest.raises(ValueError):
        cli.ComparisonRow(x1=0.3, x2=0.3, phi=0.0, inv_E=2.0, kr=1.0, baran=2.0, quotient=0.5)
    with pytest.raises(ValueError):
        cli.ComparisonRow(x1=0.3, x2=0.3, phi=0.0, inv_E=2.0, kr=4.0, baran=2.5, quotient=2.0)


def test_constant_sweep_result_enforces_ceilings():
    with pytest.raises(ValueError):
        cli.ConstantSweepResult(sup_ratio_alpha=0.9, sup_ratio_alpha2=1.0, grid_resolution=60)
    with pytest.raises(ValueError):
        cli.ConstantSweepResult(sup_ratio_alpha=0.8, sup_ratio_alpha2=1.2, grid_resolution=60)


def test_interior_grid_respects_margin():
    pts = cli.interior_grid(15, margin=0.05)
    slack = np.minimum(np.minimum(pts[:, 0], pts[:, 1]), 1.0 - pts.sum(axis=1))
    assert np.all(slack > 0.05)
    assert len(pts) > 0
