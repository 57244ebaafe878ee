import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bernstein_bounds import cli


@pytest.fixture()
def tri_file(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n1 0\n0 1\n")
    return str(f)


def test_alpha_subcommand(tri_file, capsys):
    assert cli.main(["alpha", tri_file, "0.25", "0.25"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


@pytest.mark.parametrize(
    "raw,needle",
    [(b"not a polygon\n", "line 1"), (b"\xff\xfe0 0\n1 0\n0 1\n", "not UTF-8")],
    ids=["bad-line", "not-utf8"],
)
def test_alpha_parse_failure_is_exit_2(tmp_path, capsys, raw, needle):
    """An undecodable file is a parse failure too, though UnicodeDecodeError is
    a ValueError, which the CLI reports as a domain error."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    assert cli.main(["alpha", str(bad), "0.2", "0.2"]) == 2
    assert needle in capsys.readouterr().err


def test_alpha_non_convex_sliver_is_exit_2(tmp_path, capsys):
    sliver = tmp_path / "sliver.txt"
    sliver.write_text("0 0\n1 0\n1 1e-8\n0.5 8e-9\n0 1e-8\n")
    assert cli.main(["alpha", str(sliver), "0.25", "4e-9"]) == 2
    assert "not in convex CCW order" in capsys.readouterr().err


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


def test_extremal_far_from_and_near_the_simplex(capsys):
    # V = arccosh(2e200) = log(4e200); w * w overflowed and printed inf
    assert cli.main(["extremal", "1e200", "0", "0", "0"]) == 0
    want = math.log(4.0) + 200.0 * math.log(10.0)
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-11)
    # V(x + i t y) = t D(x, y) to first order; w - 1 = O(t^2) underflowed to 0
    assert cli.main(["extremal", "0.3", "1e-200", "0.25", "0"]) == 0
    want = 1e-200 * math.sqrt(1.0 / 0.3 + 1.0 / 0.45)
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-11)


def test_extremal_overflow_is_exit_3(capsys):
    assert cli.main(["extremal", "1e308", "0", "0", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ")


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
        ["extremal", "0.2", "0", "0.3", "inf"],
        ["kernel", "1e308", "1e308", "--dirs", "8"],  # x1 + x2 overflows
        ["extremal", "0.5", "-inf", "0.25", "0"],  # a signed non-finite value is a number
        ["extremal", "0.5", "-Infinity", "0.25", "0"],
        ["kernel", "0.3", "-nan"],
        ["kernel", "0.3", "-NaN", "--dirs", "8"],
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
    table, _ = cli.comparison_sweep(20, 36)
    x1, x2, phi, quotient = table[:, [0, 1, 2, 6]].T
    at_m = (np.abs(x1 - 1 / 3) < 1e-12) & (np.abs(x2 - 1 / 3) < 1e-12)
    assert at_m.any()
    axis = quotient[at_m & (phi == 0.0)]
    diag = quotient[at_m & (np.abs(phi - math.pi / 4.0) < 1e-12)]
    assert len(axis) == len(diag) == 1
    assert axis[0] == pytest.approx(1.0, abs=1e-9)
    assert diag[0] == pytest.approx(2.0 * math.sqrt(3.0) / 3.0, abs=1e-12)


def test_comparison_sweep_rows_and_summary():
    table, summary = cli.comparison_sweep(30, 32)
    assert table.shape == (13920, len(cli.COMPARE_COLUMNS))
    assert summary["min_quotient"] == pytest.approx(1.0, abs=1e-12)
    assert summary["near_equality_count"] == 30


def _reference_csv(table):
    """The CSV formatted one value at a time, as a row class would."""
    lines = [",".join(cli.COMPARE_COLUMNS)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def test_compare_csv_bytes_match_per_value_formatting(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["compare", "--grid", "30", "--dirs", "32", "--out", str(out)]) == 0
    table, summary = cli.comparison_sweep(30, 32)
    assert out.read_bytes() == _reference_csv(table).encode()
    want = f"rows=13920 min_quotient={summary['min_quotient']:.12g} near_equality=30\n"
    assert capsys.readouterr().out == want
    assert cli.main(["compare", "--grid", "5", "--dirs", "8"]) == 0
    assert capsys.readouterr().out.startswith(_reference_csv(cli.comparison_sweep(5, 8)[0]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.0, 1e-3, 0.05, 0.2]),
    st.booleans(),
)
@example(grid=9, dirs=1, margin=1e-3, to_file=False)
@example(grid=5, dirs=8, margin=0.3, to_file=True)  # a single interior point
def test_compare_csv_layout_matches_per_value_formatting(tmp_path, capsys, grid, dirs, margin, to_file):
    """The CSV formats coordinates once per point and phi once per direction, which
    relies on the table's row order; every layout of points and directions must
    give the bytes of formatting each value on its own."""
    try:
        table, summary = cli.comparison_sweep(grid, dirs, margin)
    except ValueError:  # the margin leaves no interior point
        assume(False)
    out = tmp_path / "p.csv"
    argv = ["compare", "--grid", str(grid), "--dirs", str(dirs), "--margin", repr(margin)]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)] if to_file else argv) == 0
    want = _reference_csv(table)
    line = (f"rows={len(table)} min_quotient={summary['min_quotient']:.12g} "
            f"near_equality={summary['near_equality_count']}\n")
    if to_file:
        assert out.read_text() == want
        assert capsys.readouterr().out == line
    else:
        assert capsys.readouterr().out == want + line


def test_cached_parser_runs_like_a_fresh_one(tmp_path, capsys):
    """main builds its parser once per process; a parse failure and later runs
    read the same as when the parser is rebuilt for every call."""
    runs = [
        ["compare", "--grid", "five"],
        ["compare", "--grid", "5", "--dirs", "8", "--out", "c.csv"],
        ["kernel", "0.25", "0.25", "--dirs", "64", "--out", "k.csv"],
    ]

    def run_all(d, fresh):
        d.mkdir()
        cli._build_parser.cache_clear()
        seen = []
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = cli.main([str(d / a) if a.endswith(".csv") else a for a in argv])
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen, {f.name: f.read_bytes() for f in sorted(d.iterdir())}

    cached = run_all(tmp_path / "cached", fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser.cache_info().hits == len(runs) - 1
    assert [code for code, _, _ in cached[0]] == [2, 0, 0]
    assert "invalid int value" in cached[0][0][2]
    assert cached == run_all(tmp_path / "fresh", fresh=True)


def test_compare_json_bytes_match_row_dicts(tmp_path):
    out = tmp_path / "f.json"
    argv = ["compare", "--grid", "20", "--dirs", "36", "--margin", "0.05", "--format", "json"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    table, summary = cli.comparison_sweep(20, 36, 0.05)
    rows = [{c: float(v) for c, v in zip(cli.COMPARE_COLUMNS, row)} for row in table]
    meta = {"grid": 20, "dirs": 36, "margin": 0.05, "summary": summary}
    assert out.read_text() == json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.0, 1e-3, 0.05, 0.2, 0.3]),
)
@example(grid=5, dirs=3, margin=0.3)  # a single interior point
def test_compare_json_layout_matches_json_dumps(tmp_path, grid, dirs, margin):
    """The JSON rows are written by one %r template per row; every layout must
    give the bytes of json.dumps over the row dicts."""
    try:
        table, summary = cli.comparison_sweep(grid, dirs, margin)
    except ValueError:  # the margin leaves no interior point
        assume(False)
    out = tmp_path / "p.json"
    argv = ["compare", "--grid", str(grid), "--dirs", str(dirs), "--margin", repr(margin)]
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    rows = [dict(zip(cli.COMPARE_COLUMNS, row)) for row in table.tolist()]
    meta = {"grid": grid, "dirs": dirs, "margin": margin, "summary": summary}
    assert out.read_text() == json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n"


def _child_env():
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bernstein_bounds.cli", "constants", "--grid", "55"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "2.2882456" in proc.stdout


LEAN_IMPORT = """
import json, sys
import bernstein_bounds, bernstein_bounds.cli
from bernstein_bounds import kernels, polynomials
heavy = ("scipy.optimize", "scipy.integrate")
kernels.cloud_area([1 / 3, 1 / 3])
before_lp = [m for m in sys.modules if m.split(".")[0] == "scipy"]
polynomials.bernstein_szego_1d(3, 0.5, -1.0, 1.0)  # cos(pi/3): the LP search
print(json.dumps([before_lp, [m for m in heavy if m in sys.modules]]))
"""


def test_scipy_loads_only_where_it_runs():
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    before_lp, after_lp = json.loads(proc.stdout.splitlines()[-1])
    assert before_lp == []
    assert after_lp == ["scipy.optimize"]


def test_check_domination_rejects_bad_rows():
    # the two rows the former row class rejected, each after a good row
    inv_E = np.array([3.0, 2.0])
    with pytest.raises(ValueError, match="bound domination violated: quotient 0.5"):
        cli.check_domination(inv_E, np.array([3.0, 2.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="ellipse and pluripotential bounds disagree"):
        cli.check_domination(inv_E, np.array([3.0, 2.5]), np.array([1.0, 2.0]))
    # the thresholds, 1e-9 on the quotient and 1e-12 relative on 1/E - D, to a factor of 2
    cli.check_domination(inv_E, inv_E * (1.0 + 0.5e-12), np.array([1.0, 1.0 - 0.5e-9]))
    with pytest.raises(ValueError, match="domination"):
        cli.check_domination(inv_E, inv_E, np.array([1.0, 1.0 - 2e-9]))
    with pytest.raises(ValueError, match="disagree"):
        cli.check_domination(inv_E, inv_E * (1.0 + 2e-12), np.array([1.0, 1.0]))


def test_constant_sweep_result_enforces_ceilings():
    with pytest.raises(ValueError):
        cli.ConstantSweepResult(sup_ratio_alpha=0.9, sup_ratio_alpha2=1.0)
    with pytest.raises(ValueError):
        cli.ConstantSweepResult(sup_ratio_alpha=0.8, sup_ratio_alpha2=1.2)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--margin", "1"],
        ["compare", "--margin", "nan"],
        ["constants", "--grid", "55", "--margin", "1"],
        ["constants", "--grid", "55", "--margin", "nan"],
        ["compare", "--grid", "5", "--dirs", "4", "--margin", "-0.5"],
        ["compare", "--margin", "-inf"],
        ["constants", "--grid", "55", "--margin", "-INF"],
        ["compare", "--margin", "-nan"],
    ],
)
def test_margin_without_interior_points_is_exit_3(capsys, argv):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: margin ")


def test_negative_exponent_positional_is_a_number(tri_file, capsys):
    assert cli.main(["extremal", "0.5", "-0.001", "0.25", "0"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["extremal", "0.5", "-1e-3", "0.25", "0"]) == 0
    assert capsys.readouterr().out == plain
    # each reaches the code: a point with x2 < 0 is outside, a negative phi is a direction
    assert cli.main(["alpha", tri_file, "0.3", "-1e-3"]) == 3
    assert cli.main(["ellipse", tri_file, "0.3", "0.2", "-1e-3"]) == 0
    assert cli.main(["kernel", "0.3", "-2e-1"]) == 3


def test_interior_grid_respects_margin():
    pts = cli.interior_grid(15, margin=0.05)
    slack = np.minimum(np.minimum(pts[:, 0], pts[:, 1]), 1.0 - pts.sum(axis=1))
    assert np.all(slack > 0.05)
    assert len(pts) > 0
