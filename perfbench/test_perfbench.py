"""Tests of the benchmark itself: tail selection, self time, oracles, seeding.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import diff  # noqa: E402
import oracles as orc  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bernstein_bounds import cli, ellipse, geometry, kernels, polynomials, simplex  # noqa: E402

MODULES = {"polynomials": polynomials, "ellipse": ellipse, "geometry": geometry,
           "kernels": kernels, "simplex": simplex, "cli": cli}


# ---- latency_tail_ms --------------------------------------------------------


@pytest.mark.parametrize(
    "n,p",
    [(19, 100.0), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (1999, 99.0), (2000, 99.5), (10_000, 99.9),
     (20_000, 99.95), (100_000, 99.99), (1_000_000, 99.999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p
    if p < 100.0:
        assert n * (100.0 - p) / 100.0 >= 10.0 - 1e-9


def test_latency_summary_reads_the_selected_percentile():
    lat_s = np.arange(1, 1001) / 1e3  # 1 .. 1000 ms
    s = stats.latency_summary(lat_s)
    assert s["n"] == 1000 and s["tail_percentile"] == 99.0
    assert s["tail_ms"] == pytest.approx(np.percentile(np.arange(1, 1001), 99.0))
    assert s["p50_ms"] == pytest.approx(500.5)


def test_digits_caps_at_fifteen():
    assert stats.digits(0.0) == 15.0
    assert stats.digits(1e-20) == 15.0
    assert stats.digits(1e-6) == pytest.approx(6.0)


def test_op_snippet_smooths_over_the_neighbouring_samples():
    samples = [3.0, 4.0, 5.0, 2.0, 6.0]
    assert calibrate.op_snippet_s(samples, 0) == 4.0  # samples 0..2
    assert calibrate.op_snippet_s(samples, 2) == 4.5  # samples 1..4
    assert calibrate.op_snippet_s(samples, 4) == 4.0  # samples 3..4


# ---- self time ----------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping: union 3) and
    # [6, 7]; the first child has a grandchild [1.5, 2.5]
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 3.0, 0, 0],
        ["c", 2.0, 4.0, 0, 0],
        ["d", 6.0, 7.0, 0, 0],
        ["e", 1.5, 2.5, 1, 0],
        ["a", 20.0, 21.0, None, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 1.0, 1.0])


def test_layer_metrics_count_paths_and_self_time():
    spans = [
        ["kernels.kernel_intersect", 0.0, 5.0, None, 0],
        ["geometry.clip_halfplane", 1.0, 2.0, 0, 0],
        ["kernels.kernel_intersect", 6.0, 7.0, None, 1],
        ["polynomials.bernstein_szego_1d", 8.0, 9.0, None, 2],
        ["polynomials.bernstein_szego_1d", 10.0, 20.0, None, 3],
        ["polynomials.linprog", 11.0, 15.0, 4, 3],
    ]
    m = tracing.layer_metrics(spans, {})
    assert m["kernels.kernel_intersect.calls"] == (2, "count")
    assert m["kernels.kernel_intersect.self_s"][0] == pytest.approx(5.0)
    assert m["kernels.kernel_intersect.fast_path_ratio"] == (0.5, "fraction")
    assert m["polynomials.bernstein_szego_1d.degenerate_calls"] == (1, "count")
    assert m["polynomials.bernstein_szego_1d.self_s"][0] == pytest.approx(7.0)
    assert m["ellipse.best_ellipse.calls"] == (0, "count")


def test_tracer_nests_spans_and_restores_the_package():
    before = {(m, a): getattr(MODULES[m], a) for m, a, _ in tracing.BINDINGS}
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        polynomials.verify_upper_bound(2, 3, 0)
    finally:
        tracer.uninstall()
    assert {(m, a): getattr(MODULES[m], a) for m, a, _ in tracing.BINDINGS} == before
    names = [s[0] for s in tracer.spans]
    assert names.count("polynomials.verify_upper_bound") == 1
    assert names.count("polynomials.sup_norm_simplex") == 3
    assert names.count("simplex.baran_derivative") == 3  # through the copy in polynomials
    assert all(s[3] == 0 for s in tracer.spans[1:])
    m = 64  # max(64, 8 n^2) grid lines per side at degree 2
    assert tracer.counts["polynomials.sup_norm_simplex.grid_nodes"] == 3 * (m + 1) * (m + 2) // 2


# ---- oracles reject perturbed answers -------------------------------------------


def first_of_kind(name, kind, seed=7):
    _, pool = workloads.generate(name, seed, str(HERE / "out"))
    return next(inp for k, inp in pool[0] if k == kind)


def call(name, kind, inp):
    return workloads.WORKLOADS[name].kinds[kind].call(inp)


def region(area, n_vertices):
    return types.SimpleNamespace(area=area, polygon=types.SimpleNamespace(vertices=np.zeros((n_vertices, 2))))


def test_verify_oracles_reject_perturbed_answers():
    inp = first_of_kind("verify", "verify_upper_bound")
    rep = call("verify", "verify_upper_bound", inp)
    assert orc.check_verify(inp, rep)[0]
    assert not orc.check_verify(inp, dict(rep, max_quotient=1.0 + 2e-3))[0]
    assert not orc.check_verify(inp, dict(rep, violations=[{"trial": 0}]))[0]

    inp = first_of_kind("verify", "gradient_cloud")
    samples = call("verify", "gradient_cloud", inp)
    assert orc.check_cloud(inp, samples)[0]
    F = orc.kernel_form(inp["x"])
    worst = max(samples, key=lambda s: s.vector @ F @ s.vector)
    scale = (1.0 + 2e-3) / math.sqrt(worst.vector @ F @ worst.vector)
    bad = samples + [polynomials.GradientSample(x=inp["x"], vector=worst.vector * scale)]
    assert not orc.check_cloud(inp, bad)[0]

    inp = first_of_kind("verify", "transplant_sup_norm")
    cert = call("verify", "transplant_sup_norm", inp)
    assert orc.check_transplant_norm(inp, cert)[0]
    assert not orc.check_transplant_norm(inp, dataclasses.replace(cert, value=1.0 - 1e-6))[0]


def test_ellipse_oracles_reject_perturbed_answers():
    inp = first_of_kind("ellipse", "best_ellipse_triangle")
    rep = call("ellipse", "best_ellipse_triangle", inp)
    ok, err = orc.check_best_ellipse_triangle(inp, rep)
    assert ok and err < 1e-7
    for factor in (1.0 + 1e-5, 1.0 - 1e-5):
        assert not orc.check_best_ellipse_triangle(inp, dataclasses.replace(rep, best_b=rep.best_b * factor))[0]

    inp = first_of_kind("ellipse", "best_ellipse_polygon")
    rep = call("ellipse", "best_ellipse_polygon", inp)
    assert orc.check_best_ellipse_polygon(inp, rep)[0]
    bigger = dataclasses.replace(rep.witness, b=rep.best_b * 1.01)
    assert not orc.check_best_ellipse_polygon(inp, dataclasses.replace(rep, witness=bigger))[0]
    ceiling = min(orc.triangle_bounds(inp["K"].vertices, inp["x"], inp["y"] / np.linalg.norm(inp["y"])))
    assert not orc.check_best_ellipse_polygon(inp, dataclasses.replace(rep, best_b=ceiling * 1.001))[0]

    inp = first_of_kind("ellipse", "alpha_triangle")
    value = call("ellipse", "alpha_triangle", inp)
    assert orc.check_alpha_triangle(inp, value)[0]
    assert not orc.check_alpha_triangle(inp, value + 1e-6)[0]

    inp = first_of_kind("ellipse", "best_ellipse_all_dirs")
    value = call("ellipse", "best_ellipse_all_dirs", inp)
    assert orc.check_all_dirs(inp, value)[0]
    assert not orc.check_all_dirs(inp, value * (1.0 + 1e-5))[0]


def test_all_dirs_oracle_is_the_minimum_over_directions():
    inp = first_of_kind("ellipse", "best_ellipse_all_dirs")
    phis = np.linspace(0.0, math.pi, 20_001)
    y0 = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    vals = [np.linalg.norm(inp["A"] @ y) * orc.ellipse_constant(inp["x0"], y) for y in y0]
    assert orc.all_dirs_exact(inp) == pytest.approx(min(vals), rel=1e-7)


def test_kernel_oracles_reject_perturbed_answers(tmp_path):
    inp = first_of_kind("kernel", "kernel_baran")
    reg = call("kernel", "kernel_baran", inp)
    assert orc.check_kernel_baran(inp, reg)[0]
    assert not orc.check_kernel_baran(inp, region(reg.area * (1.0 + 1e-6), 2 * inp["dirs"]))[0]
    assert not orc.check_kernel_baran(inp, region(reg.area, 2 * inp["dirs"] - 2))[0]

    inp = first_of_kind("kernel", "kernel_kr")
    reg = call("kernel", "kernel_kr", inp)
    assert orc.check_kernel_kr(inp, reg)[0]
    assert not orc.check_kernel_kr(inp, region(reg.area * (1.0 + 1e-6), 6))[0]
    assert not orc.check_kernel_kr(inp, region(reg.area, 8))[0]

    inp = first_of_kind("kernel", "kernel_perturbed")
    reg = call("kernel", "kernel_perturbed", inp)
    assert orc.check_kernel_perturbed(inp, reg)[0]
    a0 = orc.kr_area(inp["x"])
    assert not orc.check_kernel_perturbed(inp, region(a0 * (1.0 - 1e-6), 6))[0]
    assert not orc.check_kernel_perturbed(inp, region(a0 * (1.0 + inp["eps"]) ** 2 * 1.001, 6))[0]

    inp = first_of_kind("kernel", "cloud_area")
    value = call("kernel", "cloud_area", inp)
    assert orc.check_cloud_area(inp, value)[0]
    assert not orc.check_cloud_area(inp, value * (1.0 + 1e-9))[0]

    inp = dict(first_of_kind("kernel", "cli_compare"))
    inp["out"] = str(tmp_path / "rows.csv")
    inp["argv"] = inp["argv"][:-1] + [inp["out"]]
    assert orc.check_compare(inp, call("kernel", "cli_compare", inp))[0]
    assert not orc.check_compare(inp, 3)[0]
    lines = Path(inp["out"]).read_text().splitlines()
    Path(inp["out"]).write_text("\n".join(lines[:-1]) + "\n")
    assert not orc.check_compare(inp, 0)[0]
    head, first, *rest = lines
    f = first.split(",")
    f[6] = "0.999"
    Path(inp["out"]).write_text("\n".join([head, ",".join(f), *rest]) + "\n")
    assert not orc.check_compare(inp, 0)[0]


def test_interval_oracles_reject_perturbed_answers():
    inp = first_of_kind("interval", "szego_generic")
    ratio, bound = call("interval", "szego_generic", inp)
    assert orc.check_szego_generic(inp, (ratio, bound))[0]
    assert not orc.check_szego_generic(inp, (ratio * (1.0 - 1e-9), bound))[0]
    assert not orc.check_szego_generic(inp, (ratio, bound * (1.0 + 1e-9)))[0]

    # the degenerate check on a recorded answer: LP search takes seconds
    inp = {"n": 2, "x": 0.0, "a": -1.0, "b": 1.0}
    bound = orc.szego_bound(inp)
    assert orc.check_szego_degenerate(inp, (bound - 1e-5, bound))[0]
    assert not orc.check_szego_degenerate(inp, (bound + 1e-8, bound))[0]
    assert not orc.check_szego_degenerate(inp, (bound - 2e-3, bound))[0]


# ---- seeding --------------------------------------------------------------------


def canon(obj):
    """Inputs as plain, comparable values."""
    if isinstance(obj, dict):
        return {k: canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, geometry.ConvexPolygon):
        return obj.vertices.tolist()
    if isinstance(obj, kernels.DirectionalBoundTable):
        return [obj.thetas.tolist(), obj.r.tolist()]
    if isinstance(obj, polynomials.TotalDegreePolynomial):
        return [obj.degree, obj.coeffs.tolist()]
    assert isinstance(obj, (int, float, str)), type(obj)
    return obj


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_generates_identical_inputs(name):
    out = str(HERE / "out")
    a = canon(workloads.generate(name, 11, out))
    assert a == canon(workloads.generate(name, 11, out))
    assert a != canon(workloads.generate(name, 12, out))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_cycle_has_the_same_mix_of_op_sizes(name):
    _, pool = workloads.generate(name, 3, str(HERE / "out"))

    def sizes(cycle):
        keys = ("d", "T", "degree", "n", "m", "dirs", "grid")
        return sorted(json.dumps([k, {f: i[f] for f in keys if f in i}]) for k, i in cycle)

    assert all(sizes(c) == sizes(pool[0]) for c in pool)
    if name != "interval":
        assert len(pool[0]) % 2 == 1


def test_fingerprint_diff_flags_answers_beyond_tolerance():
    env = {"workload": "verify", "seed": 1}
    before = {"env": env, "answers": [[0, 0, "transplant_sup_norm", 1.0, 1e-9],
                                      [0, 1, "verify_upper_bound", 0.5, 1e-9]]}
    after = {"env": env, "answers": [[0, 0, "transplant_sup_norm", 1.0 + 1e-12, 1e-9],
                                     [0, 1, "verify_upper_bound", 0.5 * (1.0 + 1e-6), 1e-9],
                                     [1, 0, "verify_upper_bound", 0.7, 1e-9]]}
    assert diff.differences(before, before) == (2, [])
    assert diff.differences(before, after) == (2, [(0, 1, "verify_upper_bound", 0.5, 0.5 * (1.0 + 1e-6))])


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
