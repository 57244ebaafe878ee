"""The README's library tour runs as written and prints what its comments say,
and every line of its command-line block exits 0."""

import ast
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bernstein_bounds import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs_as_written():
    block = _tour()
    lines = block.splitlines()
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
        # a comment "# 23.137166941", "# 1.0, 0.5" for an array, or "# name == 0.40824829..."
        # states the values to their digits
        said = re.search(r"#\s*(?:([\w.]+) == )?(\d+\.\d+(?:, \d+\.\d+)*)", lines[stmt.end_lineno - 1])
        if said:
            got = np.atleast_1d(eval(said[1], namespace) if said[1] else values[code])
            want = said[2].split(", ")
            assert len(got) == len(want), code
            assert [f"{g:.{len(w.split('.')[1])}f}" for g, w in zip(got, want)] == want, code
    assert namespace["report"].best_b == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)
    assert values["ellipse.best_ellipse_all_dirs(tri, x)"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert values["kernels.kernel_intersect(table).area"] == pytest.approx(18.0, rel=1e-12)
    assert values["kernels.cloud_area(x)"] == pytest.approx(9.0 + 4.5 * math.pi, rel=1e-12)
    assert values["kernels.kernel_ellipse_closed_form(x).area"] == pytest.approx(
        math.pi * math.sqrt(27.0), rel=1e-12
    )


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(argvs) == 7 and all(a[0] == "bernstein-bounds" for a in argvs)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.txt").write_text("0 0\n1 0\n0 1\n")  # the triangle the README names
    for argv in argvs:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
