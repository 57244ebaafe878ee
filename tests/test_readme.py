"""The README's library tour runs as written and prints what its comments say."""

import ast
import math
import re
from pathlib import Path

import pytest

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
        # a comment "# 23.137166941" or "# name == 0.40824829..." states a value to its digits
        said = re.search(r"#\s*(?:([\w.]+) == )?(\d+\.(\d+))", lines[stmt.end_lineno - 1])
        if said:
            got = eval(said[1], namespace) if said[1] else values[code]
            assert f"{got:.{len(said[3])}f}" == said[2], code
    assert namespace["report"].best_b == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)
    assert values["ellipse.best_ellipse_all_dirs(tri, x)"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert values["kernels.kernel_intersect(table).area"] == pytest.approx(18.0, rel=1e-12)
    assert values["kernels.cloud_area(x)"] == pytest.approx(9.0 + 4.5 * math.pi, rel=1e-12)
    assert values["kernels.kernel_ellipse_closed_form(x).area"] == pytest.approx(
        math.pi * math.sqrt(27.0), rel=1e-12
    )
