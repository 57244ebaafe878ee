"""The package exports only what it runs: every function or class in
``bernstein_bounds.__all__`` is used by another package module, a demo or the
README's library tour.  Second routes that only the tests use live in
``tests/routes.py``."""

import ast
import inspect
from pathlib import Path

import bernstein_bounds
from test_readme import _tour

ROOT = Path(__file__).resolve().parents[1]


def _used_names(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    package = Path(bernstein_bounds.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    sources.append(_tour())
    used = set().union(*map(_used_names, sources))
    exported = [
        name for name in bernstein_bounds.__all__
        if inspect.isfunction(getattr(bernstein_bounds, name)) or inspect.isclass(getattr(bernstein_bounds, name))
    ]
    assert len(exported) > 30
    assert sorted(set(exported) - used) == []
