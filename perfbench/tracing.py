"""Spans around the package's public functions, kept in memory.

A traced phase rebinds each listed module attribute to a wrapper that records
``[name, start, end, parent, op]`` and restores the originals afterwards.
Functions that other modules imported by name are rebound in those modules
too, so ``kernels.clip_halfplane`` and ``geometry.clip_halfplane`` both
report as ``geometry.clip_halfplane``.  Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): every binding through which the package
# reaches a traced function
BINDINGS = (
    ("polynomials", "verify_upper_bound", "polynomials.verify_upper_bound"),
    ("polynomials", "sup_norm_simplex", "polynomials.sup_norm_simplex"),
    ("polynomials", "evaluate", "polynomials.evaluate"),
    ("polynomials", "gradient", "polynomials.gradient"),
    ("polynomials", "chebyshev_transplant", "polynomials.chebyshev_transplant"),
    ("polynomials", "empirical_gradient_cloud", "polynomials.empirical_gradient_cloud"),
    ("polynomials", "bernstein_szego_1d", "polynomials.bernstein_szego_1d"),
    ("polynomials", "linprog", "polynomials.linprog"),
    ("ellipse", "best_ellipse", "ellipse.best_ellipse"),
    ("ellipse", "best_ellipse_all_dirs", "ellipse.best_ellipse_all_dirs"),
    ("ellipse", "containment_violation", "ellipse.containment_violation"),
    ("geometry", "clip_halfplane", "geometry.clip_halfplane"),
    ("ellipse", "clip_halfplane", "geometry.clip_halfplane"),
    ("kernels", "clip_halfplane", "geometry.clip_halfplane"),
    ("geometry", "alpha", "geometry.alpha"),
    ("geometry", "gamma", "geometry.gamma"),
    ("geometry", "chord_balance", "geometry.chord_balance"),
    ("kernels", "kernel_intersect", "kernels.kernel_intersect"),
    ("kernels", "cloud_area", "kernels.cloud_area"),
    ("simplex", "baran_derivative", "simplex.baran_derivative"),
    ("polynomials", "baran_derivative", "simplex.baran_derivative"),
    ("simplex", "ellipse_constant_dir", "simplex.ellipse_constant_dir"),
    ("simplex", "kr_bound_dir", "simplex.kr_bound_dir"),
    ("kernels", "kr_bound_dir", "simplex.kr_bound_dir"),
    ("simplex", "alpha_simplex", "simplex.alpha_simplex"),
    ("cli", "main", "cli.main"),
    ("cli", "comparison_sweep", "cli.comparison_sweep"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BINDINGS))


def _grid_nodes(cert):
    m = cert.grid_resolution
    return (m + 1) * (m + 2) // 2


# counts read off a traced function's result: span name -> (extra, function)
RESULT_COUNTS = {
    "polynomials.sup_norm_simplex": ("grid_nodes", _grid_nodes),
    "ellipse.best_ellipse": ("iterations", lambda report: report.iterations),
    "kernels.kernel_intersect": ("vertices", lambda region: len(region.polygon.vertices)),
    "cli.comparison_sweep": ("rows", lambda result: len(result[0])),
}


class Tracer:
    """Records spans while installed and not paused; one per traced phase."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self.paused = False
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](result)
            return result

        return traced

    def install(self, modules):
        """Rebind every binding; ``modules`` maps short module names to modules."""
        for mod_name, attr, name in BINDINGS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts):
    """calls and self_s per span name, plus the counts and path ratios."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    child_names = defaultdict(set)
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        if parent is not None:
            child_names[parent].add(name)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name, (extra, _) in RESULT_COUNTS.items():
        out[f"{name}.{extra}"] = (counts.get(f"{name}.{extra}", 0), "count")
    szego = [i for i, s in enumerate(spans) if s[0] == "polynomials.bernstein_szego_1d"]
    out["polynomials.bernstein_szego_1d.degenerate_calls"] = (
        sum("polynomials.linprog" in child_names[i] for i in szego),
        "count",
    )
    kernel = [i for i, s in enumerate(spans) if s[0] == "kernels.kernel_intersect"]
    fast = sum("geometry.clip_halfplane" not in child_names[i] for i in kernel)
    # base: kernels.kernel_intersect.calls; 0 when the workload never calls it
    out["kernels.kernel_intersect.fast_path_ratio"] = (
        fast / len(kernel) if kernel else 0.0,
        "fraction",
    )
    return out
