#!/usr/bin/env python3
"""Benchmark of bernstein_bounds: four oracle-checked workloads, one closed-loop client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The timed phase runs whole cycles of seeded ops until their summed
latency reaches ``--seconds``, checks every answer against an independent
oracle, and prints the end-to-end metrics (``--trace 0``) or, from a second,
traced phase, the per-layer metrics (``--trace 1``).  The last stdout line is
one JSON object; the environment, the per-op answers and the spans are
written under ``perfbench/out/``.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# one closed-loop client on a shared machine: single-threaded BLAS keeps
# runs steady, and it never exceeds nproc
PINNED_THREADS = 1
SETUP_PROBES = 2  # fresh processes besides this one; setup_s is the median of all
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("verify", "ellipse", "kernel", "interval")


def set_up(workload, seed):
    """Import the package, generate the inputs and warm up one op per kind, timing each."""
    if not os.path.isfile(os.path.join(SRC, "bernstein_bounds", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import bernstein_bounds
    import bernstein_bounds.cli  # noqa: F401  (the kernel workload's CLI op)

    t1 = time.perf_counter()
    if not os.path.abspath(bernstein_bounds.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported bernstein_bounds from {bernstein_bounds.__file__}")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    warm, pool = workloads.generate(workload, seed, OUT)
    t2 = time.perf_counter()
    spec = workloads.WORKLOADS[workload]
    for kind, inp in warm:
        spec.kinds[kind].call(inp)
    t3 = time.perf_counter()
    from calibrate import REF_S, snippet_s

    times = {"import_s": t1 - t0, "generate_s": t2 - t1, "warmup_s": t3 - t2, "setup_s": t3 - t0,
             "snippet_s": snippet_s()}
    times["setup_ref_s"] = times["setup_s"] * REF_S / times["snippet_s"]
    return spec, pool, times


def run_phase(workload, pool, seconds, tracer=None):
    """Closed loop over whole cycles until the summed op latency reaches ``seconds``.

    Between ops, at most every ``calibrate.INTERVAL_S``, the calibration
    snippet is timed; each op's latency is also given at the reference speed.

    Oracle checks run between ops, outside the timed calls and with tracing
    paused.  ``digits`` covers the workload's first ``digit_cycles`` cycles,
    so it depends on the seed and not on how many cycles a run fits in.
    """
    from calibrate import INTERVAL_S, REF_S, op_snippet_s, snippet_s
    from stats import digits

    kinds = workload.kinds
    lat, kinds_run, op_cycle, op_cal, answers, failures = [], [], [], [], [], []
    digits_min = None
    busy = 0.0
    deadline = time.perf_counter() + 4 * seconds + 30  # guard: stop mid-cycle
    gc.collect()
    cal = [(time.perf_counter(), snippet_s())]
    cycle = whole = 0
    while busy < seconds and time.perf_counter() < deadline:
        for pos, (kind, inp) in enumerate(pool[cycle % len(pool)]):
            k = kinds[kind]
            if time.perf_counter() - cal[-1][0] >= INTERVAL_S:
                cal.append((time.perf_counter(), snippet_s()))
            op_cal.append(len(cal) - 1)
            op_cycle.append(cycle)
            if tracer is not None:
                tracer.op = len(lat)
                tracer.paused = False
            t0 = time.perf_counter()
            try:
                result = k.call(inp)
                err = None
            except Exception:
                result, err = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.paused = True
            lat.append(dt)
            kinds_run.append(kind)
            busy += dt
            if err is None:
                try:
                    ok, rel_err = k.check(inp, result)
                except Exception:
                    ok, rel_err, err = False, None, traceback.format_exc(limit=3)
            else:
                ok, rel_err = False, None
            if not ok:
                if err is None:
                    err = f"answer {k.answer(result)!r} fails its oracle"
                failures.append({"cycle": cycle, "pos": pos, "kind": kind, "error": err})
            elif rel_err is not None and cycle < workload.digit_cycles:
                d = digits(rel_err)
                digits_min = d if digits_min is None else min(digits_min, d)
            if ok and cycle < len(pool):
                answers.append([cycle, pos, kind, k.answer(result), k.tol])
            if time.perf_counter() >= deadline:
                break
        else:
            whole += 1
        cycle += 1
    cal.append((time.perf_counter(), snippet_s()))
    cal_s = [c for _, c in cal]
    ref = [t * REF_S / op_snippet_s(cal_s, i) for t, i in zip(lat, op_cal)]
    cycle_ref_s = [0.0] * whole
    for c, t in zip(op_cycle, ref):
        if c < whole:
            cycle_ref_s[c] += t
    return {
        "latencies": lat, "ref_latencies": ref, "kinds": kinds_run, "cycle_ref_s": cycle_ref_s,
        "snippet_s": cal_s, "ops_per_cycle": len(pool[0]), "answers": answers,
        "failures": failures, "digits_min": digits_min,
    }


def probe_setup(workload, seed):
    """Setup time of a fresh process, as a CLI user pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one closed-loop client, one process",
    }


def rate(phase):
    """Ops in a cycle over the median reference-speed time of the whole cycles run."""
    if not phase["cycle_ref_s"]:  # stopped by the guard inside the first cycle
        return len(phase["ref_latencies"]) / sum(phase["ref_latencies"])
    return phase["ops_per_cycle"] / statistics.median(phase["cycle_ref_s"])


def end_to_end(phase, setups):
    from stats import latency_summary

    lat = latency_summary(phase["ref_latencies"])
    n = len(phase["latencies"])
    return {
        "throughput_ops_s": (rate(phase), "ops/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_frac": ((n - len(phase["failures"])) / n, "fraction"),
        # no equality-checked op passed: no digit is confirmed
        "oracle_digits_min": (phase["digits_min"] or 0.0, "digits"),
    }, lat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    for v in THREAD_VARS:
        os.environ[v] = str(PINNED_THREADS)

    try:
        return measure(args)
    finally:
        if "workloads" in sys.modules:
            with contextlib.suppress(FileNotFoundError):
                os.remove(sys.modules["workloads"].compare_csv(OUT))


def measure(args):
    spec, pool, setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    # the input pool is the benchmark's, not the program's: keep it out of
    # the collector's full passes, which would otherwise slow allocating ops
    gc.collect()
    gc.freeze()
    from calibrate import REF_S
    from stats import latency_summary

    env = environment(args)
    print("env " + json.dumps(env))
    record = {"env": env, "setup": [setup]}
    if args.trace == 0:
        phase = run_phase(spec, pool, args.seconds)
        record["setup"] += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics, lat = end_to_end(phase, record["setup"])
        raw = latency_summary(phase["latencies"])
        speed = REF_S / statistics.median(phase["snippet_s"])
        print(f"ops {lat['n']} in {len(phase['cycle_ref_s'])} whole cycles; tail is "
              f"p{lat['tail_percentile']:g}; machine speed {speed:.3f} x reference; raw "
              f"p50 {raw['p50_ms']:.6g} ms, tail {raw['tail_ms']:.6g} ms, "
              f"{lat['n'] / sum(phase['latencies']):.6g} ops/s")
        phases = [phase]
    else:
        import tracing
        from bernstein_bounds import cli, ellipse, geometry, kernels, polynomials, simplex

        plain = run_phase(spec, pool, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install({"polynomials": polynomials, "ellipse": ellipse, "geometry": geometry,
                        "kernels": kernels, "simplex": simplex, "cli": cli})
        try:
            traced = run_phase(spec, pool, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.warmup_s"] = (setup["warmup_s"], "s")
        metrics["trace.overhead_frac"] = (1.0 - rate(traced) / rate(plain), "fraction")
        names = list(tracing.SPAN_NAMES)
        index = {name: i for i, name in enumerate(names)}
        spans = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans]
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names,
                       "spans": spans}, fh)
        phases = [plain, traced]

    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    for f in failures[:10]:
        print(f"FAILED {f['kind']} (cycle {f['cycle']}, op {f['pos']}): {f['error']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:.6g} {unit}")
    record.update(metrics={k: v for k, (v, _) in metrics.items()}, answers=phases[0]["answers"],
                  latency_s=list(zip(phases[0]["kinds"], phases[0]["latencies"])),
                  snippet_s=phases[0]["snippet_s"], failures=failures)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
