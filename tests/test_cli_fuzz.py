"""Property fuzz over the CLI's argv: every run exits 0, 2, 3 or 4, never with
a traceback, and never prints a non-finite number.

Sizes stay small (grid <= 60, dirs <= 64, trials <= 5, degree <= 9), so no
case allocates a large array; two examples ask for sizes so large that numpy
refuses them before allocating anything.  The floats mix ordinary, huge, tiny
and non-finite values.
"""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstein_bounds import cli

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

# ordinary values, positive extremes, and signed extremes with non-finite
# values; every one of them, "-inf" too, is read as a number
numbers = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
    st.sampled_from(["1e200", "1e308", "1e-200"]),
    st.sampled_from(["0", "-1e-200", "-1e200", "-1e308", "nan", "-nan", "inf", "-inf"]),
)

BODIES = {
    "tri.txt": "0 0\n1 0\n0 1\n",
    "square.txt": "-1 -1\n1 -1\n1 1\n-1 1\n",
    "nan.txt": "nan 0\n1 0\n0 1\n",
    "clockwise.txt": "0 0\n0 1\n1 0\n",
    "garbled.txt": "0 0\nnope\n",
}
# file arguments, resolved inside a scratch directory when a case runs
FILES = {*BODIES, "missing.txt", "out.txt", "no-such-dir/out.txt"}


def option(flag, values):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def command(*parts):
    """One argv: the concatenation of the lists that parts draw."""
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


out_option = option("--out", st.sampled_from(["out.txt", "no-such-dir/out.txt"]))
body = st.sampled_from(sorted(FILES - {"out.txt", "no-such-dir/out.txt"})).map(lambda b: [b])
point = st.lists(numbers, min_size=2, max_size=2)

argvs = st.one_of(
    command(st.just(["alpha"]), body, point),
    command(
        st.just(["compare"]),
        option("--grid", st.integers(-2, 60)),
        option("--dirs", st.integers(-2, 64)),
        option("--margin", numbers),
        option("--format", st.sampled_from(["csv", "json"])),
        out_option,
    ),
    command(
        st.just(["constants"]),
        st.integers(-2, 60).map(lambda g: ["--grid", str(g)]),  # the default grid is 200
        option("--margin", numbers),
    ),
    command(
        st.just(["kernel"]),
        point,
        option("--source", st.sampled_from(["kr", "baran"])),
        st.integers(-2, 64).map(lambda d: ["--dirs", str(d)]),  # the default is 2048
        option("--format", st.sampled_from(["csv", "svg"])),
        out_option,
    ),
    command(
        st.just(["verify"]),
        option("--degree", st.integers(0, 9)),
        st.integers(-1, 5).map(lambda n: ["--trials", str(n)]),  # the default is 1000
        option("--seed", st.integers(-2, 100)),
        out_option,
    ),
    command(
        st.just(["extremal"]),
        st.sampled_from([["--"], []]),  # "--" ends the options: the same numbers follow
        st.lists(point, min_size=1, max_size=3).map(lambda pairs: sum(pairs, [])),  # re im pairs
        st.lists(numbers, max_size=1),  # sometimes an odd count
    ),
    command(st.just(["ellipse"]), body, point, numbers.map(lambda phi: [phi])),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in BODIES.items():
        (d / name).write_text(text)
    return d


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_fuzz_strategy_reaches_every_subcommand():
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(argvs)
    def collect(argv):
        seen.add(argv[0])

    collect()
    assert seen == {"alpha", "compare", "constants", "kernel", "verify", "extremal", "ellipse"}


@settings(max_examples=200, deadline=None)
@given(argv=argvs)
@example(argv=["extremal", "1e200", "0", "0", "0"])  # w * w overflowed: printed inf
@example(argv=["extremal", "1e308", "0", "0", "0"])  # w itself is not finite
@example(argv=["extremal", "0.5", "-1e-3", "0.25", "0"])  # a signed exponent is a number
@example(argv=["alpha", "tri.txt", "0.3", "-1e-3"])
@example(argv=["ellipse", "tri.txt", "0.3", "0.2", "-1e-3"])
@example(argv=["kernel", "0.3", "-2e-1"])
@example(argv=["compare", "--margin", "nan"])  # no interior point: the margin is named
@example(argv=["constants", "--grid", "55", "--margin", "1"])
@example(argv=["compare", "--grid", "5", "--dirs", "4", "--margin", "-0.5"])
@example(argv=["extremal", "0.5", "-inf", "0.25", "0"])  # -inf and -nan are numbers
@example(argv=["compare", "--margin", "-inf"])
@example(argv=["kernel", "0.3", "-nan"])
@example(argv=["compare", "--grid", "10000000"])  # numpy refuses the 728 TiB grid at once
@example(argv=["kernel", "0.3", "0.3", "--dirs", "10000000000000"])  # and a 72.8 TiB table
def test_argv_fuzz_exits_cleanly(scratch, argv):
    code, out, err = run([str(scratch / a) if a in FILES else a for a in argv])
    assert code in {0, 2, 3, 4}, (code, err)
    assert "Traceback" not in err
    assert not NON_FINITE.search(out), out
